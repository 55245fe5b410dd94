"""Small shared helpers: seed derivation, atomic file writes, config parsing, model checks."""

from __future__ import annotations

import hashlib
import os
import tempfile

from .errors import ParseError, ValidationError


def derive_seed(*parts: object) -> int:
    """Derive a stable 64-bit seed from arbitrary parts.

    The same parts always give the same seed on any platform or process, so
    everything downstream of one master seed stays reproducible.
    """
    data = "".join(f"{part!r}\x1f" for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write bytes to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def parse_kv_config(text: str) -> dict[str, str]:
    """Parse a `key = value` config file.

    Blank lines and lines starting with `#` are ignored. A key set twice is
    an error naming both lines: no value silently wins.
    """
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in lines:
            raise ParseError(f"key {key!r} repeats line {lines[key]}", line=lineno)
        lines[key] = lineno
        out[key] = value.strip()
    return out


def check_model_dict(data: object, version: int, keys: set[str], names_key: str) -> None:
    """Raise ValidationError unless `data` is a model dict that `from_dict` can read.

    It must be a dict of format `version` that holds every key in `keys`, and
    `data[names_key]` must be a non-empty list of unique strings.
    """
    found = data.get("format_version") if type(data) is dict else None
    if found != version:
        raise ValidationError(f"unsupported model format {found!r}")
    missing = sorted(keys - data.keys())
    if missing:
        raise ValidationError(f"model lacks {', '.join(missing)}")
    names = data[names_key]
    if type(names) is not list or not names or not all(type(name) is str for name in names):
        raise ValidationError(f"model {names_key} must be a non-empty list of strings")
    if len(set(names)) != len(names):
        raise ValidationError(f"model {names_key} repeat: {names!r}")
