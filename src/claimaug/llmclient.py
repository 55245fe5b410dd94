"""LLM clients for contradiction-based augmentation.

Wire format of the HTTP client: POST a JSON body `{"prompt": "..."}` to the
configured endpoint; the response is a JSON object whose `completion` field
holds the generated text. The auth token, if any, is read from an environment
variable and sent as a Bearer header. An HTTP 4xx answer is a
ConfigurationError, which is not retried; timeouts, connection errors, 5xx
answers and malformed bodies (not UTF-8, not JSON, no `completion` field or
one that is not a string) are LlmTransportError, which is.
"""

from __future__ import annotations

import json
import os
from typing import Protocol

from .errors import ConfigurationError, LlmTransportError

PROMPT_TEMPLATES = {
    1: 'Contradict this sentence with colorful words "{sentence}"',
    2: 'Without using despite, while, and although, '
       'contradict this sentence with colorful words "{sentence}"',
}

DEFAULT_TOKEN_ENV = "CLAIMAUG_LLM_TOKEN"


class LlmClient(Protocol):
    def complete(self, prompt: str) -> str:
        ...


class EchoLlmClient:
    """Offline default: deterministic pseudo-contradiction of the quoted sentence.

    Produces a usable token stream without any network access, so augmented
    corpora stay reproducible in --offline runs.
    """

    def complete(self, prompt: str) -> str:
        start = prompt.find('"')
        end = prompt.rfind('"')
        quoted = prompt[start + 1:end] if 0 <= start < end else prompt
        return f"It is absolutely not true that {quoted}"


class HttpLlmClient:
    """Client for the HTTP wire format in the module docstring.

    `urllib.request` is imported at the first `complete` call, so a program
    that never sends a request does not load the HTTP stack (`http.client`,
    `ssl`, `email`).
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def complete(self, prompt: str) -> str:
        import urllib.error
        import urllib.request

        body = json.dumps({"prompt": prompt}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(DEFAULT_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = urllib.request.Request(self.endpoint, data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            # A 4xx answer (bad request, bad token, unknown path) repeats on retry.
            if 400 <= exc.code < 500:
                raise ConfigurationError(
                    f"LLM endpoint {self.endpoint} refused the request: HTTP {exc.code} "
                    f"{exc.reason}") from exc
            raise LlmTransportError(f"LLM endpoint {self.endpoint}: {exc}") from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise LlmTransportError(f"LLM endpoint {self.endpoint}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise LlmTransportError(f"LLM endpoint returned a body that is not UTF-8: "
                                    f"{exc}") from exc
        except json.JSONDecodeError as exc:
            raise LlmTransportError(f"LLM endpoint returned malformed JSON: {exc}") from exc
        if not isinstance(payload, dict) or "completion" not in payload:
            raise LlmTransportError("LLM response missing 'completion' field")
        completion = payload["completion"]
        if not isinstance(completion, str):
            raise LlmTransportError(f"LLM response 'completion' is "
                                    f"{type(completion).__name__}, not a string")
        return completion
