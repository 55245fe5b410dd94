"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json once untraced and once traced,
with --tiny inputs, and checks that:
  * the last line of output is the result object with exactly the keys
    `correct`, `attempted`, `failed` and `metrics`;
  * the metrics are exactly the end-to-end (untraced) or per-layer (traced)
    metrics of BENCHMARK.json, each with its declared unit, and each is also
    printed on its own `metric <name> = <value> <unit>` line;
  * every correctness check passed and nothing failed.
Finally it checks that a copy of the benchmark without the package source
exits non-zero without printing a result. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    errors = []
    where = f"{workload} --trace {trace}"
    proc = run_bench(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}"
                      f"\n{proc.stderr[-2000:]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted={result.get('attempted')!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"{where}: missing {sorted(set(declared) - set(metrics))}, "
                      f"undeclared {sorted(set(metrics) - set(declared))}")
    printed = {line.split()[1]: line.split()[4] for line in lines
               if line.startswith("metric ") and len(line.split()) >= 5}
    for name, unit in declared.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{where}: {name} reported as {entry}, declared unit {unit}")
        if printed.get(name) != unit:
            errors.append(f"{where}: no 'metric {name} = <value> {unit}' line")
    return errors


def check_bare_copy(spec: dict) -> list[str]:
    """Without src/, the benchmark must fail without printing a result."""
    bare = os.path.join(ROOT, "perfbench", ".work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare copy: exit code {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors.extend(found)
    found = check_bare_copy(spec)
    print(f"bare copy refuses to run: {'ok' if not found else 'FAILED'}")
    errors.extend(found)
    for error in errors:
        print(error, file=sys.stderr)
    print("self-test passed" if not errors else f"self-test FAILED ({len(errors)} problems)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
