"""claimaug benchmark: runs one workload in this process and reports its metrics.

    python3 perfbench/run.py --workload crf-train --seed 7 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`. The run sets up the workload's inputs from `--seed`, runs one untimed
warm-up iteration, then repeats the timed region until `--seconds` have
been timed (at least twice) and checks every iteration's outputs. Four more
set-ups run between iterations; the median of the five is `setup_s`. It is a closed loop: one process, one caller,
each call waiting for the previous one.

--trace 0   end-to-end metrics, measured with tracing off.
--trace 1   per-layer metrics: half the time untraced, half with timing
            wrappers installed; the difference of the two medians is the
            tracing overhead.
--profile N cProfile one iteration after the warm-up and print the top N
            functions by own time; prints no result line. For finding
            candidates only: profiling distorts the proportions.
--tiny      tiny inputs, for the self-test.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A fuller record (run record,
iteration times, workload-specific figures, failures, and for traced runs
the spans) is written under `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

SETUP_REPEATS = 5
MIN_ITERATIONS = 2
# A seed kept out of tuning: a performance claim made on other seeds is
# confirmed on this one before it is accepted.
CHECK_SEED = 1009
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N")
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def git_commit(root: str) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(package_dir: str) -> str:
    """sha256 over the package's source files, to identify code outside git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(package_dir)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, package_dir).encode("utf-8") + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_record(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(os.path.join(SRC, "claimaug")),
        "workload": args.workload,
        "seed": args.seed,
        "check_seed": CHECK_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "setup_repeats": SETUP_REPEATS,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "loop": "closed: one process, one caller, each call waits for the previous",
    }


class Tally:
    """Operations attempted and failures found over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, bytes] | None = None

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failures.extend(outcome.failures)
        if self.reference is None:
            self.reference = outcome.outputs
            return
        self.attempted += 1
        changed = sorted(k for k in self.reference.keys() | outcome.outputs.keys()
                         if self.reference.get(k) != outcome.outputs.get(k))
        if changed:
            self.failures.append(f"outputs differ from the first run: {', '.join(changed)}")
        outcome.outputs.clear()  # only the reference is kept, so RSS stays the program's


def measure(workload, state, seconds: float, tally: Tally, recorder=None, setups=None):
    """Repeat the timed region until it has run for `seconds` in total.

    It runs at least MIN_ITERATIONS times. Checks and the set-up repeats that
    fall due run between iterations and do not count toward `seconds`.
    """
    times, outcomes = [], []
    while len(times) < MIN_ITERATIONS or sum(times) < seconds:
        if recorder is None:
            t0 = time.perf_counter()
            result = workload.iterate(state)
            elapsed = time.perf_counter() - t0
        else:
            with recorder.root(len(times)):
                t0 = time.perf_counter()
                result = workload.iterate(state)
                elapsed = time.perf_counter() - t0
        times.append(elapsed)
        outcome = workload.check(state, result)
        tally.add(outcome)
        outcomes.append(outcome)
        if setups is not None:
            setups.catch_up(sum(times) / seconds)
    return times, outcomes


class SetUps:
    """The set-up repeats behind `setup_s`.

    The first builds the state the timed region uses. The others are spread
    over the measuring window, so that `setup_s` samples the machine under
    the same conditions as the iterations; each must rebuild the first one's
    inputs byte for byte.
    """

    def __init__(self, workload, args: argparse.Namespace, work: str, tally: Tally) -> None:
        self.workload = workload
        self.args = args
        self.work = work
        self.tally = tally
        self.times: list[float] = []
        self.first: dict[str, bytes] | None = None

    def run_one(self):
        from workloads import Context

        rep = len(self.times)
        directory = os.path.join(self.work, f"setup{rep}")
        ctx = Context(directory=directory, seed=self.args.seed, tiny=self.args.tiny)
        t0 = time.perf_counter()
        state = self.workload.setup(ctx)
        self.times.append(time.perf_counter() - t0)
        files = self.workload.fingerprint(state)
        self.tally.attempted += 1
        if self.first is None:
            self.first = files
        else:
            if files != self.first:
                self.tally.failures.append(f"set-up {rep} built different inputs from set-up 0")
            shutil.rmtree(directory)
        return state

    def catch_up(self, fraction: float) -> None:
        """Run the repeats that are due once `fraction` of the window has passed."""
        while len(self.times) < SETUP_REPEATS and len(self.times) <= fraction * SETUP_REPEATS:
            self.run_one()


def write_results(name: str, payload: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True)
    return path


def run(args: argparse.Namespace, work: str) -> int:
    from workloads import WORKLOADS
    import tracing

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    record = run_record(args)
    tally = Tally()
    setups = SetUps(workload, args, work, tally)
    state = setups.run_one()
    tally.add(workload.check(state, workload.iterate(state)))  # warm-up

    if args.profile > 0:
        profiler = cProfile.Profile()
        profiler.runcall(workload.iterate, state)
        print(f"profile of one {args.workload} iteration, seed {args.seed}, "
              f"top {args.profile} by own time:")
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(args.profile)
        return 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    payload: dict = {"record": record}
    if args.trace:
        times, outcomes = measure(workload, state, args.seconds / 2, tally, setups=setups)
        recorder = tracing.Recorder()
        installation = tracing.Installation(recorder)
        try:
            traced_times, _ = measure(workload, state, args.seconds / 2, tally, recorder)
        finally:
            installation.remove()
        setups.catch_up(1.0)
        untraced, traced = statistics.median(times), statistics.median(traced_times)
        values = outcomes[-1].values
        metrics = {
            **tracing.per_layer_metrics(recorder.spans),
            "metrics.cla_f1": values.get("cla_f1", 0.0),
            "metrics.macro_f1": values.get("macro_f1", 0.0),
            "trace.wall_s": traced,
            "trace.untraced_wall_s": untraced,
            "trace.overhead_s": traced - untraced,
            "trace.overhead_share": (traced - untraced) / untraced,
        }
        units = {**tracing.UNITS, "metrics.cla_f1": "%", "metrics.macro_f1": "%",
                 "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                 "trace.overhead_share": "ratio"}
        extras: dict[str, tuple[float, str]] = {}
        payload.update(untraced_times=times, traced_times=traced_times)
        spans_path = write_results(stem + "-spans.json", {
            "fields": ["id", "name", "start", "end", "parent", "iteration", "thread", "info"],
            "spans": [[s.id, s.name, s.start, s.end, s.parent, s.iteration, s.thread, s.info]
                      for s in recorder.spans]})
        payload["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        times, outcomes = measure(workload, state, args.seconds, tally, setups=setups)
        setups.catch_up(1.0)
        tokens = workload.input_tokens(state)
        metrics = {
            "setup_s": statistics.median(setups.times),
            "wall_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        extras = workload.summary(state, times, outcomes)
        extras["tokens_per_s"] = (statistics.median(tokens / t for t in times), "1/s")
        payload["times"] = times

    payload["setup_times"] = setups.times
    failed = len(tally.failures)
    extras["failed_share"] = (failed / tally.attempted, "ratio")
    print(f"workload {args.workload} seed {args.seed}: {workload.why}")
    print(f"input: {workload.describe(state)}")
    counted = f"{len(times)} untraced, {len(traced_times)} traced" if args.trace \
        else f"{len(times)}"
    print(f"iterations: {counted} over {args.seconds:g} s timed; setup repeats {SETUP_REPEATS}")
    print("record: " + json.dumps(record, sort_keys=True))
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    for name in sorted(extras):
        value, unit = extras[name]
        print(f"metric {name} = {value:.6g} {unit} (not bounded)")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    payload.update(metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                   extras={k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
                   failures=tally.failures)
    print("results: " + os.path.relpath(write_results(stem + ".json", payload), ROOT))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "claimaug", "__init__.py")):
        print(f"error: no claimaug package under {SRC}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported
    sys.path.insert(0, SRC)
    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        return run(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
