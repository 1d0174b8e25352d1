"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``screen`` — the real streamed pipeline on one core: ligand prep,
  docking, MM/GBSA, featurization and Coherent Fusion scoring;
* ``serve-open`` — open-loop Poisson traffic of docked poses against the
  online scoring service;
* ``train-fusion`` — data-parallel training of Coherent Fusion at one rank.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is the separate traced run: it times calls into every
layer and reports every per-layer metric, whichever workload is named.

The inputs are generated from ``--seed``; the model zoo is trained once
per checkout and cached under ``.bench_build/`` (the build step).  The
last line of standard output is the result object; the line before it
carries the machine fingerprint and per-workload details.  Exit status
is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import statistics
import sys
import threading
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402

#: end-to-end metrics (every workload, untraced run) and their units
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced run) and their units
PER_LAYER = {
    "chem.prep_s_per_compound": "s/compound",
    "docking.dock_s_per_compound": "s/compound",
    "docking.poses_per_compound": "count",
    "docking.mmgbsa_s_per_compound": "s/compound",
    "featurize.s_per_compound": "s/compound",
    "featurize.cache_miss_ratio": "ratio",
    "models.forward_s_per_compound": "s/compound",
    "screening.overhead_s_per_compound": "s/compound",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "parallel.warm_s": "s",
    "parallel.payload_bytes": "count",
    "serving.submit_ms": "ms",
    "serving.queue_ms": "ms",
    "serving.forward_ms_per_batch": "ms",
    "serving.mean_batch_size": "count",
    "serving.result_cache_hit_ratio": "ratio",
    "loadgen.late_p99_ms": "ms",
    "train.collate_s_per_sample": "s/sample",
    "train.forward_s_per_sample": "s/sample",
    "train.backward_s_per_sample": "s/sample",
    "train.reduce_s_per_sample": "s/sample",
    "train.step_s_per_sample": "s/sample",
    "train.validate_s_per_epoch": "s",
}

#: a run that outlives this is stopped without a result
WATCHDOG_S = 170.0
_OPENBLAS_THREAD_FUNCTIONS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


# --------------------------------------------------------------------------- #
# memory and clean-up
# --------------------------------------------------------------------------- #
def descendants() -> list[int]:
    """PIDs of every live descendant of this process."""
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry.name))
    found: list[int] = []
    frontier = [os.getpid()]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM); every declared
    workload runs in this one process."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def stop_descendants() -> None:
    """SIGKILL every process this run started, then reap them."""
    pids = descendants()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in pids:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def watchdog() -> None:
    print(f"perfbench: run exceeded {WATCHDOG_S:.0f} s; stopping without a result", file=sys.stderr, flush=True)
    stop_descendants()
    os._exit(3)


# --------------------------------------------------------------------------- #
# machine fingerprint
# --------------------------------------------------------------------------- #
def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use (read, never set)."""
    with open("/proc/self/maps") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for name in _OPENBLAS_THREAD_FUNCTIONS:
            function = getattr(library, name, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# --------------------------------------------------------------------------- #
# runs
# --------------------------------------------------------------------------- #
def timed_run(workload: str, seed: int, seconds: float, sizes: wl.Sizes) -> wl.Outcome:
    """Measure the workload untraced, with ``sizes.setup_rounds`` set-ups
    around it: half before the measured calls, half after.

    ``setup_s`` is the median round at the reference speed: each round's
    seconds divided by the machine slowness sampled around it.
    """
    zoo = wl.ensure_zoo()
    golden = wl.load_golden(sizes).get(workload, {}).get(str(seed))
    if workload == "screen":
        build = partial(wl.setup_screen, zoo, seed, sizes.screen_compounds, sizes)
        measure_calls = partial(wl.run_screen, seconds=seconds, sizes=sizes, golden=golden)
    elif workload == "serve-open":
        build = partial(wl.setup_serve, zoo, seed, seconds, sizes)
        measure_calls = lambda setup: wl.run_serve(setup, golden)[0]  # noqa: E731
    else:
        build = partial(wl.setup_train, zoo, seed, sizes.train_epochs)
        measure_calls = partial(wl.run_train, seconds=seconds, sizes=sizes, golden=golden)
    before = sizes.setup_rounds // 2
    setup, setup_s, digests = wl.timed_setup(build, before)
    outcome = measure_calls(setup)
    setup = None
    _, after_s, after_digests = wl.timed_setup(build, sizes.setup_rounds - before)
    rounds = setup_s + after_s
    outcome.attempted += 1  # the set-up itself: every round must build identical inputs
    if len(digests | after_digests) != 1:
        outcome.failed += 1
        outcome.checks_failed += 1
    outcome.metrics["setup_s"] = statistics.median(seconds / slow for seconds, slow in rounds)
    outcome.details.update(
        setup_round_s=[seconds for seconds, _ in rounds],
        setup_round_slowness=[slow for _, slow in rounds],
        golden_checked=golden is not None,
    )
    return outcome


def traced_run(seed: int, sizes: wl.Sizes) -> wl.Outcome:
    """Every layer probe, on inputs from the same seed."""
    zoo = wl.ensure_zoo()
    outcome = wl.Outcome()
    screen, _ = wl.setup_screen(zoo, seed, sizes.trace_compounds, sizes)
    layers.screen_layers(screen, outcome)
    layers.parallel_layers(screen, outcome)
    screen = None
    serve, _ = wl.setup_serve(zoo, seed, sizes.trace_serve_seconds, sizes)
    layers.serve_layers(serve, outcome)
    serve = None
    train, _ = wl.setup_train(zoo, seed, sizes.trace_epochs)
    layers.train_layers(train, outcome)
    return outcome


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: wl.Sizes) -> tuple[wl.Outcome, float]:
    """One run; returns the outcome and the peak memory in MB.

    A call that hits its deadline counts as failed work.
    """
    try:
        outcome = traced_run(seed, sizes) if trace else timed_run(workload, seed, seconds, sizes)
    except wl.DeadlineExceeded as error:
        outcome = wl.Outcome(attempted=1, failed=1, checks_failed=1, details={"error": str(error)})
    return outcome, peak_rss_mb()


def result_lines(workload: str, seed: int, trace: bool, outcome: wl.Outcome, peak_mb: float) -> tuple[dict, dict]:
    """The details line and the result object."""
    if trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        outcome.metrics["peak_rss_mb"] = peak_mb
    metrics = {name: {"value": float(outcome.metrics[name]), "unit": unit} for name, unit in units.items() if name in outcome.metrics}
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "fingerprint": fingerprint(),
        "failed_ratio": outcome.failed / max(outcome.attempted, 1),
        "details": outcome.details,
    }
    result = {
        "correct": outcome.correct and len(metrics) == len(units),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    timer = threading.Timer(WATCHDOG_S, watchdog)
    timer.daemon = True
    timer.start()
    outcome, peak_mb = measure(args.workload, args.seed, args.seconds, bool(args.trace), wl.FULL)
    # the traced run's pool closes its workers; this also ends the
    # multiprocessing resource tracker and anything a call that hit its
    # deadline left
    stop_descendants()
    details, result = result_lines(args.workload, args.seed, bool(args.trace), outcome, peak_mb)
    print(json.dumps(details, default=float))
    print(json.dumps(result), flush=True)
    timer.cancel()
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    # a call that hit its deadline may leave a hung thread behind
    os._exit(code)
