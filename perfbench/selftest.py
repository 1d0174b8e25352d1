"""Fast self-test of the benchmark (about a minute): ``python3 perfbench/selftest.py``.

Runs every workload and the traced run at toy size, checks that every
metric ``BENCHMARK.json`` declares is emitted, checks that corrupted
outputs and a hung call trip the output checks, and checks one seed's
training losses against ``golden.json``.  Exits 0 on success.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import run  # noqa: I001 - puts src/ on the import path
import workloads as wl

SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared_metrics() -> None:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    check(set(declared) <= set(wl.WORKLOADS), f"BENCHMARK.json declares unknown workloads: {declared}")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == table, f"{key} metrics or units differ from BENCHMARK.json")


def emitted(workload: str, trace: bool) -> None:
    outcome, peak_mb = run.measure(workload, SEED, 1.0, trace, wl.TOY)
    _, result = run.result_lines(workload, SEED, trace, outcome, peak_mb)
    expected = run.PER_LAYER if trace else run.END_TO_END
    check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: {result} {outcome.details}")
    check(set(result["metrics"]) == set(expected), f"{workload} trace={trace}: metrics {sorted(result['metrics'])}")
    for name, metric in result["metrics"].items():
        check(math.isfinite(metric["value"]), f"{workload}: {name} is not finite")
        if not trace:
            check(metric["value"] > 0, f"{workload}: {name} is not positive")


def bump(value: float) -> float:
    return float(np.nextafter(value, np.inf))


def corrupted_outputs_trip_checks() -> None:
    zoo = wl.ensure_zoo()

    screen, _ = wl.setup_screen(zoo, SEED, 6, wl.TOY)
    _, topk, result = wl.screen_once(screen)
    ids, scores = topk
    golden = {"ids": ids.tolist(), "scores": scores.tolist()}
    check(not wl.check_screen(topk, [topk], [result], 6, golden), "clean screen output failed its check")
    bumped = scores.copy()
    bumped[-1] = bump(bumped[-1])
    check(wl.check_screen(topk, [(ids, bumped)], [result], 6) == [0], "a 1-ulp top-K score change passed")
    check(wl.check_screen(topk, [(ids[::-1], topk[1])], [result], 6) == [0], "reordered top-K ids passed")
    off = {"ids": golden["ids"], "scores": [*golden["scores"][:-1], golden["scores"][-1] * (1 + 1e-6)]}
    check(wl.check_screen(topk, [topk], [result], 6, off) == [0], "a top-K differing from its golden passed")

    serve, _ = wl.setup_serve(zoo, SEED, 0.5, wl.TOY)
    records, rejected, backend, _ = wl.serve_once(serve)
    golden = wl.reference_scores(serve).tolist()
    check(rejected == 0 and wl.check_serve(serve, records, backend, golden) == 0, "clean serving output failed its check")
    off = [score * (1 + 1e-6) for score in golden]
    check(wl.check_serve(serve, records, backend, off) == len(records), "scores differing from their golden passed")
    keys, scores, seconds = backend.batches[0]
    backend.batches[0] = (keys, np.array([bump(s) for s in scores]), seconds)
    check(wl.check_serve(serve, records, backend) > 0, "a 1-ulp serving score change passed")

    train, _ = wl.setup_train(zoo, SEED, 1)
    _, losses, val = wl.train_once(train)
    check(not wl.check_train((losses, val), [(0.0, losses, val)]), "clean training losses failed their check")
    check(wl.check_train((losses, val), [(0.0, [bump(losses[0])], val)]) == [0], "a 1-ulp loss change passed")
    off = {"train": [losses[0] * (1 + 1e-6)], "val": val}
    check(wl.check_train((losses, val), [(0.0, losses, val)], off) == [0], "losses differing from their golden passed")


def golden_matches_tree() -> None:
    """The committed golden losses of one seed hold for this source tree."""
    golden = wl.load_golden(wl.FULL)
    check(bool(golden), "golden.json is missing or was made at other sizes")
    train, _ = wl.setup_train(wl.ensure_zoo(), 1, wl.FULL.train_epochs)
    call = wl.train_once(train)
    check(not wl.check_train(call[1:], [call], golden["train-fusion"]["1"]), "seed 1 losses differ from golden.json")


def hung_call_trips_deadline() -> None:
    started = time.perf_counter()
    try:
        wl.call_with_deadline(lambda: time.sleep(5), deadline_s=0.2)
    except wl.DeadlineExceeded:
        check(time.perf_counter() - started < 2, "deadline fired late")
        return
    check(False, "a hung call did not raise DeadlineExceeded")


def main() -> int:
    declared_metrics()
    hung_call_trips_deadline()
    corrupted_outputs_trip_checks()
    golden_matches_tree()
    for workload in wl.WORKLOADS:
        emitted(workload, trace=False)
    emitted("screen", trace=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
