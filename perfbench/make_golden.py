"""Write ``perfbench/golden.json``: the outputs the timed runs are checked against.

    python3 perfbench/make_golden.py

For each seed in :data:`SEEDS` it records, at the benchmark's full sizes,
the ``screen`` top-K (ids and scores), the ``serve-open`` score of every
pose in the serving library (scored directly, in pose order) and the
``train-fusion`` per-epoch losses.  Run it only at a commit whose outputs
are trusted: a later change that alters any of them fails the benchmark's
output checks on these seeds.
"""

from __future__ import annotations

import json

import run  # noqa: I001 - puts src/ on the import path
import workloads as wl

#: seeds 0-10 and the held-out seed 4242
SEEDS = (*range(11), 4242)


def rounded(values) -> list[float]:
    """12 significant digits: exact enough for :data:`workloads.GOLDEN_RTOL`."""
    return [float(f"{value:.12g}") for value in values]


def dumps(golden: dict) -> str:
    """JSON with one line per workload and seed."""
    parts = [f'"sizes": {json.dumps(golden["sizes"])}']
    for workload in wl.WORKLOADS:
        seeds = ",\n  ".join(f'"{seed}": {json.dumps(entry)}' for seed, entry in golden[workload].items())
        parts.append(f'"{workload}": {{\n  {seeds}\n }}')
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def main() -> int:
    sizes = wl.FULL
    zoo = wl.ensure_zoo()
    golden: dict = {"sizes": wl.golden_sizes(sizes), "screen": {}, "serve-open": {}, "train-fusion": {}}
    for seed in SEEDS:
        screen, _ = wl.setup_screen(zoo, seed, sizes.screen_compounds, sizes)
        _, (ids, scores), _ = wl.screen_once(screen)
        golden["screen"][str(seed)] = {"ids": ids.tolist(), "scores": rounded(scores)}
        serve, _ = wl.setup_serve(zoo, seed, 1.0, sizes)
        golden["serve-open"][str(seed)] = rounded(wl.reference_scores(serve))
        train, _ = wl.setup_train(zoo, seed, sizes.train_epochs)
        _, losses, val = wl.train_once(train)
        golden["train-fusion"][str(seed)] = {"train": rounded(losses), "val": rounded(val)}
        print(f"seed {seed}: done", flush=True)
    wl.GOLDEN_PATH.write_text(dumps(golden))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
