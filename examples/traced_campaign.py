"""A fully-traced streaming screen: flamegraph, metrics, run record.

Runs the shard-parallel streaming screening engine with telemetry
enabled and exports all three observability artifacts:

1. ``traced_screen.trace.json`` — Chrome trace-event flamegraph (open it
   at https://ui.perfetto.dev or in ``chrome://tracing``): the run span
   on the coordinator thread, shard spans nested under it across the
   worker threads, docking/featurization kernel spans nested under the
   shards;
2. the metrics snapshot — every counter and latency histogram the run
   touched, printed;
3. ``traced_screen.run_record.json`` — the schema-validated run record
   with the paper's Table 7 startup/evaluation/output phase accounting
   rebuilt from real spans, plus worker occupancy and fault history.

Telemetry is off by default and free when off — a traced run produces
bit-identical scores to an untraced one (pinned by the golden test in
``tests/test_telemetry.py``).

Run:  python examples/traced_campaign.py
Expected runtime: a couple of minutes (it trains the fusion model first).
"""

from __future__ import annotations

import json

from repro.chem.protein import make_sarscov2_targets
from repro.datasets.libraries import build_screening_deck
from repro.experiments.common import build_workbench
from repro.screening.stream import StreamConfig, StreamingScreen
from repro.telemetry import Telemetry, validate_run_record


def main() -> None:
    print("=== Training the Coherent Fusion model (tiny workbench) ===")
    workbench = build_workbench("tiny")

    print("\n=== Streaming screen with telemetry enabled ===")
    sites = make_sarscov2_targets(seed=2020)
    sites = {name: sites[name] for name in ("protease1", "protease2")}
    deck = build_screening_deck({"emolecules": 8, "zinc_world_approved": 6}, seed=2020)
    config = StreamConfig(
        shard_size=4,
        workers=2,
        top_k=5,
        poses_per_compound=2,
        docking_mc_steps=8,
        docking_restarts=1,
        seed=2020,
    )
    telemetry = Telemetry(enabled=True)
    engine = StreamingScreen(
        workbench.coherent_fusion,
        workbench.featurizer,
        sites,
        config,
        telemetry=telemetry,
    )
    result = engine.run(deck.molecules)
    print(f"screened {result.num_compounds} compounds in {result.num_shards} shards "
          f"({result.duration_s:.1f}s)")
    for site_name in sites:
        best = result.top_k[site_name][0]
        print(f"  {site_name}: best {best.compound_id} @ {best.score:.3f}")

    print("\n=== Exported flamegraph ===")
    trace_path = telemetry.export_chrome_trace("traced_screen.trace.json")
    print(f"{len(telemetry.tracer)} spans -> {trace_path} (open in ui.perfetto.dev)")

    print("\n=== Metrics snapshot ===")
    snapshot = telemetry.snapshot()
    for name, value in snapshot["counters"].items():
        print(f"  {name:28s} {value}")
    shard_seconds = snapshot["histograms"]["stream.shard_s"]
    print(f"  shard seconds: p50={shard_seconds['p50']:.3f}  p99={shard_seconds['p99']:.3f}")

    print("\n=== Run record (Table 7 phase accounting from real spans) ===")
    record = engine.run_record()
    validate_run_record(record)
    stage = record["stages"][0]
    for phase, seconds in stage["phases"].items():
        print(f"  {phase:12s} {seconds:7.3f}s")
    for row in record["workers"]["occupancy"]:
        print(f"  worker {row['worker']}: busy {row['busy_s']:.2f}s "
              f"(utilization {row['utilization']:.0%})")
    with open("traced_screen.run_record.json", "w") as handle:
        json.dump(record, handle, indent=2)
    print("run record -> traced_screen.run_record.json")


if __name__ == "__main__":
    main()
