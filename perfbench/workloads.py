"""Set-up, timed runs and output checks of the three benchmark workloads.

Every workload follows the same shape: ``setup_*`` builds the inputs from
the seed and the program objects that consume them, ``run_*`` measures
for a fixed number of seconds, and the ``check_*`` functions compare the
outputs against an independent reference: the run's own repeats, a
direct re-computation, and the golden outputs in ``golden.json`` when
the seed has them.  A failed check counts the affected work items as
failed; it never aborts the run.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import os
import pickle
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.protein import make_sarscov2_targets
from repro.datasets.libraries import LIBRARY_PROFILES, StreamingLibrary
from repro.docking.conveyorlc import CDT1Receptor, CDT2Ligand, CDT3Docking
from repro.experiments.common import Workbench, build_workbench
from repro.featurize.engine import FeaturePipeline
from repro.featurize.pipeline import collate_complexes
from repro.models.train import DistributedTrainer, DistributedTrainerConfig
from repro.screening.stream import StreamConfig, StreamingScreen
from repro.serving import ModuleBackend, Overloaded, ScoringService, ServingConfig, molecule_digest
from repro.utils.rng import derive_seed

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("screen", "serve-open", "train-fusion")
#: the campaign's target seed and pipeline seed (``StreamConfig.seed``)
CAMPAIGN_SEED = 2020
SCREEN_SITE = "protease1"
TOP_K = 16
#: seconds one timed call may take before it counts as hung
CALL_DEADLINE_S = 60.0
#: relative tolerance of golden scores and losses: far below any change
#: of conformer, pose or weights, above BLAS rounding differences
GOLDEN_RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """How much work one run does."""

    #: compounds per screen call: a call (about 1 s) stays short next to
    #: the machine's speed swings, so the slowness sampled around it fits it
    screen_compounds: int = 32
    shard_size: int = 16
    #: docked-pose library of serve-open: compounds x 4 sites x up to 4 poses
    serve_compounds: int = 32
    #: offered requests/s (about a fifth of the service's closed-loop
    #: capacity) and the share of requests that repeat an earlier pose;
    #: both are assumptions, see README.md
    serve_rate: float = 16.0
    serve_repeat_share: float = 0.2
    train_epochs: int = 3
    #: set-up rounds, half before and half after the measured calls
    setup_rounds: int = 6
    min_calls: int = 2
    #: traced run: compounds decomposed layer by layer, serving seconds, epochs
    trace_compounds: int = 64
    trace_serve_seconds: float = 6.0
    trace_epochs: int = 2


FULL = Sizes()
TOY = Sizes(
    screen_compounds=6, shard_size=3, serve_compounds=2, train_epochs=1,
    setup_rounds=2, trace_compounds=4, trace_serve_seconds=0.5, trace_epochs=1,
)


class DeadlineExceeded(RuntimeError):
    """A timed call did not finish within its deadline."""


#: every timed call runs on this one thread.  A fresh thread per call
#: makes BLAS and the allocator reserve new per-thread memory, which made
#: peak RSS jump by about 40 MB at random calls.
_CALL_THREAD = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bench-call")


def call_with_deadline(fn: Callable[[], Any], deadline_s: float = CALL_DEADLINE_S) -> Any:
    """Run ``fn`` on the benchmark's call thread and wait at most ``deadline_s``.

    A hung call (for example a worker pool whose spawn bootstrap failed)
    raises :class:`DeadlineExceeded` instead of stalling the benchmark;
    the caller counts its work as failed and stops the run.
    """
    future = _CALL_THREAD.submit(fn)
    try:
        return future.result(timeout=deadline_s)
    except TimeoutError:
        if future.done():  # the call itself raised TimeoutError
            raise
        raise DeadlineExceeded(f"call did not finish within {deadline_s:.0f} s") from None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


# --------------------------------------------------------------------------- #
# machine speed
# --------------------------------------------------------------------------- #
#: best-of-3 time of :func:`reference_kernel` on the reference machine
#: (2 vCPUs) in its fast state
REFERENCE_KERNEL_S = 5.0e-3
_RNG = np.random.default_rng(0)
#: fits in L2; 16 MB, past this machine's share of L3; random indices into it
_L2_ARRAY = np.arange(20000.0)
_MEMORY_ARRAY = _RNG.random(2_000_000)
_GATHER_INDEX = _RNG.integers(0, _MEMORY_ARRAY.size, 100_000)


def reference_kernel() -> None:
    """Fixed work that no change to ``src/`` can alter, touching what the
    workloads touch: interpreter loops with dict stores, numpy operations
    on an array in cache, a pass over an array in memory and random
    reads from it.  It calls no BLAS, so pinning BLAS threads still
    shows."""
    total = 0
    table = {}
    for i in range(3000):
        total += i * i % 7
        table[i % 97] = total
    for _ in range(20):
        np.sqrt(_L2_ARRAY * _L2_ARRAY + 1.0) - 0.5
    _MEMORY_ARRAY.sum()
    _MEMORY_ARRAY[_GATHER_INDEX].sum()


def slowness() -> float:
    """How many times slower than :data:`REFERENCE_KERNEL_S` the machine
    runs the reference kernel right now (best of 3, about 17 ms).

    The reference VM shares its cores and memory: for seconds to minutes
    at a time it runs the same code 1.3-1.8x slower.  A compute time
    divided by the slowness sampled around it varies less between the
    states.  It runs on the call thread, like the calls it brackets.
    """
    def best_of_3() -> float:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - started)
        return best

    return call_with_deadline(best_of_3) / REFERENCE_KERNEL_S


@dataclass
class Outcome:
    """What one timed run measured and how many of its items failed."""

    attempted: int = 0
    failed: int = 0
    checks_failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.checks_failed == 0


# --------------------------------------------------------------------------- #
# model zoo
# --------------------------------------------------------------------------- #
def zoo_path() -> Path:
    """Build-cache file of the trained tiny model zoo for this source tree."""
    digest = hashlib.sha256(f"{sys.version}|{np.__version__}".encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return BUILD_DIR / f"zoo-{digest.hexdigest()[:16]}.pkl"


def ensure_zoo() -> Path:
    """Train the tiny model zoo once per checkout (the benchmark's build step)."""
    path = zoo_path()
    if not path.exists():
        data = pickle.dumps(build_workbench("tiny", cache=False), protocol=pickle.HIGHEST_PROTOCOL)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    return path


def load_zoo(path: Path) -> Workbench:
    return pickle.loads(path.read_bytes())


def load_golden(sizes: Sizes) -> dict:
    """Golden outputs per workload and seed, or ``{}`` when they were
    made at other sizes (the toy sizes of the self-test)."""
    if not GOLDEN_PATH.exists():
        return {}
    golden = json.loads(GOLDEN_PATH.read_text())
    return golden if golden["sizes"] == golden_sizes(sizes) else {}


def golden_sizes(sizes: Sizes) -> dict:
    """The sizes the golden outputs depend on."""
    return {"screen_compounds": sizes.screen_compounds, "serve_compounds": sizes.serve_compounds,
            "train_epochs": sizes.train_epochs}


def golden_close(values, golden) -> bool:
    values, golden = np.asarray(values, dtype=np.float64), np.asarray(golden, dtype=np.float64)
    return values.shape == golden.shape and bool(np.all(np.isclose(values, golden, rtol=GOLDEN_RTOL, atol=0.0)))


def timed_setup(build: Callable[[], tuple[Any, str]], rounds: int) -> tuple[Any, list[tuple[float, float]], set[str]]:
    """Run a workload's set-up ``rounds`` times; keep the last result.

    ``build`` returns ``(state, input_digest)``.  Returns the state, the
    per-round (seconds, slowness) and the input digests (the same seed
    must give the same inputs, so one digest).
    """
    rounds_s: list[tuple[float, float]] = []
    digests: set[str] = set()
    state = None
    for _ in range(rounds):
        state = None  # release the previous round (model graphs hold cycles)
        gc.collect()
        before = slowness()
        started = time.perf_counter()
        state, digest = build()
        elapsed = time.perf_counter() - started
        rounds_s.append((elapsed, (before + slowness()) / 2))
        digests.add(digest)
    return state, rounds_s, digests


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# screen
# --------------------------------------------------------------------------- #
def stream_config(sizes: Sizes) -> StreamConfig:
    """The bench pipeline configuration of the streamed screen."""
    return StreamConfig(
        shard_size=sizes.shard_size,
        workers=1,
        backend="thread",
        top_k=TOP_K,
        poses_per_compound=2,
        docking_mc_steps=6,
        docking_restarts=1,
        mmgbsa_max_poses=2,
        seed=CAMPAIGN_SEED,
    )


@dataclass
class ScreenSetup:
    engine: StreamingScreen
    molecules: list


def setup_screen(zoo: Path, seed: int, compounds: int, sizes: Sizes) -> tuple[ScreenSetup, str]:
    workbench = load_zoo(zoo)
    library = StreamingLibrary(LIBRARY_PROFILES["emolecules"], size=compounds, seed=seed)
    molecules = library.generate_range(0, compounds)
    sites = {SCREEN_SITE: make_sarscov2_targets(seed=CAMPAIGN_SEED)[SCREEN_SITE]}
    engine = StreamingScreen(workbench.coherent_fusion, workbench.featurizer, sites, stream_config(sizes))
    return ScreenSetup(engine, molecules), _digest(molecule_digest(m) for m in molecules)


def screen_once(setup: ScreenSetup) -> tuple[float, tuple[np.ndarray, np.ndarray], Any]:
    """One streamed screen from an empty feature cache; returns (seconds, top-K, result)."""
    setup.engine.featurizer.cache.clear()
    started = time.perf_counter()
    result = setup.engine.run(setup.molecules)
    elapsed = time.perf_counter() - started
    return elapsed, result.topk_arrays(SCREEN_SITE), result


def topk_equal(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> bool:
    """Exact equality of two top-K rankings (ids and scores)."""
    return (
        a[0].shape == b[0].shape
        and bool(np.all(a[0] == b[0]))
        and np.array_equal(a[1], b[1])
    )


def check_screen(reference, topks: list, results: list, compounds: int, golden: dict | None = None) -> list[int]:
    """Indices of screen calls whose output differs from ``reference``
    (exactly) or from the seed's ``golden`` top-K (ids exactly, scores
    to :data:`GOLDEN_RTOL`)."""
    bad = []
    for index, (topk, result) in enumerate(zip(topks, results)):
        ok = (
            topk_equal(topk, reference)
            and (golden is None or (topk[0].tolist() == golden["ids"] and golden_close(topk[1], golden["scores"])))
            and result.num_compounds == compounds
            and result.shards_failed == 0
            and len(topk[0]) == min(TOP_K, compounds)
        )
        if not ok:
            bad.append(index)
    return bad


def repeat_calls(call: Callable[[], Any], seconds: float, min_calls: int) -> tuple[list, list[float], bool]:
    """Repeat ``call`` (each under a deadline) for about ``seconds``.

    Stops before a call that would end past ``seconds``, after at least
    ``min_calls`` calls.  Returns the call outputs, the machine slowness
    around each call (mean of the samples before and after it) and
    whether a call hit its deadline (the run stops there).
    """
    outputs, slow = [], []
    started = time.perf_counter()
    last = 0.0
    before = slowness()
    while len(outputs) < min_calls or time.perf_counter() - started + last <= seconds:
        call_started = time.perf_counter()
        try:
            outputs.append(call_with_deadline(call))
        except DeadlineExceeded:
            return outputs, slow, True
        last = time.perf_counter() - call_started
        after = slowness()
        slow.append((before + after) / 2)
        before = after
    return outputs, slow, False


def batch_metrics(durations: list[float], slow: list[float], items_per_call: int) -> dict[str, float]:
    """End-to-end metrics of a batch workload, at the reference speed.

    Each call's duration is divided by the machine slowness sampled
    around it (see :func:`slowness`).  Every item of a call is due when
    the call starts and done when it returns, so an item's latency is
    its call's duration.
    """
    normalized = [d / s for d, s in zip(durations, slow)]
    return {
        "throughput_per_s": items_per_call * len(normalized) / sum(normalized),
        "latency_p50_ms": statistics.median(normalized) * 1e3,
    }


def run_screen(setup: ScreenSetup, seconds: float, sizes: Sizes, golden: dict | None = None) -> Outcome:
    compounds = len(setup.molecules)
    calls, slow, hung = repeat_calls(lambda: screen_once(setup), seconds, sizes.min_calls)
    outcome = Outcome(attempted=compounds * (len(calls) + hung))
    if hung:
        outcome.failed += compounds
        outcome.checks_failed += 1
    if calls:
        durations = [c[0] for c in calls]
        bad = check_screen(calls[0][1], [c[1] for c in calls], [c[2] for c in calls], compounds, golden)
        outcome.failed += compounds * len(bad)
        outcome.checks_failed += len(bad)
        outcome.metrics.update(batch_metrics(durations, slow, compounds))
        outcome.details.update(
            compounds_per_s=outcome.metrics["throughput_per_s"],
            raw_compounds_per_s=compounds * len(calls) / sum(durations),
            compounds_per_call=compounds,
            calls=len(calls),
            call_s=durations,
            call_slowness=slow,
            topk_head=[str(calls[0][1][0][0]), float(calls[0][1][1][0])],
        )
    return outcome


# --------------------------------------------------------------------------- #
# serve-open
# --------------------------------------------------------------------------- #
class RecordingBackend:
    """A :class:`~repro.serving.ScoringBackend` around :class:`ModuleBackend`.

    Records every micro-batch the service scores — the request keys in
    batch order, the scores returned and the forward seconds — so the
    output check can re-score the exact batch and the traced run can
    attribute forward time.  ``fingerprint()`` delegates, so result-cache
    keys match a plain ``ModuleBackend``.
    """

    def __init__(self, inner: ModuleBackend) -> None:
        self.inner = inner
        self.name = inner.name
        self.batches: list[tuple[list[tuple[str, int]], np.ndarray, float]] = []
        self._lock = threading.Lock()

    def fingerprint(self) -> str:
        return self.inner.fingerprint()

    def score_batch(self, batch: dict) -> np.ndarray:
        started = time.perf_counter()
        scores = self.inner.score_batch(batch)
        elapsed = time.perf_counter() - started
        keys = list(zip(batch["ids"], batch["pose_ids"]))
        with self._lock:
            self.batches.append((keys, np.array(scores, dtype=np.float64, copy=True), elapsed))
        return scores


@dataclass
class ServeSetup:
    workbench: Workbench
    poses: list[ProteinLigandComplex]
    #: per request: seconds after the start at which it is due, and its pose
    due_s: np.ndarray
    pose_index: np.ndarray


def serve_schedule(seed: int, rate: float, seconds: float, repeat_share: float, num_poses: int):
    """Poisson arrivals at ``rate`` over ``seconds``; a ``repeat_share`` of
    requests repeat the pose of a uniformly drawn earlier request, the
    rest take the next pose not sent yet.

    The arrival count is fixed at ``rate * seconds`` and the arrivals are
    a Poisson process conditioned on that count (normalized exponential
    gaps), so every seed offers exactly the same rate.
    """
    rng = np.random.default_rng(derive_seed(seed, "serve-open"))
    count = max(1, int(round(rate * seconds)))
    gaps = rng.exponential(1.0, count + 1)
    due = np.cumsum(gaps[:count]) * (seconds / gaps.sum())
    index = np.empty(count, dtype=np.int64)
    fresh = 0
    for k in range(count):
        if k > 0 and rng.random() < repeat_share:
            index[k] = index[rng.integers(0, k)]
        else:
            index[k] = fresh % num_poses
            fresh += 1
    return due, index


def setup_serve(zoo: Path, seed: int, seconds: float, sizes: Sizes) -> tuple[ServeSetup, str]:
    workbench = load_zoo(zoo)
    library = StreamingLibrary(LIBRARY_PROFILES["emolecules"], size=sizes.serve_compounds, seed=seed)
    molecules = library.generate_range(0, sizes.serve_compounds)
    sites = make_sarscov2_targets(seed=CAMPAIGN_SEED)
    prepared = CDT2Ligand().run(molecules, library="emolecules")
    database = CDT3Docking(
        num_poses=4, monte_carlo_steps=6, restarts=4, seed=derive_seed(seed, "docking")
    ).run(CDT1Receptor().run(list(sites.values())), prepared)
    poses = [
        ProteinLigandComplex(
            site=sites[r.site_name], ligand=r.pose,
            complex_id=f"{r.compound_id}@{r.site_name}", pose_id=r.pose_id,
        )
        for r in database
    ]
    due, index = serve_schedule(seed, sizes.serve_rate, seconds, sizes.serve_repeat_share, len(poses))
    digest = _digest([p.complex_id + str(p.pose_id) + molecule_digest(p.ligand) for p in poses] + [due, index])
    return ServeSetup(workbench, poses, due, index), digest


@dataclass
class ServeRecord:
    due: float
    submit_start: float
    submit_end: float
    pose: int
    response: Any = None


def serve_once(setup: ServeSetup) -> tuple[list[ServeRecord], int, RecordingBackend, float]:
    """Drive one open-loop run; returns (records, rejected, backend, t0)."""
    workbench = setup.workbench
    workbench.featurizer.cache.clear()
    backend = RecordingBackend(ModuleBackend(workbench.coherent_fusion))
    service = ScoringService(backend=backend, featurizer=workbench.featurizer, config=ServingConfig())
    service.start()
    records: list[ServeRecord] = []
    pending = []
    rejected = 0
    t0 = time.perf_counter()
    for due_s, pose in zip(setup.due_s, setup.pose_index):
        due = t0 + float(due_s)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        started = time.perf_counter()
        try:
            handle = service.submit(setup.poses[pose])
        except Overloaded:
            rejected += 1
            continue
        records.append(ServeRecord(due, started, time.perf_counter(), int(pose)))
        pending.append(handle)
    if not service.drain(timeout=CALL_DEADLINE_S):
        raise DeadlineExceeded("serving requests did not complete")
    service.close()
    for record, handle in zip(records, pending):
        try:
            record.response = handle.result(timeout=0)
        except Exception:  # a failed batch resolves its requests with its error
            record.response = None
    return records, rejected, backend, t0


def reference_featurizer(featurizer: FeaturePipeline) -> FeaturePipeline:
    """An uncached featurizer with the service's configuration."""
    return FeaturePipeline(
        voxel_config=featurizer.voxelizer.config,
        graph_config=featurizer.graph_builder.config,
        augment=featurizer.augment,
        rotation_probability=featurizer.rotation_probability,
        cache_enabled=False,
    )


def reference_scores(setup: ServeSetup, batch_size: int = ServingConfig().max_batch_size) -> np.ndarray:
    """Every pose of the serving library scored directly, in pose order."""
    featurizer = reference_featurizer(setup.workbench.featurizer)
    scores = []
    for begin in range(0, len(setup.poses), batch_size):
        samples = featurizer.featurize_many(setup.poses[begin : begin + batch_size])
        scores.extend(setup.workbench.coherent_fusion.predict_batch(collate_complexes(samples)))
    return np.asarray(scores, dtype=np.float64)


def check_serve(setup: ServeSetup, records: list[ServeRecord], backend: RecordingBackend,
                golden: list[float] | None = None) -> int:
    """Number of requests whose score is wrong.

    Every micro-batch the service scored is re-scored directly: the same
    poses, featurized by an uncached featurizer, collated in the same
    order and passed to ``predict_batch`` must give ``==`` scores.  A
    response must carry a score the backend produced for its pose; a
    cached response must equal one too.  With the seed's ``golden``
    per-pose scores, every response must also match its pose's golden
    score to :data:`GOLDEN_RTOL`.
    """
    by_key = {(p.complex_id, p.pose_id): p for p in setup.poses}
    featurizer = reference_featurizer(setup.workbench.featurizer)
    model = setup.workbench.coherent_fusion
    produced: dict[tuple[str, int], list[float]] = {}
    bad = 0
    for keys, scores, _ in backend.batches:
        samples = featurizer.featurize_many([by_key[k] for k in keys])
        direct = model.predict_batch(collate_complexes(samples))
        if not np.array_equal(direct, scores):
            bad += int(np.sum(direct != scores))
        for key, score in zip(keys, scores):
            produced.setdefault(key, []).append(float(score))
    for record in records:
        response = record.response
        if response is None:
            bad += 1
            continue
        pose = setup.poses[record.pose]
        if response.score not in produced.get((pose.complex_id, pose.pose_id), ()):
            bad += 1
        elif golden is not None and not golden_close(response.score, golden[record.pose]):
            bad += 1
    return bad


def serve_latencies(records: list[ServeRecord], t0: float) -> tuple[list[float], float]:
    """Per-request seconds from due to completion, and the completion rate."""
    latencies = []
    last_done = t0
    for record in records:
        response = record.response
        if response is None:
            continue
        if response.cached:
            done = record.submit_end
        else:
            done = record.submit_start + response.latency_s
        latencies.append(done - record.due)
        last_done = max(last_done, done)
    rate = len(latencies) / (last_done - t0) if last_done > t0 else 0.0
    return latencies, rate


def run_serve(setup: ServeSetup, golden: list[float] | None = None) -> tuple[Outcome, list[ServeRecord], RecordingBackend | None]:
    """One open-loop run; also returns the request records and the
    recording backend for the traced run's attribution."""
    attempted = len(setup.due_s)
    outcome = Outcome(attempted=attempted)
    try:
        records, rejected, backend, t0 = call_with_deadline(lambda: serve_once(setup), 2 * CALL_DEADLINE_S)
    except DeadlineExceeded:
        outcome.failed = attempted
        outcome.checks_failed = 1
        return outcome, [], None
    wrong = check_serve(setup, records, backend, golden)
    outcome.failed = rejected + wrong
    outcome.checks_failed = int(wrong > 0)
    latencies, rate = serve_latencies(records, t0)
    if not latencies:  # nothing completed: no metrics, and every request failed
        return outcome, records, backend
    late = [r.submit_start - r.due for r in records]
    p99 = percentile(latencies, 99)
    outcome.metrics.update(throughput_per_s=rate, latency_p50_ms=percentile(latencies, 50) * 1e3)
    outcome.details.update(
        requests_per_s=rate,
        offered_per_s=attempted / float(setup.due_s[-1]),
        requests=attempted,
        rejected=rejected,
        cached=sum(1 for r in records if r.response is not None and r.response.cached),
        latency_p90_ms=percentile(latencies, 90) * 1e3,
        latency_p99_ms=p99 * 1e3,
        beyond_p99=sum(1 for x in latencies if x > p99),
        generator_late_p99_ms=percentile(late, 99) * 1e3,
    )
    return outcome, records, backend


# --------------------------------------------------------------------------- #
# train-fusion
# --------------------------------------------------------------------------- #
@dataclass
class TrainSetup:
    workbench: Workbench
    train: list
    val: list
    config: DistributedTrainerConfig


def setup_train(zoo: Path, seed: int, epochs: int) -> tuple[TrainSetup, str]:
    """The zoo's training split, featurized and shuffled from the seed.

    The seed draws the augmentation rotations and the trainer's shuffle
    and dropout streams.  The split stays the zoo's: a per-seed split or
    dataset changes the molecules, and with them the cost per sample,
    more than a trainer change would.
    """
    workbench = load_zoo(zoo)
    source = workbench.featurizer
    featurizer = FeaturePipeline(
        voxel_config=source.voxelizer.config, graph_config=source.graph_builder.config,
        augment=source.augment, rotation_probability=source.rotation_probability, seed=seed,
    )
    dataset = workbench.dataset
    train_entries, val_entries = dataset.train_val_split(rng=workbench.scale.seed)
    train = dataset.featurize_entries(train_entries, featurizer, training=True)
    val = dataset.featurize_entries(val_entries, featurizer)
    config = DistributedTrainerConfig(epochs=epochs, seed=seed, ranks=1, backend="thread")
    digest = _digest([s.voxel for s in train + val] + [np.array([s.target for s in train + val])])
    return TrainSetup(workbench, train, val, config), digest


def train_once(setup: TrainSetup) -> tuple[float, list[float], list[float]]:
    """Train a fresh deep copy of the zoo's Coherent Fusion; returns (seconds, losses)."""
    trainer = DistributedTrainer(copy.deepcopy(setup.workbench.coherent_fusion), setup.train, setup.val, setup.config)
    started = time.perf_counter()
    history = trainer.fit()
    elapsed = time.perf_counter() - started
    return elapsed, list(history.train_losses), list(history.val_losses)


def losses_equal(a: list[float], b: list[float]) -> bool:
    return len(a) == len(b) and np.array_equal(np.asarray(a), np.asarray(b))


def check_train(reference: tuple[list[float], list[float]], calls: list, golden: dict | None = None) -> list[int]:
    """Indices of fits whose per-epoch losses differ from ``reference``
    (exactly) or from the seed's ``golden`` losses (to
    :data:`GOLDEN_RTOL`), or are not finite."""
    return [
        index
        for index, (_, train, val) in enumerate(calls)
        if not (
            losses_equal(train, reference[0])
            and losses_equal(val, reference[1])
            and np.all(np.isfinite(train))
            and (golden is None or (golden_close(train, golden["train"]) and golden_close(val, golden["val"])))
        )
    ]


def run_train(setup: TrainSetup, seconds: float, sizes: Sizes, golden: dict | None = None) -> Outcome:
    samples = setup.config.epochs * len(setup.train)
    calls, slow, hung = repeat_calls(lambda: train_once(setup), seconds, sizes.min_calls)
    outcome = Outcome(attempted=samples * (len(calls) + hung))
    if hung:
        outcome.failed += samples
        outcome.checks_failed += 1
    if calls:
        bad = check_train((calls[0][1], calls[0][2]), calls, golden)
        outcome.failed += samples * len(bad)
        outcome.checks_failed += len(bad)
        durations = [c[0] for c in calls]
        outcome.metrics.update(batch_metrics(durations, slow, samples))
        outcome.details.update(
            samples_per_s=outcome.metrics["throughput_per_s"],
            raw_samples_per_s=samples * len(calls) / sum(durations),
            samples_per_call=samples,
            calls=len(calls),
            call_s=durations,
            call_slowness=slow,
            final_train_loss=calls[0][1][-1],
        )
    return outcome
