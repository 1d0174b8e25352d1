"""The traced run: per-layer time, measured around calls into each layer.

Spans live here, in the benchmark, around public entry points of the
library (``src/`` carries no benchmark spans).  Each probe mirrors one
production path call for call and checks that it reproduces that path's
output exactly, so the time it attributes is the time of the real path:

* :func:`screen_layers` — one streamed-screen shard loop, decomposed
  into ligand prep, docking, MM/GBSA, featurization and model forward;
* :func:`parallel_layers` — spawning a supervised shard pool;
* :func:`serve_layers` — submit, queueing and forward of the serving path;
* :func:`train_layers` — the data-parallel training step at one rank.
"""

from __future__ import annotations

import copy
import time
from collections import defaultdict

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.docking.conveyorlc import CDT1Receptor, CDT2Ligand, CDT3Docking, CDT4Mmgbsa
from repro.featurize.pipeline import collate_complexes
from repro.nn.layers import Dropout
from repro.nn.optim import build_optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.parallel import SupervisedTaskPool
from repro.screening.partition import shard_bounds
from repro.screening.stream import TopKSelector
from repro.telemetry import exact_vector_sum
from repro.utils.rng import derive_seed, spawn_rng

import workloads as wl


class Spans:
    """Accumulated seconds per layer name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    def time(self, name: str, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += time.perf_counter() - started


# --------------------------------------------------------------------------- #
# screen
# --------------------------------------------------------------------------- #
def decomposed_screen(setup: wl.ScreenSetup, spans: Spans) -> tuple[tuple[np.ndarray, np.ndarray], int, dict]:
    """The streamed screen's shard body, one timed layer call at a time.

    Mirrors ``StreamingScreen._execute_shard`` at the bench configuration
    (one site, per-compound fusion batches) and folds into the same
    exact top-K.  Returns the top-K, the number of docked poses and the
    feature-cache counter deltas.
    """
    engine = setup.engine
    cfg = engine.config
    featurizer = engine.featurizer
    model = engine.model
    receptors = CDT1Receptor().run(list(engine.sites.values()))
    site_map = {name: receptor.site for name, receptor in receptors.items()}
    selectors = {name: TopKSelector(cfg.top_k, nan_policy=cfg.nan_policy) for name in engine.sites}
    featurizer.cache.clear()
    before = featurizer.stats()
    poses_docked = 0
    for start, stop in shard_bounds(len(setup.molecules), cfg.shard_size):
        prepared = spans.time("prep", CDT2Ligand().run, setup.molecules[start:stop], library=cfg.library_name)
        docking = CDT3Docking(
            num_poses=cfg.poses_per_compound, monte_carlo_steps=cfg.docking_mc_steps,
            restarts=cfg.docking_restarts, seed=derive_seed(cfg.seed, "docking"), engine=cfg.docking_engine,
        )
        database = spans.time("dock", docking.run, receptors, prepared)
        poses_docked += len(database)
        mmgbsa = CDT4Mmgbsa(
            max_poses=cfg.mmgbsa_max_poses, seed=derive_seed(cfg.seed, "mmgbsa"), engine=cfg.docking_engine,
        )
        spans.time("mmgbsa", mmgbsa.run, database, site_map)
        for site_name, site in engine.sites.items():
            for prep in prepared:
                poses = database.poses(site_name, prep.compound_id)
                if not poses:
                    continue
                complexes = [
                    ProteinLigandComplex(site=site, ligand=r.pose, complex_id=r.compound_id, pose_id=r.pose_id)
                    for r in poses
                ]
                samples = spans.time("featurize", featurizer.featurize_many, complexes)
                chunk = cfg.fusion_batch_size or len(samples)
                scores = []
                for begin in range(0, len(samples), chunk):
                    scores.extend(spans.time("forward", model.predict_batch, samples[begin : begin + chunk]))
                selectors[site_name].offer(prep.compound_id, max(float(s) for s in scores))
    after = featurizer.stats()
    cache = {"lookups": after.lookups - before.lookups, "misses": after.misses - before.misses}
    entries = selectors[wl.SCREEN_SITE].ranking()
    topk = (
        np.array([e.compound_id for e in entries], dtype="U"),
        np.array([e.score for e in entries], dtype=np.float64),
    )
    return topk, poses_docked, cache


SCREEN_LAYERS = (
    ("prep", "chem.prep_s_per_compound"),
    ("dock", "docking.dock_s_per_compound"),
    ("mmgbsa", "docking.mmgbsa_s_per_compound"),
    ("featurize", "featurize.s_per_compound"),
    ("forward", "models.forward_s_per_compound"),
)


def screen_layers(setup: wl.ScreenSetup, outcome: wl.Outcome) -> None:
    """Untraced streamed screen, then the traced decomposition of the same inputs."""
    compounds = len(setup.molecules)
    outcome.attempted += 2 * compounds
    untraced_s, streamed, result = wl.call_with_deadline(lambda: wl.screen_once(setup))
    spans = Spans()
    started = time.perf_counter()
    traced, poses, cache = wl.call_with_deadline(lambda: decomposed_screen(setup, spans))
    traced_s = time.perf_counter() - started
    if wl.check_screen(streamed, [traced], [result], compounds):
        outcome.failed += compounds
        outcome.checks_failed += 1
    layer_sum = sum(spans.seconds[name] for name, _ in SCREEN_LAYERS)
    for name, metric in SCREEN_LAYERS:
        outcome.metrics[metric] = spans.seconds[name] / compounds
    outcome.metrics.update(
        {
            "docking.poses_per_compound": poses / compounds,
            "featurize.cache_miss_ratio": cache["misses"] / cache["lookups"],
            # computed, not traced: untraced wall time minus the traced layers
            "screening.overhead_s_per_compound": (untraced_s - layer_sum) / compounds,
            "trace.attributed_ratio": layer_sum / traced_s,
            "trace.overhead_ratio": traced_s / untraced_s,
        }
    )
    outcome.details.update(screen_untraced_s=untraced_s, screen_traced_s=traced_s, screen_compounds=compounds)


# --------------------------------------------------------------------------- #
# parallel
# --------------------------------------------------------------------------- #
class ShardPayload:
    """What a process-backend screen ships to each worker: the engine
    (stripped of coordinator-only state by its own pickling) and the
    compound source.  Only the spawn and payload shipping are measured,
    so tasks are never run."""

    def __init__(self, engine, molecules) -> None:
        self.engine = engine
        self.molecules = molecules

    def run_task(self, task):
        raise NotImplementedError("the parallel probe only warms the pool")


def parallel_layers(setup: wl.ScreenSetup, outcome: wl.Outcome) -> None:
    outcome.attempted += 1
    pool = SupervisedTaskPool(ShardPayload(setup.engine, setup.molecules), max_workers=2)
    try:
        started = time.perf_counter()
        wl.call_with_deadline(lambda: pool.warm(wait=True))
        outcome.metrics["parallel.warm_s"] = time.perf_counter() - started
        outcome.metrics["parallel.payload_bytes"] = float(pool.payload_nbytes)
    finally:
        pool.close()


# --------------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------------- #
def serve_layers(setup: wl.ServeSetup, outcome: wl.Outcome) -> None:
    served, records, backend = wl.run_serve(setup)
    outcome.attempted += served.attempted
    outcome.failed += served.failed
    outcome.checks_failed += served.checks_failed
    fresh = [r for r in records if r.response is not None and not r.response.cached]
    if not fresh:  # nothing was scored, so nothing to attribute (counted as failed)
        return
    answered = [r for r in records if r.response is not None]
    submit = [r.submit_end - r.submit_start for r in fresh]
    batches = backend.batches
    outcome.metrics.update(
        {
            "serving.submit_ms": 1e3 * float(np.mean(submit)),
            "serving.queue_ms": 1e3 * float(np.mean([r.response.latency_s - s for r, s in zip(fresh, submit)])),
            "serving.forward_ms_per_batch": 1e3 * float(np.mean([b[2] for b in batches])),
            "serving.mean_batch_size": float(np.mean([len(b[0]) for b in batches])),
            "serving.result_cache_hit_ratio": (len(answered) - len(fresh)) / len(answered),
            "loadgen.late_p99_ms": served.details["generator_late_p99_ms"],
        }
    )


# --------------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------------- #
def masked_mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    mask = np.isfinite(targets)
    if not np.any(mask):
        return float("nan")
    return float(np.mean((predictions[mask] - targets[mask]) ** 2))


def traced_training(setup: wl.TrainSetup, spans: Spans) -> tuple[list[float], list[float]]:
    """``DistributedTrainer.fit`` at one rank, one timed call at a time.

    Mirrors the trainer's SPMD worker: chunks from the seeded epoch
    order, per-chunk dropout streams, raw per-chunk partials summed
    exactly (a one-rank all-reduce), clipping and the fused optimizer
    step, then flat-layout validation.
    """
    cfg = setup.config
    model = copy.deepcopy(setup.workbench.coherent_fusion)
    targets = np.array([s.target for s in setup.train], dtype=np.float64)
    targets = targets[np.isfinite(targets)]
    if targets.size >= 2:
        model.calibrate_output(float(targets.mean()), float(targets.std()))
    model = copy.deepcopy(model)
    model.train()
    dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
    decay = {"weight_decay": cfg.weight_decay} if cfg.optimizer.lower() in ("adam", "adamw", "sgd") else {}
    optimizer = build_optimizer(cfg.optimizer, model.trainable_parameters(), lr=cfg.learning_rate, **decay)
    pack = optimizer.fuse()
    samples = setup.train
    val_targets = np.array([s.target for s in setup.val])
    train_losses: list[float] = []
    val_losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = spawn_rng(cfg.seed, "shuffle", epoch).permutation(len(samples)) if cfg.shuffle else np.arange(len(samples))
        chunks = [order[i : i + cfg.chunk_size] for i in range(0, len(samples), cfg.chunk_size)]
        step_losses = []
        for step_start in range(0, len(chunks), cfg.chunks_per_step):
            step_chunks = chunks[step_start : step_start + cfg.chunks_per_step]
            step_samples = int(sum(len(c) for c in step_chunks))
            partials = []
            model.train()
            for pos, chunk in enumerate(step_chunks):
                for li, layer in enumerate(dropouts):
                    layer._rng = spawn_rng(cfg.seed, "dropout", epoch, step_start + pos, li)
                batch = spans.time("collate", collate_complexes, [samples[i] for i in chunk], graph_layout="flat")

                def forward():
                    residual = model(batch) - Tensor(batch["target"])
                    return (residual * residual).sum()

                sse = spans.time("forward", forward)

                def backward():
                    optimizer.zero_grad()
                    sse.backward()
                    return np.concatenate([pack.grad_vector(), [sse.item()]])

                partials.append(spans.time("backward", backward))
            reduced = spans.time("reduce", exact_vector_sum, partials)

            def step():
                grad = reduced[:-1] / step_samples
                if cfg.grad_clip is not None:
                    norm = float(np.sqrt(np.sum(grad * grad)))
                    if norm > cfg.grad_clip and norm > 0:
                        grad = grad * (cfg.grad_clip / norm)
                optimizer.step_fused(grad)

            spans.time("step", step)
            step_losses.append(float(reduced[-1] / step_samples))
        train_losses.append(float(np.mean(step_losses)))

        def validate():
            model.eval()
            outputs = []
            with no_grad():
                for begin in range(0, len(setup.val), cfg.chunk_size):
                    batch = collate_complexes(setup.val[begin : begin + cfg.chunk_size], graph_layout="flat")
                    outputs.append(model(batch).numpy().copy())
            predictions = np.concatenate(outputs) if outputs else np.array([])
            return masked_mse(predictions, val_targets) if setup.val else float("nan")

        val_losses.append(spans.time("validate", validate))
    return train_losses, val_losses


TRAIN_LAYERS = ("collate", "forward", "backward", "reduce", "step")


def train_layers(setup: wl.TrainSetup, outcome: wl.Outcome) -> None:
    samples = setup.config.epochs * len(setup.train)
    outcome.attempted += 2 * samples
    _, *reference = wl.call_with_deadline(lambda: wl.train_once(setup))
    spans = Spans()
    started = time.perf_counter()
    losses = wl.call_with_deadline(lambda: traced_training(setup, spans))
    traced_s = time.perf_counter() - started
    if not (wl.losses_equal(losses[0], reference[0]) and wl.losses_equal(losses[1], reference[1])):
        outcome.failed += samples
        outcome.checks_failed += 1
    for name in TRAIN_LAYERS:
        outcome.metrics[f"train.{name}_s_per_sample"] = spans.seconds[name] / samples
    outcome.metrics["train.validate_s_per_epoch"] = spans.seconds["validate"] / setup.config.epochs
    outcome.details.update(train_traced_s=traced_s, train_samples=samples)
