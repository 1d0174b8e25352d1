"""Stage execution: scoring routes, bounded worker pool, fault retries.

Two layers live here:

* :class:`StageExecutor` — the scoring route.  The fusion-scoring stage
  produces one :class:`~repro.screening.job.JobResult` per job, either
  through the offline batch path (:class:`BatchStageExecutor`, wrapping
  :class:`~repro.screening.job.FusionScoringJob`) or through the online
  service (:class:`ServingStageExecutor`, sharing one warm
  :class:`~repro.serving.ScoringService` across every site).  The
  runtime only sees the common interface, so routing a campaign through
  serving is a one-line configuration change.

* :class:`JobRunner` — the execution engine.  Independent jobs (e.g.
  per-site scoring jobs) run concurrently on a bounded thread pool, and
  every attempt passes through a
  :class:`~repro.hpc.faults.FaultInjector` draw: an injected fault
  aborts the attempt and the runner retries with exponential backoff,
  exactly the requeue behaviour the paper's LSF campaigns relied on.
  The retry loop itself is :meth:`RetryPolicy.run`, shared with the
  streaming screen's shards.
"""

from __future__ import annotations

import abc
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.chem.complexes import ProteinLigandComplex
from repro.chem.protein import BindingSite
from repro.docking.conveyorlc import DockingRecord
from repro.featurize.engine import FeaturePipeline
from repro.featurize.pipeline import ComplexFeaturizer
from repro.hpc.faults import FaultEvent, FaultInjector
from repro.hpc.h5store import H5Store
from repro.nn.module import Module
from repro.screening.job import FusionScoringJob, JobResult
from repro.screening.output import write_job_output
from repro.screening.partition import partition_poses_into_jobs
from repro.serving import ScoringService, ServingConfig
from repro.utils.logging import get_logger
from repro.utils.timer import Timer

logger = get_logger("repro.runtime")


class StageJobError(RuntimeError):
    """A job kept drawing faults until its retry budget ran out."""

    def __init__(self, job_name: str, fault: FaultEvent, attempts: int) -> None:
        super().__init__(f"job '{job_name}' failed after {attempts} attempts (last fault: {fault.mode})")
        self.job_name = job_name
        self.fault = fault
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule for fault-injected job attempts."""

    max_retries: int = 3
    backoff_s: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before re-running after a failed ``attempt``."""
        return self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)

    def run(
        self,
        name: str,
        body: Callable[[], Any],
        faults: FaultInjector,
        on_attempt: Callable[[int, FaultEvent | None], None],
        num_nodes: int = 1,
    ) -> Any:
        """Run ``body`` once an attempt draws no fault; return its result.

        Attempt ``n`` (from 1) draws ``faults.check(name, num_nodes,
        attempt=n)`` and reports it as ``on_attempt(n, fault_or_None)``.
        A fault past the ``max_retries`` budget raises
        :class:`StageJobError`; otherwise the loop sleeps
        :meth:`backoff_for` and tries again.  An exception raised by
        ``body`` propagates untouched: only injected faults are retried.
        """
        attempt = 0
        while True:
            attempt += 1
            fault = faults.check(name, num_nodes, attempt=attempt)
            on_attempt(attempt, fault)
            if fault is None:
                return body()
            if attempt > self.max_retries:
                raise StageJobError(name, fault, attempt)
            delay = self.backoff_for(attempt)
            logger.info("fault %s; retrying '%s' (attempt %d) after %.3fs", fault.mode, name, attempt + 1, delay)
            if delay > 0:
                time.sleep(delay)


@dataclass
class StageJob:
    """One retryable unit of stage work executed by the :class:`JobRunner`."""

    name: str
    fn: Callable[[], Any]
    num_nodes: int = 1
    #: paper-scale duration used when projecting the job set onto the
    #: simulated LSF cluster (see ``CampaignRuntime`` / ``JobScheduler``)
    modelled_seconds: float = 60.0


class JobRunner:
    """Run independent jobs concurrently with fault-injected retries.

    Results come back in submission order regardless of which worker
    finished first, so concurrent execution cannot perturb downstream
    determinism.
    """

    def __init__(
        self,
        max_workers: int = 4,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = int(max_workers)
        self.faults = fault_injector or FaultInjector(enabled=False)
        self.retry = retry or RetryPolicy()
        self.attempts: dict[str, int] = {}
        self.fault_log: list[FaultEvent] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def total_attempts(self) -> int:
        return sum(self.attempts.values())

    @property
    def total_retries(self) -> int:
        """Attempts beyond the first, summed over all jobs seen so far."""
        return sum(count - 1 for count in self.attempts.values())

    # ------------------------------------------------------------------ #
    def run_all(self, jobs: Sequence[StageJob]) -> list[Any]:
        """Execute every job; raises :class:`StageJobError` on retry exhaustion."""
        jobs = list(jobs)
        if not jobs:
            return []
        if self.max_workers == 1 or len(jobs) == 1:
            return [self._run_one(job) for job in jobs]
        with ThreadPoolExecutor(
            max_workers=min(self.max_workers, len(jobs)), thread_name_prefix="stage-job"
        ) as pool:
            futures = [pool.submit(self._run_one, job) for job in jobs]
            return [future.result() for future in futures]

    def _run_one(self, job: StageJob) -> Any:
        def record(attempt: int, fault: FaultEvent | None) -> None:
            with self._lock:
                self.attempts[job.name] = attempt
                if fault is not None:
                    self.fault_log.append(fault)

        return self.retry.run(job.name, job.fn, self.faults, record, num_nodes=job.num_nodes)


# --------------------------------------------------------------------------- #
# Scoring routes
# --------------------------------------------------------------------------- #
class StageExecutor(abc.ABC):
    """Common interface of the fusion-scoring routes.

    ``site_jobs`` turns one binding site's docked poses into a list of
    :class:`StageJob` thunks, each resolving to a
    :class:`~repro.screening.job.JobResult`.  Executors are context
    managers so routes with background machinery (the serving route's
    replica pool) get a clean lifecycle.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def site_jobs(
        self,
        site: BindingSite,
        records: Sequence[DockingRecord],
        use_threads: bool | None = None,
    ) -> list[StageJob]:
        """Jobs scoring ``records`` against ``site`` (empty when no poses)."""

    def start(self) -> "StageExecutor":
        return self

    def close(self) -> None:
        pass

    def __enter__(self) -> "StageExecutor":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()


class BatchStageExecutor(StageExecutor):
    """Offline route: partition poses into distributed Fusion scoring jobs."""

    name = "batch"

    def __init__(
        self,
        model: Module,
        featurizer: ComplexFeaturizer | FeaturePipeline,
        poses_per_job: int = 200,
        num_nodes: int = 4,
        gpus_per_node: int = 4,
        batch_size_per_rank: int = 8,
    ) -> None:
        self.model = model
        self.featurizer = featurizer
        self.poses_per_job = int(poses_per_job)
        self.num_nodes = int(num_nodes)
        self.gpus_per_node = int(gpus_per_node)
        self.batch_size_per_rank = int(batch_size_per_rank)

    def site_jobs(
        self,
        site: BindingSite,
        records: Sequence[DockingRecord],
        use_threads: bool | None = None,
    ) -> list[StageJob]:
        jobs: list[StageJob] = []
        for job_index, job_records in enumerate(partition_poses_into_jobs(list(records), self.poses_per_job)):
            if not job_records:
                continue
            scoring_job = FusionScoringJob(
                model=self.model,
                featurizer=self.featurizer,
                site=site,
                records=job_records,
                num_nodes=self.num_nodes,
                gpus_per_node=self.gpus_per_node,
                batch_size_per_rank=self.batch_size_per_rank,
                job_name=f"{site.name}-job{job_index}",
            )
            jobs.append(
                StageJob(
                    name=scoring_job.job_name,
                    fn=lambda job=scoring_job: job.run(use_threads=use_threads),
                    num_nodes=self.num_nodes,
                    modelled_seconds=scoring_job.modelled_estimate().total_minutes * 60.0,
                )
            )
        return jobs


class ServingStageExecutor(StageExecutor):
    """Online route: rescore sites through one shared :class:`ScoringService`.

    One service (and therefore one warm result cache) spans every site,
    so repeated poses — e.g. a campaign re-run after adding compounds —
    cost nothing.  Each site still produces a ``JobResult`` with the
    store layout the retrospective analysis expects.
    """

    name = "serving"

    def __init__(
        self,
        model: Module,
        featurizer: ComplexFeaturizer | FeaturePipeline,
        serving_config: ServingConfig | None = None,
        timeout_s: float = 300.0,
    ) -> None:
        self.service = ScoringService(model=model, featurizer=featurizer, config=serving_config or ServingConfig())
        self.timeout_s = float(timeout_s)

    def start(self) -> "ServingStageExecutor":
        self.service.start()
        return self

    def close(self) -> None:
        self.service.close()

    def site_jobs(
        self,
        site: BindingSite,
        records: Sequence[DockingRecord],
        use_threads: bool | None = None,
    ) -> list[StageJob]:
        records = list(records)
        if not records:
            return []
        job_name = f"{site.name}-serving"
        return [
            StageJob(
                name=job_name,
                fn=lambda: self._score_site(site, records, job_name),
                num_nodes=1,
            )
        ]

    def _score_site(self, site: BindingSite, records: list[DockingRecord], job_name: str) -> JobResult:
        timer = Timer()
        with timer.section("evaluation"):
            complexes = [
                ProteinLigandComplex(site=site, ligand=r.pose, complex_id=r.compound_id, pose_id=r.pose_id)
                for r in records
            ]
            responses = self.service.score_many(complexes, timeout=self.timeout_s)
        store = H5Store()
        with timer.section("output"):
            write_job_output(
                store,
                site.name,
                [r.complex_id for r in responses],
                [r.pose_id for r in responses],
                np.array([r.score for r in responses]),
                job_name=job_name,
                timings=timer.as_dict(),
            )
        predictions = {(r.complex_id, r.pose_id): r.score for r in responses}
        for record in records:
            record.fusion_pk = predictions[(record.compound_id, record.pose_id)]
        return JobResult(
            job_name=job_name,
            site_name=site.name,
            predictions=predictions,
            store=store,
            timings=timer.as_dict(),
            num_ranks=self.service.pool.num_replicas,
        )
