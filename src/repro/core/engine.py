"""The compound-superstep lifecycle shared by Algorithms 1 and 3.

The paper's SeqCompoundSuperstep (Algorithm 1, :mod:`repro.core.seqsim`) and
ParCompoundSuperstep (Algorithm 3, :mod:`repro.core.parsim`) run one skeleton:
load the input contexts, run compound supersteps until the algorithm halts
with no traffic in flight, and unload the outputs.  Only the phase bodies of
a compound superstep differ (local bucket writes vs random-processor packet
scatter).  This module holds everything else, once:

* :class:`ProcessorState` — one real processor's EM state (its ``D`` disks,
  track allocator, context store, incoming region, bucket store and RNG
  stream) plus the methods that act on it outside the phase bodies: input
  loading, output collection, barrier snapshot/restore/re-attach, telemetry
  and fault tallies.  The sequential engine holds one; the parallel engine's
  processors extend it with the Algorithm 3 phase methods.
* :class:`EngineLifecycle` — the run lifecycle: ``run`` and
  ``resume_from_checkpoint``, the barrier checkpoint (crash stages and the
  journal commit), fatal-fault recovery, the fault report, and the live
  event stream.  It reaches the processors only through a backend's
  ``call_all`` (:mod:`repro.core.backend`), so one protocol serves the
  in-process processors and the process-backend workers alike.

The barrier is the one consistent cut of the run: nothing survives it but
the contexts, the incoming region, the RNG streams and the ledger
(:mod:`repro.core.checkpoint`).  A fatal I/O fault anywhere after the first
checkpoint, output collection included, restores the last barrier and
re-runs from its superstep.
"""

from __future__ import annotations

import random
from typing import Any

from ..bsp.program import AlgorithmError, BSPAlgorithm
from ..costs import CostLedger
from ..emio.diskarray import DiskArray
from ..emio.faults import FATAL_IO_FAULTS, CrashPlan, FaultPlan, HostCrash, RetryPolicy
from ..emio.layout import RegionAllocator, StripedRegion
from ..emio.linked import LinkedBuckets
from ..emio.storage import StorageSpec, resolve_storage
from ..obs.live import RunEventLog
from ..obs.spans import NULL_OBSERVER, Collector, NullObserver
from ..params import ParameterError, SimulationParams
from .checkpoint import (
    CheckpointJournal,
    SimulationAborted,
    SuperstepCheckpoint,
    freeze,
    thaw,
)
from .context import ContextStore
from .stats import FaultReport, SimulationReport

__all__ = ["ProcessorState", "EngineLifecycle"]


class ProcessorState:
    """One real processor: disks, allocator, contexts, regions, RNG.

    Processor ``index`` simulates the virtual processors
    ``index*(v/p) .. (index+1)*(v/p)-1`` in ``v/(p*k)`` rounds of ``k``.
    Every public method takes and returns plain picklable values, so a
    backend can drive it in a worker process.  Phase I/O is measured from
    ``io_marker`` (:meth:`io_delta`), so every parallel I/O operation of a
    fault-free run is billed to exactly one phase.
    """

    def __init__(
        self,
        index: int,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        rng: random.Random,
        storage: StorageSpec,
        faults: FaultPlan | None,
        retry: RetryPolicy | None,
        fast_io: bool,
        context_cache: bool,
        obs: Collector | NullObserver,
    ):
        m, s = params.machine, params.bsp
        self.index = index
        self.algorithm = algorithm
        self.params = params
        self.v = s.v
        self.k = params.k
        self.vpp = s.v // m.p  # virtual processors per real processor
        self.nbatches = self.vpp // self.k  # rounds per compound superstep
        self.rng = rng
        self.storage_spec = storage
        self.array = DiskArray(
            m.D, m.B, faults=faults, retry=retry, proc=index, fast_io=fast_io,
            storage=storage,
        )
        self.allocator = RegionAllocator(self.array)
        self.contexts = ContextStore(
            self.array, self.allocator, self.vpp, s.mu, m.B,
            name=f"ctx@p{index}", cache=context_cache,
        )
        self.incoming: StripedRegion | None = None
        self.buckets: LinkedBuckets | None = None
        self.io_marker = 0
        self.obs = obs
        # Thread the attribution profiler through the storage plane by
        # reference (NULL_PROFILER when the collector is unprofiled).
        self.array.set_profiler(obs.profile)

    # -- placement and bookkeeping ------------------------------------------------

    def round_vps(self, j: int) -> list[int]:
        """Virtual processors simulated in round ``j``."""
        base = self.index * self.vpp + j * self.k
        return list(range(base, base + self.k))

    def round_slots(self, j: int) -> list[int]:
        """Local context slots of round ``j``."""
        return list(range(j * self.k, (j + 1) * self.k))

    def io_delta(self) -> int:
        """Parallel I/O since the last call (or restore/attach)."""
        d = self.array.parallel_ops - self.io_marker
        self.io_marker = self.array.parallel_ops
        return d

    def stall_total(self) -> int:
        """Stall op-equivalents so far: retry backoff plus latency spikes."""
        inj = self.array.injector
        return self.array.stall_ops + (inj.stats.stall_ops if inj else 0)

    def sample_disks(self, buckets: LinkedBuckets | None = None) -> None:
        """Emit one timestamped sample per disk (cumulative ops, queue depth).

        Pure reads of counters the array maintains anyway, so sampling can
        never perturb the counted costs; called only when ``obs.enabled``.
        """
        for d, disk in enumerate(self.array.disks):
            self.obs.sample(f"disk{d}/ops", disk.reads + disk.writes)
            if buckets is not None:
                depth = sum(len(buckets.table[b][d]) for b in range(buckets.nbuckets))
                self.obs.sample(f"disk{d}/queue_depth", depth)
            st = disk.storage
            if st.read_bytes or st.write_bytes:
                # Non-zero only on non-memory planes, so memory-plane span
                # streams are unchanged by the storage layer's existence.
                self.obs.sample(f"disk{d}/storage_read_bytes", st.read_bytes)
                self.obs.sample(f"disk{d}/storage_write_bytes", st.write_bytes)

    # -- input and output ----------------------------------------------------------

    def load_input(self) -> int:
        """Create and store the initial contexts, ``k`` at a time."""
        alg = self.algorithm
        with self.obs.span("load_input", cat="layout") as sp:
            for j in range(self.nbatches):
                states = [alg.initial_state(vp, self.v) for vp in self.round_vps(j)]
                self.contexts.save_group(self.round_slots(j), states)
            delta = self.io_delta()
            sp.add(io_ops=delta)
        return delta

    def collect_outputs(self) -> tuple[dict[int, Any], int, int]:
        """Unload every output, ``k`` contexts at a time; returns
        ``(outputs by vp, I/O delta, allocator high water)``."""
        alg = self.algorithm
        with self.obs.span("collect_outputs", cat="layout") as sp:
            outs: dict[int, Any] = {}
            for j in range(self.nbatches):
                states = self.contexts.load_group(self.round_slots(j))
                for vp, state in zip(self.round_vps(j), states):
                    outs[vp] = alg.output(vp, state)
            delta = self.io_delta()
            sp.add(io_ops=delta)
        return outs, delta, self.allocator.high_water

    # -- barrier state -------------------------------------------------------------

    def export_checkpoint(
        self,
    ) -> tuple[bytes, bytes | None, Any, set[int], int, dict | None]:
        """Read the barrier state off the disks (charged as real parallel I/O).

        Returns ``(context states, incoming region, RNG state, dead disks,
        I/O delta, storage reference)``.
        """
        with self.obs.span("checkpoint", cat="checkpoint") as sp:
            state_blob = freeze(self.contexts.export_all(group_size=self.k))
            inc = self.incoming
            if inc is not None:
                inc_blob = freeze((inc.slot_sizes, inc.read_slots(range(inc.nslots))))
            else:
                inc_blob = None
            delta = self.io_delta()
            sp.add(io_ops=delta, bytes=len(state_blob))
        return (
            state_blob,
            inc_blob,
            self.rng.getstate(),
            set(self.array.dead_disks),
            delta,
            self._storage_ref(),
        )

    def _storage_ref(self) -> dict | None:
        """Fsync and snapshot the storage plane at a checkpoint barrier.

        Only on non-memory planes: the track files are flushed to stable
        media (the durability half of the barrier contract) and the returned
        reference pins the files' live extents, so a fresh process pointed
        at the same ``storage_dir`` can re-attach them without rehydrating.
        Pure host-side bookkeeping — no counted I/O.
        """
        if self.storage_spec.kind == "memory":
            return None
        self.array.sync_storage()
        inc = self.incoming
        return {
            "kind": self.storage_spec.kind,
            "root": self.storage_spec.root,
            "disks": self.array.snapshot_storage(),
            "alloc": (self.allocator.next_track, list(self.allocator._free)),
            "ctx_used": list(self.contexts._used),
            "incoming": None
            if inc is None
            else (list(inc.slot_sizes), inc.base, inc.name),
        }

    def restore_checkpoint(
        self, state_blob: bytes, inc_blob: bytes | None, rng_state: Any, step: int
    ) -> int:
        """Rewrite the checkpointed barrier state onto the (possibly degraded)
        disk array; returns the restore's own parallel I/O.

        Partial superstep state is dropped first.  Scratch leaked by an
        interrupted reorganization stays allocated (it only inflates the
        space high water, like a real crash leaving unreclaimed sectors).
        The I/O the faulted phase did before dying is not recovery I/O, so
        the count starts here, not at the last ``io_marker``.
        """
        with self.obs.span("recover", step=step, cat="checkpoint") as sp:
            ops0 = self.array.parallel_ops
            if self.buckets is not None:
                self.buckets.free()
                self.buckets = None
            if self.incoming is not None:
                self.incoming.free()
                self.incoming = None
            if rng_state is not None:
                self.rng.setstate(rng_state)
            self.contexts.import_all(thaw(state_blob), group_size=self.k)
            if inc_blob is not None:
                slot_sizes, blocks = thaw(inc_blob)
                region = StripedRegion(
                    self.array, self.allocator, slot_sizes,
                    name=f"incoming@p{self.index}resume{step}",
                )
                region.write_slots(range(region.nslots), blocks)
                self.incoming = region
            self.io_marker = self.array.parallel_ops
            delta = self.io_marker - ops0
            sp.add(io_ops=delta)
        return delta

    def attach_storage(self, ref: dict, rng_state: Any, step: int) -> int:
        """Re-attach the checkpoint's on-disk track files (no rehydration).

        The drives already point at the same files; installing the
        snapshot's track maps plus the allocator/region/context metadata
        re-enters the barrier without a single parallel I/O operation, which
        is the fresh-process crash-recovery path.
        """
        with self.obs.span("recover", step=step, cat="checkpoint") as sp:
            if rng_state is not None:
                self.rng.setstate(rng_state)
            self.array.restore_storage(ref["disks"])
            next_track, free = ref["alloc"]
            self.allocator.next_track = next_track
            self.allocator._free = sorted(tuple(run) for run in free)
            self.contexts._used = list(ref["ctx_used"])
            if ref["incoming"] is not None:
                slot_sizes, base, name = ref["incoming"]
                self.incoming = StripedRegion.adopt(
                    self.array, self.allocator, slot_sizes, base, name=name
                )
            self.io_marker = self.array.parallel_ops
            sp.add(io_ops=0)
        return 0

    def apply_crash(self, stage: str) -> int:
        """Inflict one crash stage's byte damage on this processor's drives."""
        self.array.crash_storage(stage)
        return 0

    def close_storage(self) -> None:
        self.array.close_storage()

    # -- end-of-run tallies --------------------------------------------------------

    def record_final_metrics(self) -> None:
        """End-of-run disk samples, context-cache and storage tallies."""
        self.sample_disks()
        mx = self.obs.metrics
        mx.counter("ctx_cache/hits").inc(self.contexts.cache_hits)
        mx.counter("ctx_cache/misses").inc(self.contexts.cache_misses)
        mx.gauge("disk_space_tracks").set(self.allocator.high_water)
        if self.array.storage_read_bytes or self.array.storage_write_bytes:
            mx.counter("storage/read_bytes").inc(self.array.storage_read_bytes)
            mx.counter("storage/write_bytes").inc(self.array.storage_write_bytes)

    def fault_stats(self) -> dict[str, int]:
        """This processor's :class:`~repro.core.stats.FaultReport` tallies."""
        out = {
            "retry_reads": self.array.retry_reads,
            "retry_writes": self.array.retry_writes,
            "stall_ops": self.stall_total(),
            "degraded_writes": self.array.degraded_writes,
        }
        inj = self.array.injector
        if inj is not None:
            s = inj.stats
            out.update(
                transient_read_errors=s.transient_read_errors,
                transient_write_errors=s.transient_write_errors,
                corruptions_injected=s.corruptions_injected,
                checksum_errors=s.checksum_errors,
                latency_spikes=s.latency_spikes,
                disks_died=s.disks_died,
            )
        return out


class EngineLifecycle:
    """Run lifecycle of one simulation: barrier, checkpoint, recovery, events.

    Subclasses build their processors, then set ``backend`` (anything with
    ``call_all(method, args_list)``, ``close()``, ``name`` and pipe byte
    counters) and ``procs`` (the in-process :class:`ProcessorState` list, or
    ``None`` when they live in workers).  They implement the phase body
    :meth:`_superstep` and the end-of-run :meth:`_final_telemetry`.

    Parameters are the engines' lifecycle knobs; see
    :class:`~repro.core.seqsim.SequentialEMSimulation` for their semantics.
    """

    #: ``engine`` tag of the ``run_started`` event.
    ENGINE = ""

    backend: Any
    procs: list[ProcessorState] | None

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        faults: FaultPlan | None,
        checkpoint: bool,
        max_recoveries: int,
        observer: Collector | None,
        events: RunEventLog | None,
        storage: str | StorageSpec,
        storage_dir: str | None,
        crash: CrashPlan | None,
        context_cache: bool,
    ):
        self.algorithm = algorithm
        self.params = params
        self.faults = faults
        self.checkpoint_enabled = checkpoint
        self.max_recoveries = max_recoveries
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.events = events
        self.storage_spec = resolve_storage(storage, storage_dir)
        if context_cache and self.storage_spec.kind != "memory":
            # The cache keeps every context's bytes in host RAM (and with
            # fast_io nothing reaches the disk), so the run would hold all v
            # contexts in memory instead of Theorem 1's k = M/mu.
            self.storage_spec.cleanup()
            raise ParameterError(
                "context_cache=True requires storage='memory': on the "
                f"{self.storage_spec.kind!r} plane the cache would hold every "
                "context in host RAM"
            )
        if crash is not None:
            if self.storage_spec.kind == "memory" or not checkpoint:
                raise ParameterError(
                    "crash= injects byte-level damage at checkpoint barriers; "
                    "it requires checkpoint=True and a non-memory storage plane"
                )
            self.storage_spec = self.storage_spec.with_crash(crash)
        self.crash_plan = crash
        self._crash_counter = 0
        # Non-memory checkpointed runs publish every barrier atomically
        # through a journal inside the storage root (crash consistency).
        self._journal = (
            CheckpointJournal(self.storage_spec.root)
            if checkpoint and self.storage_spec.kind != "memory"
            else None
        )
        self.ledger = CostLedger(params.machine)
        self.report = SimulationReport(params=params, ledger=self.ledger)
        self.last_checkpoint: SuperstepCheckpoint | None = None
        self._recoveries = 0
        self._checkpoints_taken = 0
        self._checkpoint_io_ops = 0
        self._recovery_io_ops = 0
        self._resumed_from: int | None = None

    # -- phase-body hooks ----------------------------------------------------------

    def _superstep(self, step: int) -> bool:
        """Run compound superstep ``step`` and append its report; return
        True when the algorithm halted with no traffic in flight."""
        raise NotImplementedError

    def _final_telemetry(self) -> None:
        """Gather end-of-run telemetry into ``self.obs`` (observer enabled)."""
        raise NotImplementedError

    def _proc_root(self, i: int) -> str | None:
        """Storage root of processor ``i`` (what its storage refs record)."""
        return self.storage_spec.proc_root(i)

    def _checkpoint_rng(self, states: list[Any]) -> Any:
        """The checkpoint's ``rng_state``: one RNG stream per processor."""
        return states

    # -- entry points --------------------------------------------------------------

    def run(self) -> tuple[list[Any], SimulationReport]:
        """Simulate to completion; return (per-vp outputs, report)."""
        return self._lifecycle(None)

    def resume_from_checkpoint(
        self, ckpt: SuperstepCheckpoint
    ) -> tuple[list[Any], SimulationReport]:
        """Continue an aborted run from a checkpoint, on this (fresh) engine.

        Rewrites the checkpointed contexts and incoming region onto this
        engine's disk arrays, restores the RNG streams and the ledger, and
        resumes at ``ckpt.step`` — completed supersteps are *not* re-run.
        The engine must have been built with the same algorithm and
        parameters as the aborted one (typically on healthy replacement
        hardware, so no fault plan).

        When the checkpoint carries storage references (non-memory plane)
        and this engine points at the *same* plane kind and ``storage_dir``,
        every processor re-attaches its on-disk track files in place — no
        rehydration I/O — which is the fresh-process crash-recovery path.
        Otherwise the portable pickled state in the checkpoint is rewritten.
        """
        p = self.params.machine.p
        if ckpt.nprocs != p:
            raise ParameterError(
                f"checkpoint holds {ckpt.nprocs} processors, machine has {p}"
            )
        return self._lifecycle(ckpt)

    def _lifecycle(
        self, ckpt: SuperstepCheckpoint | None
    ) -> tuple[list[Any], SimulationReport]:
        self.obs.profile.start()
        if ckpt is None:
            self._emit_run_started()
        else:
            self._emit_run_started(resumed_from=ckpt.step)
        try:
            if ckpt is None:
                self._load_input()
                if self.checkpoint_enabled:
                    self._guarded_checkpoint(0)
                return self._run_from(0)
            self._resumed_from = ckpt.step
            self.last_checkpoint = ckpt
            self._restore(ckpt, attach=self._refs_attachable(ckpt))
            return self._run_from(ckpt.step)
        except BaseException as exc:
            self._emit_run_finished("error", error=repr(exc))
            raise
        finally:
            self.obs.profile.stop()
            self._shutdown()

    def _shutdown(self) -> None:
        try:
            self.backend.call_all("close_storage")
        except Exception:
            pass  # a dead worker cannot close its files; the OS will
        self.backend.close()
        self.storage_spec.cleanup()

    # -- run skeleton --------------------------------------------------------------

    def _load_input(self) -> None:
        with self.obs.span("load_input", cat="layout") as sp:
            self.report.init_io_ops = max(self.backend.call_all("load_input"))
            sp.add(io_ops=self.report.init_io_ops)

    def _run_from(self, step: int) -> tuple[list[Any], SimulationReport]:
        """Supersteps from ``step``, then output collection.

        A fatal I/O fault in either restores the last checkpoint and re-runs
        from its superstep (or aborts when there is none to restore).
        """
        while True:
            try:
                while not self._compound_superstep(step):
                    step += 1
                return self._finish()
            except FATAL_IO_FAULTS as exc:
                step = self._handle_fault(exc)

    def _compound_superstep(self, step: int) -> bool:
        """One superstep plus its barrier (checkpoint, events); True when done."""
        if step >= self.algorithm.MAX_SUPERSTEPS:
            raise AlgorithmError(
                "algorithm did not halt within "
                f"MAX_SUPERSTEPS={self.algorithm.MAX_SUPERSTEPS}"
            )
        if self.events is not None:
            self.events.superstep_started(step)
        bytes0 = self._bytes_moved() if self.events is not None else 0
        with self.obs.span("superstep", step=step, cat="layout") as sp:
            finished = self._superstep(step)
            io_ops = self.report.supersteps[-1].phases.total
            sp.add(io_ops=io_ops)
        if not finished and self.checkpoint_enabled:
            self._take_checkpoint(step + 1)
        self.obs.profile.mark_superstep(step)
        if self.events is not None:
            self.events.superstep_finished(
                step, io_ops=io_ops, bytes_moved=self._bytes_moved() - bytes0
            )
        return finished

    def _guarded_checkpoint(self, step: int) -> None:
        """Initial checkpoint, with the same fault handling as the loop."""
        try:
            self._take_checkpoint(step)
        except FATAL_IO_FAULTS as exc:
            raise SimulationAborted(
                f"fatal I/O fault before the first checkpoint: {exc}", None
            ) from exc

    def _handle_fault(self, exc: Exception) -> int:
        """Restore the last checkpoint; return the superstep to re-run."""
        self._recoveries += 1
        if self.last_checkpoint is None:
            raise SimulationAborted(
                f"fatal I/O fault with no checkpoint to recover from "
                f"(run with checkpoint=True): {exc}",
                None,
            ) from exc
        if self._recoveries > self.max_recoveries:
            raise SimulationAborted(
                f"fatal I/O fault after exhausting max_recoveries="
                f"{self.max_recoveries}: {exc}",
                self.last_checkpoint,
            ) from exc
        self._restore(self.last_checkpoint)
        return self.last_checkpoint.step

    # -- checkpoint/restore --------------------------------------------------------

    def _take_checkpoint(self, step: int) -> None:
        """Snapshot the barrier state reachable before superstep ``step``.

        Reading the contexts and incoming regions off the simulated disks is
        charged as real parallel I/O (``checkpoint_io_ops``, the maximum
        over processors like any phase); holding the pickled snapshot on the
        host side is free, like writing it to a durable service outside the
        machine model.  On non-memory planes the checkpoint is additionally
        published through the storage root's journal (atomic commit; see
        :class:`~repro.core.checkpoint.CheckpointJournal`).
        """
        self._crash_stage("torn")
        self._crash_stage("lost")
        with self.obs.span("checkpoint", step=step, cat="checkpoint") as sp:
            exports = self.backend.call_all("export_checkpoint")
            refs = [e[5] for e in exports]
            self.last_checkpoint = SuperstepCheckpoint(
                step=step,
                rng_state=self._checkpoint_rng([e[2] for e in exports]),
                proc_states=[e[0] for e in exports],
                proc_incoming=[e[1] for e in exports],
                report_blob=freeze((self.report, self.ledger)),
                dead_disks=[e[3] for e in exports],
                storage_refs=refs if any(r is not None for r in refs) else None,
            )
            self._checkpoints_taken += 1
            delta = max(e[4] for e in exports)
            self._checkpoint_io_ops += delta
            sp.add(io_ops=delta, bytes=self.last_checkpoint.size_bytes())
        self._publish_checkpoint()

    def _crash_stage(self, stage: str) -> None:
        """One crash-stage boundary: die here if the plan's point fired.

        Counts every boundary globally (``CRASH_STAGES`` per barrier, in
        execution order) so a ``CrashPlan.crash_point`` deterministically
        names one fsync/rename boundary of the run.  The ``"torn"`` and
        ``"lost"`` stages first make every processor damage its unsynced
        write log, then the engine dies — a whole-host crash that takes the
        workers' page caches with it.
        """
        plan = self.crash_plan
        if plan is None:
            return
        point = self._crash_counter
        self._crash_counter += 1
        if point != plan.crash_point:
            return
        if stage in ("torn", "lost"):
            self.backend.call_all("apply_crash", [(stage,)] * self.params.machine.p)
        raise HostCrash(f"injected host crash at point {point} (stage {stage!r})")

    def _publish_checkpoint(self) -> None:
        """Atomically publish the barrier through the storage root's journal."""
        self._crash_stage("postsync")
        if self._journal is not None:
            with self.obs.profile.scope("checkpoint"):
                self._journal.commit(
                    self.last_checkpoint, on_stage=self._crash_stage
                )
            self.obs.metrics.counter("checkpoint/commits").inc()

    def _refs_attachable(self, ckpt: SuperstepCheckpoint) -> bool:
        """Whether ``ckpt``'s storage refs name this engine's own track files."""
        refs = getattr(ckpt, "storage_refs", None)
        kind = self.storage_spec.kind
        return (
            refs is not None
            and len(refs) == self.params.machine.p
            and kind != "memory"
            and all(
                r is not None and r["kind"] == kind and r["root"] == self._proc_root(i)
                for i, r in enumerate(refs)
            )
        )

    def _restore(self, ckpt: SuperstepCheckpoint, attach: bool = False) -> None:
        """Re-enter ``ckpt``'s barrier: rewind report and ledger, then restore
        every processor (``attach``: re-attach its track files in place)."""
        p, step = self.params.machine.p, ckpt.step
        with self.obs.span("recover", step=step, cat="checkpoint") as sp:
            self.report, self.ledger = thaw(ckpt.report_blob)
            rngs = ckpt.rng_state
            if not isinstance(rngs, list):  # the sequential engine's format
                rngs = [rngs] * p
            if attach:
                refs = ckpt.storage_refs
                self.backend.call_all(
                    "attach_storage", [(refs[i], rngs[i], step) for i in range(p)]
                )
                delta = 0
            else:
                states, incoming = ckpt.proc_states, ckpt.proc_incoming
                delta = max(
                    self.backend.call_all(
                        "restore_checkpoint",
                        [(states[i], incoming[i], rngs[i], step) for i in range(p)],
                    )
                )
                self._recovery_io_ops += delta
            sp.add(io_ops=delta)
        if self.obs.enabled:
            self.obs.metrics.counter("recoveries").inc()

    # -- wrap-up -------------------------------------------------------------------

    def _finish(self) -> tuple[list[Any], SimulationReport]:
        """Unload the outputs and close the books (inside the recovery scope)."""
        self.ledger.close()
        self.report.ledger = self.ledger
        with self.obs.span("collect_outputs", cat="layout") as sp:
            collected = self.backend.call_all("collect_outputs")
            self.report.output_io_ops = max(io for _o, io, _hw in collected)
            sp.add(io_ops=self.report.output_io_ops)
        outputs: list[Any] = [None] * self.params.bsp.v
        for outs, _io, _hw in collected:
            for vp, out in outs.items():
                outputs[vp] = out
        self.report.disk_space_tracks = max(hw for _o, _io, hw in collected)
        self._attach_fault_report()
        if self.obs.enabled:
            self._final_telemetry()
            self.obs.metrics.gauge("disk_space_tracks").set(
                self.report.disk_space_tracks
            )
        self._emit_run_finished("ok")
        return outputs, self.report

    def _attach_fault_report(self) -> None:
        if (
            self.faults is None
            and not self.checkpoint_enabled
            and self._resumed_from is None
        ):
            return
        fr = FaultReport(
            recoveries=self._recoveries,
            checkpoints_taken=self._checkpoints_taken,
            checkpoint_io_ops=self._checkpoint_io_ops,
            recovery_io_ops=self._recovery_io_ops,
            resumed_from_step=self._resumed_from,
        )
        for stats in self.backend.call_all("fault_stats"):
            for name, count in stats.items():
                setattr(fr, name, getattr(fr, name) + count)
        self.report.faults = fr

    # -- live event stream ---------------------------------------------------------

    def _bytes_moved(self) -> int:
        """Host bytes physically moved so far: storage-plane traffic when the
        processors are in-process, pipe traffic when they live in workers."""
        if self.procs is not None:
            return sum(
                pr.array.storage_read_bytes + pr.array.storage_write_bytes
                for pr in self.procs
            )
        return self.backend.tx_bytes + self.backend.rx_bytes

    def _emit_run_started(self, **extra: Any) -> None:
        if self.events is None:
            return
        p = self.params
        self.events.run_started(
            engine=self.ENGINE,
            backend=self.backend.name,
            algorithm=type(self.algorithm).__name__,
            v=p.bsp.v,
            p=p.machine.p,
            D=p.machine.D,
            B=p.machine.B,
            storage=self.storage_spec.kind,
            **extra,
        )

    def _emit_run_finished(self, status: str, **extra: Any) -> None:
        if self.events is None:
            return
        rep = self.report
        self.events.run_finished(
            status,
            io_ops=rep.init_io_ops + rep.io_ops + rep.output_io_ops,
            bytes_moved=self._bytes_moved(),
            **extra,
        )
