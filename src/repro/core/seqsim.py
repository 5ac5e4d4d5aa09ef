"""Algorithm 1 — **SeqCompoundSuperstep**: BSP* on a single-processor EM machine.

Simulates a ``v``-processor BSP* algorithm on one real processor with ``D``
disks and ``M`` records of memory.  Virtual processors are swapped through
memory in groups of ``k = floor(M/mu)``; per compound superstep and group:

1. *Fetching phase* — read the group's contexts (Step 1(a)) and incoming
   message blocks (Step 1(b)) from their standard-consecutive regions.
2. *Computation phase* — run the group's supersteps in memory (Step 1(c)).
3. *Writing phase* — cut generated messages into blocks of ``B``, write them
   to randomly permuted disks into ``D`` destination buckets in standard
   linked format (Step 1(d)), and write the changed contexts back (Step 1(e)).

After all ``v/k`` groups, Step 2 (:func:`repro.core.routing.simulate_routing`,
the paper's Algorithm 2) reorganizes the buckets into the next superstep's
incoming region.

The execution is *transparent*: outputs are identical to the in-memory
reference runner for every algorithm and every valid parameter choice
(invariant I3), while every byte travels through the simulated disks under
the blocking and parallelism discipline of the EM-BSP model.

Robustness (``faults``/``retry``/``checkpoint`` knobs): the disk substrate
can inject transient errors, corruption, latency spikes, and permanent disk
death (:mod:`repro.emio.faults`).  Transient faults are masked inside
:class:`~repro.emio.diskarray.DiskArray` by bounded retries; fatal faults
(lost data, a died drive mid-access, an exhausted retry budget) surface as
exceptions and are handled here by restoring the last compound-superstep
checkpoint and re-running only the failed superstep — the barrier is a
natural recovery line because nothing survives it except the contexts, the
incoming region, the RNG state, and the ledger
(:mod:`repro.core.checkpoint`).  Because message reassembly sorts blocks by
(source, message, sequence) and the computation is deterministic, neither
degraded-mode block placement nor a superstep re-run can change the
simulated algorithm's outputs.
"""

from __future__ import annotations

import random
from typing import Any

from ..bsp.message import blocks_to_messages, message_to_blocks
from ..bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from ..costs import CostLedger, packets_for
from ..emio.disk import Block
from ..emio.diskarray import DiskArray
from ..emio.faults import FATAL_IO_FAULTS, CrashPlan, FaultPlan, HostCrash, RetryPolicy
from ..emio.layout import RegionAllocator, StripedRegion
from ..emio.linked import LinkedBuckets
from ..emio.storage import StorageSpec, resolve_storage
from ..obs.live import RunEventLog
from ..obs.spans import NULL_OBSERVER, Collector
from ..params import ParameterError, SimulationParams
from .checkpoint import (
    CheckpointJournal,
    SimulationAborted,
    SuperstepCheckpoint,
    freeze,
    thaw,
)
from .context import ContextStore
from .routing import simulate_routing
from .stats import FaultReport, PhaseBreakdown, SimulationReport, SuperstepReport

__all__ = ["SequentialEMSimulation"]


class SequentialEMSimulation:
    """Runs a :class:`BSPAlgorithm` under Algorithm 1 (single real processor).

    Parameters
    ----------
    algorithm:
        The BSP*/CGM algorithm to simulate.
    params:
        Joint machine/virtual-machine parameters (``params.machine.p`` must
        be 1; use :class:`~repro.core.parsim.ParallelEMSimulation` otherwise).
    seed:
        Seed of the random disk-write permutations (Step 1(d)).
    pad_to_gamma:
        If True, pad every group's message traffic with dummy blocks to the
        worst case ``k * ceil(gamma/B)`` the analysis assumes (Lemma 3's
        "introduction of dummy blocks").  Costs rise to the analytic bound;
        results are unaffected.
    enforce_gamma:
        Enforce the declared per-superstep communication bound on both the
        sending and receiving side.
    round_robin_writes:
        Ablation switch: replace the random write permutation with a
        deterministic rotation (see the ABL benchmark).
    write_schedule:
        Explicit disk-write schedule ("random", "rotate", "static",
        "balance"); overrides ``round_robin_writes``.  "balance" is the
        paper's deterministic variant for predetermined (CGM) traffic.
    faults:
        A :class:`~repro.emio.faults.FaultPlan` to inject disk faults, or
        None for a healthy array.
    retry:
        :class:`~repro.emio.faults.RetryPolicy` bounding the transient-fault
        retries (defaults to ``RetryPolicy()`` whenever ``faults`` is given).
    checkpoint:
        Take a host-side checkpoint at every compound-superstep barrier and
        recover from fatal I/O faults by restoring it.  Off by default: the
        checkpoint reads are charged as real parallel I/O.
    max_recoveries:
        Fatal-fault recovery budget; exceeding it raises
        :class:`~repro.core.checkpoint.SimulationAborted` carrying the last
        good checkpoint (hand it to :meth:`resume_from_checkpoint`).
    context_cache:
        Context-swap fast path: keep pickled context bytes host-side with a
        dirty bit; swaps charge the identical counted I/O without moving
        block data (see :class:`~repro.core.context.ContextStore`).  Model
        costs and outputs are unchanged; only host wall-clock improves.
    fast_io:
        Enable the disk array's fast data plane — counted-cost-identical
        short-circuits of the parallel primitives, legal only on a healthy,
        untraced array (auto-disabled otherwise).
    observer:
        Optional :class:`~repro.obs.spans.Collector` receiving nested spans
        (superstep > phase), per-disk counter samples, and run metrics.
        Purely read-only at phase boundaries: counted costs, outputs, and
        reports are byte-identical with and without it, and the fast data
        plane stays available (unlike :meth:`repro.emio.trace.IOTrace.attach`).
        A ``Collector(profile=True)`` additionally receives the wall-clock
        attribution profile (DESIGN §11): the engine installs the
        collector's :class:`~repro.obs.profile.CategoryProfiler` into its
        disk array (and therefore the storage plane) and bills each phase
        to its category.
    events:
        Optional :class:`~repro.obs.live.RunEventLog`: the engine streams
        ``run_started`` / ``superstep_started`` / ``superstep_finished`` /
        ``run_finished`` events (with counted io_ops, storage bytes moved,
        and an ETA when the log has an ``expected_steps`` hint) as
        line-flushed JSONL.  Read-only like the observer.
    storage:
        Storage plane for the simulated drives: ``"memory"`` (default),
        ``"file"``, or ``"mmap"`` — or a prebuilt
        :class:`~repro.emio.storage.StorageSpec`.  Non-memory planes hold
        every track in per-drive files, making the run truly out-of-core.
        The plane is invisible to the counted model: outputs, ledger, and
        traces are byte-identical across planes (DESIGN §8).
    storage_dir:
        Directory for the non-memory planes' track files.  Defaults to a
        private temporary directory removed when the run finishes; an
        explicit directory persists (that is what crash-resume points at).
    crash:
        A :class:`~repro.emio.faults.CrashPlan` injecting one hard host
        crash at a chosen barrier stage (torn/lost unsynced writes, or a
        kill around the journal commit).  Requires ``checkpoint=True`` and
        a non-memory plane; the run dies with
        :class:`~repro.emio.faults.HostCrash` and is meant to be scrubbed
        and resumed by a fresh engine (see ``repro crashcheck``).
    """

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        seed: int = 0,
        pad_to_gamma: bool = False,
        enforce_gamma: bool = True,
        round_robin_writes: bool = False,
        write_schedule: str | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        checkpoint: bool = False,
        max_recoveries: int = 8,
        context_cache: bool = False,
        fast_io: bool = False,
        observer: Collector | None = None,
        events: "RunEventLog | None" = None,
        storage: "str | StorageSpec" = "memory",
        storage_dir: str | None = None,
        crash: CrashPlan | None = None,
    ):
        if params.machine.p != 1:
            raise ParameterError(
                f"SequentialEMSimulation requires p=1, got p={params.machine.p}"
            )
        self.algorithm = algorithm
        self.params = params
        self.rng = random.Random(seed)
        self.pad_to_gamma = pad_to_gamma
        self.enforce_gamma = enforce_gamma
        self.write_schedule = write_schedule or (
            "rotate" if round_robin_writes else "random"
        )
        self.checkpoint_enabled = checkpoint
        self.max_recoveries = max_recoveries
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.events = events
        self.storage_spec = resolve_storage(storage, storage_dir)
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

        m = params.machine
        self.array = DiskArray(
            m.D, m.B, faults=faults, retry=retry, proc=0, fast_io=fast_io,
            storage=self.storage_spec,
        )
        # Thread the attribution profiler through the storage plane by
        # reference (NULL_PROFILER when the collector is unprofiled).
        self.array.set_profiler(self.obs.profile)
        self.allocator = RegionAllocator(self.array)
        self.ledger = CostLedger(m)
        self.report = SimulationReport(params=params, ledger=self.ledger)

        self.gamma = algorithm.comm_bound() if enforce_gamma else None
        self.gpb = -(-params.bsp.gamma // m.B) if params.bsp.gamma else 0
        self.groups = params.bsp.v // params.k
        self.contexts = ContextStore(
            self.array, self.allocator, params.bsp.v, params.bsp.mu, m.B,
            name="contexts", cache=context_cache,
        )

        # -- live simulation state (checkpoint/restore targets) ----------------
        self._incoming: StripedRegion | None = None
        self._buckets: LinkedBuckets | None = None
        self.last_checkpoint: SuperstepCheckpoint | None = None
        self._recoveries = 0
        self._checkpoints_taken = 0
        self._checkpoint_io_ops = 0
        self._recovery_io_ops = 0
        self._resumed_from: int | None = None

    # -- helpers -------------------------------------------------------------------

    def _bucket_of(self, dest: int) -> int:
        """Bucket ``i`` holds blocks for the ``i``-th range of ``v/D`` vps."""
        v, D = self.params.bsp.v, self.params.machine.D
        return dest * D // v

    def _io_delta(self, since: int) -> int:
        return self.array.parallel_ops - since

    def _stall_total(self) -> int:
        """Stall op-equivalents so far: retry backoff plus latency spikes."""
        inj = self.array.injector
        return self.array.stall_ops + (inj.stats.stall_ops if inj else 0)

    def _group_slots(self, g: int) -> list[int]:
        k = self.params.k
        return list(range(g * k, (g + 1) * k))

    def _sample_disks(self, buckets: LinkedBuckets | None = None) -> None:
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

    def _bytes_moved(self) -> int:
        """Cumulative host bytes through the storage plane (0 on memory)."""
        return self.array.storage_read_bytes + self.array.storage_write_bytes

    def _emit_run_started(self, **extra: Any) -> None:
        if self.events is None:
            return
        p = self.params
        self.events.run_started(
            engine="sequential",
            algorithm=type(self.algorithm).__name__,
            v=p.bsp.v,
            p=1,
            D=p.machine.D,
            B=p.machine.B,
            storage=self.storage_spec.kind,
            **extra,
        )

    def _emit_run_finished(self, status: str, **extra: Any) -> None:
        if self.events is None:
            return
        self.events.run_finished(
            status,
            io_ops=self.array.parallel_ops,
            bytes_moved=self._bytes_moved(),
            **extra,
        )

    # -- main entry ------------------------------------------------------------------

    def run(self) -> tuple[list[Any], SimulationReport]:
        """Simulate to completion; return (per-vp outputs, report)."""
        self.obs.profile.start()
        self._emit_run_started()
        try:
            self._load_input()
            if self.checkpoint_enabled:
                self._guarded_checkpoint(0)
            self._run_from(0)
            return self._finish()
        except BaseException as exc:
            self._emit_run_finished("error", error=repr(exc))
            raise
        finally:
            self.obs.profile.stop()
            self._close_storage()

    def resume_from_checkpoint(
        self, ckpt: SuperstepCheckpoint
    ) -> tuple[list[Any], SimulationReport]:
        """Continue an aborted run from a checkpoint, on this (fresh) engine.

        Rewrites the checkpointed contexts and incoming region onto this
        engine's disk array, restores the RNG and the ledger, and resumes at
        ``ckpt.step`` — completed supersteps are *not* re-run.  The engine
        must have been built with the same algorithm and parameters as the
        aborted one (typically on healthy replacement hardware, so no fault
        plan).

        When the checkpoint carries storage references (non-memory plane)
        and this engine points at the *same* plane kind and ``storage_dir``,
        the on-disk track files are re-attached in place — no rehydration
        I/O — which is the fresh-process crash-recovery path.  Otherwise the
        portable pickled state in the checkpoint is rewritten as usual.
        """
        if ckpt.nprocs != 1:
            raise ParameterError(
                f"checkpoint holds {ckpt.nprocs} processors, expected 1"
            )
        self.obs.profile.start()
        self._emit_run_started(resumed_from=ckpt.step)
        try:
            self._resumed_from = ckpt.step
            self.last_checkpoint = ckpt
            refs = getattr(ckpt, "storage_refs", None)
            if self._refs_attachable(refs):
                self._attach_storage(ckpt, refs[0])
            else:
                self._restore(ckpt)
            self._run_from(ckpt.step)
            return self._finish()
        except BaseException as exc:
            self._emit_run_finished("error", error=repr(exc))
            raise
        finally:
            self.obs.profile.stop()
            self._close_storage()

    def _close_storage(self) -> None:
        self.array.close_storage()
        self.storage_spec.cleanup()

    # -- run skeleton ---------------------------------------------------------------

    def _load_input(self) -> None:
        """Create and store the initial contexts, ``k`` at a time."""
        alg, v = self.algorithm, self.params.bsp.v
        with self.obs.span("load_input", cat="layout") as sp:
            ops0 = self.array.parallel_ops
            for g in range(self.groups):
                slots = self._group_slots(g)
                states = [alg.initial_state(pid, v) for pid in slots]
                self.contexts.save_group(slots, states)
            self.report.init_io_ops = self._io_delta(ops0)
            sp.add(io_ops=self.report.init_io_ops)

    def _run_from(self, start: int) -> None:
        """Drive supersteps from ``start``, recovering from fatal faults."""
        step = start
        while True:
            if step >= self.algorithm.MAX_SUPERSTEPS:
                raise AlgorithmError(
                    "algorithm did not halt within "
                    f"MAX_SUPERSTEPS={self.algorithm.MAX_SUPERSTEPS}"
                )
            try:
                if self.events is not None:
                    self.events.superstep_started(step)
                bytes0 = self._bytes_moved()
                with self.obs.span("superstep", step=step, cat="layout") as sp:
                    finished = self._superstep(step)
                    sp.add(io_ops=self.report.supersteps[-1].phases.total)
                if not finished and self.checkpoint_enabled:
                    self._take_checkpoint(step + 1)
                self.obs.profile.mark_superstep(step)
                if self.events is not None:
                    self.events.superstep_finished(
                        step,
                        io_ops=self.report.supersteps[-1].phases.total,
                        bytes_moved=self._bytes_moved() - bytes0,
                    )
            except FATAL_IO_FAULTS as exc:
                step = self._handle_fault(exc)
                continue
            if finished:
                return
            step += 1

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

    # -- checkpoint/restore ----------------------------------------------------------

    def _take_checkpoint(self, step: int) -> None:
        """Snapshot the barrier state reachable before superstep ``step``.

        Reading the contexts and the incoming region off the simulated disks
        is charged as real parallel I/O (``checkpoint_io_ops``); holding the
        pickled snapshot on the host side is free, like writing it to a
        durable service outside the machine model.  On non-memory planes the
        checkpoint is additionally published through the storage root's
        journal (atomic commit; see :class:`~repro.core.checkpoint.CheckpointJournal`).
        """
        self._crash_stage("torn")
        self._crash_stage("lost")
        with self.obs.span("checkpoint", step=step, cat="checkpoint") as sp:
            ops0 = self.array.parallel_ops
            states = self.contexts.export_all(group_size=self.params.k)
            if self._incoming is not None:
                inc = self._incoming
                blocks = inc.read_slots(range(inc.nslots))
                inc_blob = freeze((inc.slot_sizes, blocks))
            else:
                inc_blob = None
            self.last_checkpoint = SuperstepCheckpoint(
                step=step,
                rng_state=self.rng.getstate(),
                proc_states=[freeze(states)],
                proc_incoming=[inc_blob],
                report_blob=freeze((self.report, self.ledger)),
                dead_disks=[set(self.array.dead_disks)],
                storage_refs=self._storage_refs(),
            )
            self._checkpoints_taken += 1
            delta = self._io_delta(ops0)
            self._checkpoint_io_ops += delta
            sp.add(io_ops=delta, bytes=self.last_checkpoint.size_bytes())
        self._publish_checkpoint()

    def _crash_stage(self, stage: str) -> None:
        """One crash-stage boundary: die here if the plan's point fired.

        Counts every boundary globally (``CRASH_STAGES`` per barrier, in
        execution order) so a ``CrashPlan.crash_point`` deterministically
        names one fsync/rename boundary of the run.  The ``"torn"`` and
        ``"lost"`` stages damage the unsynced write log before dying.
        """
        plan = self.crash_plan
        if plan is None:
            return
        point = self._crash_counter
        self._crash_counter += 1
        if point != plan.crash_point:
            return
        if stage in ("torn", "lost"):
            self.array.crash_storage(stage)
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

    def _storage_refs(self) -> list[dict] | None:
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
        inc = self._incoming
        return [
            {
                "kind": self.storage_spec.kind,
                "root": self.storage_spec.root,
                "disks": self.array.snapshot_storage(),
                "alloc": (self.allocator.next_track, list(self.allocator._free)),
                "ctx_used": list(self.contexts._used),
                "incoming": None
                if inc is None
                else (list(inc.slot_sizes), inc.base, inc.name),
            }
        ]

    def _refs_attachable(self, refs: list[dict | None] | None) -> bool:
        return (
            refs is not None
            and len(refs) == 1
            and refs[0] is not None
            and self.storage_spec.kind != "memory"
            and refs[0]["kind"] == self.storage_spec.kind
            and refs[0]["root"] == self.storage_spec.root
        )

    def _attach_storage(self, ckpt: SuperstepCheckpoint, ref: dict) -> None:
        """Re-attach the checkpoint's on-disk track files (no rehydration).

        The engine's drives already point at the same files; installing the
        snapshot's track maps plus the allocator/region/context metadata
        re-enters the barrier without a single parallel I/O operation —
        ``recovery_io_ops`` stays 0, which is the whole point of
        checkpoint-by-reference.
        """
        with self.obs.span("recover", step=ckpt.step, cat="checkpoint") as sp:
            self.report, self.ledger = thaw(ckpt.report_blob)
            self.rng.setstate(ckpt.rng_state)
            self.array.restore_storage(ref["disks"])
            next_track, free = ref["alloc"]
            self.allocator.next_track = next_track
            self.allocator._free = sorted(tuple(run) for run in free)
            self.contexts._used = list(ref["ctx_used"])
            self.contexts.invalidate_cache()
            # Cache-mode saves are charge-only on the fast plane, so the
            # attached disk image has no context bytes — reseed the cache
            # from the checkpoint's portable states (no counted I/O).
            self.contexts.prime_cache(thaw(ckpt.proc_states[0]))
            if ref["incoming"] is not None:
                slot_sizes, base, name = ref["incoming"]
                self._incoming = StripedRegion.adopt(
                    self.array, self.allocator, slot_sizes, base, name=name
                )
            sp.add(io_ops=0)
        if self.obs.enabled:
            self.obs.metrics.counter("recoveries").inc()

    def _restore(self, ckpt: SuperstepCheckpoint) -> None:
        """Rewrite the checkpointed barrier state onto the (possibly
        degraded) disk array and rewind report, ledger, and RNG."""
        with self.obs.span("recover", step=ckpt.step, cat="checkpoint") as sp:
            ops0 = self.array.parallel_ops
            # Drop partial superstep state.  Scratch leaked by an interrupted
            # reorganization stays allocated (it only inflates the space high
            # water, like a real crash leaving unreclaimed sectors).
            if self._buckets is not None:
                self._buckets.free()
                self._buckets = None
            if self._incoming is not None:
                self._incoming.free()
                self._incoming = None
            self.report, self.ledger = thaw(ckpt.report_blob)
            self.rng.setstate(ckpt.rng_state)
            self.contexts.import_all(
                thaw(ckpt.proc_states[0]), group_size=self.params.k
            )
            if ckpt.proc_incoming[0] is not None:
                slot_sizes, blocks = thaw(ckpt.proc_incoming[0])
                region = StripedRegion(
                    self.array, self.allocator, slot_sizes,
                    name=f"incoming@resume{ckpt.step}",
                )
                region.write_slots(range(region.nslots), blocks)
                self._incoming = region
            delta = self._io_delta(ops0)
            self._recovery_io_ops += delta
            sp.add(io_ops=delta)
        if self.obs.enabled:
            self.obs.metrics.counter("recoveries").inc()

    # -- one compound superstep --------------------------------------------------------

    def _superstep(self, step: int) -> bool:
        """Run compound superstep ``step``; return True when the algorithm
        halted with no traffic in flight."""
        alg = self.algorithm
        p = self.params
        v, k, B = p.bsp.v, p.k, p.machine.B
        gamma = self.gamma

        cost = self.ledger.begin_superstep(label=f"superstep {step}")
        phases = PhaseBreakdown()
        retry0 = self.array.retry_ops
        stall0 = self._stall_total()
        self._buckets = buckets = LinkedBuckets(
            self.array,
            self.allocator,
            nbuckets=p.machine.D,
            bucket_of=self._bucket_of,
            rng=self.rng,
            schedule=self.write_schedule,
        )
        all_halted = True
        blocks_generated = 0
        sent_packets = [0] * v
        recv_packets = [0] * v
        dummy_rr = 0

        obs = self.obs
        for g in range(self.groups):
            slots = self._group_slots(g)

            # -- Fetching phase: Step 1(a) contexts, Step 1(b) messages --
            with obs.span("fetch_context", group=g, cat="layout") as sp:
                t = self.array.parallel_ops
                states = self.contexts.load_group(slots)
                d = self._io_delta(t)
                phases.fetch_context += d
                sp.add(io_ops=d)

            with obs.span("fetch_messages", group=g, cat="layout") as sp:
                t = self.array.parallel_ops
                if self._incoming is not None:
                    group_blocks = self._incoming.read_slots(slots)
                else:
                    group_blocks = [[] for _ in slots]
                d = self._io_delta(t)
                phases.fetch_messages += d
                sp.add(io_ops=d)

            # -- Computation phase: Step 1(c) --
            group_out_blocks: list[Block] = []
            new_states = []
            with obs.span("compute", group=g, cat="kernel") as sp:
                comp0 = cost.comp_ops
                for pid, state, blks in zip(slots, states, group_blocks):
                    msgs = blocks_to_messages(blks)
                    if gamma is not None:
                        nrecv = sum(m.size for m in msgs)
                        if nrecv > gamma:
                            raise AlgorithmError(
                                f"vp {pid} received {nrecv} records in superstep "
                                f"{step}, exceeding gamma={gamma}"
                            )
                    ctx = VPContext(pid, v, step, state, msgs, comm_bound=gamma)
                    alg.superstep(ctx)
                    new_states.append(ctx.state)
                    if not ctx.halted:
                        all_halted = False
                    cost.comp_ops += ctx.comp_ops
                    for mi, m in enumerate(ctx.outbox):
                        pk = packets_for(max(m.size, 1), p.machine.b)
                        sent_packets[pid] += pk
                        recv_packets[m.dest] += pk
                        cost.records_sent += m.size
                        group_out_blocks.extend(message_to_blocks(m, B, mi))
                sp.add(comp_ops=cost.comp_ops - comp0)

            # -- Writing phase: Step 1(d) messages, Step 1(e) contexts --
            if self.pad_to_gamma:
                want = k * self.gpb
                while len(group_out_blocks) < want:
                    group_out_blocks.append(
                        Block(records=[], dest=dummy_rr % v, dummy=True)
                    )
                    dummy_rr += 1
            with obs.span("write_messages", group=g, cat="layout") as sp:
                t = self.array.parallel_ops
                buckets.append_blocks(group_out_blocks)
                d = self._io_delta(t)
                phases.write_messages += d
                sp.add(io_ops=d, blocks=len(group_out_blocks))
            blocks_generated += sum(0 if b.dummy else 1 for b in group_out_blocks)

            with obs.span("write_context", group=g, cat="layout") as sp:
                t = self.array.parallel_ops
                self.contexts.save_group(slots, new_states)
                d = self._io_delta(t)
                phases.write_context += d
                sp.add(io_ops=d)

        # -- Step 2: reorganize the generated blocks (Algorithm 2) --
        if obs.enabled:
            self._sample_disks(buckets)
        with obs.span("reorganize", cat="routing") as sp:
            t = self.array.parallel_ops
            new_incoming, routing = simulate_routing(
                self.array,
                self.allocator,
                buckets,
                nslots=v,
                slot_of=lambda dest: dest,
                name=f"incoming@{step + 1}",
            )
            d = self._io_delta(t)
            phases.reorganize += d
            sp.add(io_ops=d, blocks=routing.total_blocks)
        buckets.free()
        self._buckets = None
        if self._incoming is not None:
            self._incoming.free()
        self._incoming = new_incoming

        # BSP*-equivalent communication cost of the *virtual* machine
        # (diagnostic; the real machine has p=1 and no router traffic).
        cost.comm_packets = max(
            (sent_packets[i] + recv_packets[i] for i in range(v)), default=0
        )
        cost.io_ops = phases.total
        cost.records_io = phases.total * p.machine.D * B
        cost.retry_ops = self.array.retry_ops - retry0
        cost.stall_ops = self._stall_total() - stall0

        self.report.supersteps.append(
            SuperstepReport(
                index=step,
                phases=phases,
                routing=routing,
                comm_packets=cost.comm_packets,
                message_blocks=blocks_generated,
                halted=all_halted,
            )
        )
        if obs.enabled:
            mx = obs.metrics
            mx.histogram("lemma2_load_ratio").record(routing.max_load_ratio)
            mx.histogram("superstep_io_ops").record(phases.total)
            mx.counter("comm_packets").inc(cost.comm_packets)
            mx.counter("message_blocks").inc(blocks_generated)
            if cost.retry_ops or cost.stall_ops:
                mx.counter("retry_ops").inc(cost.retry_ops)
                mx.counter("stall_ops").inc(cost.stall_ops)
        return all_halted and blocks_generated == 0

    # -- wrap-up ---------------------------------------------------------------------

    def _finish(self) -> tuple[list[Any], SimulationReport]:
        alg = self.algorithm
        self.ledger.close()
        self.report.ledger = self.ledger

        # ---- unload output, k contexts at a time ----
        with self.obs.span("collect_outputs", cat="layout") as sp:
            ops0 = self.array.parallel_ops
            outputs: list[Any] = []
            for g in range(self.groups):
                slots = self._group_slots(g)
                for pid, state in zip(slots, self.contexts.load_group(slots)):
                    outputs.append(alg.output(pid, state))
            self.report.output_io_ops = self._io_delta(ops0)
            sp.add(io_ops=self.report.output_io_ops)
        self.report.disk_space_tracks = self.allocator.high_water
        if self.obs.enabled:
            self._sample_disks()
            mx = self.obs.metrics
            mx.gauge("disk_space_tracks").set(self.report.disk_space_tracks)
            mx.counter("ctx_cache/hits").inc(self.contexts.cache_hits)
            mx.counter("ctx_cache/misses").inc(self.contexts.cache_misses)
            if self.array.storage_read_bytes or self.array.storage_write_bytes:
                mx.counter("storage/read_bytes").inc(self.array.storage_read_bytes)
                mx.counter("storage/write_bytes").inc(self.array.storage_write_bytes)
        self._attach_fault_report()
        self._emit_run_finished("ok")
        return outputs, self.report

    def _attach_fault_report(self) -> None:
        if (
            self.array.injector is None
            and not self.checkpoint_enabled
            and self._resumed_from is None
        ):
            return
        fr = FaultReport(
            retry_reads=self.array.retry_reads,
            retry_writes=self.array.retry_writes,
            stall_ops=self._stall_total(),
            degraded_writes=self.array.degraded_writes,
            recoveries=self._recoveries,
            checkpoints_taken=self._checkpoints_taken,
            checkpoint_io_ops=self._checkpoint_io_ops,
            recovery_io_ops=self._recovery_io_ops,
            resumed_from_step=self._resumed_from,
        )
        inj = self.array.injector
        if inj is not None:
            s = inj.stats
            fr.transient_read_errors = s.transient_read_errors
            fr.transient_write_errors = s.transient_write_errors
            fr.corruptions_injected = s.corruptions_injected
            fr.checksum_errors = s.checksum_errors
            fr.latency_spikes = s.latency_spikes
            fr.disks_died = s.disks_died
        self.report.faults = fr
