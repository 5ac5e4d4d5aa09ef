"""Algorithm 3 — **ParCompoundSuperstep**: BSP* on a ``p``-processor EM machine.

Each real processor ``i`` simulates the virtual processors
``i*(v/p) .. (i+1)*(v/p)-1`` and owns its own memory, router port, and ``D``
local disks.  A compound superstep runs in ``v/(p*k)`` *rounds*; in round
``j`` processor ``i`` simulates virtual processors
``i*(v/p)+j*k .. i*(v/p)+(j+1)*k-1`` (the *batch* ``j`` comprises the
``p*k`` virtual processors simulated in round ``j`` across all processors).

Per round:

* **Fetching phase** (Step 1(a)) — each processor reads from its local disks
  the message blocks pertaining to batch ``j`` (scattered there at random in
  the previous superstep), combines blocks bound for a common simulating
  processor into packets of size ``b``, and routes them in one h-relation.
  It also reads its ``k`` current contexts locally.
* **Computing phase** (Step 1(b)) — the ``k`` virtual supersteps run; changed
  contexts go back to the local disks.
* **Writing phase** (Step 1(c)) — generated messages are split into packets
  of size ``b`` and each packet is sent to a *uniformly random* processor
  (balls-into-bins; Lemma 10 bounds the per-processor load whp).  Receivers
  cut packets into blocks of size ``B`` and append them to their local
  ``D``-bucket stores with random-permutation disk writes.

After the last round, Step 2 runs Algorithm 2 (`simulate_routing`) locally on
every processor, producing per-batch standard-consecutive regions for the
next compound superstep.

**Backends** (see :mod:`repro.core.backend`): the per-processor work lives in
:class:`_RealProcessor`, whose phase methods are driven through a backend —
``"inline"`` (default, the reference) calls them in index order in-process;
``"process"`` runs each processor in its own ``multiprocessing`` worker, the
superstep barriers becoming send-all/receive-all pipe rounds that exchange
packed message payloads and per-worker ledger deltas.  Every processor draws
from its own deterministic RNG stream (seeded ``{seed}/proc{i}``), so both
backends produce identical outputs, ledgers, and reports.  All costs are
accounted as the model prescribes regardless of backend: per phase the
*maximum* over processors of computation, packets, and parallel I/O
operations, plus the barrier cost ``L`` per h-relation.

Robustness: the same ``faults``/``retry``/``checkpoint`` knobs as the
sequential engine (see :mod:`repro.core.seqsim` and
:mod:`repro.core.checkpoint`), with per-processor fault streams — a
``FaultPlan``'s ``dead_proc`` selects which real processor's drive dies.  A
fatal fault on *any* processor rolls every processor back to the last
compound-superstep barrier, because the barrier is the only globally
consistent cut of the distributed state (the process backend reports a
worker's fault only after the whole barrier round completes, so the rollback
reaches every worker in a consistent state).
"""

from __future__ import annotations

import random
from typing import Any

from ..bsp.message import (
    Packet,
    blocks_to_messages,
    message_to_packets,
    packet_to_blocks,
)
from ..bsp.program import AlgorithmError, BSPAlgorithm, VPContext
from ..costs import CostLedger, packets_for
from ..emio.disk import Block
from ..emio.diskarray import DiskArray
from ..emio.faults import FATAL_IO_FAULTS, CrashPlan, FaultPlan, HostCrash, RetryPolicy
from ..emio.layout import RegionAllocator, StripedRegion
from ..emio.linked import LinkedBuckets
from ..emio.storage import StorageSpec, resolve_storage
from ..obs.live import RunEventLog
from ..obs.spans import NULL_OBSERVER, Collector, NullObserver
from ..params import ParameterError, SimulationParams
from .backend import make_backend
from .checkpoint import (
    CheckpointJournal,
    SimulationAborted,
    SuperstepCheckpoint,
    freeze,
    thaw,
)
from .context import ContextStore
from .routing import RoutingStats, simulate_routing
from .stats import FaultReport, PhaseBreakdown, SimulationReport, SuperstepReport

__all__ = ["ParallelEMSimulation"]


class _RealProcessor:
    """One real processor: disks, contexts, bucket store, and phase methods.

    Self-contained and picklable-by-construction (built from its init tuple
    inside a worker when the process backend is used).  Every method takes
    and returns plain picklable values plus this processor's parallel-I/O
    delta, so the engine can do the model's max-over-processors accounting
    identically for every backend.
    """

    def __init__(
        self,
        index: int,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        seed: int,
        write_schedule: str,
        faults: FaultPlan | None,
        retry: RetryPolicy | None,
        enforce_gamma: bool,
        context_cache: bool,
        fast_io: bool,
        observe: bool = False,
        storage: StorageSpec | None = None,
        profile: bool = False,
    ):
        self.index = index
        self.algorithm = algorithm
        self.params = params
        m, s = params.machine, params.bsp
        self.p = m.p
        self.v = s.v
        self.k = params.k
        self.vpp = s.v // m.p
        self.nbatches = self.vpp // self.k
        self.gamma = algorithm.comm_bound() if enforce_gamma else None
        self.write_schedule = write_schedule
        # Per-processor deterministic RNG stream: identical across backends,
        # independent across processors (no cross-processor draw ordering).
        self.rng = random.Random(f"{seed}/proc{index}")
        # Each real processor owns its drives, so each gets its own storage
        # sub-root (claimed worker-side under the process backend).
        spec = storage if storage is not None else StorageSpec()
        self.storage_spec = spec.for_proc(index)
        self.array = DiskArray(
            m.D, m.B, faults=faults, retry=retry, proc=index, fast_io=fast_io,
            storage=self.storage_spec,
        )
        self.allocator = RegionAllocator(self.array)
        self.contexts = ContextStore(
            self.array,
            self.allocator,
            self.vpp,
            s.mu,
            m.B,
            name=f"ctx@p{index}",
            cache=context_cache,
        )
        self.incoming: StripedRegion | None = None
        self.buckets: LinkedBuckets | None = None
        self.io_marker = 0
        # Worker-side telemetry: spans/samples/metrics collected here and
        # drained to the engine (over the pipe, under the process backend)
        # by drain_obs() — per-worker visibility with zero cost when off.
        self.obs: Collector | NullObserver = (
            Collector(proc=index, profile=profile) if observe else NULL_OBSERVER
        )
        # Under the process backend this worker's private profiler bills the
        # local storage plane; under the inline backend the engine replaces
        # it with its own (share_profile) right after construction.
        self.array.set_profiler(self.obs.profile)
        self.obs.profile.start()

    # -- placement (local views of the engine's maps) --------------------------

    def owner_of_vp(self, vp: int) -> int:
        return vp // self.vpp

    def batch_of_vp(self, vp: int) -> int:
        return (vp % self.vpp) // self.k

    def bucket_of_vp(self, vp: int) -> int:
        return self.batch_of_vp(vp) * self.params.machine.D // self.nbatches

    def round_vps(self, j: int) -> list[int]:
        base = self.index * self.vpp + j * self.k
        return list(range(base, base + self.k))

    def _round_slots(self, j: int) -> list[int]:
        return list(range(j * self.k, (j + 1) * self.k))

    # -- bookkeeping ------------------------------------------------------------

    def io_delta(self) -> int:
        d = self.array.parallel_ops - self.io_marker
        self.io_marker = self.array.parallel_ops
        return d

    def stall_total(self) -> int:
        inj = self.array.injector
        return self.array.stall_ops + (inj.stats.stall_ops if inj else 0)

    def _sample_disks(self, buckets: LinkedBuckets | None = None) -> None:
        """One timestamped sample per local disk (pure counter reads)."""
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

    # -- phase protocol (driven by the engine through a backend) ----------------

    def load_input(self) -> int:
        alg = self.algorithm
        with self.obs.span("load_input", cat="layout") as sp:
            for j in range(self.nbatches):
                vps = self.round_vps(j)
                states = [alg.initial_state(vp, self.v) for vp in vps]
                self.contexts.save_group(self._round_slots(j), states)
            delta = self.io_delta()
            sp.add(io_ops=delta)
        return delta

    def begin_superstep(self) -> tuple[int, int]:
        """Open a compound superstep; returns (retry_ops, stall_ops) marks."""
        self.buckets = LinkedBuckets(
            self.array,
            self.allocator,
            nbuckets=self.params.machine.D,
            bucket_of=self.bucket_of_vp,
            rng=self.rng,
            schedule=self.write_schedule,
        )
        return self.array.retry_ops, self.stall_total()

    def fetch(self, j: int) -> tuple[dict[int, list[Block]], int]:
        """Step 1(a): read batch ``j``'s blocks, grouped by owning processor."""
        with self.obs.span("fetch", batch=j, cat="layout") as sp:
            if self.incoming is not None:
                blks = [
                    blk
                    for blk in self.incoming.read_slot(j)
                    if blk is not None and not blk.dummy
                ]
            else:
                blks = []
            by_owner: dict[int, list[Block]] = {}
            for blk in blks:
                by_owner.setdefault(self.owner_of_vp(blk.dest), []).append(blk)
            delta = self.io_delta()
            sp.add(io_ops=delta, blocks=len(blks))
        return by_owner, delta

    def compute(self, j: int, step: int, inbound: list[Block]) -> dict[str, Any]:
        """Step 1(b): run batch ``j``'s ``k`` virtual supersteps.

        Returns the scatter packets as ``(random target, packet)`` pairs in
        draw order, plus this processor's cost contributions and the context
        fetch/save I/O deltas.
        """
        alg = self.algorithm
        m = self.params.machine
        gamma = self.gamma
        vps = self.round_vps(j)
        per_vp_blocks: dict[int, list[Block]] = {vp: [] for vp in vps}
        for blk in inbound:
            per_vp_blocks[blk.dest].append(blk)

        with self.obs.span("fetch_context", batch=j, cat="layout") as sp:
            states = self.contexts.load_group(self._round_slots(j))
            fetch_io = self.io_delta()
            sp.add(io_ops=fetch_io)

        new_states: list[Any] = []
        packets: list[tuple[int, Packet]] = []
        comp = 0.0
        sent_records = 0
        halted = True
        with self.obs.span("compute", batch=j, step=step, cat="kernel") as sp:
            for vp, state in zip(vps, states):
                msgs = blocks_to_messages(per_vp_blocks[vp])
                if gamma is not None:
                    nrecv = sum(msg.size for msg in msgs)
                    if nrecv > gamma:
                        raise AlgorithmError(
                            f"vp {vp} received {nrecv} records in "
                            f"superstep {step}, exceeding gamma={gamma}"
                        )
                ctx = VPContext(vp, self.v, step, state, msgs, comm_bound=gamma)
                alg.superstep(ctx)
                new_states.append(ctx.state)
                if not ctx.halted:
                    halted = False
                comp += ctx.comp_ops
                sent_records += ctx.sent_records
                for mi, msg in enumerate(ctx.outbox):
                    for pkt in message_to_packets(msg, m.b, mi):
                        packets.append((self.rng.randrange(self.p), pkt))
            sp.add(comp_ops=comp, packets=len(packets))
        with self.obs.span("write_context", batch=j, cat="layout") as sp:
            self.contexts.save_group(self._round_slots(j), new_states)
            save_io = self.io_delta()
            sp.add(io_ops=save_io)
        return {
            "packets": packets,
            "comp": comp,
            "sent_records": sent_records,
            "halted": halted,
            "fetch_io": fetch_io,
            "save_io": save_io,
        }

    def write(self, j: int, packets: list[Packet]) -> tuple[int, int]:
        """Step 1(c): cut received packets into blocks, append to buckets."""
        m = self.params.machine
        with self.obs.span("write_messages", batch=j, cat="layout") as sp:
            rblocks: list[Block] = []
            for pkt in packets:
                rblocks.extend(packet_to_blocks(pkt, m.B))
            self.buckets.append_blocks(rblocks)
            delta = self.io_delta()
            sp.add(io_ops=delta, blocks=len(rblocks), packets=len(packets))
        return len(rblocks), delta

    def reorganize(self, step: int) -> tuple[RoutingStats, int]:
        """Step 2: Algorithm 2 on the local buckets."""
        if self.obs.enabled:
            self._sample_disks(self.buckets)
        with self.obs.span("reorganize", step=step, cat="routing") as sp:
            new_incoming, routing = simulate_routing(
                self.array,
                self.allocator,
                self.buckets,
                nslots=self.nbatches,
                slot_of=self.batch_of_vp,
                name=f"incoming@p{self.index}s{step + 1}",
            )
            self.buckets.free()
            self.buckets = None
            if self.incoming is not None:
                self.incoming.free()
            self.incoming = new_incoming
            delta = self.io_delta()
            sp.add(io_ops=delta, blocks=routing.total_blocks)
        if self.obs.enabled:
            self.obs.metrics.histogram("lemma2_load_ratio").record(
                routing.max_load_ratio
            )
        return routing, delta

    def end_superstep(self) -> tuple[int, int]:
        return self.array.retry_ops, self.stall_total()

    # -- checkpoint/restore ------------------------------------------------------

    def export_checkpoint(
        self, group_size: int
    ) -> tuple[bytes, bytes | None, Any, set[int], int, dict | None]:
        with self.obs.span("checkpoint", cat="checkpoint") as sp:
            state_blob = freeze(self.contexts.export_all(group_size=group_size))
            if self.incoming is not None:
                blocks = self.incoming.read_slots(range(self.incoming.nslots))
                inc_blob = freeze((self.incoming.slot_sizes, blocks))
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
        """Fsync + snapshot this processor's storage at the barrier (host-side)."""
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

    def attach_storage(
        self, ref: dict, rng_state: Any, step: int, state_blob: bytes | None = None
    ) -> int:
        """Re-attach this processor's on-disk track files from a checkpoint
        reference (the fresh-process crash-recovery path; zero counted I/O)."""
        with self.obs.span("recover", step=step, cat="checkpoint"):
            if rng_state is not None:
                self.rng.setstate(rng_state)
            self.array.restore_storage(ref["disks"])
            next_track, free = ref["alloc"]
            self.allocator.next_track = next_track
            self.allocator._free = sorted(tuple(run) for run in free)
            self.contexts._used = list(ref["ctx_used"])
            self.contexts.invalidate_cache()
            # Cache-mode saves are charge-only on the fast plane, so the
            # attached disk image has no context bytes — reseed the cache
            # from the checkpoint's portable states (no counted I/O).
            if state_blob is not None and self.contexts.cache:
                self.contexts.prime_cache(thaw(state_blob))
            if ref["incoming"] is not None:
                slot_sizes, base, name = ref["incoming"]
                self.incoming = StripedRegion.adopt(
                    self.array, self.allocator, slot_sizes, base, name=name
                )
            self.io_marker = self.array.parallel_ops
        return 0

    def apply_crash(self, stage: str) -> int:
        """Inflict one crash stage's byte damage on this worker's drives."""
        self.array.crash_storage(stage)
        return 0

    def close_storage(self) -> None:
        self.array.close_storage()

    def restore_checkpoint(
        self, state_blob: bytes, inc_blob: bytes | None, rng_state: Any, step: int
    ) -> int:
        with self.obs.span("recover", step=step, cat="checkpoint"):
            return self._restore_checkpoint(state_blob, inc_blob, rng_state, step)

    def _restore_checkpoint(
        self, state_blob: bytes, inc_blob: bytes | None, rng_state: Any, step: int
    ) -> int:
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
                self.array,
                self.allocator,
                slot_sizes,
                name=f"incoming@p{self.index}resume{step}",
            )
            region.write_slots(range(region.nslots), blocks)
            self.incoming = region
        return self.io_delta()

    # -- wrap-up -----------------------------------------------------------------

    def collect_outputs(self) -> tuple[dict[int, Any], int, int]:
        alg = self.algorithm
        with self.obs.span("collect_outputs", cat="layout") as sp:
            outs: dict[int, Any] = {}
            for j in range(self.nbatches):
                vps = self.round_vps(j)
                for vp, state in zip(
                    vps, self.contexts.load_group(self._round_slots(j))
                ):
                    outs[vp] = alg.output(vp, state)
            delta = self.io_delta()
            sp.add(io_ops=delta)
        return outs, delta, self.allocator.high_water

    def drain_obs(self) -> dict | None:
        """Ship the worker-side telemetry to the engine (picklable payload).

        Samples final per-disk counters and the context-cache tallies first,
        so the merged registry carries this processor's end-of-run state.
        """
        if not self.obs.enabled:
            return None
        self._sample_disks()
        mx = self.obs.metrics
        mx.counter("ctx_cache/hits").inc(self.contexts.cache_hits)
        mx.counter("ctx_cache/misses").inc(self.contexts.cache_misses)
        mx.gauge("disk_space_tracks").set(self.allocator.high_water)
        if self.array.storage_read_bytes or self.array.storage_write_bytes:
            mx.counter("storage/read_bytes").inc(self.array.storage_read_bytes)
            mx.counter("storage/write_bytes").inc(self.array.storage_write_bytes)
        if self.array.retry_ops or self.array.stall_ops:
            mx.counter("retry_ops").inc(self.array.retry_ops)
            mx.counter("stall_ops").inc(self.stall_total())
        return self.obs.drain()

    def fault_stats(self) -> dict[str, int]:
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


class ParallelEMSimulation:
    """Runs a :class:`BSPAlgorithm` under Algorithm 3 (``p >= 1`` processors).

    With ``p=1`` this degenerates to a close cousin of
    :class:`~repro.core.seqsim.SequentialEMSimulation` (messages still pass
    through the packet-scatter path, but there is only one bin to scatter to).

    ``faults``, ``retry``, ``checkpoint``, ``max_recoveries`` mirror the
    sequential engine; see :class:`SequentialEMSimulation` for semantics.

    Parameters
    ----------
    backend:
        ``"inline"`` (default, the reference) simulates the real processors
        in-process; ``"process"`` runs each on its own ``multiprocessing``
        worker.  Outputs, ledgers, and reports are identical — see
        :mod:`repro.core.backend`.
    context_cache:
        Context-swap fast path (see :class:`~repro.core.context.ContextStore`).
    fast_io:
        Counted-cost-identical short-circuits in each processor's disk array
        (see :class:`~repro.emio.diskarray.DiskArray`).
    observer:
        Optional :class:`~repro.obs.spans.Collector`.  The engine emits
        barrier-level spans (superstep > fetch/compute/write/reorganize) on
        its own track; every real processor collects its own spans, samples,
        and metrics worker-side — under the process backend they travel back
        over the pipes — and the engine merges them into ``observer`` as one
        coherent timeline (``perf_counter`` is host-wide monotonic).  Counted
        costs, outputs, and reports are byte-identical with and without it.
    """

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        seed: int = 0,
        enforce_gamma: bool = True,
        round_robin_writes: bool = False,
        write_schedule: str | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        checkpoint: bool = False,
        max_recoveries: int = 8,
        backend: str = "inline",
        context_cache: bool = False,
        fast_io: bool = False,
        observer: Collector | None = None,
        events: "RunEventLog | None" = None,
        storage: "str | StorageSpec" = "memory",
        storage_dir: str | None = None,
        crash: CrashPlan | None = None,
    ):
        self.algorithm = algorithm
        self.params = params
        self.seed = seed
        self.enforce_gamma = enforce_gamma
        self.write_schedule = write_schedule or (
            "rotate" if round_robin_writes else "random"
        )
        self.faults = faults
        self.retry = retry
        self.checkpoint_enabled = checkpoint
        self.max_recoveries = max_recoveries
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.events = events
        # The engine claims the root directory; each worker derives (and
        # claims) its proc{i} sub-root from the pickled spec.
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
        # through a journal inside the engine-level storage root.
        self._journal = (
            CheckpointJournal(self.storage_spec.root)
            if checkpoint and self.storage_spec.kind != "memory"
            else None
        )

        m, s = params.machine, params.bsp
        self.p = m.p
        self.v = s.v
        self.k = params.k
        self.vpp = s.v // m.p  # virtual processors per real processor
        self.nbatches = self.vpp // self.k  # rounds per compound superstep
        self.ledger = CostLedger(m)
        self.report = SimulationReport(params=params, ledger=self.ledger)
        self.gamma = algorithm.comm_bound() if enforce_gamma else None

        init_args = [
            (
                i,
                algorithm,
                params,
                seed,
                self.write_schedule,
                faults,
                retry,
                enforce_gamma,
                context_cache,
                fast_io,
                observer is not None,
                self.storage_spec,
                self.obs.profile.enabled,
            )
            for i in range(self.p)
        ]
        self.backend = make_backend(backend, init_args)
        # Inline processors stay inspectable (tests, notebooks).
        self.procs = getattr(self.backend, "procs", None)
        # Wall-clock attribution plumbing (all no-ops when unprofiled): the
        # backend bills pipe sends as ``ipc`` and the receive-all rounds as
        # ``barrier_wait``; inline workers run on the engine thread, so they
        # share the engine profiler's scope stack instead of keeping the
        # private per-processor profilers the process backend drains.
        self.backend.profiler = self.obs.profile
        if self.procs is not None and self.obs.profile.enabled:
            for pr in self.procs:
                pr.obs.share_profile(self.obs.profile)
                pr.array.set_profiler(self.obs.profile)

        self.last_checkpoint: SuperstepCheckpoint | None = None
        self._recoveries = 0
        self._checkpoints_taken = 0
        self._checkpoint_io_ops = 0
        self._recovery_io_ops = 0
        self._resumed_from: int | None = None

    # -- placement maps -----------------------------------------------------------

    def owner_of_vp(self, vp: int) -> int:
        """Real processor simulating virtual processor ``vp``."""
        return vp // self.vpp

    def batch_of_vp(self, vp: int) -> int:
        """Round in which ``vp`` is simulated (its *batch* index)."""
        return (vp % self.vpp) // self.k

    def bucket_of_vp(self, vp: int) -> int:
        """Local disk bucket of a block destined for ``vp``.

        "Each bucket contains the blocks for ``(v/pk)/D`` batches": batches
        are ranged evenly into the ``D`` buckets.
        """
        return self.batch_of_vp(vp) * self.params.machine.D // self.nbatches

    def round_vps(self, proc: int, j: int) -> list[int]:
        """Virtual processors simulated by ``proc`` in round ``j``."""
        base = proc * self.vpp + j * self.k
        return list(range(base, base + self.k))

    # -- main entry -----------------------------------------------------------------

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
            self._shutdown()

    def resume_from_checkpoint(
        self, ckpt: SuperstepCheckpoint
    ) -> tuple[list[Any], SimulationReport]:
        """Continue an aborted run from a checkpoint (see the sequential
        engine's method of the same name).  With storage references in the
        checkpoint and an engine pointed at the same ``storage_dir``, every
        worker re-attaches its own track files in place."""
        if ckpt.nprocs != self.p:
            raise ParameterError(
                f"checkpoint holds {ckpt.nprocs} processors, machine has {self.p}"
            )
        self.obs.profile.start()
        self._emit_run_started(resumed_from=ckpt.step)
        try:
            self._resumed_from = ckpt.step
            self.last_checkpoint = ckpt
            refs = getattr(ckpt, "storage_refs", None)
            if self._refs_attachable(refs):
                self._attach_storage(ckpt, refs)
            else:
                self._restore(ckpt)
            self._run_from(ckpt.step)
            return self._finish()
        except BaseException as exc:
            self._emit_run_finished("error", error=repr(exc))
            raise
        finally:
            self.obs.profile.stop()
            self._shutdown()

    def _refs_attachable(self, refs: list[dict | None] | None) -> bool:
        if (
            refs is None
            or len(refs) != self.p
            or any(r is None for r in refs)
            or self.storage_spec.kind == "memory"
        ):
            return False
        return all(
            r["kind"] == self.storage_spec.kind
            and r["root"] == self.storage_spec.proc_root(i)
            for i, r in enumerate(refs)
        )

    def _attach_storage(self, ckpt: SuperstepCheckpoint, refs: list[dict]) -> None:
        with self.obs.span("recover", step=ckpt.step, cat="checkpoint"):
            self.report, self.ledger = thaw(ckpt.report_blob)
            rngs = ckpt.rng_state
            if not isinstance(rngs, list):
                rngs = [rngs] * self.p
            self.backend.call_all(
                "attach_storage",
                [
                    (refs[i], rngs[i], ckpt.step, ckpt.proc_states[i])
                    for i in range(self.p)
                ],
            )
        if self.obs.enabled:
            self.obs.metrics.counter("recoveries").inc()

    def _shutdown(self) -> None:
        try:
            self.backend.call_all("close_storage")
        except Exception:
            pass  # a dead worker cannot close its files; the OS will
        self.backend.close()
        self.storage_spec.cleanup()

    # -- live event stream ------------------------------------------------------------

    def _bytes_moved(self) -> int:
        """Host bytes physically moved so far: storage-plane traffic for the
        inline backend (the engine owns the arrays), pipe traffic for the
        process backend (the arrays live in the workers)."""
        if self.procs is not None:
            return sum(
                pr.array.storage_read_bytes + pr.array.storage_write_bytes
                for pr in self.procs
            )
        return self.backend.tx_bytes + self.backend.rx_bytes

    def _counted_io_ops(self) -> int:
        return self.report.init_io_ops + sum(
            sr.phases.total for sr in self.report.supersteps
        )

    def _emit_run_started(self, **extra: Any) -> None:
        if self.events is None:
            return
        p = self.params
        self.events.run_started(
            engine="parallel",
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
        self.events.run_finished(
            status,
            io_ops=self._counted_io_ops(),
            bytes_moved=self._bytes_moved(),
            **extra,
        )

    # -- run skeleton ---------------------------------------------------------------

    def _load_input(self) -> None:
        with self.obs.span("load_input", cat="layout") as sp:
            self.report.init_io_ops = max(self.backend.call_all("load_input"))
            sp.add(io_ops=self.report.init_io_ops)

    def _run_from(self, start: int) -> None:
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
                bytes0 = self._bytes_moved() if self.events is not None else 0
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
        try:
            self._take_checkpoint(step)
        except FATAL_IO_FAULTS as exc:
            raise SimulationAborted(
                f"fatal I/O fault before the first checkpoint: {exc}", None
            ) from exc

    def _handle_fault(self, exc: Exception) -> int:
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
        """Snapshot every processor's barrier state (charged as local reads;
        the model cost is the maximum over processors, like any phase)."""
        self._crash_stage("torn")
        self._crash_stage("lost")
        with self.obs.span("checkpoint", step=step, cat="checkpoint"):
            self._take_checkpoint_inner(step)
        self._publish_checkpoint()

    def _crash_stage(self, stage: str) -> None:
        """One crash-stage boundary: die here if the plan's point fired.

        The ``"torn"``/``"lost"`` stages first make every worker damage its
        unsynced write log, then the engine dies — modelling a whole-host
        crash that takes the workers' page caches with it.
        """
        plan = self.crash_plan
        if plan is None:
            return
        point = self._crash_counter
        self._crash_counter += 1
        if point != plan.crash_point:
            return
        if stage in ("torn", "lost"):
            self.backend.call_all("apply_crash", [(stage,)] * self.p)
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

    def _take_checkpoint_inner(self, step: int) -> None:
        exports = self.backend.call_all("export_checkpoint", [(self.k,)] * self.p)
        refs = [e[5] for e in exports]
        self.last_checkpoint = SuperstepCheckpoint(
            step=step,
            rng_state=[e[2] for e in exports],  # one RNG stream per processor
            proc_states=[e[0] for e in exports],
            proc_incoming=[e[1] for e in exports],
            report_blob=freeze((self.report, self.ledger)),
            dead_disks=[e[3] for e in exports],
            storage_refs=refs if any(r is not None for r in refs) else None,
        )
        self._checkpoints_taken += 1
        self._checkpoint_io_ops += max(e[4] for e in exports)

    def _restore(self, ckpt: SuperstepCheckpoint) -> None:
        with self.obs.span("recover", step=ckpt.step, cat="checkpoint"):
            self.report, self.ledger = thaw(ckpt.report_blob)
            rngs = ckpt.rng_state
            if not isinstance(rngs, list):
                rngs = [rngs] * self.p
            deltas = self.backend.call_all(
                "restore_checkpoint",
                [
                    (ckpt.proc_states[i], ckpt.proc_incoming[i], rngs[i], ckpt.step)
                    for i in range(self.p)
                ],
            )
            self._recovery_io_ops += max(deltas)
        if self.obs.enabled:
            self.obs.metrics.counter("recoveries").inc()

    # -- one compound superstep --------------------------------------------------------

    def _superstep(self, step: int) -> bool:
        m = self.params.machine

        cost = self.ledger.begin_superstep(label=f"superstep {step}")
        cost.syncs = 0
        phases = PhaseBreakdown()
        marks0 = self.backend.call_all("begin_superstep")
        all_halted = True
        blocks_generated = 0

        obs = self.obs
        for j in range(self.nbatches):
            # ---- Fetching phase: local reads + gather h-relation ----
            # inbound[q] = blocks for processor q's current k vps.
            with obs.span("fetch_barrier", batch=j, cat="layout") as sp:
                fetches = self.backend.call_all("fetch", [(j,)] * self.p)
                d = max(io for _by, io in fetches)
                phases.fetch_messages += d
                sp.add(io_ops=d)
            inbound: list[list[Block]] = [[] for _ in range(self.p)]
            sent_pk = [0] * self.p
            recv_pk = [0] * self.p
            for i, (by_owner, _io) in enumerate(fetches):
                for q, qblocks in sorted(by_owner.items()):
                    nrec = sum(b.nrecords() for b in qblocks)
                    npk = max(1, packets_for(nrec, m.b))
                    if q != i:
                        sent_pk[i] += npk
                        recv_pk[q] += npk
                    inbound[q].extend(qblocks)
            cost.comm_packets += max(sent_pk[q] + recv_pk[q] for q in range(self.p))
            cost.syncs += 1

            # ---- Computing phase (incl. local context swaps) ----
            with obs.span("compute_barrier", batch=j, cat="kernel") as sp:
                computes = self.backend.call_all(
                    "compute", [(j, step, inbound[q]) for q in range(self.p)]
                )
                sp.add(comp_ops=max(r["comp"] for r in computes))
            phases.fetch_context += max(r["fetch_io"] for r in computes)
            phases.write_context += max(r["save_io"] for r in computes)
            cost.comp_ops += max(r["comp"] for r in computes)
            cost.records_sent += sum(r["sent_records"] for r in computes)
            if not all(r["halted"] for r in computes):
                all_halted = False

            # ---- Writing phase: scatter h-relation + bucket writes ----
            outpackets: list[list[Packet]] = [[] for _ in range(self.p)]
            scatter_sent = [0] * self.p
            scatter_recv = [0] * self.p
            for i, r in enumerate(computes):
                scatter_sent[i] = len(r["packets"])
                for target, pkt in r["packets"]:
                    scatter_recv[target] += 1
                    outpackets[target].append(pkt)
            cost.comm_packets += max(
                scatter_sent[q] + scatter_recv[q] for q in range(self.p)
            )
            cost.syncs += 1
            with obs.span("write_barrier", batch=j, cat="layout") as sp:
                writes = self.backend.call_all(
                    "write", [(j, outpackets[q]) for q in range(self.p)]
                )
                d = max(io for _n, io in writes)
                sp.add(io_ops=d, packets=sum(scatter_sent))
            blocks_generated += sum(n for n, _io in writes)
            phases.write_messages += d

        # ---- Step 2: local reorganization on every processor ----
        with obs.span("reorganize_barrier", cat="routing") as sp:
            reorgs = self.backend.call_all("reorganize", [(step,)] * self.p)
            d = max(io for _r, io in reorgs)
            sp.add(io_ops=d)
        phases.reorganize += d
        cost.syncs += 1
        worst_routing: RoutingStats | None = None
        for routing, _io in reorgs:
            if (
                worst_routing is None
                or routing.max_load_ratio > worst_routing.max_load_ratio
            ):
                worst_routing = routing

        marks1 = self.backend.call_all("end_superstep")
        cost.io_ops = phases.total
        cost.records_io = phases.total * m.D * m.B
        cost.retry_ops = max(m1[0] - m0[0] for m0, m1 in zip(marks0, marks1))
        cost.stall_ops = max(m1[1] - m0[1] for m0, m1 in zip(marks0, marks1))
        self.report.supersteps.append(
            SuperstepReport(
                index=step,
                phases=phases,
                routing=worst_routing,
                comm_packets=cost.comm_packets,
                message_blocks=blocks_generated,
                halted=all_halted,
                routing_all=[routing for routing, _io in reorgs],
            )
        )
        if obs.enabled:
            mx = obs.metrics
            if worst_routing is not None and worst_routing.total_blocks:
                mx.histogram("lemma2_load_ratio").record(worst_routing.max_load_ratio)
            mx.histogram("superstep_io_ops").record(phases.total)
            mx.counter("comm_packets").inc(cost.comm_packets)
            mx.counter("message_blocks").inc(blocks_generated)
            if cost.retry_ops or cost.stall_ops:
                mx.counter("retry_ops").inc(cost.retry_ops)
                mx.counter("stall_ops").inc(cost.stall_ops)
        return all_halted and blocks_generated == 0

    # -- wrap-up ---------------------------------------------------------------------

    def _finish(self) -> tuple[list[Any], SimulationReport]:
        self.ledger.close()
        self.report.ledger = self.ledger

        # ---- unload output ----
        with self.obs.span("collect_outputs", cat="layout"):
            collected = self.backend.call_all("collect_outputs")
        outputs: list[Any] = [None] * self.v
        for outs, _io, _hw in collected:
            for vp, out in outs.items():
                outputs[vp] = out
        self.report.output_io_ops = max(io for _o, io, _hw in collected)
        self.report.disk_space_tracks = max(hw for _o, _io, hw in collected)
        self._attach_fault_report()
        if self.obs.enabled:
            # Pull every worker-side collector's telemetry into the engine's
            # (one coherent merged timeline; see Collector.ingest).
            for payload in self.backend.call_all("drain_obs"):
                if payload is not None:
                    self.obs.ingest(payload)
            mx = self.obs.metrics
            mx.gauge("disk_space_tracks").set(self.report.disk_space_tracks)
            tx = getattr(self.backend, "tx_bytes", 0)
            rx = getattr(self.backend, "rx_bytes", 0)
            if tx or rx:
                mx.counter("backend/tx_bytes").inc(tx)
                mx.counter("backend/rx_bytes").inc(rx)
        self._emit_run_finished("ok")
        return outputs, self.report

    def _attach_fault_report(self) -> None:
        if (
            self.faults is None
            and not self.checkpoint_enabled
            and self._resumed_from is None
        ):
            return
        stats = self.backend.call_all("fault_stats")
        fr = FaultReport(
            retry_reads=sum(s["retry_reads"] for s in stats),
            retry_writes=sum(s["retry_writes"] for s in stats),
            stall_ops=sum(s["stall_ops"] for s in stats),
            degraded_writes=sum(s["degraded_writes"] for s in stats),
            recoveries=self._recoveries,
            checkpoints_taken=self._checkpoints_taken,
            checkpoint_io_ops=self._checkpoint_io_ops,
            recovery_io_ops=self._recovery_io_ops,
            resumed_from_step=self._resumed_from,
        )
        for s in stats:
            if "transient_read_errors" not in s:
                continue
            fr.transient_read_errors += s["transient_read_errors"]
            fr.transient_write_errors += s["transient_write_errors"]
            fr.corruptions_injected += s["corruptions_injected"]
            fr.checksum_errors += s["checksum_errors"]
            fr.latency_spikes += s["latency_spikes"]
            fr.disks_died += s["disks_died"]
        self.report.faults = fr
