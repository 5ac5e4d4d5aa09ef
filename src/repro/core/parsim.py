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

Robustness: the same ``faults``/``retry``/``checkpoint`` knobs and the same
lifecycle as the sequential engine (see :mod:`repro.core.engine` and
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
from ..costs import packets_for
from ..emio.disk import Block
from ..emio.faults import CrashPlan, FaultPlan, RetryPolicy
from ..emio.linked import LinkedBuckets
from ..emio.storage import StorageSpec
from ..obs.live import RunEventLog
from ..obs.spans import NULL_OBSERVER, Collector
from ..params import SimulationParams
from .backend import make_backend
from .engine import EngineLifecycle, ProcessorState
from .routing import RoutingStats, simulate_routing
from .stats import PhaseBreakdown, SuperstepReport

__all__ = ["ParallelEMSimulation"]


class _RealProcessor(ProcessorState):
    """One real processor of Algorithm 3: its state plus the phase methods.

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
        # Each real processor owns its drives, so each gets its own storage
        # sub-root (claimed worker-side under the process backend).
        spec = storage if storage is not None else StorageSpec()
        # Worker-side telemetry: spans/samples/metrics collected here and
        # drained to the engine (over the pipe, under the process backend)
        # by drain_obs() — per-worker visibility with zero cost when off.
        # Under the process backend this worker's private profiler bills the
        # local storage plane; under the inline backend the engine replaces
        # it with its own (share_profile) right after construction.
        obs = Collector(proc=index, profile=profile) if observe else NULL_OBSERVER
        # Per-processor deterministic RNG stream: identical across backends,
        # independent across processors (no cross-processor draw ordering).
        super().__init__(
            index, algorithm, params, random.Random(f"{seed}/proc{index}"),
            spec.for_proc(index), faults, retry, fast_io, context_cache, obs,
        )
        self.p = params.machine.p
        self.gamma = algorithm.comm_bound() if enforce_gamma else None
        self.write_schedule = write_schedule
        self.obs.profile.start()

    # -- placement ----------------------------------------------------------------

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

    # -- phase protocol (driven by the engine through a backend) ----------------

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
            states = self.contexts.load_group(self.round_slots(j))
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
            self.contexts.save_group(self.round_slots(j), new_states)
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
            self.sample_disks(self.buckets)
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

    # -- wrap-up -----------------------------------------------------------------

    def drain_obs(self) -> dict | None:
        """Ship the worker-side telemetry to the engine (picklable payload).

        Samples final per-disk counters and the context-cache tallies first,
        so the merged registry carries this processor's end-of-run state.
        """
        if not self.obs.enabled:
            return None
        self.record_final_metrics()
        if self.array.retry_ops or self.array.stall_ops:
            mx = self.obs.metrics
            mx.counter("retry_ops").inc(self.array.retry_ops)
            mx.counter("stall_ops").inc(self.stall_total())
        return self.obs.drain()


class ParallelEMSimulation(EngineLifecycle):
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
        Context-swap fast path (see :class:`~repro.core.context.ContextStore`);
        memory plane only, as on the sequential engine.
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

    ENGINE = "parallel"

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        seed: int = 0,
        enforce_gamma: bool = True,
        write_schedule: str = "random",
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
        # The engine claims the storage root; each worker derives (and
        # claims) its proc{i} sub-root from the pickled spec.
        super().__init__(
            algorithm, params, faults, checkpoint, max_recoveries, observer,
            events, storage, storage_dir, crash, context_cache,
        )
        self.p = params.machine.p
        self.nbatches = params.groups_per_processor  # rounds per superstep

        init_args = [
            (
                i,
                algorithm,
                params,
                seed,
                write_schedule,
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

    def _final_telemetry(self) -> None:
        # Pull every worker-side collector's telemetry into the engine's
        # (one coherent merged timeline; see Collector.ingest).
        for payload in self.backend.call_all("drain_obs"):
            if payload is not None:
                self.obs.ingest(payload)
        tx, rx = self.backend.tx_bytes, self.backend.rx_bytes
        if tx or rx:
            mx = self.obs.metrics
            mx.counter("backend/tx_bytes").inc(tx)
            mx.counter("backend/rx_bytes").inc(rx)
