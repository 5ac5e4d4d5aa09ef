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
exceptions.  The shared lifecycle (:class:`~repro.core.engine.EngineLifecycle`)
handles them by restoring the last compound-superstep checkpoint and
re-running from the failed superstep — the barrier is a
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
from ..costs import packets_for
from ..emio.disk import Block
from ..emio.faults import CrashPlan, FaultPlan, RetryPolicy
from ..emio.linked import LinkedBuckets
from ..emio.storage import StorageSpec
from ..obs.live import RunEventLog
from ..obs.spans import Collector
from ..params import ParameterError, SimulationParams
from .backend import InlineBackend
from .engine import EngineLifecycle, ProcessorState
from .routing import simulate_routing
from .stats import PhaseBreakdown, SuperstepReport

__all__ = ["SequentialEMSimulation"]


class SequentialEMSimulation(EngineLifecycle):
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
    write_schedule:
        Disk-write schedule of Step 1(d): "random" (the paper's random
        permutation, default), "rotate" (deterministic rotation, the ABL
        ablation), "static", or "balance" (the paper's deterministic variant
        for predetermined CGM traffic).
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
        Memory plane only: a non-memory ``storage`` raises
        :class:`~repro.params.ParameterError`.
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

    ENGINE = "sequential"

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        params: SimulationParams,
        seed: int = 0,
        pad_to_gamma: bool = False,
        enforce_gamma: bool = True,
        write_schedule: str = "random",
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
        super().__init__(
            algorithm, params, faults, checkpoint, max_recoveries, observer,
            events, storage, storage_dir, crash, context_cache,
        )
        self.pad_to_gamma = pad_to_gamma
        self.write_schedule = write_schedule
        self.gamma = algorithm.comm_bound() if enforce_gamma else None
        m = params.machine
        self.gpb = -(-params.bsp.gamma // m.B) if params.bsp.gamma else 0
        # The single real processor records on the engine's own track.
        self.proc = ProcessorState(
            0, algorithm, params, random.Random(seed), self.storage_spec,
            faults, retry, fast_io, context_cache, self.obs,
        )
        self.backend = InlineBackend([self.proc])
        self.procs = self.backend.procs
        # The processor's array and context store stay inspectable here
        # (traces, tests, examples).
        self.array = self.proc.array
        self.contexts = self.proc.contexts

    def _bucket_of(self, dest: int) -> int:
        """Bucket ``i`` holds blocks for the ``i``-th range of ``v/D`` vps."""
        v, D = self.params.bsp.v, self.params.machine.D
        return dest * D // v

    # -- lifecycle hooks -------------------------------------------------------------

    def _proc_root(self, i: int) -> str | None:
        # The single processor's drives live in the engine-level root.
        return self.storage_spec.root

    def _checkpoint_rng(self, states: list[Any]) -> Any:
        # One RNG stream, stored bare (the checkpoint format predates p > 1).
        return states[0]

    def _final_telemetry(self) -> None:
        self.proc.record_final_metrics()

    # -- one compound superstep --------------------------------------------------------

    def _superstep(self, step: int) -> bool:
        """Run compound superstep ``step``; return True when the algorithm
        halted with no traffic in flight."""
        alg = self.algorithm
        p = self.params
        v, k, B = p.bsp.v, p.k, p.machine.B
        gamma = self.gamma

        pr = self.proc
        cost = self.ledger.begin_superstep(label=f"superstep {step}")
        phases = PhaseBreakdown()
        retry0 = pr.array.retry_ops
        stall0 = pr.stall_total()
        pr.buckets = buckets = LinkedBuckets(
            pr.array,
            pr.allocator,
            nbuckets=p.machine.D,
            bucket_of=self._bucket_of,
            rng=pr.rng,
            schedule=self.write_schedule,
        )
        all_halted = True
        blocks_generated = 0
        sent_packets = [0] * v
        recv_packets = [0] * v
        dummy_rr = 0

        obs = self.obs
        for g in range(pr.nbatches):
            slots = pr.round_slots(g)  # local slots are the vp ids (p=1)

            # -- Fetching phase: Step 1(a) contexts, Step 1(b) messages --
            with obs.span("fetch_context", group=g, cat="layout") as sp:
                states = pr.contexts.load_group(slots)
                d = pr.io_delta()
                phases.fetch_context += d
                sp.add(io_ops=d)

            with obs.span("fetch_messages", group=g, cat="layout") as sp:
                if pr.incoming is not None:
                    group_blocks = pr.incoming.read_slots(slots)
                else:
                    group_blocks = [[] for _ in slots]
                d = pr.io_delta()
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
                buckets.append_blocks(group_out_blocks)
                d = pr.io_delta()
                phases.write_messages += d
                sp.add(io_ops=d, blocks=len(group_out_blocks))
            blocks_generated += sum(0 if b.dummy else 1 for b in group_out_blocks)

            with obs.span("write_context", group=g, cat="layout") as sp:
                pr.contexts.save_group(slots, new_states)
                d = pr.io_delta()
                phases.write_context += d
                sp.add(io_ops=d)

        # -- Step 2: reorganize the generated blocks (Algorithm 2) --
        if obs.enabled:
            pr.sample_disks(buckets)
        with obs.span("reorganize", cat="routing") as sp:
            new_incoming, routing = simulate_routing(
                pr.array,
                pr.allocator,
                buckets,
                nslots=v,
                slot_of=lambda dest: dest,
                name=f"incoming@{step + 1}",
            )
            d = pr.io_delta()
            phases.reorganize += d
            sp.add(io_ops=d, blocks=routing.total_blocks)
        buckets.free()
        pr.buckets = None
        if pr.incoming is not None:
            pr.incoming.free()
        pr.incoming = new_incoming

        # BSP*-equivalent communication cost of the *virtual* machine
        # (diagnostic; the real machine has p=1 and no router traffic).
        cost.comm_packets = max(
            (sent_packets[i] + recv_packets[i] for i in range(v)), default=0
        )
        cost.io_ops = phases.total
        cost.records_io = phases.total * p.machine.D * B
        cost.retry_ops = pr.array.retry_ops - retry0
        cost.stall_ops = pr.stall_total() - stall0

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
