"""Front door for running BSP*/CGM algorithms as EM algorithms.

:func:`make_engine` assembles :class:`SimulationParams` from an algorithm's
own resource declarations and builds the sequential (Algorithm 1) or
parallel (Algorithm 3) engine chosen from the machine's ``p``;
:func:`simulate` builds it and runs it.  This is the
"automatically generated EM algorithm" of the paper's conclusion: the caller
supplies a parallel algorithm and a machine description; blocking, parallel
disks, and multiple processors are handled by the simulation.
"""

from __future__ import annotations

from typing import Any, Literal

from ..bsp.program import BSPAlgorithm
from ..emio.faults import CrashPlan, FaultPlan, RetryPolicy
from ..obs.live import RunEventLog
from ..obs.spans import Collector
from ..params import BSPParams, MachineParams, SimulationParams
from .parsim import ParallelEMSimulation
from .seqsim import SequentialEMSimulation
from .stats import SimulationReport

__all__ = ["simulate", "make_engine", "build_params"]


def build_params(
    algorithm: BSPAlgorithm,
    machine: MachineParams,
    v: int,
    k: int | None = None,
    strict: bool = False,
) -> SimulationParams:
    """Derive :class:`SimulationParams` from the algorithm's declarations."""
    return SimulationParams(
        machine=machine,
        bsp=BSPParams(
            v=v,
            mu=algorithm.context_size(),
            gamma=max(algorithm.comm_bound(), 1),
        ),
        k=k,
        strict=strict,
    )


def make_engine(
    algorithm: BSPAlgorithm,
    machine: MachineParams,
    v: int,
    k: int | None = None,
    seed: int = 0,
    engine: Literal["auto", "sequential", "parallel"] = "auto",
    strict: bool = False,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    checkpoint: bool = False,
    max_recoveries: int = 8,
    backend: Literal["inline", "process"] = "inline",
    context_cache: bool = False,
    fast_io: bool = False,
    observer: Collector | None = None,
    events: RunEventLog | None = None,
    storage: str = "memory",
    storage_dir: str | None = None,
    crash: CrashPlan | None = None,
    records: str | None = None,
    **engine_kwargs,
) -> SequentialEMSimulation | ParallelEMSimulation:
    """Build the engine that runs ``algorithm`` with ``v`` virtual
    processors on ``machine`` (not yet run; call ``.run()`` or
    ``.resume_from_checkpoint(ckpt)``).

    Parameters
    ----------
    engine:
        ``"auto"`` picks Algorithm 1 for ``p == 1`` and Algorithm 3 for
        ``p > 1``; the other values force an engine (the parallel engine
        accepts ``p == 1`` and exercises the packet-scatter path).
    strict:
        Enforce Theorem 1's side conditions (slackness etc.).
    faults:
        Optional :class:`~repro.emio.faults.FaultPlan` injecting disk faults
        (transient errors, corruption, latency spikes, disk death) into the
        simulated arrays.  Transient faults are masked by bounded retries
        (``retry``); fatal faults need ``checkpoint=True`` to recover.
    retry:
        Retry policy for transient faults; defaults to
        :class:`~repro.emio.faults.RetryPolicy` whenever ``faults`` is given.
    checkpoint:
        Checkpoint at every compound-superstep barrier and re-run a
        superstep after a fatal I/O fault (at most ``max_recoveries`` times).
        The run's fault/retry/recovery tallies land in ``report.faults``.
    backend:
        Where the parallel engine's real processors execute: ``"inline"``
        (default, the reference) or ``"process"`` (one ``multiprocessing``
        worker per processor; see :mod:`repro.core.backend`).  Counted
        costs, outputs, and reports are identical.  Rejected for the
        sequential engine.
    context_cache:
        Context-swap fast path: keep pickled context bytes host-side with a
        dirty bit and charge the identical parallel I/O without
        re-materializing blocks (see :class:`~repro.core.context.ContextStore`).
        Auto-disabled under fault injection; refused on a non-memory
        ``storage`` plane.  Model costs are unchanged.
    fast_io:
        Short-circuit the disk arrays' data plane when no faults, traces, or
        dead disks are active (see :class:`~repro.emio.diskarray.DiskArray`).
        Counters and stored blocks stay identical; only wall-clock changes.
    observer:
        A :class:`~repro.obs.spans.Collector` receiving structured telemetry:
        nested spans per superstep/phase with wall-clock timing and counted
        I/O attributes, per-disk counter samples, and run metrics (see
        :mod:`repro.obs`).  Under the process backend, per-worker spans are
        merged into one coherent timeline.  Attaching an observer never
        changes counted costs, outputs, or reports, and does not force the
        arrays off the fast data plane; export with
        :func:`repro.obs.write_chrome_trace` / :func:`repro.obs.write_jsonl`.
        A ``Collector(profile=True)`` also collects the wall-clock
        attribution profile (``repro.obs.build_report``, DESIGN §11).
    events:
        A :class:`~repro.obs.live.RunEventLog` streaming run/superstep
        lifecycle events as line-flushed JSONL during the run (``repro
        watch <file>`` tails it).  Read-only like ``observer``.
    storage:
        Block-storage plane backing the simulated disks: ``"memory"``
        (default, plain dicts), ``"file"`` (one preallocated track file per
        drive, accessed with ``pread``/``pwrite``), or ``"mmap"`` (the same
        files through ``mmap``).  Outputs, counted costs, ledgers, and
        traces are byte-identical across planes — the model charges I/O
        before data moves, so where the bytes live is invisible to the
        accounting (see ``DESIGN.md`` §8).  Non-memory planes make
        truly out-of-core runs possible: resident heap stays bounded by a
        handful of blocks while the dataset lives in the track files.
    storage_dir:
        Directory for the track files on non-memory planes.  ``None``
        (default) uses a private temporary directory removed when the run
        finishes; an explicit path persists after the run (useful for
        checkpoint/resume across processes) and must be empty or carry the
        storage marker file from a previous run.
    crash:
        Optional :class:`~repro.emio.faults.CrashPlan` crashing the run at
        one crash point around a checkpoint barrier (torn write, lost
        pre-fsync writes, or a kill between journal stages).  Requires
        ``checkpoint=True`` and a non-memory storage plane; the crash
        surfaces as :class:`~repro.emio.faults.HostCrash`.  Recovery is
        :func:`~repro.core.checkpoint.scrub` plus a fresh engine — see
        ``repro crashcheck`` and DESIGN §9.
    records:
        Record plane the algorithm's supersteps run on: ``None`` keeps the
        algorithm's current mode (``"object"`` by default), ``"object"``
        forces the per-record reference plane, ``"vector"`` selects the
        numpy kernels of codec-eligible algorithms (see
        :mod:`repro.emio.codec` and ``DESIGN.md`` §10).  Counted costs,
        ledgers, and outputs are identical across modes — an algorithm that
        does not support the requested mode raises ``AlgorithmError``.
    engine_kwargs:
        Passed through to the engine (e.g. ``pad_to_gamma=True`` for the
        sequential engine, ``write_schedule="rotate"`` for ablations).
    """
    if records is not None:
        algorithm.set_record_mode(records)
    params = build_params(algorithm, machine, v, k=k, strict=strict)
    requested = engine
    if engine == "auto":
        engine = "sequential" if machine.p == 1 else "parallel"
    kwargs = dict(
        seed=seed,
        faults=faults,
        retry=retry,
        checkpoint=checkpoint,
        max_recoveries=max_recoveries,
        context_cache=context_cache,
        fast_io=fast_io,
        observer=observer,
        events=events,
        storage=storage,
        storage_dir=storage_dir,
        crash=crash,
        **engine_kwargs,
    )
    if engine == "sequential":
        if backend != "inline":
            # Name both knobs: the caller must change either `backend` (to
            # "inline") or `engine` (to "parallel", which accepts p == 1).
            how = (
                f"engine='auto' resolved to 'sequential' because machine.p="
                f"{machine.p}"
                if requested == "auto"
                else f"engine={requested!r}"
            )
            raise ValueError(
                f"backend={backend!r} requires the parallel engine, but {how}; "
                f"pass engine='parallel' (it accepts p=1) or backend='inline' "
                "(the sequential engine has a single real processor)"
            )
        return SequentialEMSimulation(algorithm, params, **kwargs)
    if engine == "parallel":
        return ParallelEMSimulation(algorithm, params, backend=backend, **kwargs)
    raise ValueError(f"unknown engine {engine!r}")


def simulate(
    algorithm: BSPAlgorithm, machine: MachineParams, v: int, **options: Any
) -> tuple[list[Any], SimulationReport]:
    """Run ``algorithm`` with ``v`` virtual processors on ``machine``.

    ``options`` are :func:`make_engine`'s keyword parameters (engine choice,
    seed, faults and checkpointing, storage and record planes, telemetry);
    this is ``make_engine(algorithm, machine, v, **options).run()``.

    Returns
    -------
    (outputs, report):
        ``outputs[i]`` is virtual processor ``i``'s output; ``report`` holds
        counted model costs and per-phase I/O breakdowns.
    """
    return make_engine(algorithm, machine, v, **options).run()
