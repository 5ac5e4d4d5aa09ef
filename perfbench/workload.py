"""Workload specs, seeded inputs, reference answers, and the repro adapter.

Every workload is one simulation job run closed-loop (one client, one job at
a time).  The benchmark seed only shapes the generated *inputs*; the
simulator's own knobs (engine seed, coin seed, machine) are fixed here, so
two runs with one seed must agree on every counted cost and output digest.

:func:`build_engine` is the single place where a workload spec meets the
public ``repro`` API.  Knob refactors of the simulator (deleting
``io_overlap``, automatic ``fast_io``, grouping ``simulate()`` parameters)
change that one function and nothing else here.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import MachineParams
from repro.algorithms import CGMSampleSort
from repro.algorithms.graphs.listranking import CGMListRanking
from repro.core import ParallelEMSimulation, SequentialEMSimulation, build_params

@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str  # "sort" or "listrank"
    n: int
    v: int
    p: int
    M: int
    D: int
    B: int
    b: int
    records: str  # record plane: "vector" or "object"
    storage: str  # storage plane: "memory" or "file"
    context_cache: bool
    why: str
    #: Workload fed the identical input whose counted costs and output
    #: digest must match this one's (the dual-accounting invariant).
    twin: str | None = None

    @property
    def input_bytes(self) -> int:
        return self.n * 8

    @property
    def memory_mib(self) -> float:
        """The machine's declared memory ``M`` in MiB (8-byte records)."""
        return self.M * 8 / 2**20


# Sorting sizes keep n > M (out of core: k = floor(M/mu) = 2 of the v = 64
# contexts fit) while one file-plane job stays near two seconds, so a
# 30-second run takes enough jobs for a steady median.
_SORT = dict(algorithm="sort", n=1 << 20, v=64, p=1, M=3 << 18, D=4, B=256,
             b=512, records="vector")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sort-mem", storage="memory", context_cache=True,
            twin="sort-file", **_SORT,
            why=(
                "Alg 1 vector sample sort, n=2^20 v=64 M=3*2^18 D=4 B=256, "
                "memory plane + context cache: kernel, routing and context "
                "swaps work, storage idles"
            ),
        ),
        Workload(
            name="sort-file", storage="file", context_cache=False,
            twin="sort-mem", **_SORT,
            why=(
                "sort-mem's input and machine on the file plane, contexts on "
                "disk: storage dominates; run_s over sort-mem's is the "
                "file-vs-memory ratio"
            ),
        ),
        # n = 2^16 keeps the per-round barrier latency, which the host
        # varies from minute to minute, a small share of each job.
        Workload(
            name="listrank-par", algorithm="listrank", n=1 << 16, v=16, p=2,
            M=1 << 18, D=4, B=64, b=64, records="object", storage="file",
            context_cache=False,
            why=(
                "Alg 3 object list ranking, n=2^16 v=16 p=2 M=2^18 B=64, "
                "process backend on files: ~40 supersteps of small pickled "
                "blocks, IPC and barriers"
            ),
        ),
    )
}


# -- inputs and reference answers ----------------------------------------------


def make_input(w: Workload, seed: int) -> np.ndarray:
    """The workload's input, a pure function of ``(workload, seed)``.

    Sorting: ``n`` uniform int64 keys.  List ranking: the ``succ`` array of
    a random list over ``0..n-1`` (the tail points at itself).
    """
    rng = np.random.default_rng(seed)
    if w.algorithm == "sort":
        return rng.integers(0, np.iinfo(np.int64).max, size=w.n, dtype=np.int64)
    order = rng.permutation(w.n)
    succ = np.empty(w.n, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    succ[order[-1]] = order[-1]
    return succ


def direct_answer(w: Workload, data: np.ndarray) -> np.ndarray:
    """The plain single-process computation the simulation must reproduce."""
    if w.algorithm == "sort":
        return np.sort(data)
    succ = data.tolist()
    n = len(succ)
    has_pred = [False] * n
    for i, s in enumerate(succ):
        if s != i:
            has_pred[s] = True
    node = has_pred.index(False) if n else 0
    ranks = [0] * n
    for r in range(n - 1, -1, -1):  # rank = distance to the tail
        ranks[node] = r
        node = succ[node]
    return np.asarray(ranks, dtype=np.int64)


def flat_answer(w: Workload, outputs: list[Any]) -> np.ndarray:
    """The simulation's outputs flattened to the layout of :func:`direct_answer`."""
    if w.algorithm == "sort":
        parts = [np.asarray(part, dtype=np.int64) for part in outputs]
        return np.concatenate(parts) if parts else np.empty(0, np.int64)
    ranks = np.full(w.n, -1, dtype=np.int64)
    for part in outputs:
        for node, rank in part:
            ranks[node] = rank
    return ranks


def digest(arr: np.ndarray) -> str:
    """Unsalted content digest of an int64 answer (stable across processes)."""
    return hashlib.blake2b(
        np.ascontiguousarray(arr, dtype=np.int64).tobytes(), digest_size=16
    ).hexdigest()


def reference(w: Workload, seed: int, reps: int = 5) -> dict:
    """Expected digest plus the median wall time of the direct computation."""
    data = make_input(w, seed)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        ans = direct_answer(w, data)
        times.append(time.perf_counter() - t0)
    return {"digest": digest(ans), "direct_s": statistics.median(times)}


# -- the adapter ----------------------------------------------------------------


def make_algorithm(w: Workload, data: np.ndarray):
    if w.algorithm == "sort":
        return CGMSampleSort(data, v=w.v)
    return CGMListRanking(data.tolist(), v=w.v)


def build_engine(w: Workload, algorithm, observer=None):
    """Map a workload spec onto the public ``repro`` engine API.

    Engines are built directly (rather than through ``simulate()``) so that
    engine construction -- track-file preallocation, worker fork -- is timed
    as set-up and ``run()`` as the run.  ``fast_io`` is on everywhere and
    ``io_overlap`` is never used.  ``context_cache`` is only allowed on the
    memory plane: on the file plane it would keep every context in host
    memory, and the run would no longer be out of core.
    """
    if w.context_cache and w.storage != "memory":
        raise ValueError(f"{w.name}: context_cache on the {w.storage} plane")
    algorithm.set_record_mode(w.records)
    machine = MachineParams(p=w.p, M=w.M, D=w.D, B=w.B, b=w.b)
    params = build_params(algorithm, machine, w.v)
    knobs = dict(
        fast_io=True,
        context_cache=w.context_cache,
        storage=w.storage,
        observer=observer,
    )
    if w.p == 1:
        return SequentialEMSimulation(algorithm, params, **knobs)
    return ParallelEMSimulation(algorithm, params, backend="process", **knobs)
