"""Edge-case tests for Algorithm 3's batch/bucket geometry.

The parallel engine partitions v virtual processors into p x (v/pk)
(processor x batch) cells and maps batches into D disk buckets; these tests
pin the corner configurations: one batch, fewer batches than disks, group
size equal to the whole per-processor share, single-vp batches.
"""

import pytest

from repro.bsp.runner import run_reference
from repro.core.parsim import ParallelEMSimulation
from repro.core.simulator import build_params
from repro.params import MachineParams

from .helpers import AllToAllExchange, MultiRoundAccumulate, TotalExchangeSum


def run_par(alg_factory, v, p, k, D=4, B=16, seed=3):
    alg = alg_factory()
    machine = MachineParams(
        p=p, M=max(k * alg.context_size(), D * B), D=D, B=B, b=B
    )
    params = build_params(alg_factory(), machine, v=v, k=k)
    return ParallelEMSimulation(alg_factory(), params, seed=seed).run()


class TestBatchGeometry:
    def test_single_batch(self):
        """k = v/p: one batch per compound superstep (nbatches = 1 < D)."""
        v, p, k = 8, 2, 4
        ref, _ = run_reference(AllToAllExchange(), v)
        out, report = run_par(AllToAllExchange, v, p, k)
        assert out == ref
        for s in report.ledger.supersteps:
            assert s.syncs >= 2  # one round still has its barriers

    def test_fewer_batches_than_disks(self):
        """nbatches = 2 with D = 8: most disk buckets stay empty."""
        v, p, k = 8, 2, 2
        ref, _ = run_reference(TotalExchangeSum(), v)
        out, _ = run_par(TotalExchangeSum, v, p, k, D=8)
        assert out == ref

    def test_single_vp_batches(self):
        """k = 1: the Sibeyn–Kaufmann regime inside Algorithm 3."""
        v, p = 8, 2
        ref, _ = run_reference(MultiRoundAccumulate(rounds=2), v)
        out, _ = run_par(lambda: MultiRoundAccumulate(rounds=2), v, p, 1)
        assert out == ref

    def test_p_equals_v(self):
        """One virtual processor per real processor (no multiplexing)."""
        v = p = 4
        ref, _ = run_reference(AllToAllExchange(), v)
        out, _ = run_par(AllToAllExchange, v, p, 1)
        assert out == ref

    def test_single_disk_multiprocessor(self):
        v, p, k = 8, 4, 2
        ref, _ = run_reference(TotalExchangeSum(), v)
        out, _ = run_par(TotalExchangeSum, v, p, k, D=1)
        assert out == ref

    def test_batch_maps(self):
        alg = AllToAllExchange()
        machine = MachineParams(p=2, M=4 * alg.context_size(), D=4, B=16, b=16)
        params = build_params(alg, machine, v=16, k=2)
        sim = ParallelEMSimulation(alg, params)
        pr = sim.procs[0]  # every processor holds the same global maps
        # vp layout: processor = vp // 8, batch = (vp % 8) // 2.
        assert [pr.owner_of_vp(vp) for vp in (0, 7, 8, 15)] == [0, 0, 1, 1]
        assert [pr.batch_of_vp(vp) for vp in (0, 1, 2, 7, 9, 14)] == [
            0, 0, 1, 3, 0, 3,
        ]
        # Buckets partition the 4 batches over 4 disks evenly.
        buckets = {pr.bucket_of_vp(vp) for vp in range(16)}
        assert buckets == {0, 1, 2, 3}
        # Contiguity requirement of SimulateRouting: bucket is monotone
        # non-decreasing in the batch index.
        seq = [pr.bucket_of_vp(b * pr.k) for b in range(pr.nbatches)]
        assert seq == sorted(seq)

    def test_init_and_output_io_accounted(self):
        v, p, k = 8, 2, 2
        _, report = run_par(MultiRoundAccumulate, v, p, k)
        assert report.init_io_ops > 0
        assert report.output_io_ops > 0
        assert report.disk_space_tracks > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_scatter_randomness_does_not_affect_costs_structure(self, seed):
        v, p, k = 8, 2, 2
        _, report = run_par(AllToAllExchange, v, p, k, seed=seed)
        # Superstep count is seed-independent (control flow is deterministic).
        assert report.num_supersteps == 2
