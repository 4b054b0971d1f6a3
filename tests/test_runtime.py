"""Unit tests for the simulated runtime: cost model, stats, windows, collectives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    CATEGORIES,
    CostModel,
    LAPTOP,
    MemoryLimitExceeded,
    PERLMUTTER,
    PhaseLedger,
    RankStats,
    SimulatedCluster,
    WindowError,
    ZERO_COST,
)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
class TestCostModel:
    def test_message_cost_includes_latency_and_bandwidth(self):
        m = CostModel(alpha=1e-6, beta=1e-9)
        assert m.message_cost(1000) == pytest.approx(1e-6 + 1000e-9)

    def test_rdma_latency_lower_than_two_sided(self):
        assert PERLMUTTER.alpha_rdma < PERLMUTTER.alpha
        assert PERLMUTTER.message_cost(100, rdma=True) < PERLMUTTER.message_cost(100)

    def test_compute_cost_scales_with_flops(self):
        m = CostModel(gamma=1e-9, threads_per_process=1, serial_fraction=0.0)
        assert m.compute_cost(2000) == pytest.approx(2 * m.compute_cost(1000))

    def test_compute_cost_thread_speedup_bounded_by_amdahl(self):
        m = CostModel(gamma=1e-9, threads_per_process=1, serial_fraction=0.1)
        m16 = m.with_threads(16)
        speedup = m.compute_cost(10**6) / m16.compute_cost(10**6)
        assert 1.0 < speedup < 10.0  # bounded well below 16 by the serial fraction

    def test_with_threads_returns_new_model(self):
        m2 = PERLMUTTER.with_threads(2)
        assert m2.threads_per_process == 2
        assert PERLMUTTER.threads_per_process != 2 or m2 is not PERLMUTTER

    def test_with_memory_capacity(self):
        m = PERLMUTTER.with_memory_capacity(1024)
        assert m.memory_capacity_bytes == 1024

    def test_pack_cost_zero_for_zero_bytes(self):
        assert PERLMUTTER.pack_cost(0) == 0.0

    def test_zero_cost_model_charges_nothing(self):
        assert ZERO_COST.message_cost(10**9) == 0.0
        assert ZERO_COST.compute_cost(10**9) == 0.0

    def test_presets_are_distinct(self):
        assert PERLMUTTER.beta != LAPTOP.beta


# ----------------------------------------------------------------------
# RankStats / PhaseLedger
# ----------------------------------------------------------------------
class TestStats:
    def test_charge_time_accumulates(self):
        st = RankStats(rank=0)
        st.charge_time("comm", 1.0)
        st.charge_time("comm", 0.5)
        assert st.comm_time == pytest.approx(1.5)
        assert st.total_time == pytest.approx(1.5)

    def test_unknown_category_raises(self):
        st = RankStats(rank=0)
        with pytest.raises(KeyError):
            st.charge_time("disk", 1.0)

    def test_as_dict_contains_all_counters(self):
        st = RankStats(rank=1)
        d = st.as_dict()
        for cat in CATEGORIES:
            assert f"time_{cat}" in d
        assert "bytes_received" in d and "rdma_gets" in d

    def test_ledger_phase_creation_and_order(self):
        ledger = PhaseLedger(nprocs=2)
        ledger.phase("b")
        ledger.phase("a")
        ledger.phase("b")
        assert ledger.phase_order == ["b", "a"]

    def test_ledger_elapsed_time_is_sum_of_phase_maxima(self):
        ledger = PhaseLedger(nprocs=2)
        ledger.rank("p1", 0).charge_time("comm", 1.0)
        ledger.rank("p1", 1).charge_time("comm", 3.0)
        ledger.rank("p2", 0).charge_time("comp", 2.0)
        ledger.rank("p2", 1).charge_time("comp", 1.0)
        assert ledger.elapsed_time() == pytest.approx(3.0 + 2.0)

    def test_elapsed_by_category_sums_to_elapsed(self):
        ledger = PhaseLedger(nprocs=2)
        ledger.rank("p", 0).charge_time("comm", 1.0)
        ledger.rank("p", 0).charge_time("comp", 2.0)
        ledger.rank("p", 1).charge_time("comm", 0.5)
        cats = ledger.elapsed_time_by_category()
        assert sum(cats.values()) == pytest.approx(ledger.elapsed_time())

    def test_per_rank_totals_aggregate_phases(self):
        ledger = PhaseLedger(nprocs=1)
        ledger.rank("a", 0).charge_time("comm", 1.0)
        ledger.rank("b", 0).charge_time("comm", 2.0)
        totals = ledger.per_rank_totals()
        assert totals[0].comm_time == pytest.approx(3.0)

    def test_total_counters(self):
        ledger = PhaseLedger(nprocs=2)
        ledger.rank("p", 0).bytes_received += 100
        ledger.rank("p", 1).bytes_received += 50
        ledger.rank("p", 0).rdma_gets += 3
        ledger.rank("p", 1).messages_sent += 2
        assert ledger.total_bytes() == 150
        assert ledger.total_rdma_gets() == 3
        assert ledger.total_messages() == 5

    def test_load_imbalance_balanced(self):
        ledger = PhaseLedger(nprocs=2)
        ledger.rank("p", 0).charge_time("comp", 1.0)
        ledger.rank("p", 1).charge_time("comp", 1.0)
        assert ledger.load_imbalance() == pytest.approx(1.0)

    def test_load_imbalance_skewed(self):
        ledger = PhaseLedger(nprocs=2)
        ledger.rank("p", 0).charge_time("comp", 3.0)
        ledger.rank("p", 1).charge_time("comp", 1.0)
        assert ledger.load_imbalance() == pytest.approx(1.5)

    def test_merge_ledgers(self):
        a = PhaseLedger(nprocs=2)
        b = PhaseLedger(nprocs=2)
        a.rank("x", 0).charge_time("comm", 1.0)
        b.rank("x", 0).charge_time("comm", 2.0)
        a.merge(b)
        assert a.rank("x", 0).comm_time == pytest.approx(3.0)

    def test_merge_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            PhaseLedger(nprocs=2).merge(PhaseLedger(nprocs=3))


# ----------------------------------------------------------------------
# SimulatedCluster
# ----------------------------------------------------------------------
class TestSimulatedCluster:
    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_phase_context_routes_charges(self):
        cl = SimulatedCluster(2)
        with cl.phase("alpha"):
            cl.charge_compute(0, 1000)
        with cl.phase("beta"):
            cl.charge_compute(1, 2000)
        assert cl.ledger.rank("alpha", 0).flops == 1000
        assert cl.ledger.rank("beta", 1).flops == 2000

    def test_nested_phase_restored(self):
        cl = SimulatedCluster(1)
        with cl.phase("outer"):
            with cl.phase("inner"):
                assert cl.current_phase == "inner"
            assert cl.current_phase == "outer"

    def test_stats_out_of_range_rank(self):
        cl = SimulatedCluster(2)
        with pytest.raises(IndexError):
            cl.stats(5)

    def test_charge_compute_adds_time_and_flops(self):
        cl = SimulatedCluster(1)
        cl.charge_compute(0, 10**6)
        st = cl.stats(0)
        assert st.flops == 10**6
        assert st.comp_time > 0

    def test_charge_memory_and_oom(self):
        model = PERLMUTTER.with_memory_capacity(1000)
        cl = SimulatedCluster(1, cost_model=model)
        cl.charge_memory(0, 500)
        with pytest.raises(MemoryLimitExceeded):
            cl.charge_memory(0, 2000)

    def test_reset_clears_ledger(self):
        cl = SimulatedCluster(2)
        cl.charge_compute(0, 100)
        cl.reset()
        assert cl.elapsed_time() == 0.0

    def test_summary_keys(self):
        cl = SimulatedCluster(2)
        s = cl.summary()
        for key in ("elapsed_time", "comm_time", "total_bytes", "load_imbalance"):
            assert key in s


# ----------------------------------------------------------------------
# RDMA windows
# ----------------------------------------------------------------------
class TestWindows:
    def _make_window(self, cl):
        exposed = {
            r: {"data": np.arange(10, dtype=np.float64) * (r + 1)} for r in range(cl.nprocs)
        }
        return cl.create_window(exposed), exposed

    def test_get_outside_epoch_raises(self):
        cl = SimulatedCluster(2)
        win, _ = self._make_window(cl)
        with pytest.raises(WindowError):
            win.get(0, 1, "data", 0, 5)

    def test_get_returns_correct_slice(self):
        cl = SimulatedCluster(2)
        win, exposed = self._make_window(cl)
        with win.epoch():
            out = win.get(0, 1, "data", 2, 6)
        np.testing.assert_allclose(out, exposed[1]["data"][2:6])

    def test_get_is_a_copy(self):
        cl = SimulatedCluster(2)
        win, exposed = self._make_window(cl)
        with win.epoch():
            out = win.get(0, 1, "data", 0, 3)
        out[:] = -1
        assert exposed[1]["data"][0] != -1

    def test_get_charges_origin_only(self):
        cl = SimulatedCluster(2)
        win, _ = self._make_window(cl)
        with win.epoch():
            win.get(0, 1, "data", 0, 10)
        origin = cl.stats(0)
        target = cl.stats(1)
        assert origin.rdma_gets == 1
        assert origin.bytes_received == 80
        assert target.bytes_sent == 80
        assert target.rdma_gets == 0
        # Passive target: the target's communication time stays at the epoch
        # close cost only (charged when the epoch exits), not per-get.
        assert origin.comm_time > 0

    def test_local_get_costs_nothing(self):
        cl = SimulatedCluster(2)
        win, _ = self._make_window(cl)
        with win.epoch():
            win.get(1, 1, "data", 0, 10)
        assert cl.stats(1).rdma_gets == 0

    def test_get_bad_range_raises(self):
        cl = SimulatedCluster(2)
        win, _ = self._make_window(cl)
        with win.epoch():
            with pytest.raises(WindowError):
                win.get(0, 1, "data", 5, 50)

    def test_get_bad_key_raises(self):
        cl = SimulatedCluster(2)
        win, _ = self._make_window(cl)
        with win.epoch():
            with pytest.raises(WindowError):
                win.get(0, 1, "nope", 0, 1)

    def test_get_concat(self):
        cl = SimulatedCluster(2)
        win, exposed = self._make_window(cl)
        with win.epoch():
            out = win.get_concat(0, 1, "data", [(0, 2), (5, 7)])
        np.testing.assert_allclose(out, exposed[1]["data"][[0, 1, 5, 6]])
        assert cl.stats(0).rdma_gets == 2

    def test_nested_epoch_rejected(self):
        cl = SimulatedCluster(1)
        win, _ = self._make_window(cl)
        with win.epoch():
            with pytest.raises(WindowError):
                with win.epoch():
                    pass

    def test_gets_issued_counter(self):
        cl = SimulatedCluster(2)
        win, _ = self._make_window(cl)
        with win.epoch():
            win.get(0, 1, "data", 0, 1)
            win.get(1, 0, "data", 0, 1)
        assert win.gets_issued == 2


# ----------------------------------------------------------------------
# Communicator collectives
# ----------------------------------------------------------------------
class TestCommunicator:
    def test_send_charges_both_sides(self):
        cl = SimulatedCluster(2)
        payload = np.zeros(128, dtype=np.float64)
        cl.comm.send(payload, src=0, dst=1)
        assert cl.stats(0).bytes_sent == payload.nbytes
        assert cl.stats(1).bytes_received == payload.nbytes
        assert cl.stats(0).comm_time > 0 and cl.stats(1).comm_time > 0

    def test_send_to_self_is_free(self):
        cl = SimulatedCluster(2)
        cl.comm.send(np.zeros(10), src=1, dst=1)
        assert cl.stats(1).bytes_sent == 0

    def test_bcast_returns_payload_to_all(self):
        cl = SimulatedCluster(4)
        out = cl.comm.bcast(np.arange(3), root=0)
        assert set(out) == {0, 1, 2, 3}

    def test_bcast_root_must_be_member(self):
        cl = SimulatedCluster(4)
        with pytest.raises(ValueError):
            cl.comm.bcast(np.arange(3), root=3, ranks=[0, 1])

    def test_bcast_nonroot_receives_volume(self):
        cl = SimulatedCluster(4)
        payload = np.zeros(1000, dtype=np.float64)
        cl.comm.bcast(payload, root=0)
        for r in range(1, 4):
            assert cl.stats(r).bytes_received == payload.nbytes

    def test_allgather_everyone_gets_everything(self):
        cl = SimulatedCluster(3)
        out = cl.comm.allgather({r: np.full(4, r) for r in range(3)})
        for r in range(3):
            assert len(out[r]) == 3
        assert cl.stats(0).bytes_received > 0

    def test_gather_root_receives(self):
        cl = SimulatedCluster(3)
        collected = cl.comm.gather({r: np.full(2, r) for r in range(3)}, root=0)
        assert len(collected) == 3
        assert cl.stats(0).bytes_received > 0
        assert cl.stats(1).bytes_sent > 0

    def test_alltoallv_routing(self):
        cl = SimulatedCluster(3)
        buffers = {0: {1: np.zeros(8)}, 1: {2: np.zeros(16)}, 2: {}}
        received = cl.comm.alltoallv(buffers)
        assert 0 in received[1]
        assert 1 in received[2]
        assert cl.stats(2).bytes_received == 16 * 8

    def test_alltoallv_self_delivery_free(self):
        cl = SimulatedCluster(2)
        received = cl.comm.alltoallv({0: {0: np.zeros(8)}, 1: {}})
        assert 0 in received[0]
        assert cl.stats(0).bytes_sent == 0

    def test_allreduce_scalar(self):
        cl = SimulatedCluster(4)
        out = cl.comm.allreduce_scalar({r: float(r) for r in range(4)})
        assert all(v == pytest.approx(6.0) for v in out.values())

    def test_barrier_charges_latency(self):
        cl = SimulatedCluster(4)
        cl.comm.barrier()
        assert cl.stats(0).comm_time > 0

    def test_barrier_single_rank_free(self):
        cl = SimulatedCluster(1)
        cl.comm.barrier()
        assert cl.stats(0).comm_time == 0.0
