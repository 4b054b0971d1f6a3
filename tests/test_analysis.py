"""Tests for the reporting, breakdown and sweep helpers."""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    ScalingPoint,
    breakdown_chart,
    breakdown_table,
    format_bar_chart,
    format_grid,
    format_table,
    mebibytes,
    mpi_omp_configurations,
    per_rank_breakdown,
    seconds,
)
from repro.core import SparsityAware1D
from repro.experiments import RunConfig, execute_config
from repro.matrices.generators import banded
from repro.runtime import SimulatedCluster


class TestFormatting:
    def test_seconds_scales_units(self):
        assert seconds(2.5).endswith(" s")
        assert seconds(0.002).endswith(" ms")
        assert seconds(2e-6).endswith(" µs")

    def test_mebibytes_scales_units(self):
        assert mebibytes(100) == "100 B"
        assert mebibytes(2048).endswith("KiB")
        assert mebibytes(3 * 1024**2).endswith("MiB")
        assert mebibytes(5 * 1024**3).endswith("GiB")

    def test_format_table_alignment_and_title(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 223, "b": "z"}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="t")

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert "c" in header and "b" not in header

    def test_format_bar_chart_lengths_proportional(self):
        text = format_bar_chart(["x", "y"], [1.0, 2.0], width=20)
        line_x, line_y = text.splitlines()
        assert line_y.count("#") == 2 * line_x.count("#")

    def test_format_bar_chart_all_zero(self):
        text = format_bar_chart(["x"], [0.0])
        assert "#" not in text

    def test_format_grid_shapes(self):
        grid = np.array([[0, 1], [5, 0]])
        text = format_grid(grid, title="spy")
        lines = text.splitlines()
        assert lines[0] == "spy"
        assert len(lines) == 3
        assert len(lines[1]) == 2


class TestBreakdown:
    def _result(self):
        A = banded(150, 6, symmetric=True, seed=1)
        cluster = SimulatedCluster(4)
        return SparsityAware1D().multiply(A, A, cluster)

    def test_per_rank_breakdown_has_all_ranks(self):
        result = self._result()
        rows = per_rank_breakdown(result)
        assert [r.rank for r in rows] == [0, 1, 2, 3]
        assert all(r.total >= 0 for r in rows)

    def test_breakdown_accepts_ledger_directly(self):
        result = self._result()
        rows = per_rank_breakdown(result.ledger)
        assert len(rows) == 4

    def test_breakdown_table_renders(self):
        text = breakdown_table(self._result())
        assert "rank" in text and "comm" in text
        assert len(text.splitlines()) == 1 + 2 + 4  # title + header/sep + 4 ranks

    def test_breakdown_chart_renders(self):
        text = breakdown_chart(self._result())
        assert "rank 0" in text and "rank 3" in text


class TestSweeps:
    def test_scaling_point_rows_from_records(self):
        A = banded(200, 8, symmetric=True, seed=2)
        points = [
            ScalingPoint.from_record(
                execute_config(RunConfig(dataset="banded", nprocs=p), matrix=A)
            )
            for p in (2, 4, 8)
        ]
        assert [p.nprocs for p in points] == [2, 4, 8]
        for p in points:
            row = p.as_row()
            assert row["P"] == p.nprocs
            assert float(row["time (s)"]) >= 0

    def test_mpi_omp_configurations_product_is_constant(self):
        configs = mpi_omp_configurations(64)
        assert all(c["processes"] * c["threads"] == 64 for c in configs)
        procs = [c["processes"] for c in configs]
        assert 1 in procs and 4 in procs and 16 in procs and 64 in procs
        # Only perfect-square process counts (CombBLAS tradition).
        assert all(int(round(np.sqrt(p))) ** 2 == p for p in procs)

