"""Tests for the command-line interface (``python -m repro``)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.matrices import write_matrix_market
from repro.matrices.generators import banded


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_square_defaults(self):
        args = build_parser().parse_args(["square"])
        assert args.command == "square"
        assert args.algorithm == "1d"
        assert args.strategy == "none"
        assert args.nprocs == 16

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["square", "--dataset", "unknown42"])

    def test_bc_arguments(self):
        args = build_parser().parse_args(
            ["bc", "--dataset", "eukarya", "--sources", "8", "--batch-size", "4"]
        )
        assert args.sources == 8
        assert args.batch_size == 4


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("queen", "eukarya", "hv15r"):
            assert name in out

    def test_algorithms_listing(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "1d-sparsity-aware" in out
        assert "2d-summa" in out

    def test_square_runs(self, capsys):
        code = main(
            ["square", "--dataset", "hv15r", "--scale", "0.1", "--nprocs", "4",
             "--block-split", "16", "--breakdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "squaring" in out
        assert "CV/memA" in out
        assert "rank" in out  # breakdown table requested

    def test_estimate_runs(self, capsys):
        assert main(["estimate", "--dataset", "eukarya", "--scale", "0.05", "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "CV/memA" in out
        assert "partition" in out

    def test_galerkin_runs(self, capsys):
        assert main(["galerkin", "--dataset", "queen", "--scale", "0.05", "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "RtA" in out and "coarse operator" in out

    def test_bc_runs(self, capsys):
        assert main(
            ["bc", "--dataset", "hv15r", "--scale", "0.05", "--nprocs", "4",
             "--sources", "4", "--batch-size", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "forward search" in out
        assert "top-10" in out

    def test_triangles_runs(self, capsys):
        assert main(
            ["triangles", "--dataset", "eukarya", "--scale", "0.1",
             "--nprocs", "4", "--block-split", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "triangle counting" in out
        assert "match" in out

    def test_triangles_early_mask(self, capsys):
        assert main(
            ["triangles", "--dataset", "eukarya", "--scale", "0.1",
             "--nprocs", "4", "--mask-mode", "early"]
        ) == 0
        assert "early" in capsys.readouterr().out

    def test_mcl_runs(self, capsys):
        assert main(
            ["mcl", "--dataset", "eukarya", "--scale", "0.1", "--nprocs", "4",
             "--block-split", "16", "--max-iters", "40"]
        ) == 0
        out = capsys.readouterr().out
        assert "MCL" in out
        assert "converged" in out
        assert "clusters" in out

    def test_matrix_market_input(self, tmp_path, capsys):
        path = tmp_path / "input.mtx"
        write_matrix_market(path, banded(60, 4, symmetric=True, seed=1))
        assert main(["square", "--matrix", str(path), "--nprocs", "2"]) == 0
        assert "squaring" in capsys.readouterr().out

    def test_matrix_input_labelled_by_file_stem(self, tmp_path, capsys):
        path = tmp_path / "mycustom.mtx"
        write_matrix_market(path, banded(60, 4, symmetric=True, seed=1))
        assert main(["estimate", "--matrix", str(path), "--nprocs", "2"]) == 0
        out = capsys.readouterr().out
        # The report must name the file, not the default --dataset (hv15r).
        assert "mycustom" in out
        assert "hv15r" not in out

    def test_square_layers_forwarded(self, capsys):
        code = main(
            ["square", "--dataset", "hv15r", "--scale", "0.05", "--nprocs", "8",
             "--algorithm", "3d", "--layers", "2", "--strategy", "random"]
        )
        assert code == 0
        assert "squaring" in capsys.readouterr().out

    def test_sweep_runs_and_persists_jsonl(self, tmp_path, capsys):
        records = tmp_path / "runs.jsonl"
        argv = [
            "sweep", "--datasets", "hv15r", "--algorithms", "1d",
            "--nprocs", "2,4", "--block-splits", "16", "--scale", "0.05",
            "--records", str(records),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "2 executed" in out
        lines = records.read_text().strip().splitlines()
        assert len(lines) == 2
        # Second invocation is served entirely from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cached, 0 executed" in out
        assert len(records.read_text().strip().splitlines()) == 2

    def test_sweep_rejects_unknown_dataset(self, capsys):
        assert main(["sweep", "--datasets", "nope42"]) == 2

    def test_sweep_rejects_unknown_algorithm_and_strategy(self, capsys):
        # Axis typos must exit cleanly up front, not crash a worker mid-grid.
        assert main(["sweep", "--datasets", "hv15r", "--algorithms", "1d,bogus"]) == 2
        assert main(["sweep", "--datasets", "hv15r", "--strategies", "zodiac"]) == 2

    def test_sweep_rejects_non_positive_axes(self, capsys):
        assert main(["sweep", "--datasets", "hv15r", "--nprocs", "0,4"]) == 2
        assert main(["sweep", "--datasets", "hv15r", "--block-splits", "-1"]) == 2
        assert main(["sweep", "--datasets", "hv15r", "--scale", "0"]) == 2

    def test_sweep_rejects_unknown_workload(self, capsys):
        assert main(["sweep", "--datasets", "hv15r", "--workloads", "tensor"]) == 2
        err = capsys.readouterr().err
        # The message lists the valid set dynamically from the registry, so
        # it can never go stale when a workload is added.
        from repro.experiments import workload_names

        for name in workload_names():
            assert name in err

    def test_sweep_triangles_workload_runs(self, capsys):
        code = main(
            ["sweep", "--workloads", "triangles", "--datasets", "eukarya",
             "--nprocs", "4", "--scale", "0.1", "--block-splits", "16",
             "--mask-mode", "early"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "triangles" in out and "1 executed" in out

    def test_sweep_triangles_early_mask_needs_1d(self, capsys):
        assert main(
            ["sweep", "--workloads", "triangles", "--datasets", "eukarya",
             "--algorithms", "2d", "--mask-mode", "early"]
        ) == 2

    def test_sweep_mcl_workload_runs(self, capsys):
        code = main(
            ["sweep", "--workloads", "mcl", "--datasets", "eukarya",
             "--nprocs", "4", "--scale", "0.1", "--block-splits", "16",
             "--mcl-max-iters", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mcl" in out and "1 executed" in out

    def test_sweep_mcl_rejects_bad_axes(self, capsys):
        assert main(
            ["sweep", "--workloads", "mcl", "--datasets", "eukarya",
             "--algorithms", "2d"]
        ) == 2
        assert main(
            ["sweep", "--workloads", "mcl", "--datasets", "eukarya",
             "--mcl-inflation", "-1"]
        ) == 2
        assert main(
            ["sweep", "--workloads", "mcl", "--datasets", "eukarya",
             "--mcl-max-iters", "0"]
        ) == 2

    def test_sweep_bc_requires_sources(self, capsys):
        assert main(["sweep", "--datasets", "hv15r", "--workloads", "bc"]) == 2

    def test_sweep_bc_workload_runs(self, capsys):
        code = main(
            ["sweep", "--workloads", "bc", "--datasets", "hv15r", "--nprocs", "4",
             "--scale", "0.05", "--bc-sources", "4", "--bc-batch", "4",
             "--bc-stride", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bc" in out and "1 executed" in out

    def test_sweep_local_algorithm_only_for_bc(self, capsys):
        # "local" is a bc-only execution mode, not a distributed algorithm.
        assert main(["sweep", "--datasets", "hv15r", "--algorithms", "local"]) == 2
        code = main(
            ["sweep", "--workloads", "bc", "--datasets", "hv15r", "--nprocs", "4",
             "--algorithms", "local", "--scale", "0.05", "--bc-sources", "4",
             "--bc-stride", "2"]
        )
        assert code == 0

    def test_sweep_amg_workload_runs(self, capsys):
        code = main(
            ["sweep", "--workloads", "amg-restriction", "--datasets", "queen",
             "--nprocs", "8", "--scale", "0.05", "--amg-phase", "rta"]
        )
        assert code == 0
        assert "amg-restriction" in capsys.readouterr().out

    def test_bench_emits_trajectory(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_TEST.json"
        records = tmp_path / "bench.jsonl"
        argv = [
            "bench", "--scale", "0.05", "--records", str(records),
            "--out", str(out_path),
        ]
        assert main(argv) == 0
        assert "trajectory written" in capsys.readouterr().out
        import json

        document = json.loads(out_path.read_text())
        assert document["label"] == "BENCH_TEST"
        assert document["all_conserved"] is True
        assert set(document["workloads"]) == {
            "squaring", "chained-squaring", "amg-restriction", "bc",
            "triangles", "mcl",
        }
        # Re-running serves every config from the record store.
        assert main(argv) == 0
        assert "0 executed" in capsys.readouterr().out

    def test_bench_rejects_unknown_workload(self, capsys):
        assert main(["bench", "--workloads", "quux"]) == 2


class TestKernelSelection:
    """A bad kernel variant exits 2 before any work or persistence."""

    @pytest.fixture
    def store(self, tmp_path, monkeypatch):
        from repro.sparse import kernels

        # Earlier in-process commands may have installed a --kernel choice.
        monkeypatch.setattr(kernels, "_forced", None)
        return tmp_path / "runs.jsonl"

    def _argv(self, command, store):
        return {
            "square": ["square", "--scale", "0.05", "--nprocs", "4"],
            "sweep": ["sweep", "--datasets", "hv15r", "--nprocs", "4",
                      "--scale", "0.05", "--records", str(store)],
            "bench": ["bench", "--scale", "0.05", "--records", str(store),
                      "--out", str(store.with_suffix(".json"))],
            "serve": ["serve", "--port", "0", "--records", str(store)],
        }[command]

    @pytest.mark.parametrize("command", ["square", "sweep", "bench", "serve"])
    def test_bad_env_variant_exits_2(self, command, store, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_KERNEL", "numba")
        assert main(self._argv(command, store)) == 2
        err = capsys.readouterr().err
        assert "REPRO_KERNEL='numba'" in err
        assert "valid variants: numpy, python" in err
        assert not store.exists()

    @pytest.mark.parametrize("command", ["square", "sweep", "bench"])
    def test_bad_flag_variant_exits_2(self, command, store, capsys):
        assert main(self._argv(command, store) + ["--kernel", "auto"]) == 2
        err = capsys.readouterr().err
        assert "--kernel 'auto'" in err
        assert "valid variants: numpy, python" in err
        assert not store.exists()

    def test_flag_overrides_bad_env(self, store, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_KERNEL", "bogus")
        argv = self._argv("square", store) + ["--kernel", "python"]
        assert main(argv) == 0
        assert "squaring" in capsys.readouterr().out
