"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.io import write_edge_list


@pytest.fixture()
def edgelist(tmp_path):
    graph = barabasi_albert_graph(120, 3, seed=6, name="cli-test")
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path


class TestStats:
    def test_prints_table(self, edgelist, capsys):
        assert main(["stats", str(edgelist)]) == 0
        out = capsys.readouterr().out
        assert "m/n" in out
        assert "120" in out


class TestBuildAndQuery:
    def test_build_then_query(self, edgelist, tmp_path, capsys):
        index = tmp_path / "index.hl"
        assert main(["build", str(edgelist), "-o", str(index), "-k", "6"]) == 0
        assert index.exists()
        out = capsys.readouterr().out
        assert "built HL/stacked(k=6" in out

        assert main(["query", str(edgelist), str(index), "0", "100", "5", "50"]) == 0
        out = capsys.readouterr().out
        assert "d(0, 100) =" in out
        assert "d(5, 50) =" in out

    def test_query_results_are_exact(self, edgelist, tmp_path, capsys):
        from repro.graphs.io import read_edge_list
        from repro.search.bfs import bfs_distance

        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index), "-k", "6"])
        capsys.readouterr()
        main(["query", str(edgelist), str(index), "0", "100"])
        out = capsys.readouterr().out.strip()
        reported = float(out.rsplit("=", 1)[1])
        graph = read_edge_list(edgelist)
        assert reported == bfs_distance(graph, 0, 100)

    def test_odd_vertex_count_fails(self, edgelist, tmp_path, capsys):
        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index)])
        capsys.readouterr()
        assert main(["query", str(edgelist), str(index), "0", "1", "2"]) == 2

    def test_build_with_strategy(self, edgelist, tmp_path):
        index = tmp_path / "index.hl"
        assert (
            main(
                [
                    "build",
                    str(edgelist),
                    "-o",
                    str(index),
                    "-k",
                    "5",
                    "--strategy",
                    "closeness",
                ]
            )
            == 0
        )

    def test_store_and_format_version_flags(self, edgelist, tmp_path, capsys):
        """``--store`` picks the in-memory label store; ``--format-version``
        no longer exists (there is one snapshot layout)."""
        index = tmp_path / "index.hl"
        args = ["build", str(edgelist), "-k", "5", "--store", "landmark"]
        assert main(args + ["-o", str(index)]) == 0
        assert "store=landmark" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(args + ["-o", str(index), "--format-version", "2"])
        assert exc.value.code == 2
        assert "--format-version" in capsys.readouterr().err
        # The snapshot answers identically copied and mapped.
        assert main(["query", str(edgelist), str(index), "0", "100"]) == 0
        assert main(["query", str(edgelist), str(index), "0", "100", "--mmap"]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert plain[0] == plain[1]

    def test_mmap_query_batch(self, edgelist, tmp_path, capsys):
        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index), "-k", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "query-batch",
                    str(edgelist),
                    str(index),
                    "--random",
                    "30",
                    "--mmap",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 30


class TestQueryBatch:
    def test_random_pairs(self, edgelist, tmp_path, capsys):
        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index), "-k", "6"])
        capsys.readouterr()
        assert (
            main(
                [
                    "query-batch",
                    str(edgelist),
                    str(index),
                    "--random",
                    "25",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 25
        assert "pairs=25" in captured.err
        assert "coverage=" in captured.err

    def test_pairs_file_matches_scalar_query(self, edgelist, tmp_path, capsys):
        from repro.core.serialization import load_oracle
        from repro.graphs.io import read_edge_list

        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index), "-k", "6"])
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text("0 100\n5 50\n7 7\n")
        capsys.readouterr()
        assert (
            main(["query-batch", str(edgelist), str(index), "--pairs-file", str(pairs_file)])
            == 0
        )
        out = capsys.readouterr().out.strip().splitlines()
        graph = read_edge_list(edgelist)
        oracle = load_oracle(graph, index)
        for line, (s, t) in zip(out, [(0, 100), (5, 50), (7, 7)]):
            assert line.split() == [str(s), str(t), f"{oracle.query(s, t):.0f}"]

    @pytest.mark.parametrize(
        "content", ["1 2 3\n4 5 6\n", "1.5 2\n", "s t\n0 1\n"],
        ids=["three-columns", "float", "header"],
    )
    def test_malformed_pairs_file(self, edgelist, tmp_path, capsys, content):
        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index)])
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text(content)
        capsys.readouterr()
        assert (
            main(["query-batch", str(edgelist), str(index), "--pairs-file", str(pairs_file)])
            == 2
        )
        assert "two vertex ids per line" in capsys.readouterr().err

    def test_empty_pairs_file(self, edgelist, tmp_path, capsys):
        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index)])
        pairs_file = tmp_path / "pairs.txt"
        pairs_file.write_text("")
        capsys.readouterr()
        assert (
            main(["query-batch", str(edgelist), str(index), "--pairs-file", str(pairs_file)])
            == 0
        )
        captured = capsys.readouterr()
        assert captured.out.strip() == ""
        assert "pairs=0" in captured.err


class TestDatasetCommands:
    def test_datasets_lists_twelve(self, capsys):
        assert main(["datasets"]) == 0
        names = capsys.readouterr().out.split()
        assert len(names) == 12
        assert "ClueWeb09" in names

    def test_bench_dataset(self, capsys):
        assert (
            main(["bench-dataset", "Skitter", "--scale", "0.05", "--pairs", "20"]) == 0
        )
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "Skitter" in out


class TestServeBench:
    def test_serve_bench_verifies_exactness(self, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--n", "400",
                    "--queries", "200",
                    "--threads", "4",
                    "-k", "6",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "QPS" in out
        assert "200/200 match looped oracle.query" in out

    def test_serve_bench_on_edge_list(self, edgelist, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--graph", str(edgelist),
                    "--queries", "100",
                    "--threads", "2",
                    "-k", "4",
                ]
            )
            == 0
        )
        assert "match looped oracle.query" in capsys.readouterr().out


class TestThreadFlags:
    def test_kernels_table_reports_releases_gil(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "releases_gil" in out
        assert "numpy" in out

    def test_query_batch_threads_matches_sequential(
        self, edgelist, tmp_path, capsys
    ):
        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index), "-k", "6"])
        capsys.readouterr()
        args = [
            "query-batch", str(edgelist), str(index),
            "--random", "40", "--seed", "11",
        ]
        assert main(args) == 0
        sequential = capsys.readouterr().out
        assert main(args + ["--threads", "2"]) == 0
        threaded = capsys.readouterr()
        assert threaded.out == sequential  # byte-identical answers
        assert "threads=2" in threaded.err

    def test_query_batch_rejects_bad_threads(self, edgelist, tmp_path, capsys):
        index = tmp_path / "index.hl"
        main(["build", str(edgelist), "-o", str(index), "-k", "6"])
        capsys.readouterr()
        with pytest.raises(ValueError):
            main(
                [
                    "query-batch", str(edgelist), str(index),
                    "--random", "10", "--threads", "0",
                ]
            )

    def test_serve_bench_exec_threads(self, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    "--n", "300",
                    "--queries", "150",
                    "--threads", "2",
                    "--exec-threads", "2",
                    "-k", "5",
                ]
            )
            == 0
        )
        assert "150/150 match looped oracle.query" in capsys.readouterr().out


class TestMethods:
    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("hl", "hl-dyn", "pll", "bibfs", "dijkstra"):
            assert name in out
        assert "snapshot" in out  # capability columns


class TestNetCommands:
    def test_query_remote_against_live_server(self, edgelist, tmp_path, capsys):
        from repro.api import open_oracle
        from repro.serving.net import NetServer

        oracle = open_oracle(str(edgelist))
        with NetServer(oracle).running_in_thread() as (host, port):
            assert main(
                ["query", "0", "100", "5", "50", "--remote", f"{host}:{port}"]
            ) == 0
            out = capsys.readouterr().out
            assert f"d(0, 100) = {oracle.query(0, 100):.0f}" in out
            assert f"d(5, 50) = {oracle.query(5, 50):.0f}" in out

    def test_query_remote_rejects_bad_inputs(self, capsys):
        assert main(["query", "0", "1", "--remote", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        assert main(["query", "not-a-vertex", "1", "--remote", "h:1"]) == 2
        assert "vertex ids" in capsys.readouterr().err
        assert main(["query", "0", "1", "2", "--remote", "h:1"]) == 2
        assert "even number" in capsys.readouterr().err

    def test_net_bench_smoke(self, capsys, tmp_path):
        out_file = tmp_path / "net.txt"
        assert main(
            [
                "net-bench", "--n", "400", "-k", "6", "--readers", "2",
                "--rounds", "4", "--batch-size", "16", "--rollovers", "1",
                "--out", str(out_file),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "failed requests: 0" in out
        assert "reconnect" in out
        assert out_file.exists()
        recorded = out_file.read_text()
        assert "byte-identity" in recorded and "p50_ms" in recorded
