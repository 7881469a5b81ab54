"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pattern_args(self):
        args = build_parser().parse_args(["pattern", "-P", "23", "--show"])
        assert args.nodes == 23 and args.show

    def test_bad_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pattern", "-P", "4", "--family", "nope"])

    def test_search_flags(self):
        args = build_parser().parse_args(
            ["pattern", "-P", "23", "--jobs", "4", "--no-prune"])
        assert args.jobs == 4 and args.no_prune
        args = build_parser().parse_args(["cost", "-P", "23"])
        assert args.jobs == 1 and not args.no_prune
        assert build_parser().parse_args(
            ["simulate", "-P", "10", "-j", "0"]).jobs == 0

    @pytest.mark.parametrize("cmd", [["stats"], ["query", "-P", "5"],
                                     ["precompute", "-P", "5"]])
    def test_store_family_choices(self, cmd):
        argv = ["store"] + cmd + ["--dir", "d"]
        for family in ("best", "gcrm", "2dbc_within"):
            assert build_parser().parse_args(
                argv + ["--family", family]).family == family
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--family", "gcmr"])


class TestCountFlags:
    """Every count flag takes integers >= 1: anything else exits 2 at
    parse time, naming the flag, before any work runs."""

    @pytest.mark.parametrize("flag, argv", [
        ("--nodes", ["simulate", "-P", "0"]),
        ("--tiles", ["cost", "-P", "23", "--tiles", "0"]),
        ("--seeds", ["cost", "-P", "23", "--seeds", "0"]),
        ("--budget", ["store", "query", "--dir", "store", "--nodes", "5",
                      "--budget", "0"]),
        ("--tile-size", ["simulate", "-P", "7", "--tiles", "8",
                         "--tile-size", "0"]),
        ("--topology", ["simulate", "-P", "7", "--tiles", "8",
                        "--topology", "0"]),
    ])
    def test_non_positive_count_exits_2(self, flag, argv, capsys,
                                        monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "must be >= 1, got 0" in err


class TestGcrmCommand:
    def test_flat_vs_hier_table(self, capsys):
        assert main(["gcrm", "-P", "11", "--topology", "2",
                     "--tiles", "16", "--seeds", "6"]) == 0
        out = capsys.readouterr().out
        assert "flat" in out and "hier" in out
        assert "inter vol" in out
        assert "2 ranks/node" in out

    def test_show_prints_both_grids(self, capsys):
        assert main(["gcrm", "-P", "11", "--topology", "2",
                     "--seeds", "4", "--show"]) == 0
        out = capsys.readouterr().out
        assert "flat winner" in out
        assert "hierarchy-aware winner" in out


class TestSimulateTopology:
    def test_topology_prints_hier_block(self, capsys):
        assert main(["simulate", "-P", "7", "--tiles", "10",
                     "--tile-size", "8", "--seeds", "4",
                     "--topology", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 ranks/node" in out
        assert "inter/intra bytes" in out

    def test_flat_has_no_hier_block(self, capsys):
        assert main(["simulate", "-P", "7", "--tiles", "10",
                     "--tile-size", "8", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "ranks/node" not in out

    @pytest.mark.parametrize("argv, network", [
        (["--network", "nic"], "nic"), ([], "hierarchical")])
    def test_explicit_network_wins(self, capsys, argv, network):
        # regression: an explicit --network nic ran "hierarchical" too
        assert main(["simulate", "-P", "7", "--tiles", "10",
                     "--tile-size", "8", "--seeds", "4",
                     "--topology", "2"] + argv) == 0
        assert f"network    : {network}\n" in capsys.readouterr().out


class TestPatternCommand:
    def test_lu_pattern(self, capsys):
        assert main(["pattern", "-P", "23", "--kernel", "lu"]) == 0
        out = capsys.readouterr().out
        assert "G-2DBC" in out
        assert "20x23" in out
        assert "9.65" in out

    def test_show_grid(self, capsys):
        main(["pattern", "-P", "10", "--kernel", "lu", "--show"])
        out = capsys.readouterr().out
        assert "\n 0  1  2  3" in out or "0  1  2  3" in out

    def test_save(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        main(["pattern", "-P", "12", "--save", str(path)])
        data = json.loads(path.read_text())
        assert data["nnodes"] == 12

    def test_explicit_family(self, capsys):
        main(["pattern", "-P", "23", "--family", "sbc_within", "--kernel", "cholesky"])
        out = capsys.readouterr().out
        assert "P = 21" in out

    def test_parallel_search_matches_serial(self, capsys):
        argv = ["pattern", "-P", "23", "--kernel", "cholesky", "--seeds", "5"]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_no_prune_flag_runs(self, capsys):
        assert main(["pattern", "-P", "23", "--kernel", "cholesky",
                     "--seeds", "3", "--no-prune"]) == 0
        assert "T(cholesky)" in capsys.readouterr().out


class TestCostCommand:
    def test_table_printed(self, capsys):
        assert main(["cost", "-P", "23", "--tiles", "50", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "2dbc" in out and "g2dbc" in out and "gcrm" in out

    def test_sbc_row_when_feasible(self, capsys):
        main(["cost", "-P", "21", "--tiles", "10", "--seeds", "3"])
        assert "sbc" in capsys.readouterr().out


class TestSimulateCommand:
    def test_lu_run(self, capsys):
        assert main(["simulate", "-P", "6", "--tiles", "8",
                     "--tile-size", "100", "--kernel", "lu"]) == 0
        out = capsys.readouterr().out
        assert "gflops" in out and "n_messages" in out

    def test_cholesky_run(self, capsys):
        assert main(["simulate", "-P", "10", "--tiles", "8", "--tile-size", "100",
                     "--kernel", "cholesky", "--seeds", "3"]) == 0

    def test_faults_flag_prints_degraded_block(self, capsys):
        assert main(["simulate", "-P", "6", "--tiles", "8",
                     "--tile-size", "100", "--kernel", "lu",
                     "--faults", "fail:1@1e-4,loss:0.05,seed:3"]) == 0
        out = capsys.readouterr().out
        assert "degraded run" in out
        assert "makespan_inflation" in out
        assert "failed_nodes" in out

    def test_bad_faults_spec_fails(self, capsys):
        with pytest.raises(ValueError):
            main(["simulate", "-P", "6", "--tiles", "8",
                  "--tile-size", "100", "--faults", "explode:now"])

    def test_no_faults_no_degraded_block(self, capsys):
        assert main(["simulate", "-P", "6", "--tiles", "8",
                     "--tile-size", "100", "--kernel", "lu"]) == 0
        assert "degraded run" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv, backend, loop", [
        (["--network", "contention", "--scheduler", "work_stealing"], "c",
         "c"),
        (["--topology", "2", "--scheduler", "lookahead"], "c", "c"),
        (["--scheduler", "fifo"], "c", "python (scheduler fifo)"),
        (["--network", "contention"], "python", "python (backend python)"),
    ])
    def test_prints_which_loop_ran(self, capsys, monkeypatch, argv,
                                   backend, loop):
        from repro.runtime import csim
        from repro.runtime.backends import BACKEND_ENV

        if backend == "c" and not csim.available():
            pytest.skip(f"compiled loop unavailable: {csim.load_error()}")
        monkeypatch.setenv(BACKEND_ENV, backend)
        assert main(["simulate", "-P", "6", "--tiles", "8",
                     "--tile-size", "100", "--kernel", "lu"] + argv) == 0
        assert f"\nloop       : {loop}\n" in capsys.readouterr().out

    def test_degraded_block_names_its_loop(self, capsys):
        assert main(["simulate", "-P", "6", "--tiles", "8",
                     "--tile-size", "100", "--kernel", "lu",
                     "--faults", "fail:1@1e-4"]) == 0
        assert "loop                : python (faults)\n" in \
            capsys.readouterr().out

    def test_trace_out_streams_chrome_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["simulate", "-P", "6", "--tiles", "8",
                     "--tile-size", "100", "--kernel", "lu",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace_out" in out and "events" in out
        data = json.loads(path.read_text())
        assert any(e.get("cat") == "task" for e in data["traceEvents"])


class TestCampaignCommand:
    def test_smoke(self, capsys):
        assert main(["campaign", "--families", "g2dbc", "-P", "5",
                     "--tiles", "6", "--tile-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "msg pred" in out and "g2dbc" in out

    def test_faults_axis(self, capsys):
        assert main(["campaign", "--families", "g2dbc", "-P", "5",
                     "--tiles", "6", "--tile-size", "8",
                     "--faults", "", "fail:1@1e-5,seed:2"]) == 0
        out = capsys.readouterr().out
        assert "infl" in out  # predicted-vs-degraded columns present
        assert "fail:1@1e-5" in out


class TestStoreStatsCommand:
    def test_empty_store_reports_zero_shards(self, tmp_path, capsys):
        assert main(["store", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 shard file(s)" in out
        assert "hot hits" in out and "costs" in out

    def test_inventory_and_probe_counters(self, tmp_path, capsys):
        d = str(tmp_path / "store")
        assert main(["store", "precompute", "--dir", d, "--nodes", "5",
                     "--kernel", "cholesky", "--budget", "2"]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--dir", d, "--nodes", "5",
                     "--kernel", "cholesky"]) == 0
        out = capsys.readouterr().out
        assert "1 shard file(s)" in out and "1 pattern(s)" in out
        assert "P 5-5" in out
        # the --nodes probe hit the warmed shard: a cold hit, no fallback;
        # listing the inventory read no shard through the store
        assert "cold hits 1" in out and "fallbacks 0" in out
        assert "shards read/written 1/0" in out

    def test_probe_visits_every_stored_budget(self, tmp_path, capsys):
        d = str(tmp_path / "store")
        for budget in ("2", "3"):
            assert main(["store", "precompute", "--dir", d, "--nodes", "5",
                         "--kernel", "lu", "--budget", budget]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--dir", d, "--nodes", "5", "6",
                     "--kernel", "lu"]) == 0
        out = capsys.readouterr().out
        assert "lu-best-s2-f6.0-prune" in out and "lu-best-s3-f6.0-prune" in out
        assert "cold hits 2" in out and "misses 2" in out


class TestValidateCommand:
    def test_cholesky_validates(self, capsys):
        assert main(["validate", "--tiles", "8", "--tile-size", "8",
                     "--kernel", "cholesky", "-P", "10"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_lu_validates(self, capsys):
        assert main(["validate", "--tiles", "8", "--tile-size", "8",
                     "--kernel", "lu", "-P", "6"]) == 0
        assert "OK" in capsys.readouterr().out


class TestReportCommand:
    def test_smoke_subset(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["report", "--scale", "smoke", "--out", str(out),
                     "--only", "fig3_table1a"]) == 0
        assert out.exists()
        assert "Table Ia" in capsys.readouterr().out

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["report", "--scale", "galactic"])
