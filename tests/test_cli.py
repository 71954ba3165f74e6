"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("list", "run", "compare", "characterize", "figure"):
            args = {
                "list": [cmd],
                "run": [cmd, "WH1", "lap"],
                "compare": [cmd, "WH1"],
                "characterize": [cmd],
                "figure": [cmd, "fig14"],
            }[cmd]
            parsed = parser.parse_args(args)
            assert parsed.command == cmd

    def test_figure_map_covers_every_figure(self):
        import repro.analysis.figures as F

        for fig, fn_name in FIGURES.items():
            assert hasattr(F, fn_name), fig


class TestListCommand:
    def test_lists_policies_and_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lap" in out and "WH1" in out and "streamcluster" in out
        assert "stt" in out


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        code = main(["run", "mcf", "lap", "--refs", "1500", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "epi" in out and "mpki" in out

    def test_run_json_output(self, capsys):
        code = main(["run", "mcf", "lap", "--refs", "1000", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["policy"] == "lap"
        assert payload["epi"] > 0

    def test_unknown_workload_fails_cleanly(self, capsys):
        assert main(["run", "gcc", "lap", "--refs", "100"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_policy_fails_cleanly(self, capsys):
        assert main(["run", "mcf", "magic", "--refs", "100"]) == 2

    def test_ratio_flag_on_sram_rejected(self, capsys):
        assert main(["run", "mcf", "lap", "--tech", "sram", "--ratio", "8"]) == 2

    def test_ratio_flag_scales_stt(self, capsys):
        code = main(["run", "mcf", "lap", "--refs", "1000", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4", "--ratio", "10", "--json"])
        assert code == 0

    def test_hybrid_flag(self, capsys):
        code = main(["run", "mcf", "lhybrid", "--refs", "1000", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4", "--hybrid", "--json"])
        assert code == 0


class TestCompareCommand:
    def test_compare_normalises_to_first_policy(self, capsys):
        code = main(["compare", "omnetpp", "--refs", "1500", "--ncores", "2",
                     "--llc-kb", "32", "--l2-kb", "4",
                     "--policies", "non-inclusive,lap"])
        assert code == 0
        out = capsys.readouterr().out
        assert "non-inclusive" in out and "lap" in out
        assert "1.000" in out  # the baseline row

    def test_second_cached_compare_simulates_nothing(self, capsys, monkeypatch, tmp_path):
        from repro.sim.simulator import Simulator

        calls = []
        real_run = Simulator.run

        def counting_run(self, *args, **kwargs):
            calls.append(self)
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        argv = ["--cache-dir", str(tmp_path), "compare", "WL3", "--refs", "600",
                "--policies", "non-inclusive,lap"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert len(calls) == 2
        assert main(argv) == 0
        assert len(calls) == 2, "the warm compare is served by the cache"
        assert capsys.readouterr().out == cold


class TestCharacterizeCommand:
    def test_characterize_named_benchmarks(self, capsys):
        code = main(["characterize", "libquantum", "--refs", "1500",
                     "--ncores", "2", "--llc-kb", "32", "--l2-kb", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "libquantum" in out and ("WL" in out or "WH" in out)


class TestFigureCommand:
    def test_figure_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_REFS", "1500")
        code = main(["figure", "fig17", "--refs", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig17" in out

    def test_unknown_figure_fails_cleanly(self, capsys):
        assert main(["figure", "fig99"]) == 2


class TestCheckCommand:
    def test_check_passes_on_healthy_tree(self, capsys):
        code = main(["check", "--policy", "lap", "--refs", "300",
                     "--coherence", "off", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants[lap" in out and "passed" in out

    def test_check_with_fuzz_rounds(self, capsys):
        code = main(["check", "--policy", "exclusive", "--refs", "300",
                     "--fuzz", "2", "--coherence", "off", "--quiet"])
        assert code == 0
        assert "fuzz" in capsys.readouterr().out

    def test_check_multiple_policies(self, capsys):
        code = main(["check", "--policy", "exclusive", "--policy", "lap",
                     "--refs", "300", "--coherence", "off", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariants[exclusive" in out and "invariants[lap" in out

    def test_check_registered_in_parser(self):
        parsed = build_parser().parse_args(["check", "--fuzz", "5"])
        assert parsed.command == "check" and parsed.fuzz == 5
