"""Tests for the command-line interface (python -m repro)."""

import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestTableCommand:
    def test_table7_prints_golden_row(self, capsys):
        assert main(["table", "table7"]) == 0
        out = capsys.readouterr().out
        assert "Table 7" in out
        assert "18152.0" in out  # Modulo k=6

    def test_unknown_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "table42"])


class TestFigureCommand:
    def test_figure_renders_series(self, capsys):
        assert main(["figure", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "FD (FX)" in out
        assert "MD (Modulo)" in out

    def test_chart_flag(self, capsys):
        assert main(["figure", "figure1", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "% strict optimal" in out


class TestCensusCommand:
    def test_perfect_census_exit_zero(self, capsys):
        code = main(
            [
                "census", "--fields", "4,4", "--devices", "16",
                "--method", "fx", "--transforms", "I,U",
            ]
        )
        assert code == 0
        assert "100.0%" in capsys.readouterr().out

    def test_imperfect_census_exit_one(self, capsys):
        code = main(
            ["census", "--fields", "4,4", "--devices", "16",
             "--method", "modulo"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "worst failures" in out

    def test_failures_suppressed(self, capsys):
        main(
            ["census", "--fields", "4,4", "--devices", "16",
             "--method", "modulo", "--failures", "0"]
        )
        assert "worst failures" not in capsys.readouterr().out

    def test_gdm_with_multipliers(self, capsys):
        code = main(
            ["census", "--fields", "4,4", "--devices", "4",
             "--method", "gdm", "--multipliers", "1,3"]
        )
        assert code in (0, 1)
        assert "gdm" in capsys.readouterr().out

    def test_bad_filesystem_reports_error(self):
        with pytest.raises(SystemExit):
            main(["census", "--fields", "3,4", "--devices", "16"])


class TestSkewCommand:
    def test_skew_table(self, capsys):
        assert main(["skew", "--fields", "4,4", "--devices", "16"]) == 0
        out = capsys.readouterr().out
        assert "fx (theorem9)" in out
        assert "modulo" in out


class TestSearchCommand:
    def test_families_search(self, capsys):
        assert main(
            ["search", "--fields", "4,4", "--devices", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "best assignment" in out
        assert "100.00%" in out

    def test_linear_search(self, capsys):
        assert main(
            ["search", "--fields", "4,4,4,4", "--devices", "32",
             "--space", "linear", "--iterations", "200", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "linear transforms" in out
        assert "matrix" in out


class TestReportCommand:
    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "exp.md"
        assert main(
            ["report", "--output", str(out_file), "--no-exact-figures"]
        ) == 0
        assert out_file.exists()
        assert "Tables 1-6" in out_file.read_text()


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0


class TestDesignCommand:
    def test_design_allocation(self, capsys):
        assert main(
            ["design", "--probabilities", "0.9,0.1", "--bits", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "expected qualified buckets" in out
        assert "directory size" in out

    def test_design_with_cap(self, capsys):
        assert main(
            ["design", "--probabilities", "0.9,0.1", "--bits", "4",
             "--max-bits", "3"]
        ) == 0

    def test_design_bad_probability(self):
        with pytest.raises(SystemExit):
            main(["design", "--probabilities", "2.0", "--bits", "4"])


class TestSimulateCommand:
    def test_simulate_prints_comparison(self, capsys):
        code = main(
            ["simulate", "--fields", "4,4", "--devices", "8",
             "--queries", "20", "--rate", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean latency" in out
        assert "FX" in out and "Modulo" in out


class TestRecommendCommand:
    def test_recommend_ranks_methods(self, capsys):
        assert main(
            ["recommend", "--fields", "4,4", "--devices", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "recommended: fx-theorem9" in out
        assert "Modulo".lower() in out.lower()


class TestActionsAcceptOnlyTheirFlags:
    """Each action parses only the options its handler reads, so a flag
    meant for a sibling action is a usage error, not silently ignored."""

    @pytest.mark.parametrize(
        "argv",
        [
            "faults run --max-failures 3",
            "faults report --rate 9",
            "obs report --json",
            "obs export --batched",
            "obs tail --quota 5",
            "obs check --records 10",
            "obs slo --trace t.txt",
            "recover scrub --lose 2",
            "recover replay --corruption-rate 0.1",
            "recover rebuild --all-offsets",
            "adapt score --force",
            "adapt plan --records 10",
        ],
    )
    def test_sibling_action_flag_rejected(self, argv, capsys):
        command, action, *flag = argv.split()
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [command, action, "--fields", "4,4", "--devices", "4", *flag]
            )
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def _documented_commands() -> list[str]:
    """Every ``python -m repro`` command in the fenced blocks of the
    README and the usage guide, continuation lines joined."""
    commands = []
    for doc in ("README.md", "docs/usage.md"):
        text = (ROOT / doc).read_text(encoding="utf-8")
        for block in re.findall(r"```[^\n]*\n(.*?)```", text, re.S):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                match = re.search(r"python3? -m repro (.*)", line)
                if match:
                    argv = shlex.split(match.group(1), comments=True)
                    if ">" in argv:
                        argv = argv[: argv.index(">")]
                    commands.append(shlex.join(argv))
    return commands


class TestDocumentedCommands:
    def test_docs_show_commands(self):
        assert len(_documented_commands()) >= 20

    @pytest.mark.parametrize("command", _documented_commands())
    def test_documented_command_parses(self, command):
        build_parser().parse_args(shlex.split(command))
