"""Edge-path tests for the CLI: error handling and less-travelled flags."""

import pytest

from repro.cli import main


class TestErrorHandling:
    def test_repro_error_exits_with_code_two(self, capsys):
        for argv in (
            ["census", "--fields", "6,4", "--devices", "16"],
            # Malformed numbers in a list are typed errors, not tracebacks.
            ["census", "--fields", "8,x", "--devices", "4"],
            ["census", "--fields", "8,8", "--devices", "4",
             "--method", "gdm", "--multipliers", "1,z"],
            # Flags the chosen --method does not read are rejected, not
            # silently ignored.
            ["census", "--fields", "4,4", "--devices", "16",
             "--method", "modulo", "--multipliers", "1,z",
             "--transforms", "I,U"],
            ["census", "--fields", "4,4", "--devices", "16",
             "--method", "gdm", "--transforms", "I,U"],
            ["census", "--fields", "4,4", "--devices", "16",
             "--multipliers", "1,3"],
            ["verify", "--fields", "4,4", "--devices", "16",
             "--method", "modulo", "--policy", "theorem9"],
            ["design", "--probabilities", "0.5,abc", "--bits", "4"],
            # Out-of-range devices and ports are rejected, not wrapped or
            # left to crash in the socket layer.
            ["recover", "rebuild", "--fields", "4,4", "--devices", "8",
             "--records", "16", "--lose", "8"],
            ["recover", "rebuild", "--fields", "4,4", "--devices", "8",
             "--records", "16", "--lose", "-1"],
            ["gateway", "--fields", "4,4", "--devices", "4",
             "--port", "70000"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2, argv
            assert "error:" in capsys.readouterr().err, argv

    def test_search_rejects_bad_devices(self):
        with pytest.raises(SystemExit):
            main(["search", "--fields", "4,4", "--devices", "7"])


class TestLessTravelledFlags:
    def test_figure_with_custom_p(self, capsys):
        assert main(["figure", "figure1", "--p", "0.8"]) == 0
        assert "FD (FX)" in capsys.readouterr().out

    def test_report_stdout(self, capsys):
        assert main(["report", "--stdout", "--no-exact-figures"]) == 0
        out = capsys.readouterr().out
        assert "EXPERIMENTS" in out
        assert "Tables 1-6" in out

    def test_search_families_hill_climb_for_many_small_fields(self, capsys):
        # seven small fields: exhaustive (4^7) is skipped for hill climbing
        code = main(
            ["search", "--fields", "2,2,2,2,2,2,2", "--devices", "16"]
        )
        assert code == 0
        assert "hill climb" in capsys.readouterr().out

    def test_verify_with_theorem9_policy(self, capsys):
        assert main(
            ["verify", "--fields", "4,8,2", "--devices", "16",
             "--policy", "theorem9"]
        ) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_census_fx_with_default_transforms(self, capsys):
        code = main(
            ["census", "--fields", "8,8,32", "--devices", "16"]
        )
        assert code == 0

    def test_simulate_custom_seed_and_p(self, capsys):
        assert main(
            ["simulate", "--fields", "4,4", "--devices", "4",
             "--queries", "15", "--rate", "20", "--p", "0.7", "--seed", "3"]
        ) == 0
