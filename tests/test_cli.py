"""Tests for the webfail CLI."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import cli


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args([])

    def test_simulate_args(self):
        args = cli._build_parser().parse_args(
            ["--hours", "24", "--per-hour", "1", "simulate"]
        )
        assert args.hours == 24 and args.per_hour == 1
        assert args.command == "simulate"

    def test_timeseries_requires_client(self):
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["timeseries"])

    def test_workers_flag_parsed(self):
        args = cli._build_parser().parse_args(
            ["--hours", "24", "--workers", "2", "simulate"]
        )
        assert args.workers == 2

    def test_workers_defaults_to_auto(self):
        args = cli._build_parser().parse_args(["--hours", "24", "simulate"])
        assert getattr(args, "workers", None) is None

    def test_workers_rejects_zero(self):
        with pytest.raises(SystemExit):
            cli.main(["--hours", "12", "--workers", "0", "simulate"])

    def test_building_the_parser_imports_no_engine(self):
        """Each subcommand imports its engine in its handler: building
        the parser (every command pays for it) loads none of them."""
        heavy = ("repro.serve.daemon", "repro.lint.engine", "repro.obs.live")
        probe = (
            "import sys\n"
            "from repro import cli\n"
            "cli._build_parser()\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out.strip() == "[]"


class TestCommands:
    def test_simulate_and_save(self, tmp_path, capsys):
        out = str(tmp_path / "ds.npz")
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "simulate", "--save", out]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "median client failure rate" in captured
        assert "dataset digest: " in captured
        assert (tmp_path / "ds.npz").exists()

    def test_simulate_workers_digest_matches_sequential(self, capsys):
        """The CLI's printed digest is worker-count invariant -- the line
        CI compares across runs."""

        def digest_of(argv):
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            return next(
                line.split(": ", 1)[1] for line in out.splitlines()
                if line.startswith("dataset digest: ")
            )

        base = ["--hours", "12", "--per-hour", "1"]
        seq = digest_of(base + ["--workers", "1", "simulate"])
        par = digest_of(base + ["--workers", "2", "simulate"])
        assert seq == par

    def test_report_subset(self, capsys):
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "report", "--only", "table3"]
        )
        assert code == 0
        assert "Table 3" in capsys.readouterr().out

    def test_report_unknown_name(self, capsys):
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "report", "--only", "nope"]
        )
        assert code == 2

    def test_timeseries_csv(self, capsys):
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "timeseries",
             "--client", "nodea.howard.edu"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("hour,attempts")
        assert len(lines) == 13  # header + 12 hours


class TestFiguresCommand:
    def test_figures_export(self, tmp_path, capsys):
        out = str(tmp_path / "figs")
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "figures", "--out", out]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "figure1.csv" in captured
        import pathlib

        files = {p.name for p in pathlib.Path(out).iterdir()}
        assert {"figure1.csv", "figure4.csv", "figure6.csv"} <= files

    def test_figures_ascii(self, tmp_path, capsys):
        out = str(tmp_path / "figs")
        code = cli.main(
            ["--hours", "12", "--per-hour", "1", "figures", "--out", out,
             "--ascii"]
        )
        assert code == 0
        assert "#" in capsys.readouterr().out  # bar charts rendered


class TestDiagnoseCommand:
    def test_diagnose_runs(self, capsys):
        code = cli.main(["--hours", "24", "--per-hour", "2", "diagnose"])
        assert code == 0
        assert "permanent pairs diagnosed" in capsys.readouterr().out
