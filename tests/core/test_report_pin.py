"""Bit-for-bit pin of ``repro report``'s stdout and its ``evidence.json``.

The report reads the episode/blame analysis through several builders
(figure 4, table 5, tables 6-9, the headline block) and the run
recorder's evidence bundle reads it again.  However those consumers come
to share one computation, what they print and record must not move.
Both hashes were computed on the implementation that ran the blame
pipeline once per consumer over full (client x site x hour) copies.
"""

from __future__ import annotations

import hashlib
import pathlib

from repro import cli

#: sha256 of a 24 h ``repro report`` stdout at seed 20050101 (4 accesses
#: per hour), without its ``run recorded:`` line.
PINNED_STDOUT_SHA256 = (
    "a63bb99759cf10378eda3fc6d7264b7ae4b0c5e26a7d7f5bb2775af63244130a"
)
#: sha256 of the same run's ``evidence.json``.
PINNED_EVIDENCE_SHA256 = (
    "b92071d8840c811e4c3ed81604227ead1d4d4e5c5a4ea91d56e02244a1532e8e"
)


def test_report_stdout_and_evidence_are_pinned(tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    code = cli.main([
        "--runs-dir", str(runs_dir), "--hours", "24", "--per-hour", "4",
        "--seed", "20050101", "--workers", "1", "report",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    recorded = [line for line in lines if line.startswith("run recorded:")]
    assert len(recorded) == 1
    kept = [line for line in lines if not line.startswith("run recorded:")]
    stdout_sha = hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()
    assert stdout_sha == PINNED_STDOUT_SHA256

    run_id = recorded[0].split()[2]
    evidence = (pathlib.Path(runs_dir) / run_id / "evidence.json").read_bytes()
    assert hashlib.sha256(evidence).hexdigest() == PINNED_EVIDENCE_SHA256
