"""Memory and recomputation bounds of ``repro report``'s analysis.

The blame pipeline works on (entity, hour) sums, so its transient memory
is bounded by the derived failure planes it reads, never by masked or
``int64`` (C, S, H) copies; the dataset digest hashes bounded slabs; and
one report computes the f = 0.05 analysis once for every consumer.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np

from repro import cli
from repro.core import blame
from repro.core.dataset import MeasurementDataset
from repro.obs.runstore.evidence import collect_evidence


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blame_and_evidence_stay_within_three_uint32_planes(dataset, perm_report):
    plane = int(np.prod(dataset.shape)) * np.dtype(np.uint32).itemsize

    def analyse():
        analysis = blame.run_blame_analysis(dataset, 0.05, perm_report.mask)
        collect_evidence(dataset, perm_report.mask, analysis=analysis)

    assert _peak_bytes(analyse) < 3 * plane


def test_digest_never_holds_a_full_int64_plane(dataset):
    plane = int(np.prod(dataset.shape)) * np.dtype(np.int64).itemsize
    assert _peak_bytes(dataset.digest) < plane


def test_report_runs_blame_twice_and_reads_few_failure_planes(monkeypatch, capsys):
    calls = {"blame": 0, "planes": 0}

    def counting(key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(
        blame, "run_blame_analysis",
        counting("blame", blame.run_blame_analysis),
    )
    for name in ("failures", "tcp_failures", "dns_failures"):
        getter = vars(MeasurementDataset)[name].fget
        monkeypatch.setattr(
            MeasurementDataset, name, property(counting("planes", getter))
        )
    code = cli.main([
        "--hours", "12", "--per-hour", "2", "--workers", "1", "report",
    ])
    assert code == 0
    assert "Table 5" in capsys.readouterr().out
    assert calls["blame"] <= 2
    assert calls["planes"] <= 15
