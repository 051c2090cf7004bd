"""Post-run detection-quality scoring: ``repro detect RUN``.

Replays a recorded run's persisted telemetry (``events.jsonl``) through
a fresh :class:`~repro.obs.online.detector.OnlineDetector`, rebuilds
the *batch* episode analysis from the same per-hour aggregates, and
scores the online pipeline against it:

* **episode precision / recall** -- the online end-of-run episode cells
  (entity-hours flagged under the final online threshold) against the
  batch :func:`repro.core.episodes.episode_matrix` under
  :func:`~repro.core.episodes.detect_knee`.  These are 1.0 / 1.0 by
  construction (shared knee code, identical rates) -- scoring them is
  the regression trap that keeps it that way;
* **blame agreement** -- the online running buckets against the batch
  Table 5 classification at the paper's f = 5% (no pair exclusion on
  either side: an online observer cannot know which pairs will prove
  permanent);
* **detection latency** -- the onset-to-alert gap distribution of the
  hysteresis detector, the number the planted-fault SLO bounds;
* **digest reproduction** -- re-exporting the replayed alert stream
  must land on the byte digest recorded in the run manifest.

The verdict is appended to the committed bench trajectory as a
``detect`` entry (carrying the alert count + digest so ``repro runs
check`` gains an alert-stream baseline), and the CLI exits non-zero on
any mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.episodes import (
    RateMatrix, detect_knee, episode_matrix, rates_from_counts,
)
from repro.obs.online.detector import BLAME_THRESHOLD, OnlineDetector
from repro.obs.online.rules import RuleError, rules_from_dicts
from repro.obs.runstore.manifest import RunManifest
from repro.obs.runstore.store import ALERTS_FILE, EVENTS_FILE, serialize_alerts


class DetectError(RuntimeError):
    """The run cannot be scored (no event stream, unreadable files...)."""


@dataclass
class DetectReport:
    """Everything ``repro detect`` renders and gates on."""

    run_id: str
    hours: int
    #: Per-side episode-set agreement online vs batch.
    episode_cells: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Online vs batch blame buckets at f = 5%.
    blame_online: Dict[str, int] = field(default_factory=dict)
    blame_batch: Dict[str, int] = field(default_factory=dict)
    #: Final thresholds, per side: online knee vs batch knee.
    thresholds: Dict[str, Dict[str, float]] = field(default_factory=dict)
    latency: Dict[str, Any] = field(default_factory=dict)
    alert_count: int = 0
    alerts_by_rule: Dict[str, int] = field(default_factory=dict)
    #: Replayed-stream digest and whether it matches the manifest's.
    digest: Optional[str] = None
    digest_recorded: Optional[str] = None

    @property
    def blame_match(self) -> bool:
        """True when online and batch bucket counts agree exactly."""
        return self.blame_online == self.blame_batch

    @property
    def digest_match(self) -> Optional[bool]:
        """True/False vs the recorded digest; None when none recorded."""
        if self.digest_recorded is None:
            return None
        return self.digest == self.digest_recorded

    @property
    def ok(self) -> bool:
        """The gate: exact episode sets, exact blame, digest reproduced."""
        for side_scores in self.episode_cells.values():
            if side_scores["precision"] != 1.0 or side_scores["recall"] != 1.0:
                return False
        if not self.blame_match:
            return False
        if self.digest_match is False:
            return False
        return True

    def trajectory_entry(self, config: Dict[str, Any]) -> Dict[str, Any]:
        """The ``detect`` bench observation appended to the trajectory."""
        return {
            "bench": "detect",
            "config": dict(config),
            "run_id": self.run_id,
            "alerts": {"count": self.alert_count, "digest": self.digest},
            "detect": {
                "episode_cells": self.episode_cells,
                "blame_match": self.blame_match,
                "latency": self.latency,
                "ok": self.ok,
            },
        }


def _read_events(path: Path) -> List[Dict[str, Any]]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DetectError(f"cannot read {path}: {exc}")
    events: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # tolerate a torn tail line
        if isinstance(record, dict):
            events.append(record)
    return events


def _rules_from_run(run_dir: Path) -> Optional[List[Any]]:
    """The rules the original run alerted with (its ``alerts.jsonl``
    header), so the replay fires the same alerts; None when the run
    predates alert persistence (defaults apply)."""
    path = run_dir / ALERTS_FILE
    if not path.is_file():
        return None
    for record in _read_events(path):
        if record.get("type") == "header":
            try:
                return rules_from_dicts(record.get("rules") or [])
            except RuleError as exc:
                raise DetectError(f"{path}: bad rules header: {exc}")
    return None


def _batch_matrices(
    events: List[Dict[str, Any]], hours: int
) -> Dict[str, RateMatrix]:
    """Reconstruct the batch per-side rate matrices from ``hour_stats``.

    The batch pipeline only ever sees per-entity-hour aggregates
    (:func:`~repro.core.episodes.rate_matrices` sums the cube down
    to exactly these vectors), so rebuilding them from the telemetry
    stream reproduces its inputs bit for bit.
    """
    sizes: Dict[str, Optional[int]] = {"client": None, "server": None}
    for event in events:
        if event.get("type") == "hour_stats":
            sizes["client"] = len(event.get("ct") or [])
            sizes["server"] = len(event.get("st") or [])
            break
    if sizes["client"] is None:
        raise DetectError(
            "run's event stream has no hour_stats events -- was it "
            "recorded with online detection on (--detect/--live)?"
        )
    trans = {
        side: np.zeros((n, hours), dtype=np.int64)
        for side, n in sizes.items()
    }
    fails = {
        side: np.zeros((n, hours), dtype=np.int64)
        for side, n in sizes.items()
    }
    for event in events:
        if event.get("type") != "hour_stats":
            continue
        h = int(event.get("hour") or 0)
        for side, t_key, f_key in (
            ("client", "ct", "cf"), ("server", "st", "sf"),
        ):
            trans[side][:, h] = event.get(t_key) or 0
            fails[side][:, h] = event.get(f_key) or 0
    return {
        side: rates_from_counts(trans[side], fails[side])
        for side in ("client", "server")
    }


def _batch_blame(
    events: List[Dict[str, Any]],
    flags: Dict[str, np.ndarray],
) -> Dict[str, int]:
    """Batch Table 5 bucketing of the TCP triples under ``flags``."""
    counts = {"server": 0, "client": 0, "both": 0, "other": 0}
    client_flags = flags["client"]
    server_flags = flags["server"]
    for event in events:
        if event.get("type") != "hour_stats":
            continue
        h = int(event.get("hour") or 0)
        for triple in event.get("tcp") or []:
            ci, si, n = int(triple[0]), int(triple[1]), int(triple[2])
            c = bool(client_flags[ci, h])
            s = bool(server_flags[si, h])
            if s and not c:
                counts["server"] += n
            elif c and not s:
                counts["client"] += n
            elif c and s:
                counts["both"] += n
            else:
                counts["other"] += n
    return counts


def _cell_scores(
    online: Set[Tuple[int, int]], batch: Set[Tuple[int, int]]
) -> Dict[str, float]:
    true_positive = len(online & batch)
    precision = true_positive / len(online) if online else 1.0
    recall = true_positive / len(batch) if batch else 1.0
    return {
        "online": len(online),
        "batch": len(batch),
        "precision": precision,
        "recall": recall,
    }


def run_detect(run_dir: Path, manifest: RunManifest) -> DetectReport:
    """Score one recorded run's online detection against batch."""
    events_path = run_dir / EVENTS_FILE
    if not events_path.is_file():
        raise DetectError(
            f"{manifest.run_id}: no {EVENTS_FILE} in {run_dir} -- record "
            "the run with --detect (or --live/--serve-metrics) first"
        )
    events = _read_events(events_path)
    rules = _rules_from_run(run_dir)

    detector = OnlineDetector(rules=rules)
    for event in events:
        detector.update(event)
    detector.drain_pending()

    last = detector.last_folded_hour
    hours = detector.hours_total or ((last + 1) if last is not None else 0)
    if detector.hours_folded == 0:
        raise DetectError(
            f"{manifest.run_id}: event stream carries no hour_stats events"
        )

    matrices = _batch_matrices(events, hours)
    report = DetectReport(run_id=manifest.run_id, hours=hours)

    blame_flags: Dict[str, np.ndarray] = {}
    for side in ("client", "server"):
        matrix = matrices[side]
        batch_knee = detect_knee(matrix)
        online_threshold = detector.final_threshold(side)
        report.thresholds[side] = {
            "online": online_threshold, "batch": batch_knee,
        }
        batch_flags = episode_matrix(matrix, batch_knee)
        batch_cells = {
            (int(i), int(h)) for i, h in zip(*np.nonzero(batch_flags))
        }
        online_cells = detector.final_flags(side)
        report.episode_cells[side] = _cell_scores(online_cells, batch_cells)
        blame_flags[side] = episode_matrix(matrix, BLAME_THRESHOLD)

    report.blame_online = dict(sorted(detector.blame.items()))
    report.blame_batch = dict(sorted(_batch_blame(events, blame_flags).items()))

    snap = detector.snapshot()
    report.latency = snap["detection_latency_hours"]
    report.alert_count = snap["alert_count"]
    report.alerts_by_rule = snap["alerts_by_rule"]

    exported = detector.export()
    report.digest = hashlib.sha256(
        serialize_alerts(exported["lines"])
    ).hexdigest()
    recorded = (manifest.alerts_summary or {}).get("digest")
    report.digest_recorded = recorded
    return report


def render_report(report: DetectReport) -> str:
    """Human-readable ``repro detect`` output."""
    lines: List[str] = []
    lines.append(
        f"detection quality for run {report.run_id} "
        f"({report.hours} hours)"
    )
    lines.append("")
    lines.append("-- episode sets (online final vs batch) --")
    for side in ("client", "server"):
        scores = report.episode_cells.get(side)
        if scores is None:
            continue
        thresholds = report.thresholds.get(side, {})
        lines.append(
            f"{side:<7} precision={scores['precision']:.3f} "
            f"recall={scores['recall']:.3f} "
            f"(online {scores['online']} cells, batch {scores['batch']}; "
            f"f_online={thresholds.get('online', 0):.4f} "
            f"f_batch={thresholds.get('batch', 0):.4f})"
        )
    lines.append("")
    lines.append(f"-- blame at f={BLAME_THRESHOLD:.0%} (online vs batch) --")
    for bucket in ("server", "client", "both", "other"):
        a = report.blame_online.get(bucket, 0)
        b = report.blame_batch.get(bucket, 0)
        marker = "" if a == b else "   <-- MISMATCH"
        lines.append(f"{bucket:<7} {a:>10} vs {b:>10}{marker}")
    lines.append("")
    latency = report.latency or {}
    if latency.get("count"):
        lines.append(
            f"detection latency (hours): mean={latency['mean']:.2f} "
            f"p50={latency['p50']} max={latency['max']} "
            f"over {latency['count']} episodes"
        )
    else:
        lines.append("detection latency: no episodes opened")
    lines.append(
        f"alerts fired: {report.alert_count} "
        + (
            "(" + ", ".join(
                f"{rule}={count}"
                for rule, count in sorted(report.alerts_by_rule.items())
            ) + ")"
            if report.alerts_by_rule else ""
        )
    )
    if report.digest_match is None:
        lines.append(f"alert digest: {report.digest} (none recorded to compare)")
    elif report.digest_match:
        lines.append(f"alert digest: reproduced ({report.digest[:16]}...)")
    else:
        lines.append("alert digest: MISMATCH")
        lines.append(f"  recorded: {report.digest_recorded}")
        lines.append(f"  replayed: {report.digest}")
    lines.append("")
    lines.append("PASS" if report.ok else "FAIL")
    return "\n".join(lines)
