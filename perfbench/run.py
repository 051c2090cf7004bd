"""End-to-end benchmark of the ``repro`` command line.

Run from the root of a checkout (the program is imported from ``./src``)::

    python3 perfbench/run.py --workload report-96h --seed 7 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Each workload runs real ``repro`` commands as child processes, one at a
time (a closed loop with one client), with ``--workers`` = min(2, CPUs)
and a fresh ``--runs-dir`` per command.  It repeats the workload's
commands until ``--seconds`` have been spent, checks every output, and
prints one line per metric followed, as the last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Every reported time is scaled to a fixed host speed, measured by a
reference loop timed around and during each command (``hostspeed.py``);
the measured ``raw_`` times are printed beside them.

``--trace 0`` reports the end-to-end metrics from untraced commands.
``--trace 1`` alternates an untraced and a traced run of the workload
and reports the per-layer metrics of the traced one (see ``layers.py``)
plus the tracing overhead, the difference between the two.

See ``README.md`` beside this file for the workloads, the metrics and the
layer -> end-to-end map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
sys.path.insert(0, HERE)

from hostspeed import INTERVAL_S, SpeedProbe, scale_for  # noqa: E402
from layers import COUNT_NAMES, LAYERS, RSS_PREFIXES  # noqa: E402

#: The seed every pinned output below was recorded at.
PINNED_SEED = 20050101
#: Horizon of ``report-96h`` (sim-hours).
HOURS = 96
#: ``serve-resume``: horizon, chunk size, and the sim-hour the cold half
#: stops at (the midpoint).
SERVE_HOURS = 24
CHUNK_HOURS = 12
STOP_AT_HOUR = 12
#: ``dense-day``: one day at 400 accesses per client per URL per hour.
DENSE_HOURS = 24
DENSE_PER_HOUR = 400

#: Dataset digests and report output at PINNED_SEED.  A ``serve`` run's
#: digest must equal the batch digest of the same horizon.
DIGEST_24H = "36966af6f50b3c980fd82d3789b94ff8a6d40440cd32fc3a667beee95e39224c"
DIGEST_96H = "6b035f0b2bfa8f7b76c3fe6e4af0966fb70625bd571546f011f5b5d66bda07d8"
REPORT_STDOUT_SHA256 = (
    "548ad91a8c97ad05f047d130f6fcbb2313b552ed81e103725aba55c2c5641e8d"
)
DIGEST_DENSE_DAY = (
    "505f6b0e422c10b5de17ff75b1173bed39e48a5d10a8ce7fdc27125e5ac605e6"
)

#: A run must exit within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0
#: Never start another iteration that would end after this point.
LOOP_LIMIT_S = 140.0

#: Names of the per-layer record ``layers.LayerTracer.record`` writes.
LAYER_SECONDS = LAYERS + ["simulate.shard_max"]


def available_cpus() -> int:
    """CPUs this process may run on (what ``repro`` itself uses)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


# -- running one command ------------------------------------------------------


@dataclass
class Command:
    """One finished ``repro`` command."""

    label: str
    code: int
    started: float
    #: Measured wall seconds.
    raw_wall_s: float
    #: Raw seconds -> seconds at the reference host speed (hostspeed.py).
    scale: float
    peak_rss_mb: float
    stdout: str
    marks: dict
    trace: Optional[dict]

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s * self.scale

    def line(self, prefix: str) -> Optional[str]:
        for text in self.stdout.splitlines():
            if text.startswith(prefix):
                return text[len(prefix):].strip()
        return None


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Runner:
    """Runs commands under a scratch directory inside the checkout."""

    def __init__(self, root: str, seed: int, workers: int, started: float):
        self.root = root
        self.seed = seed
        self.workers = workers
        self.started = started
        self._serial = 0
        self.probe = SpeedProbe()
        tmp = os.path.join(root, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ)
        for name in ("REPRO_WORKERS", "REPRO_RUNS_DIR", "PYTHONPATH"):
            self.env.pop(name, None)
        self.env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
        self.env["TMPDIR"] = tmp

    def fresh_dir(self, label: str) -> str:
        self._serial += 1
        path = os.path.join(self.root, f"{self._serial:03d}-{label}")
        os.makedirs(path)
        return path

    def sim_args(self, runs_dir: str, hours: int, per_hour: int,
                 workers: Optional[int] = None) -> List[str]:
        return [
            "--runs-dir", runs_dir, "--hours", str(hours),
            "--per-hour", str(per_hour), "--seed", str(self.seed),
            "--workers", str(workers or self.workers),
        ]

    def run(self, label: str, workdir: str, args: List[str],
            trace: bool = False, stop_at_hour: Optional[int] = None
            ) -> Command:
        marks_path = os.path.join(workdir, f"{label}.marks.json")
        trace_path = os.path.join(workdir, f"{label}.trace.json")
        argv = [sys.executable, LAUNCH, "--marks", marks_path]
        if trace:
            argv += ["--trace", trace_path]
        if stop_at_hour is not None:
            argv += ["--stop-at-hour", str(stop_at_hour)]
        argv += ["--", *args]
        out_path = os.path.join(workdir, f"{label}.out")
        err_path = os.path.join(workdir, f"{label}.err")
        deadline = self.started + RUN_LIMIT_S
        speed = [self.probe.sample()]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env,
                start_new_session=True,
            )
            exited = select.poll()
            pidfd = os.pidfd_open(proc.pid)
            exited.register(pidfd, select.POLLIN)
            try:
                # Time a reference unit every INTERVAL_S until it exits.
                while not exited.poll(INTERVAL_S * 1000):
                    speed.append(self.probe.unit())
                    if time.monotonic() > deadline:
                        _kill_group(proc.pid)
                wall = time.monotonic() - started
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGTERM, ^C): take the command down with us.
                _kill_group(proc.pid)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                os.close(pidfd)
        speed.append(self.probe.sample())
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Shard workers share the group; none may outlive the command.
        _kill_group(proc.pid)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return Command(
            label=label,
            code=proc.returncode,
            started=started,
            raw_wall_s=wall,
            scale=scale_for(speed),
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=stdout,
            marks=_load_json(marks_path) or {},
            trace=_load_json(trace_path) if trace else None,
        )


def _load_json(path: str) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _manifest_digest(command: Command) -> Optional[str]:
    """The dataset digest in the run record a command printed."""
    recorded = command.line("run recorded:")
    if not recorded or "(" not in recorded:
        return None
    run_dir = recorded[recorded.index("(") + 1:recorded.rindex(")")]
    manifest = _load_json(os.path.join(run_dir, "manifest.json")) or {}
    return (manifest.get("dataset") or {}).get("digest")


def _stdout_sha256(command: Command) -> str:
    kept = [
        line for line in command.stdout.splitlines()
        if not line.startswith("run recorded:")
    ]
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


# -- workloads ----------------------------------------------------------------


@dataclass
class Iteration:
    """One pass over a workload's user commands."""

    commands: List[Command]
    problems: List[str] = field(default_factory=list)
    first_chunk_s: Optional[float] = None
    resume_first_chunk_s: Optional[float] = None

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def raw_wall_s(self) -> float:
        return sum(c.raw_wall_s for c in self.commands)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.commands)

    @property
    def setup_samples(self) -> List[float]:
        return [c.marks["setup_s"] * c.scale for c in self.commands
                if c.marks]

    @property
    def raw_setup_samples(self) -> List[float]:
        return [c.marks["setup_s"] for c in self.commands if c.marks]

    @property
    def sim_hours_per_s(self) -> Optional[float]:
        hours = sum(c.marks.get("sim_hours", 0) for c in self.commands)
        loop = sum(c.marks.get("sim_loop_s", 0.0) * c.scale
                   for c in self.commands)
        return hours / loop if loop > 0 else None

    def expect_exit(self) -> None:
        for c in self.commands:
            if c.code != 0:
                self.problems.append(f"{c.label} exited with {c.code}")


@dataclass
class Workload:
    name: str
    #: Runs the batch command whose digest the workload must reproduce.
    oracle: Callable[[Runner], Command]
    #: Runs the workload's user commands once.
    iterate: Callable[[Runner, bool], Iteration]
    #: The dataset digest an iteration produced.
    digest_of: Callable[[Iteration], Optional[str]]
    pinned_digest: str
    pinned_stdout: Optional[str] = None


def _batch_simulate(runner: Runner, hours: int, per_hour: int,
                    workers: Optional[int] = None) -> Command:
    workdir = runner.fresh_dir("oracle")
    args = runner.sim_args(
        os.path.join(workdir, "runs"), hours, per_hour, workers
    ) + ["--no-run-record", "simulate"]
    return runner.run("oracle", workdir, args)


def _report_iteration(runner: Runner, trace: bool) -> Iteration:
    workdir = runner.fresh_dir("report")
    args = runner.sim_args(os.path.join(workdir, "runs"), HOURS, 4)
    it = Iteration([runner.run("report", workdir, args + ["report"], trace)])
    it.expect_exit()
    return it


def _serve_iteration(runner: Runner, trace: bool) -> Iteration:
    workdir = runner.fresh_dir("serve")
    runs = os.path.join(workdir, "runs")
    cold = runner.run(
        "serve-cold", workdir,
        runner.sim_args(runs, SERVE_HOURS, 4)
        + ["serve", "--chunk-hours", str(CHUNK_HOURS)],
        trace, stop_at_hour=STOP_AT_HOUR,
    )
    it = Iteration([cold])
    run_id = cold.line("serve run:")
    stopped = f"stopped at sim-hour {STOP_AT_HOUR} of {SERVE_HOURS}"
    if cold.code != 0 or not run_id or stopped not in cold.stdout:
        it.expect_exit()
        it.problems.append(f"cold serve did not stop at {STOP_AT_HOUR}")
        return it
    resume = runner.run(
        "serve-resume", workdir,
        ["--runs-dir", runs, "--workers", str(runner.workers),
         "serve", "--resume", run_id],
        trace,
    )
    it.commands.append(resume)
    it.expect_exit()
    if f"resuming at sim-hour {STOP_AT_HOUR}" not in resume.stdout:
        it.problems.append(f"resume did not start at {STOP_AT_HOUR}")
    for command, attr in ((cold, "first_chunk_s"),
                          (resume, "resume_first_chunk_s")):
        committed = command.marks.get("first_commit_t")
        if committed is None:
            it.problems.append(f"{command.label} committed no chunk")
        else:
            setattr(it, attr, (committed - command.started) * command.scale)
    return it


def _dense_iteration(runner: Runner, trace: bool) -> Iteration:
    workdir = runner.fresh_dir("dense")
    args = runner.sim_args(
        os.path.join(workdir, "runs"), DENSE_HOURS, DENSE_PER_HOUR
    )
    it = Iteration(
        [runner.run("simulate", workdir, args + ["simulate"], trace)]
    )
    it.expect_exit()
    printed = it.commands[0].line("dataset digest:")
    if printed != _manifest_digest(it.commands[0]):
        it.problems.append("printed digest differs from the run record")
    return it


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="report-96h",
            oracle=lambda r: _batch_simulate(r, HOURS, 4),
            iterate=_report_iteration,
            digest_of=lambda it: _manifest_digest(it.commands[0]),
            pinned_digest=DIGEST_96H,
            pinned_stdout=REPORT_STDOUT_SHA256,
        ),
        Workload(
            name="serve-resume",
            oracle=lambda r: _batch_simulate(r, SERVE_HOURS, 4),
            iterate=_serve_iteration,
            digest_of=lambda it: it.commands[-1].line("dataset digest:"),
            pinned_digest=DIGEST_24H,
        ),
        Workload(
            name="dense-day",
            oracle=lambda r: _batch_simulate(
                r, DENSE_HOURS, DENSE_PER_HOUR, workers=1
            ),
            iterate=_dense_iteration,
            digest_of=lambda it: it.commands[0].line("dataset digest:"),
            pinned_digest=DIGEST_DENSE_DAY,
        ),
    )
}


# -- one benchmark run --------------------------------------------------------


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _check(workload: Workload, seed: int, oracle: Command,
           iterations: List[Iteration]) -> None:
    """Record every output mismatch on the iteration it belongs to."""
    expected = oracle.line("dataset digest:")
    oracle_problem = None
    if oracle.code != 0 or not expected:
        oracle_problem = f"oracle exited with {oracle.code}"
    elif seed == PINNED_SEED and expected != workload.pinned_digest:
        oracle_problem = f"oracle digest {expected} is not the pinned one"
    first_stdout = None
    for it in iterations:
        if oracle_problem:
            it.problems.append(oracle_problem)
        digest = workload.digest_of(it)
        if digest != expected:
            it.problems.append(f"digest {digest} != batch digest {expected}")
        if workload.pinned_stdout is not None:
            stdout = _stdout_sha256(it.commands[0])
            first_stdout = first_stdout or stdout
            if stdout != first_stdout:
                it.problems.append("report output differs between runs")
            if seed == PINNED_SEED and stdout != workload.pinned_stdout:
                it.problems.append(f"report output sha256 {stdout} is not "
                                   "the pinned one")


def _loop(seconds: float, started: float, step: Callable[[], List[Iteration]]
          ) -> List[Iteration]:
    """Repeat ``step`` for ``seconds``: never start a step that the
    previous steps predict would end after the budget."""
    done: List[Iteration] = []
    loop_started = time.monotonic()
    durations: List[float] = []
    while True:
        t0 = time.monotonic()
        done += step()
        durations.append(time.monotonic() - t0)
        predicted = statistics.median(durations)
        now = time.monotonic()
        if now - loop_started + predicted > seconds:
            return done
        if now - started + predicted > LOOP_LIMIT_S:
            return done


def _layer_metrics(it: Iteration) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (all its commands).

    Layer times are scaled to the reference host speed by the factor of
    the command they were measured in, like every other time."""
    traced = [c for c in it.commands if c.trace]
    traces = [c.trace for c in traced]
    seconds = {k: sum(c.trace["seconds"].get(k, 0.0) * c.scale
                      for c in traced)
               for k in LAYER_SECONDS}
    counts = {k: sum(t["counts"].get(k, 0) for t in traces)
              for k in COUNT_NAMES}
    transactions = counts.pop("simulate.transactions")
    metrics = {f"{k}_s": v for k, v in seconds.items()}
    metrics.update(counts)
    metrics["simulate.tx_per_s"] = (
        transactions / seconds["simulate.run"]
        if seconds["simulate.run"] > 0 else 0.0
    )
    for prefix in RSS_PREFIXES:
        metrics[f"{prefix}.rss_delta_mb"] = max(
            (t["rss_delta_mb"].get(prefix, 0.0) for t in traces), default=0.0
        )
    # Interpreter start-up and ``import repro``, before any layer runs.
    metrics["process.startup_s"] = sum(
        (c.marks["ready_t"] - c.started) * c.scale for c in traced
    )
    attributed = metrics["process.startup_s"] + sum(
        c.trace["attributed_s"] * c.scale for c in traced
    )
    metrics["traced_wall_s"] = it.wall_s
    metrics["unattributed_s"] = it.wall_s - attributed
    metrics["attributed_ratio"] = attributed / it.wall_s
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 scratch: str) -> dict:
    started = time.monotonic()
    workers = min(2, available_cpus())
    runner = Runner(scratch, seed, workers, started)
    # The oracle goes first: it also warms the byte-code and page caches.
    oracle = workload.oracle(runner)
    if trace:
        pairs = _loop(seconds, started, lambda: [
            workload.iterate(runner, False), workload.iterate(runner, True)
        ])
        plain, traced = pairs[0::2], pairs[1::2]
    else:
        plain = _loop(
            seconds, started, lambda: [workload.iterate(runner, False)]
        )
        traced = []
    iterations = plain + traced
    _check(workload, seed, oracle, iterations)
    failed = sum(1 for it in iterations if it.problems)
    setup = [s for it in plain for s in it.setup_samples]
    raw_setup = [s for it in plain for s in it.raw_setup_samples]
    if oracle.marks:
        setup.append(oracle.marks["setup_s"] * oracle.scale)
        raw_setup.append(oracle.marks["setup_s"])
    walls = [it.wall_s for it in plain]
    scales = [c.scale for it in plain for c in it.commands]
    scales.append(oracle.scale)
    summary = {
        "wall_s": (_median(walls), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (_median(it.peak_rss_mb for it in plain), "MB"),
    }
    # Printed by name but not gated: too short a measurement to be steady
    # on report-96h, defined on serve-resume only, or raw host readings.
    printed = {
        "sim_hours_per_s": (
            _median(it.sim_hours_per_s for it in plain), "sim-h/s"
        ),
        # The measured times behind wall_s and setup_s, and the median
        # factor that scaled them (reference speed / measured speed).
        "raw_wall_s": (_median(it.raw_wall_s for it in plain), "s"),
        "raw_setup_s": (_median(raw_setup), "s"),
        "host_scale": (_median(scales), "ratio"),
    }
    if workload.name == "serve-resume":
        for name in ("first_chunk_s", "resume_first_chunk_s"):
            printed[name] = (
                _median(getattr(it, name) for it in plain), "s"
            )
    report = {
        "workload": workload.name,
        "seed": seed,
        "available_cpus": available_cpus(),
        "workers": workers,
        "attempted": len(iterations),
        "failed": failed,
        "problems": sorted({p for it in iterations for p in it.problems}),
        "wall_max_s": max(walls),
        "wall_n": len(walls),
        "setup_n": len(setup),
        "end_to_end": summary,
        "printed": printed,
        "layers": None,
    }
    if trace:
        layer_runs = [_layer_metrics(it) for it in traced]
        layers = {
            name: _median(m[name] for m in layer_runs)
            for name in layer_runs[0]
        }
        layers["tracing_overhead_s"] = (
            layers["traced_wall_s"] - summary["wall_s"][0]
        )
        report["layers"] = layers
    return report


# -- output -------------------------------------------------------------------


def _print_report(report: dict) -> None:
    name = report["workload"]
    print(f"== {name}  seed={report['seed']}  "
          f"available_cpus={report['available_cpus']}  "
          f"workers={report['workers']}")
    for metric, (value, unit) in {
        **report["end_to_end"], **report["printed"]
    }.items():
        note = ""
        if metric == "wall_s":
            note = (f"  (median of n={report['wall_n']}; "
                    f"max {report['wall_max_s']:.4f} s)")
        elif metric == "setup_s":
            note = f"  (median of n={report['setup_n']})"
        print(f"  {metric:<24} {value:12.4f} {unit}{note}")
    error_rate = report["failed"] / report["attempted"]
    print(f"  {'error_rate':<24} {error_rate:12.4f} ratio  "
          f"({report['failed']} of {report['attempted']} runs)")
    for problem in report["problems"]:
        print(f"  problem: {problem}")
    if report["layers"]:
        for metric, value in report["layers"].items():
            print(f"  layer {metric:<30} {value:16.4f}")


def _result_line(reports: List[dict], trace: bool, prefixed: bool) -> dict:
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}." if prefixed else ""
        if trace:
            for name, value in report["layers"].items():
                metrics[prefix + name] = {"value": value,
                                          "unit": _layer_unit(name)}
        else:
            for name, (value, unit) in report["end_to_end"].items():
                metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("tx_per_s"):
        return "tx/s"
    if name.endswith("_s"):
        return "s"
    if name == "attributed_ratio":
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a repro checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    scratch_root = os.path.join(os.getcwd(), ".perfbench-work")
    reports = []
    try:
        for name in names:
            scratch = os.path.join(scratch_root, f"{name}-{os.getpid()}")
            try:
                reports.append(run_workload(
                    WORKLOADS[name], opts.seed, opts.seconds,
                    bool(opts.trace), scratch,
                ))
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
    finally:
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    for report in reports:
        _print_report(report)
    result = _result_line(reports, bool(opts.trace), len(reports) > 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
