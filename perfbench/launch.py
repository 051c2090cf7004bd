"""Run one ``repro`` command in this process, with boundary timers.

    python3 perfbench/launch.py --marks FILE [--trace FILE]
        [--stop-at-hour H] -- <repro arguments>

Run from the root of a checkout: the program is imported from
``./src`` and nowhere else.  The command runs exactly as ``repro
<arguments>`` would; the launcher adds only timers at a few boundaries
that are crossed once per command (or once per serve chunk) and writes
them to ``--marks`` as JSON:

* ``setup_s`` -- world build + ground truth (``build_default_world`` and
  ``FaultGenerator.generate``);
* ``sim_hours`` / ``sim_loop_s`` -- simulated hours and the seconds of
  the loop that simulated them (``MonthSimulator.run``; for ``serve``,
  ``ServeDaemon.run`` up to its last committed chunk);
* ``first_commit_t`` -- ``time.monotonic()`` when ``serve`` committed its
  first new chunk (CLOCK_MONOTONIC is system-wide, so the parent can
  subtract its own start time);
* ``ready_t`` -- ``time.monotonic()`` once the interpreter has started and
  imported ``repro``, before the per-layer tracer (if any) is installed.

``--stop-at-hour H`` stops ``serve`` programmatically (``request_stop``)
once the chunk cursor reaches sim-hour H, so the cold half of a
kill/resume pair always ends on the same chunk boundary.

``--trace FILE`` additionally installs the per-layer tracer
(:mod:`layers`) and writes its record to FILE.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time


class Marks:
    """Boundary timings of one command."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.sim_hours = 0
        self.sim_loop_s = 0.0
        self.first_commit_t = None
        self.ready_t = None
        self._sim_depth = 0

    def to_dict(self) -> dict:
        return {
            "setup_s": self.setup_s,
            "sim_hours": self.sim_hours,
            "sim_loop_s": self.sim_loop_s,
            "first_commit_t": self.first_commit_t,
            "ready_t": self.ready_t,
        }


def _install_boundaries(marks: Marks, serve: bool, stop_at_hour) -> None:
    from wrapping import wrap

    def setup_timer(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                marks.setup_s += time.monotonic() - started
        return timed

    def simulate_timer(fn):
        @functools.wraps(fn)
        def timed(self, *args, **kwargs):
            marks._sim_depth += 1
            started = time.monotonic()
            try:
                return fn(self, *args, **kwargs)
            finally:
                marks._sim_depth -= 1
                if marks._sim_depth == 0:
                    marks.sim_loop_s += time.monotonic() - started
                    marks.sim_hours += self.world.hours
        return timed

    wrap("repro.world.defaults", "build_default_world", setup_timer)
    wrap("repro.world.faults", "FaultGenerator.generate", setup_timer)
    wrap("repro.world.simulator", "MonthSimulator.run", simulate_timer)
    if not serve:
        return

    def serve_timer(fn):
        @functools.wraps(fn)
        def timed(self, *args, **kwargs):
            previous = self.chunk_callback
            start_hour = self.cursor
            started = time.monotonic()
            last_commit = [started]

            def on_chunk(daemon, entry):
                now = time.monotonic()
                last_commit[0] = now
                if marks.first_commit_t is None:
                    marks.first_commit_t = now
                if previous is not None:
                    previous(daemon, entry)
                if stop_at_hour is not None and daemon.cursor >= stop_at_hour:
                    daemon.request_stop()

            self.chunk_callback = on_chunk
            result = fn(self, *args, **kwargs)
            marks.sim_hours += int(result["committed_hours"]) - start_hour
            marks.sim_loop_s += last_commit[0] - started
            return result
        return timed

    wrap("repro.serve.daemon", "ServeDaemon.run", serve_timer)


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--stop-at-hour", type=int)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    command = opts.command[1:] if opts.command[:1] == ["--"] else opts.command

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(
        src, "repro"
    ):
        print(
            f"launch.py: repro imported from {repro.__file__}, not {src}",
            file=sys.stderr,
        )
        return 3

    marks = Marks()
    _install_boundaries(marks, "serve" in command, opts.stop_at_hour)
    marks.ready_t = time.monotonic()
    tracer = None
    if opts.trace:
        from layers import LayerTracer

        tracer = LayerTracer(opts.trace + ".workers")
        tracer.install()

    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        _write_json(opts.marks, marks.to_dict())
        if tracer is not None:
            _write_json(opts.trace, tracer.record())


if __name__ == "__main__":
    sys.exit(main())
