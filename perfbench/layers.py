"""Per-layer tracer for one ``repro`` command (the traced run only).

Wraps the public entry points of ``repro.world``, ``repro.bgp``,
``repro.core``, ``repro.obs.runstore``, ``repro.obs.online``,
``repro.obs.horizon`` and ``repro.serve`` at run time -- no source
edit -- and records, per layer:

* inclusive seconds: the time inside the layer's outermost spans (a
  layer nested in another, such as ``bgp.churn`` inside
  ``truth.generate``, is counted in both);
* the growth of the process's peak RSS (``ru_maxrss``) while a layer of
  that prefix ran, as ``<prefix>.rss_delta_mb``;
* exact counts of hot calls that carry no span.

``attributed_s`` is the time covered by any named span, i.e. the sum of
every layer's self time.  Spans are recorded on the main thread of the
process that installed the tracer.  Forked shard workers inherit the
wrappers but only append their ``run_shard`` interval to a side file,
from which ``simulate.shard_max_s`` (the slowest shard of each dispatch,
summed over dispatches) is computed.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import threading
import time
from collections import Counter, defaultdict

from wrapping import wrap

#: (layer, module, function or Class.method).
SPANS = [
    ("world.build", "repro.world.defaults", "build_default_world"),
    ("truth.generate", "repro.world.faults", "FaultGenerator.generate"),
    ("bgp.churn", "repro.bgp.churn", "ChurnGenerator.run"),
    ("simulate.run", "repro.world.simulator", "MonthSimulator.run"),
    ("simulate.run", "repro.world.parallel", "run_block"),
    ("simulate.merge", "repro.world.sharedmem",
     "SharedMonthBuffer.adopt_into"),
    ("simulate.merge", "repro.core.dataset",
     "MeasurementDataset.merge_shards"),
    ("simulate.merge", "repro.core.dataset", "MeasurementDataset.merge"),
    ("analysis.permanent", "repro.core.permanent", "find_permanent_pairs"),
    ("analysis.blame", "repro.core.blame", "run_blame_analysis"),
    ("analysis.blame", "repro.core.blame", "blame_table"),
    ("recording.digest", "repro.core.dataset", "MeasurementDataset.digest"),
    ("recording.evidence", "repro.obs.runstore.evidence", "collect_evidence"),
    ("recording.finalize", "repro.obs.runstore.store",
     "RunRecorder.record_result"),
    ("recording.finalize", "repro.obs.runstore.store", "RunRecorder.finalize"),
    ("recording.finalize", "repro.obs.runstore.store", "RunStore.write"),
    ("serve.prepare", "repro.serve.daemon", "ServeDaemon.prepare"),
    ("serve.loop", "repro.serve.daemon", "ServeDaemon.run"),
    ("serve.hour_stats", "repro.serve.daemon", "hour_entity_stats_from_block"),
    ("detector.update", "repro.obs.online.detector", "OnlineDetector.update"),
    ("horizon.fold", "repro.obs.horizon.history", "HistoryStore.on_hour"),
    ("horizon.fold", "repro.obs.horizon.slo", "SLOEngine.on_hour"),
    ("horizon.fold", "repro.obs.horizon.rolling", "fold_block"),
] + [
    ("analysis.tables", "repro.core.report", name)
    for name in (
        "headline_summary", "table3", "figure1", "table4", "figure2",
        "figure3", "figure4", "table5", "table6", "table7", "table8",
        "table9",
    )
]

#: (count name, module, Class.method) -- counted, never timed.
COUNTS = [
    ("analysis.blame_calls", "repro.core.blame", "run_blame_analysis"),
    ("bgp.route_lookups", "repro.bgp.routeviews",
     "CollectorFleet.sessions_with_route"),
    ("bgp.route_lookups", "repro.bgp.routeviews",
     "CollectorFleet.sessions_via"),
    ("dataset.failure_plane_reads", "repro.core.dataset",
     "MeasurementDataset.failures"),
    ("dataset.failure_plane_reads", "repro.core.dataset",
     "MeasurementDataset.tcp_failures"),
    ("dataset.failure_plane_reads", "repro.core.dataset",
     "MeasurementDataset.dns_failures"),
]

#: Layers whose time, counts or RSS the record always carries (zero when
#: a command never enters them).
LAYERS = sorted(
    {layer for layer, *_ in SPANS} | {"serve.commit", "serve.replay"}
)
RSS_PREFIXES = sorted({layer.split(".")[0] for layer in LAYERS})
COUNT_NAMES = sorted(
    {name for name, *_ in COUNTS}
    | {"detector.knee_calls", "detector.knee_points", "serve.commit_bytes",
       "simulate.transactions"}
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LayerTracer:
    """Span stack, per-layer totals and exact counts for one process."""

    def __init__(self, worker_log: str) -> None:
        self.pid = os.getpid()
        self.thread = threading.main_thread()
        self.worker_log = worker_log
        self.seconds = defaultdict(float)
        self.rss_delta_mb = defaultdict(float)
        self.counts = Counter()
        self.attributed_s = 0.0
        self.dispatches = []
        self.local_shards = []
        self._stack = []
        self._layer_depth = Counter()
        self._prefix_depth = Counter()
        self._in_knee = False

    # -- spans ----------------------------------------------------------------

    def _traced_here(self) -> bool:
        return (
            os.getpid() == self.pid
            and threading.current_thread() is self.thread
        )

    def _enter(self, layer: str) -> None:
        prefix = layer.split(".")[0]
        self._layer_depth[layer] += 1
        self._prefix_depth[prefix] += 1
        self._stack.append((layer, prefix, time.monotonic(), _maxrss_mb()))

    def _exit(self) -> float:
        layer, prefix, started, rss = self._stack.pop()
        ended = time.monotonic()
        elapsed = ended - started
        self._layer_depth[layer] -= 1
        self._prefix_depth[prefix] -= 1
        if self._layer_depth[layer] == 0:
            self.seconds[layer] += elapsed
            if layer == "simulate.run":
                self.dispatches.append((started, ended))
        if self._prefix_depth[prefix] == 0:
            self.rss_delta_mb[prefix] += _maxrss_mb() - rss
        if not self._stack:
            self.attributed_s += elapsed
        return elapsed

    def span(self, layer: str, after=None):
        """A wrapper factory: time calls as ``layer``; ``after(result,
        args)`` runs once the span is closed."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer._traced_here():
                    return fn(*args, **kwargs)
                tracer._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit()
                if after is not None:
                    after(result, args)
                return result
            return traced
        return make

    def counter(self, name: str):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    # -- special cases --------------------------------------------------------

    def _count_transactions(self, result, args) -> None:
        dataset = getattr(result, "dataset", None)
        arrays = getattr(dataset, "transactions", None)
        if arrays is None and isinstance(result, dict):
            arrays = result.get("transactions")
        if arrays is not None:
            self.counts["simulate.transactions"] += int(arrays.sum())

    def _count_commit_bytes(self, entry, args) -> None:
        store = args[0]
        path = store.chunks_dir / str(entry["file"])
        self.counts["serve.commit_bytes"] += os.path.getsize(path)

    def _replay(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            while True:
                here = tracer._traced_here()
                if here:
                    tracer._enter("serve.replay")
                try:
                    item = next(chunks)
                except StopIteration:
                    return
                finally:
                    if here:
                        tracer._exit()
                yield item
        return traced

    def _knee_of_sorted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts["detector.knee_calls"] += 1
            tracer._in_knee = True
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_knee = False
        return counted

    def _cdf_points(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            points = fn(*args, **kwargs)
            if tracer._in_knee:
                tracer.counts["detector.knee_points"] += len(points)
            return points
        return counted

    def _run_shard(self, fn):
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                interval = (started, time.monotonic())
                if os.getpid() == tracer.pid:
                    tracer.local_shards.append(interval)
                else:
                    with open(tracer.worker_log, "a", encoding="utf-8") as fh:
                        fh.write(json.dumps(interval) + "\n")
        return timed

    # -- installation and output ----------------------------------------------

    def install(self) -> None:
        for layer, module, name in SPANS:
            after = None
            if layer == "simulate.run":
                after = self._count_transactions
            wrap(module, name, self.span(layer, after=after))
        wrap("repro.obs.runstore.chunks", "ChunkStore.commit",
             self.span("serve.commit", after=self._count_commit_bytes))
        wrap("repro.obs.runstore.chunks", "ChunkStore.replay", self._replay)
        wrap("repro.core.knee", "knee_of_sorted", self._knee_of_sorted)
        wrap("repro.core.knee", "cdf_points", self._cdf_points)
        wrap("repro.world.simulator", "MonthSimulator.run_shard",
             self._run_shard)
        for name, module, method in COUNTS:
            wrap(module, method, self.counter(name))

    def _shard_max_s(self) -> float:
        shards = list(self.local_shards)
        try:
            with open(self.worker_log, encoding="utf-8") as fh:
                shards += [tuple(json.loads(line)) for line in fh]
        except FileNotFoundError:
            pass
        total = 0.0
        for lo, hi in self.dispatches:
            inside = [b - a for a, b in shards if lo <= a and b <= hi]
            total += max(inside, default=0.0)
        return total

    def record(self) -> dict:
        """The per-process record the benchmark aggregates."""
        seconds = {layer: self.seconds.get(layer, 0.0) for layer in LAYERS}
        seconds["simulate.shard_max"] = self._shard_max_s()
        return {
            "seconds": seconds,
            "rss_delta_mb": {
                prefix: self.rss_delta_mb.get(prefix, 0.0)
                for prefix in RSS_PREFIXES
            },
            "counts": {name: self.counts.get(name, 0) for name in COUNT_NAMES},
            "attributed_s": self.attributed_s,
        }
