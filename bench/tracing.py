"""Outside-in tracing of pathspectra's layers.

`Tracer.install()` replaces the public entry points of each module (and the
`from ... import` bindings where they are called) with wrappers that record a
span per call: name, start, end and the index of the enclosing span.
`uninstall()` puts the originals back, so untraced and traced passes can run
in one process.  Nothing under `src/` is edited.

Self time of a span is its duration minus the durations of its direct
children; the per-layer metrics are sums of self times per span name, so
together with the untraced gaps they partition a pass.  Every HiGHS call is
its own span, charged to `coherence.highs_*` inside a coherence span and to
`exactgeom.highs_*` elsewhere (edge tests and the vertex validation run by
`Polytope.from_json` and the zoo builders).
"""
from __future__ import annotations

import time
from collections import Counter

from pathspectra import betasim, cli, coherence, exactgeom, zoo
from pathspectra.exactgeom import Polytope

# span name -> per-layer time metric that its self time is added to
TIME_METRICS = {
    "cli": "cli.self_s",
    "zoo.fixture": "zoo.fixture_s",
    "exactgeom.load": "exactgeom.load_s",
    "exactgeom.edges": "exactgeom.edges_s",
    "exactgeom.highs": "exactgeom.highs_s",
    "exactgeom.orient": "exactgeom.orient_s",
    "pathcount.dp": "pathcount.dp_s",
    "pathcount.enum": "pathcount.enum_s",
    "coherence.certify": "coherence.certify_s",
    # the exact simplex fallback is part of certification; its calls are counted
    "coherence.exact_lp": "coherence.certify_s",
    "coherence.highs": "coherence.highs_s",
    "coherence.shadow": "coherence.shadow_s",
    "betasim.sample": "betasim.sample_s",
    "betasim.hull": "betasim.hull_s",
    "betasim.loop": "betasim.loop_s",
}

# counts that must repeat exactly across passes and runs at a fixed seed
STABLE_COUNTS = ("exactgeom.edge_pairs", "exactgeom.highs_calls",
                 "coherence.highs_calls", "coherence.exact_lp_calls",
                 "pathcount.paths", "coherence.coherent_ratio",
                 "betasim.retry_ratio")


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # raw counters, reset per pass by the caller
        self._stack = []
        self._saved = []

    # -- span recording

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _in_coherence(self):
        return any(self.spans[i][0].startswith("coherence.") for i in self._stack)

    def _call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            result = self._call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        return traced

    def _wrap_generator(self, name, fn, counter):
        """Time each next() separately, so the consumer's work between items
        is charged to the caller, and count the items."""
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close()
                self.counts[counter] += 1
                yield item
        return traced

    # -- installation

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        counts = self.counts

        # _highs() caches (linprog, numpy) on first use, so the wrapper goes
        # into that cache; every HiGHS call of the exact engine goes through it
        real_linprog, np = exactgeom._highs()

        def linprog(*args, **kwargs):
            layer = "coherence" if self._in_coherence() else "exactgeom"
            counts[f"{layer}.highs_calls"] += 1
            return self._call(f"{layer}.highs", real_linprog, *args, **kwargs)
        self._patch(exactgeom, "_highs_handle", (linprog, np))

        real_edges = Polytope.edges

        def edges(P):
            fresh = P._edges is None
            result = self._call("exactgeom.edges", real_edges, P)
            if fresh:
                n = len(P.vertices)
                counts["exactgeom.edge_pairs"] += n * (n - 1) // 2
                counts["exactgeom.edges_found"] += len(result)
            return result
        self._patch(Polytope, "edges", edges)

        real_from_json = Polytope.__dict__["from_json"].__func__
        self._patch(Polytope, "from_json", classmethod(
            lambda cls, *a, **k: self._call("exactgeom.load", real_from_json, cls, *a, **k)))

        self._patch(cli, "main", self._wrap("cli", cli.main))
        self._patch(zoo, "fixture", self._wrap("zoo.fixture", zoo.fixture))
        self._patch(cli, "orient", self._wrap("exactgeom.orient", cli.orient))
        self._patch(zoo, "orient", self._wrap("exactgeom.orient", zoo.orient))
        self._patch(zoo, "count_paths_by_length",
                    self._wrap("pathcount.dp", zoo.count_paths_by_length))

        def spectrum_done(spec, *args, **kwargs):
            counts["coherence.coherent"] += spec.total
        self._patch(zoo, "coherent_spectrum",
                    self._wrap("coherence.certify", zoo.coherent_spectrum, spectrum_done))
        self._patch(cli, "coherent_paths", self._wrap_generator(
            "coherence.certify", cli.coherent_paths, "coherence.coherent"))
        self._patch(coherence, "enumerate_paths", self._wrap_generator(
            "pathcount.enum", coherence.enumerate_paths, "pathcount.paths"))

        def exact_lp_done(*_args, **_kwargs):
            counts["coherence.exact_lp_calls"] += 1
        self._patch(coherence, "lp_maximize",
                    self._wrap("coherence.exact_lp", coherence.lp_maximize, exact_lp_done))

        def sample_done(draw, P, c, samples, seed):
            counts["coherence.shadow_samples"] += samples
            counts["coherence.shadow_degenerate"] += draw.degenerate
        self._patch(cli, "sample_coherent",
                    self._wrap("coherence.shadow", cli.sample_coherent, sample_done))

        def sim_done(report, config):
            counts["betasim.trials"] += config.trials
            counts["betasim.retries"] += report.degenerate_retries
        self._patch(cli, "simulate_Qn", self._wrap("betasim.loop", cli.simulate_Qn, sim_done))
        self._patch(betasim, "sample_sphere", self._wrap("betasim.sample", betasim.sample_sphere))
        self._patch(betasim, "chain_counts", self._wrap("betasim.hull", betasim.chain_counts))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reduction

    def self_times(self, first=0):
        """Sum of self time per span name over spans[first:]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans[first:]:
            if parent >= first:
                child[parent] += end - start
        totals = Counter()
        for i in range(first, len(spans)):
            name, start, end, _ = spans[i]
            totals[name] += end - start - child[i]
        return totals


def layer_metrics(self_times, counts):
    """Per-layer metrics of one traced pass from its self times and counters."""
    out = {metric: 0.0 for metric in TIME_METRICS.values()}
    for name, seconds in self_times.items():
        out[TIME_METRICS[name]] += seconds

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    for key in ("exactgeom.edge_pairs", "exactgeom.highs_calls",
                "coherence.highs_calls", "coherence.exact_lp_calls", "pathcount.paths"):
        out[key] = counts[key]
    out["exactgeom.edge_yield"] = ratio("exactgeom.edges_found", "exactgeom.edge_pairs")
    out["coherence.coherent_ratio"] = ratio("coherence.coherent", "pathcount.paths")
    out["coherence.shadow_degenerate"] = ratio("coherence.shadow_degenerate",
                                               "coherence.shadow_samples")
    out["betasim.retry_ratio"] = ratio("betasim.retries", "betasim.trials")
    return out
