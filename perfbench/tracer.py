"""Spans around calls into restep's modules, recorded from outside the package.

:func:`install` replaces each traced function where its callers look it
up: the ``harness`` module's own bindings (``train``, the metric
functions, ``resolve_config``, ``emit_report`` and the ``_SAMPLER_FNS``
table), ``regressor``'s ``forward_interpolate``, ``loss_and_gradients``
and ``sample_times``, ``samplers``' ``injected_noise_std``, and the class
attributes that estimator and world calls go through
(``DivergenceGuard.__call__``, the oracles' ``__call__``,
``MlpRegressor.__call__``/``predict``, ``pair_stream`` and
``sample_pairs``).  The undo callable puts every original back.

Spans are aggregated in memory per name as calls, total seconds and self
seconds (the total minus the time of the spans opened inside it), so
tracing a call costs two clock reads and a few dictionary updates, about
a microsecond.  The pair stream is timed per ``next``, the only boundary
visible from outside, which on ``train_mlp`` is some 77k spans per pass;
those spans take a leaner path (:meth:`Tracer.wrap_stream`).  Part of a
span's cost falls outside its clock reads, where it would be counted as
its parent's self time; like the ``bias`` of the standard library's
``profile`` module, :func:`span_bias` measures that cost for a stream
item once per run and each span adds it to the time its parent excludes.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from collections import defaultdict

SAMPLER_NAMES = ("iterative", "naive", "cold_diffusion")
METRIC_SPANS = ("metrics.distortion", "metrics.nearest_modes", "metrics.ks")


class Tracer:
    """Per-name call counts, total and self seconds, and work counters."""

    def __init__(self, bias: float = 0.0):
        self.bias = bias  # seconds a span costs its parent outside its clock reads
        self._stack = [[0.0]]  # child seconds of each open span, root first
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.durations = defaultdict(list)  # per-call seconds, kept names only

    def reset(self):
        """Forget everything recorded; wrappers already made stay valid."""
        for table in (self.calls, self.total, self.self_s, self.counts):
            table.clear()
        for kept in self.durations.values():
            kept.clear()

    def wrap(self, name: str, fn, keep_durations: bool = False, count=None):
        """``fn`` inside a span called ``name``.

        ``count(counts, args, result)`` adds work counters after a call
        returns; a call that raises adds one to ``counts[name + '.raised']``.
        """
        clock = time.perf_counter
        bias = self.bias
        stack, calls, total, self_s = self._stack, self.calls, self.total, self.self_s
        counts = self.counts
        kept = self.durations[name] if keep_durations else None

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed + bias
                calls[name] += 1
                total[name] += elapsed
                self_s[name] += elapsed - frame[0]
                if kept is not None:
                    kept.append(elapsed)
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_stream(self, name: str, fn):
        """``fn`` returns an iterator; each ``next`` on it is a span.

        These spans are the most numerous, so they skip the frame of their
        own: the spans a ``next`` opens (the chunked draws) are read off
        the consumer's frame, which they add to anyway.
        """
        clock = time.perf_counter
        bias = self.bias
        stack, calls, total, self_s = self._stack, self.calls, self.total, self.self_s

        def timed(items):
            while True:
                consumer = stack[-1]
                before = consumer[0]
                start = clock()
                try:
                    item = next(items)
                except StopIteration:
                    return
                elapsed = clock() - start
                inner = consumer[0] - before
                consumer[0] += elapsed - inner + bias
                calls[name] += 1
                total[name] += elapsed
                self_s[name] += elapsed - inner
                yield item

        def traced(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        traced.__wrapped__ = fn
        return traced


def span_bias(items: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced ``next`` of a stream adds outside its own clock
    reads: the median, over ``repeats``, of (traced loop - plain loop -
    time inside the spans) / ``items`` for an iterator that does nothing.
    Stream items are nearly all of the spans a pass opens."""
    samples = []
    for _ in range(repeats):
        tracer = Tracer()
        plain = itertools.repeat(None)
        traced = tracer.wrap_stream("items", itertools.repeat)(None)
        start = time.perf_counter()
        for _ in range(items):
            next(plain)
        plain_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(items):
            next(traced)
        traced_s = time.perf_counter() - start
        samples.append((traced_s - plain_s - tracer.total["items"]) / items)
    return max(statistics.median(samples), 0.0)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _count_rows(name):
    def count(counts, args, result):
        counts[name] += _rows(args[1])
    return count


def _count_sampler(counts, args, result):
    counts["samplers.steps"] += args[2].steps


def _count_optimizer_steps(counts, args, result):
    counts["regressor.optimizer_steps"] += len(result[1])


def _count_report_bytes(counts, args, result):
    counts["harness.report_bytes"] += sum(os.path.getsize(p) for p in result)


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    from restep import harness, oracles, regressor, samplers, worlds

    undo = []

    def patch(owner, attr, wrapped_from):
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = wrapped_from(original)
            undo.append(lambda: owner.__setitem__(attr, original))
            return
        # vars() rather than getattr(): a name that moved or became
        # inherited fails here instead of being traced in the wrong place.
        original = vars(owner)[attr]
        setattr(owner, attr, wrapped_from(original))
        undo.append(lambda: setattr(owner, attr, original))

    def span(name, **kw):
        return lambda fn: tracer.wrap(name, fn, **kw)

    for world in (worlds.MixtureWorld, worlds.GaussianWorld):
        patch(world, "pair_stream", lambda fn: tracer.wrap_stream("worlds.pair_stream", fn))
        patch(world, "sample_pairs", span("worlds.sample_pairs"))
    patch(worlds.DivergenceGuard, "__call__", span("worlds.guard"))

    patch(samplers, "injected_noise_std", span("degradation.injected_noise_std"))
    patch(regressor, "forward_interpolate", span("degradation.forward_interpolate"))

    patch(oracles.MixturePosteriorOracle, "__call__", span(
        "oracles.mixture", keep_durations=True, count=_count_rows("oracles.mixture_rows")))
    patch(oracles.GaussianDenoisingOracle, "__call__", span("oracles.gaussian"))

    patch(regressor, "loss_and_gradients", span("regressor.loss_and_gradients"))
    patch(regressor, "sample_times", span("regressor.sample_times"))
    patch(harness, "train", span("regressor.train", count=_count_optimizer_steps))
    for attr in ("__call__", "predict"):
        patch(regressor.MlpRegressor, attr, span(
            "regressor.predict", keep_durations=True,
            count=_count_rows("regressor.predict_rows")))

    for name in SAMPLER_NAMES:
        patch(harness._SAMPLER_FNS, name, span(f"samplers.{name}", count=_count_sampler))

    patch(harness, "distortion_metrics", span("metrics.distortion"))
    patch(harness, "nearest_modes", span("metrics.nearest_modes"))
    patch(harness, "empirical_distribution_stats", span("metrics.ks"))

    patch(harness, "resolve_config", span("harness.resolve_config"))
    patch(harness, "emit_report", span("harness.emit_report", count=_count_report_bytes))

    def uninstall():
        while undo:
            undo.pop()()

    return uninstall


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, total, self_s, counts = tracer.calls, tracer.total, tracer.self_s, tracer.counts
    samplers = [f"samplers.{n}" for n in SAMPLER_NAMES]
    cells = sum(calls[n] for n in samplers)
    divergent = sum(counts[n + ".raised"] for n in samplers)
    top = "harness.run_experiment"
    return {
        "worlds.pair_stream_s": total["worlds.pair_stream"],
        "worlds.pairs_drawn": calls["worlds.pair_stream"],
        "worlds.sample_pairs_s": total["worlds.sample_pairs"],
        "worlds.sample_pairs_calls": calls["worlds.sample_pairs"],
        "worlds.guard_self_s": self_s["worlds.guard"],
        "worlds.guard_calls": calls["worlds.guard"],
        "degradation.injected_noise_std_s": total["degradation.injected_noise_std"],
        "degradation.injected_noise_std_calls": calls["degradation.injected_noise_std"],
        "degradation.forward_interpolate_s": total["degradation.forward_interpolate"],
        "degradation.forward_interpolate_calls": calls["degradation.forward_interpolate"],
        "oracles.mixture_s": total["oracles.mixture"],
        "oracles.mixture_calls": calls["oracles.mixture"],
        "oracles.mixture_rows": counts["oracles.mixture_rows"],
        "oracles.gaussian_s": total["oracles.gaussian"],
        "oracles.gaussian_calls": calls["oracles.gaussian"],
        "regressor.loss_and_gradients_s": total["regressor.loss_and_gradients"],
        "regressor.loss_and_gradients_calls": calls["regressor.loss_and_gradients"],
        "regressor.train_self_s": self_s["regressor.train"],
        "regressor.sample_times_s": total["regressor.sample_times"],
        "regressor.optimizer_steps": counts["regressor.optimizer_steps"],
        "regressor.predict_s": total["regressor.predict"],
        "regressor.predict_calls": calls["regressor.predict"],
        "regressor.predict_rows": counts["regressor.predict_rows"],
        "samplers.iterative_s": total["samplers.iterative"],
        "samplers.naive_s": total["samplers.naive"],
        "samplers.cold_diffusion_s": total["samplers.cold_diffusion"],
        "samplers.self_s": sum(self_s[n] for n in samplers),
        "samplers.steps": counts["samplers.steps"],
        "samplers.cells": cells,
        "samplers.divergent_cells": divergent,
        "samplers.divergent_frac": divergent / cells if cells else 0.0,
        "metrics.s": sum(total[n] for n in METRIC_SPANS),
        "metrics.ks_s": total["metrics.ks"],
        "metrics.calls": sum(calls[n] for n in METRIC_SPANS),
        "harness.resolve_config_s": total["harness.resolve_config"],
        "harness.emit_report_s": total["harness.emit_report"],
        "harness.report_bytes": counts["harness.report_bytes"],
        "harness.self_s": self_s[top],
        "trace.unattributed_frac": self_s[top] / total[top] if total[top] else 0.0,
    }
