"""Per-layer timing and counting around freedec's public functions.

Nothing inside freedec is edited.  ``Tracer.installed()`` swaps timing
wrappers in for module-level public functions (``freedec.decompress.
track_support`` and friends, which the library and its CLI look up at call
time), and ``Tracer.evaluator`` hands the solver a proxy that counts and
times every Stieltjes evaluation.  ``NullTracer`` keeps the same interface
and adds nothing, for the timed runs.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import freedec.decompress
import freedec.density_fit
import freedec.ensembles
import freedec.linalg
import freedec.stieltjes

_clock = time.perf_counter


class NullTracer:
    """Untraced runs: build the evaluator and nothing else."""

    traced = False

    def evaluator(self, factory, *args):
        return factory(*args)

    @contextlib.contextmanager
    def installed(self):
        yield self


class _EvaluatorProxy:
    """Counts calls, points and seconds of an evaluator, changing nothing."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.support = inner.support

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def evaluate(self, z, branch="secondary"):
        return self._tracer._count_eval(self._inner.evaluate, z, branch)

    def derivative(self, z, branch="secondary"):
        return self._tracer._count_eval(self._inner.derivative, z, branch)


class Tracer:
    """Accumulates per-layer figures over every call made while installed."""

    traced = True

    def __init__(self):
        self.totals = defaultdict(float)
        self._phase = "solve"

    def add(self, name, value):
        self.totals[name] += value

    def evaluator(self, factory, *args):
        start = _clock()
        inner = factory(*args)
        self.add("stieltjes.build_s", _clock() - start)
        return _EvaluatorProxy(inner, self)

    def _count_eval(self, method, z, branch):
        points = np.size(z)
        start = _clock()
        out = method(z, branch)
        elapsed = _clock() - start
        self.add(f"stieltjes.eval_s.{self._phase}", elapsed)
        self.add(f"stieltjes.calls.{self._phase}", 1)
        self.add(f"stieltjes.points.{self._phase}", points)
        return out

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into freedec's modules; restore them on exit."""
        patches = [
            (freedec.decompress, "track_support", self._wrap_track),
            (freedec.decompress, "decompress_density", self._wrap_decompress),
            (freedec.linalg, "eigenvalues_symmetric", self._wrap_timed("linalg.eigh_s")),
            (freedec.density_fit, "fit_density", self._wrap_fit),
            (freedec.ensembles, "draw_ensemble", self._wrap_timed("ensembles.draw_s")),
            (freedec.stieltjes, "evaluator_for_model", self._wrap_build),
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrap in patches:
                setattr(module, name, wrap(getattr(module, name)))
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def _wrap_timed(self, metric):
        def wrap(func):
            def timed(*args, **kwargs):
                start = _clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    self.add(metric, _clock() - start)

            return timed

        return wrap

    def _wrap_fit(self, func):
        def fit(*args, **kwargs):
            start = _clock()
            model = func(*args, **kwargs)
            self.add("density_fit.fit_s", _clock() - start)
            self.add("density_fit.coeffs_nonzero", np.count_nonzero(model.coefficients_effective()))
            return model

        return fit

    def _wrap_build(self, func):
        def build(*args, **kwargs):
            return self.evaluator(lambda: func(*args, **kwargs))

        return build

    def _wrap_track(self, func):
        def track(*args, **kwargs):
            outer_phase = self._phase
            self._phase = "track"
            start = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                self.add("decompress.track_s", _clock() - start)
                self._phase = outer_phase

        return track

    def _wrap_decompress(self, func):
        def decompress(*args, **kwargs):
            track_before = self.totals["decompress.track_s"]
            start = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                tracked = self.totals["decompress.track_s"] - track_before
                self.add("decompress.solve_s", _clock() - start - tracked)
            self.add("decompress.grid_points", result.grid.size)
            self.add("decompress.failed_points", int(result.failed.sum()))
            if result.degraded is not None:
                self.add("decompress.degraded_points", int(result.degraded.sum()))
            return result

        return decompress


LAYER_METRICS = {
    "stieltjes.build_s": "s",
    "stieltjes.eval_s": "s",
    "stieltjes.eval_s.track": "s",
    "stieltjes.eval_s.solve": "s",
    "stieltjes.calls": "count",
    "stieltjes.calls.track": "count",
    "stieltjes.calls.solve": "count",
    "stieltjes.points": "count",
    "stieltjes.points.track": "count",
    "stieltjes.points.solve": "count",
    "stieltjes.points_per_call": "count",
    "stieltjes.points_per_call.track": "count",
    "stieltjes.points_per_call.solve": "count",
    "decompress.track_s": "s",
    "decompress.solve_s": "s",
    "decompress.grid_points": "count",
    "decompress.failed_points": "count",
    "decompress.degraded_points": "count",
    "linalg.eigh_s": "s",
    "density_fit.fit_s": "s",
    "density_fit.coeffs_nonzero": "count",
    "ensembles.draw_s": "s",
    "cli.import_s": "s",
    "cli.sample_s": "s",
    "cli.fit_s": "s",
    "cli.decompress_s": "s",
    "cli.metrics_s": "s",
    "trace.overhead_s": "s",
}


def layer_report(totals):
    """Every per-layer metric, with totals and ratios derived from the phases.

    A layer a workload never enters reads 0.
    """
    values = defaultdict(float, totals)
    for base in ("stieltjes.eval_s", "stieltjes.calls", "stieltjes.points"):
        values[base] = values[f"{base}.track"] + values[f"{base}.solve"]
    for suffix in ("", ".track", ".solve"):
        calls = values[f"stieltjes.calls{suffix}"]
        points = values[f"stieltjes.points{suffix}"]
        values[f"stieltjes.points_per_call{suffix}"] = points / calls if calls else 0.0
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in LAYER_METRICS.items()}
