"""Distances, summaries, and sampling for spectral densities.

A density on a grid, ``(x, rho)``, is held to one rule everywhere
(:func:`checked_density`): ``x`` is a 1-d, finite, strictly increasing array
of at least two points, and each density is finite with the grid's shape.
The comparison routines renormalize two densities on one shared grid to unit
mass there and return scalar summaries (total variation, Jensen-Shannon,
moments, log-determinant); a histogram-based variant of the distances serves
sample sets, and quasi-Monte-Carlo sampling inverts the numerical
distribution function over a van der Corput sequence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError, is_integer

__all__ = [
    "DensityComparison",
    "regrid",
    "total_variation",
    "jensen_shannon",
    "total_variation_samples",
    "jensen_shannon_samples",
    "moments",
    "log_determinant",
    "van_der_corput",
    "qmc_sample",
    "compare_densities",
]

_SHARED_GRID = 4096
_HIST_BINS = 64  # histogram cells of the sample-based distances


def checked_density(x, *densities):
    """``x`` and each density as float arrays; ``InputError`` unless they
    keep the module's rule for a density on a grid."""
    x = np.asarray(x, dtype=float)
    densities = [np.asarray(rho, dtype=float) for rho in densities]
    if x.ndim != 1 or x.size < 2:
        raise InputError(f"a density grid needs two or more points in one dimension, got shape {x.shape}")
    if not np.isfinite(x).all() or np.any(np.diff(x) <= 0):
        raise InputError("a density grid must be finite and strictly increasing")
    for rho in densities:
        if rho.shape != x.shape:
            raise InputError(f"a density must have its grid's shape {x.shape}, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise InputError("density values must be finite")
    return (x, *densities)


def _normalize(x, rho):
    rho = np.maximum(rho, 0.0)
    total = np.trapezoid(rho, x)
    if total <= 0:
        raise InputError("density has no mass on the grid")
    return rho / total


def regrid(x_src, rho_src, x_dst):
    """Resample density values onto a new grid (zero outside the source)."""
    return np.interp(np.asarray(x_dst, dtype=float), x_src, rho_src, left=0.0, right=0.0)


def shared_grid(support_a, support_b):
    lo = min(support_a[0], support_b[0])
    hi = max(support_a[1], support_b[1])
    return np.linspace(lo, hi, _SHARED_GRID)


def total_variation(x, rho_a, rho_b):
    """(1/2) integral |rho_a - rho_b| after unit-mass renormalization."""
    x, a, b = checked_density(x, rho_a, rho_b)
    a, b = _normalize(x, a), _normalize(x, b)
    return float(0.5 * np.trapezoid(np.abs(a - b), x))


def _kl_terms(p, mid):
    """p log(p / mid), with 0 log 0 = 0 where either vanishes."""
    mask = (p > 0) & (mid > 0)
    return np.where(mask, p * np.log(np.where(mask, p / np.where(mid > 0, mid, 1.0), 1.0)), 0.0)


def jensen_shannon(x, rho_a, rho_b):
    """Jensen-Shannon divergence in nats (bounded by log 2).

    Cells where a density vanishes follow the 0 log 0 = 0 convention.
    """
    x, a, b = checked_density(x, rho_a, rho_b)
    a, b = _normalize(x, a), _normalize(x, b)
    mid = 0.5 * (a + b)
    return float(0.5 * np.trapezoid(_kl_terms(a, mid), x) + 0.5 * np.trapezoid(_kl_terms(b, mid), x))


def _hist_pair(samples_a, samples_b):
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    pa, _ = np.histogram(a, bins=_HIST_BINS, range=(lo, hi))
    pb, _ = np.histogram(b, bins=_HIST_BINS, range=(lo, hi))
    return pa / a.size, pb / b.size


def total_variation_samples(samples_a, samples_b):
    """Histogram cross-check variant of the density-grid total variation (64 cells)."""
    pa, pb = _hist_pair(samples_a, samples_b)
    return float(0.5 * np.abs(pa - pb).sum())


def jensen_shannon_samples(samples_a, samples_b):
    pa, pb = _hist_pair(samples_a, samples_b)
    mid = 0.5 * (pa + pb)
    return float(0.5 * _kl_terms(pa, mid).sum() + 0.5 * _kl_terms(pb, mid).sum())


def moments(x, rho, k_max=4):
    """Raw moments integral x^k rho(x) dx for k = 0..k_max (trapezoid)."""
    if not is_integer(k_max) or k_max < 0:
        raise InputError(f"moment order must be >= 0 and an integer, got {k_max!r}")
    x, rho = checked_density(x, rho)
    return np.array([np.trapezoid(x**k * rho, x) for k in range(k_max + 1)])


def log_determinant(x, rho, order):
    """Log-determinant estimate n * integral log(x) rho(x) dx.

    The support must be strictly positive; atoms at zero have to be removed
    before calling.  The integrand is refined on a log-spaced grid near the
    lower edge, where log(x) varies fastest.
    """
    x, rho = checked_density(x, rho)
    if order < 1:
        raise InputError("matrix order must be >= 1")
    mask = rho > 0
    if not mask.any():
        raise InputError("density has no mass")
    x0 = x[mask][0]
    if x0 <= 1e-12 * max(1.0, x[-1]):
        raise InputError("support touches zero; exclude atoms before the log-determinant")
    rho = _normalize(x, rho)
    # sorted without repeats, as np.unique (which imports numpy.ma) gives them
    xs = np.sort(np.concatenate([x, np.geomspace(x0, x[-1], 4096)]))
    xs = xs[(xs >= x0) & (np.diff(xs, prepend=-np.inf) > 0)]
    rs = np.interp(xs, x, rho)
    return float(order * np.trapezoid(np.log(xs) * rs, xs))


def van_der_corput(count):
    """First ``count`` points of the base-2 van der Corput sequence (index >= 1)."""
    if not is_integer(count) or count < 1:
        raise InputError(f"need at least one point: the count must be an integer >= 1, got {count!r}")
    # the weight of each binary digit, low to high, added to every point at
    # once: the same additions in the same order as digit by digit
    out = np.zeros(count)
    i, f = np.arange(1, count + 1), 0.5
    while i.any():
        out += f * (i & 1)
        i >>= 1
        f /= 2
    return out


def cumulative_trapezoid(x, rho):
    """The trapezoid integrals of ``rho`` over [x[0], x[i]], one per point."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(x))])


def qmc_sample(x, rho, count, seed=0):
    """Low-discrepancy sample of a grid density by inverse transform.

    Uses the base-2 van der Corput sequence (first point 1/2, so a single
    sample is the median).  A nonzero ``seed`` applies a Cranley-Patterson
    rotation for repeatable jitter.  A numerically non-monotone distribution
    function is re-monotonized by a running maximum.
    """
    x, rho = checked_density(x, rho)
    rho = np.maximum(rho, 0.0)
    cdf = cumulative_trapezoid(x, rho)
    if cdf[-1] <= 0:
        raise InputError("density has no mass on the grid")
    cdf = np.maximum.accumulate(cdf / cdf[-1])
    u = van_der_corput(count)
    if seed:
        from .linalg import make_rng

        u = np.mod(u + make_rng(seed).uniform(), 1.0)
    return np.sort(np.interp(u, cdf, x))


@dataclass(frozen=True)
class DensityComparison:
    """Summary row comparing two densities on a shared grid."""

    tv: float
    js: float
    moment_rel_err: tuple[float, float]
    logdet_a: float | None = None
    logdet_b: float | None = None

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    def to_table(self):
        rows = [
            ("TV", f"{self.tv:.4%}"),
            ("JS", f"{self.js:.4%}"),
            ("Rel. Error mu1", f"{self.moment_rel_err[0]:.4%}"),
            ("Rel. Error mu2", f"{self.moment_rel_err[1]:.4%}"),
        ]
        if self.logdet_a is not None:
            rows.append(("logdet A", f"{self.logdet_a:.4f}"))
            rows.append(("logdet B", f"{self.logdet_b:.4f}"))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {val:>14}" for name, val in rows)


def compare_densities(x, rho_a, rho_b, order=None):
    """Full comparison: TV, JS, first/second moment errors, log-dets."""
    x, a, b = checked_density(x, rho_a, rho_b)
    an, bn = _normalize(x, a), _normalize(x, b)
    ma, mb = moments(x, an, 2), moments(x, bn, 2)
    rel = tuple(
        float(abs(ma[k] - mb[k]) / max(abs(mb[k]), 1e-300)) for k in (1, 2)
    )
    ld_a = ld_b = None
    if order is not None:
        ld_a = log_determinant(x, an, order)
        ld_b = log_determinant(x, bn, order)
    return DensityComparison(
        tv=total_variation(x, a, b),
        js=jensen_shannon(x, a, b),
        moment_rel_err=rel,
        logdet_a=ld_a,
        logdet_b=ld_b,
    )
