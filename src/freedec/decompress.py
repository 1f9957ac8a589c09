"""Evolution of a Stieltjes evaluator to larger matrix dimension.

The transform of the full matrix at scale t = log(r), r = n / n_s, follows
from the source transform m0 along straight characteristics: the target
x + i delta is reached from the label z that solves

    x + i delta = z - (r - 1) / m0(z),

and the decompressed transform there is m'(x + i delta) = m0(z) / r.  An
evaluator is read through ``support``, ``density`` and
``decompressed(ratio, order=None)`` alone, and supplies the decompressed
transform itself: closed-form laws as the decompressed law's quadratic
(``ensembles.decompressed_law``), fitted models as the followed root of
one Pade approximant's characteristic polynomial
(``stieltjes.FollowedRoot``).  ``decompress_density`` takes the grid from
its support, the density from Im m' / pi and the labels from
z = x + i delta + (r - 1) / (r m'), with no iteration of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density_fit import chebyshev_nodes
from .errors import InputError, NumericalError

__all__ = [
    "DecompressionRequest",
    "DecompressionResult",
    "CrossingReport",
    "decompress_density",
    "track_support",
    "verify_crossing",
]

_AUTO_GRID = 1000
_MARGIN = 0.2
_EDGE_TOL = 1e-3  # slack, in support widths, of verify_crossing's inside test


@dataclass(frozen=True)
class DecompressionRequest:
    """Inputs of one decompression run.

    ``ratio`` is n / n_s, finite and >= 1.  ``grid`` is an explicit finite,
    strictly increasing array or 'auto'.  The points are evaluated
    ``default_delta`` (1e-3 source widths) above the axis, the height at
    which a fitted model's approximant choice checks its mass.
    """

    evaluator: object
    ratio: float
    grid: object = "auto"


@dataclass(frozen=True)
class DecompressionResult:
    """``decompressed`` is what the evaluator's ``decompressed(ratio)``
    returned (None at ratio 1).  No point is rescued, so ``degraded`` is
    always None; the field stays for callers that read it."""

    grid: np.ndarray
    density: np.ndarray
    support: tuple[float, float]
    ratio: float
    delta: float
    roots: np.ndarray
    failed: np.ndarray
    decompressed: object = None
    degraded: np.ndarray | None = field(default=None, repr=False)

    def mass(self):
        # a failed point counts as zero density, never bridged by its neighbours
        return float(np.trapezoid(np.where(self.failed, 0.0, self.density), self.grid))


def _number(value, name, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a number, got {value!r}") from exc


def checked_ratio(ratio):
    """``ratio`` as a float; ``InputError`` unless it is a finite number >= 1."""
    r = _number(ratio, "decompression ratio")
    if not 1 <= r < np.inf:
        raise InputError(f"decompression ratio must be finite and >= 1, got {r:g}")
    return r


def checked_upper_half(z):
    """``z`` as a complex array of finite points with Im z > 0, else ``InputError``."""
    try:
        z = np.asarray(z, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected points of the open upper half-plane, got {z!r}") from exc
    if not (np.isfinite(z) & (z.imag > 0)).all():
        raise InputError("expected finite points of the open upper half-plane")
    return z


def default_delta(support):
    """The evaluation offset for a source support: 1e-3 of its width.  With
    no absolute scale in it, a decompression commutes with x -> s x."""
    lo, hi = support
    return 1e-3 * (hi - lo)


def auto_grid(support):
    """The grid of a decompression onto ``support``: ``_AUTO_GRID``
    Chebyshev-distributed points over it widened by ``_MARGIN`` of its
    width, increasing.  A fitted model's approximant choice measures its
    mass on the same grid."""
    return chebyshev_nodes(support, _AUTO_GRID, _MARGIN)


def decompress_density(request):
    """Run a full decompression and return the density on a grid.

    Ratio 1 reproduces the evaluator's own density exactly: the imaginary
    offset delta only keeps the decompressed transform off the real axis,
    and at t = 0 the Plemelj limit is available directly.  Otherwise the
    evaluator's ``decompressed(ratio)`` gives the support (and with it the
    auto grid) and the decompressed transform at x + i delta.  A point where
    that transform, or at ratio 1 the density, is not finite is failed, and
    more than 5% failed inside the support raise ``NumericalError``.
    """
    ratio = checked_ratio(request.ratio)
    evaluator = request.evaluator
    delta = default_delta(evaluator.support)
    decompressed = evaluator.decompressed(ratio) if ratio > 1 else None
    support = decompressed.support if decompressed is not None else evaluator.support

    if isinstance(request.grid, str) and request.grid == "auto":
        grid = auto_grid(support)
    else:
        try:
            grid = np.asarray(request.grid, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"explicit grid must be 'auto' or numbers, got {request.grid!r}") from exc
        finite = grid.ndim == 1 and grid.size >= 1 and np.isfinite(grid).all()
        if not finite or np.any(np.diff(grid) <= 0):
            raise InputError("explicit grid must be finite and strictly increasing")

    targets = grid + 1j * delta
    if decompressed is None:
        density = np.asarray(evaluator.density(grid), dtype=float)
        roots, failed = targets, ~np.isfinite(density)
    else:
        m = decompressed.stieltjes(targets)
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = targets + (ratio - 1.0) / (ratio * m)
        failed = ~(np.isfinite(m) & np.isfinite(roots))
        density = m.imag / np.pi
    in_support = (grid >= support[0]) & (grid <= support[1])
    fatal = failed & in_support
    if fatal.sum() > 0.05 * max(in_support.sum(), 1):
        raise NumericalError(
            f"decompression failed on {fatal.sum()} of {in_support.sum()} "
            f"grid points inside the support"
        )
    density = np.where(failed, np.nan, np.maximum(density, 0.0))
    return DecompressionResult(grid, density, support, ratio, delta, roots, failed, decompressed)


def track_support(evaluator, t):
    """Support interval of the decompressed density at scale t: the
    support of ``evaluator.decompressed(e^t)``."""
    t = _number(t, "decompression scale t")
    with np.errstate(over="ignore"):
        ratio = np.exp(t)
    if not (0 <= t and np.isfinite(ratio)):
        raise InputError(f"decompression scale t must be >= 0 with a finite e^t, got {t:g}")
    lo, hi = evaluator.support if t == 0 else evaluator.decompressed(ratio).support
    return (float(lo), float(hi))


@dataclass(frozen=True)
class CrossingReport:
    crossed: bool
    t_star: float | None
    crossing_point: float | None
    inside_support: bool | None


def verify_crossing(evaluator, z, t_max=8.0, dt=0.05):
    """Locate the time at which the characteristic label crosses the axis.

    For fixed target ``z`` in the upper half-plane, the label
    phi(t) = z + (e^t - 1) / (e^t m_t(z)), with m_t the transform
    decompressed by e^t, starts at z and descends; the report contains the
    first time t* with Im phi(t*) = 0 (found by bisection) and whether
    Re phi(t*) lies inside the evaluator's support.  A fitted model's
    approximant is chosen once, at t = dt, so phi is one analytic function
    of t.
    """
    z = _number(z, "target z", complex)
    checked_upper_half(z)
    dt, t_max = _number(dt, "step dt"), _number(t_max, "t_max")
    if not (0 < dt < np.inf and np.isfinite(t_max)):
        raise InputError(f"crossing verification needs a finite step dt > 0 and a finite t_max, "
                         f"got dt={dt:g}, t_max={t_max:g}")
    lo, hi = evaluator.support
    width = hi - lo
    order = getattr(evaluator.decompressed(np.exp(dt)), "order", None)

    def phi_at(t):
        r = np.exp(t)
        return z + (r - 1.0) / (r * complex(evaluator.decompressed(r, order=order).stieltjes(z)))

    t_prev, t_cur = 0.0, dt
    while t_cur <= t_max + 1e-12:
        if phi_at(t_cur).imag <= 0.0:
            t_lo, t_hi = t_prev, t_cur
            for _ in range(80):
                t_mid = 0.5 * (t_lo + t_hi)
                if phi_at(t_mid).imag > 0:
                    t_lo = t_mid
                else:
                    t_hi = t_mid
            t_star = 0.5 * (t_lo + t_hi)
            x_star = phi_at(t_star).real
            inside = lo - _EDGE_TOL * width <= x_star <= hi + _EDGE_TOL * width
            return CrossingReport(True, t_star, float(x_star), bool(inside))
        t_prev, t_cur = t_cur, t_cur + dt
    return CrossingReport(False, None, None, None)
