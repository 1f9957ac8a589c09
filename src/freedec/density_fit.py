"""Smooth density models fitted to eigenvalue samples.

A :class:`DensityModel` represents an absolutely continuous density on a
compact interval as a Chebyshev-U expansion

    rho(x) = sqrt(1 - t^2) sum_k psi_k U_k(t),   t = M(x),

where ``M`` maps the support onto [-1, 1].  The coefficients come from the
direct moment estimator on the eigenvalues; the noise-dominated tail is
cut and the kept coefficients are repaired to a nonnegative density of
unit mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, is_integer
from .linalg import SpectrumSample
from .metrics import checked_density

__all__ = [
    "DensityModel",
    "estimate_support_edges",
    "chebyshev_coefficients",
    "chebyshev_coefficients_from_grid",
    "repair_positivity_mass",
    "fit_density",
]

_PROJECTION_GRID = 4096  # midpoint nodes in theta = arccos(t) for grid projections
_REPAIR_GRID = 2048  # Chebyshev-distributed constraint points
_REPAIR_TOL_NEG = 1e-9  # most negative density the repair accepts
_REPAIR_TOL_MASS = 1e-6  # largest mass error the repair accepts
_REPAIR_ITER = 500  # projected-gradient steps before the blend fallback
_REPAIR_STEP = 1e-2  # gradient step, relative to the coefficient norm
_PAD_SCALE = 0.5  # edge padding in units of width * n^{-2/3}
_DEGENERATE_PAD = 1e-3  # half-width, times n, around a fully degenerate spectrum
_K_MIN, _K_CAP = 4, 6  # range of the tail cutoff order


def _affine_to_unit(x, support):
    lo, hi = support
    return (2.0 * np.asarray(x) - (hi + lo)) / (hi - lo)


def chebyshev_nodes(support, count, margin=0.0):
    """``count`` Chebyshev nodes, increasing, on ``support`` widened by
    ``margin`` of its width (half on each side)."""
    lo, hi = support
    pad = 0.5 * margin * (hi - lo)
    theta = np.pi * (np.arange(count) + 0.5) / count
    # cos is decreasing on (0, pi), so the reversed nodes increase
    return (0.5 * (lo - pad + hi + pad) + 0.5 * (hi - lo + 2 * pad) * np.cos(theta))[::-1]


def _check_order(k_max):
    """``InputError`` unless ``k_max`` is an integer >= 0."""
    if not is_integer(k_max) or k_max < 0:
        raise InputError(f"polynomial order must be >= 0 and an integer, got {k_max!r}")


def _chebyshev_u_matrix(t, k_max):
    """Rows U_0(t) .. U_kmax(t) via the three-term recurrence."""
    t = np.asarray(t)
    out = np.empty((k_max + 1,) + t.shape, dtype=t.dtype)
    out[0] = 1.0
    if k_max >= 1:
        out[1] = 2.0 * t
    for k in range(2, k_max + 1):
        out[k] = 2.0 * t * out[k - 1] - out[k - 2]
    return out


@dataclass(frozen=True)
class DensityModel:
    """Smoothed spectral density on a compact support interval.

    ``psi`` holds the coefficients up to the last nonzero one, trailing
    zeros dropped.  They are finite with psi_0 > 0 (else ``InputError``):
    every model, fitted, loaded or built, has the positive mass pi W psi_0 / 4.
    """

    support: tuple[float, float]
    basis: str  # always 'chebyshev-u', the one basis with an evaluator
    psi: np.ndarray
    degenerate_support: bool = False
    repaired: bool = False
    repair_warning: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.support
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InputError("support must be finite with lo < hi")
        if self.basis != "chebyshev-u":
            raise InputError(f"unknown basis {self.basis!r}; only 'chebyshev-u' is supported")
        psi = np.asarray(self.psi, dtype=float)
        if psi.ndim != 1 or psi.size == 0:
            raise InputError("model coefficients must be a non-empty list of numbers")
        if not (np.isfinite(psi).all() and psi[0] > 0):
            raise InputError("model coefficients must be finite with psi_0 > 0 (a positive mass)")
        object.__setattr__(self, "psi", np.trim_zeros(psi, "b"))

    @property
    def order(self):
        return self.psi.size - 1

    @property
    def width(self):
        return self.support[1] - self.support[0]

    def coefficients_effective(self):
        """The expansion coefficients ``psi``."""
        return self.psi

    def density(self, x):
        """Model density at a point or a 1-d array ``x``; zero outside the
        support.  The same arithmetic :func:`repair_positivity_mass` checks."""
        vals = self.psi @ _basis_matrix(self.support, x, self.order)
        return vals if vals.ndim else float(vals)

    def mass(self):
        """Total integral of the model density (closed form, exact)."""
        return float(self.psi[0] * np.pi * self.width / 4.0)


def chebyshev_coefficients(sample, support, k_max):
    """Moment-estimated Chebyshev-U coefficients from raw eigenvalues.

    psi_k = 4 / (pi n W) * sum_i U_k(M(lambda_i)), which is the unbiased
    projection estimator for the sqrt-weighted Chebyshev expansion.
    """
    _check_order(k_max)
    lo, hi = support[0], support[1]
    ev = sample.eigenvalues
    if ev[0] < lo or ev[-1] > hi:
        raise InputError("support must enclose all eigenvalues")
    t = _affine_to_unit(ev, (lo, hi))
    u = _chebyshev_u_matrix(t, k_max)
    return 4.0 / (np.pi * ev.size * (hi - lo)) * u.sum(axis=1)


def chebyshev_coefficients_from_grid(x, rho, support, k_max):
    """Chebyshev-U coefficients of density samples given on a grid.

    psi_k = 4 / (pi W) * integral rho(x) U_k(M(x)) dx.  With t = M(x) =
    cos(theta) this is (2 / pi) * integral_0^pi rho sin((k + 1) theta) dtheta,
    whose integrand stays smooth at the square-root edges; the midpoint rule
    in theta evaluates it, psi_k = (2 / N) * sum_j rho(cos theta_j)
    sin((k + 1) theta_j), on ``rho`` linearly interpolated at the N nodes.
    The grid counterpart of :func:`chebyshev_coefficients`.
    """
    _check_order(k_max)
    x, rho = checked_density(x, rho)
    theta = np.pi * (np.arange(_PROJECTION_GRID) + 0.5) / _PROJECTION_GRID
    rho_theta = np.interp(np.cos(theta), _affine_to_unit(x, support), rho)
    sines = np.sin(np.outer(np.arange(1, k_max + 2), theta))
    return 2.0 / _PROJECTION_GRID * (sines @ rho_theta)


def repair_positivity_mass(model):
    """Project a model onto the feasible set {density >= 0, mass = 1}.

    Feasible inputs are returned unchanged and pure mass violations are
    fixed by exact rescaling.  Otherwise a penalized projected-gradient
    descent runs from the current coefficients and returns its first
    feasible iterate; if it reaches none, the result is blended toward the
    single-mode (pure weight function) model, which is strictly positive,
    with the largest weight on the model that keeps the density nonnegative
    at the constraint points, and flagged.

    Only the model's own coefficients move, so a tail cut by
    :func:`truncate_tail` is not refilled.
    """
    grid = chebyshev_nodes(model.support, _REPAIR_GRID)  # dense where edge behaviour matters
    basis = _basis_matrix(model.support, grid, model.order)
    mass_vec = np.zeros(model.psi.size)
    mass_vec[0] = np.pi * model.width / 4.0

    def density_of(psi):
        return psi @ basis

    def repaired(psi, **flags):
        return replace(model, psi=psi, repaired=True, **flags)

    psi0 = model.psi
    rho0 = density_of(psi0)
    mass0 = float(mass_vec @ psi0)
    if rho0.min() >= -_REPAIR_TOL_NEG and abs(mass0 - 1.0) <= _REPAIR_TOL_MASS:
        return model
    if rho0.min() >= -_REPAIR_TOL_NEG * mass0:
        return repaired(psi0 / mass0)

    scale = np.linalg.norm(psi0)
    psi = psi0.copy()
    for _ in range(_REPAIR_ITER):
        neg = np.minimum(density_of(psi) + _REPAIR_TOL_NEG, 0.0)
        mass_err = float(mass_vec @ psi) - 1.0
        grad = 2.0 * (basis @ neg) / grid.size + 2.0 * mass_err * mass_vec
        gnorm = np.linalg.norm(grad)
        if gnorm == 0:
            break
        psi = psi - _REPAIR_STEP * scale * grad / gnorm
        m = float(mass_vec @ psi)
        if m > 0.1:
            psi = psi / m
            if density_of(psi).min() >= -_REPAIR_TOL_NEG:
                return repaired(psi / float(mass_vec @ psi), repair_warning=False)

    # Blend toward the strictly positive single-mode model: theta psi0 +
    # (1 - theta) floor is nonnegative at a node where rho0 < 0 up to
    # theta = f / (f - rho0), f the floor's density there.
    floor = np.zeros_like(psi0)
    floor[0] = 1.0 / mass_vec[0]
    f, neg = density_of(floor), rho0 < 0
    theta = np.min(f[neg] / (f[neg] - rho0[neg])) if neg.any() else 0.0
    cand = theta * psi0 + (1.0 - theta) * floor
    return repaired(cand / float(mass_vec @ cand), repair_warning=True)


def _basis_matrix(support, x, order):
    t = _affine_to_unit(x, support)
    t = np.clip(t, -1.0, 1.0)
    return np.sqrt(np.maximum(1.0 - t * t, 0.0)) * _chebyshev_u_matrix(t, order)


def estimate_support_edges(sample):
    """Support ``(lo, hi, degenerate)`` with Tracy-Widom-scaled edge padding.

    The extreme eigenvalues sit O(n^{-2/3}) inside the limiting edges and,
    placed exactly on the interval boundary, make the moment estimator's
    high-order coefficients grow linearly in the order.  Padding each side
    by ``0.5 * width * n^{-2/3}`` fixes both problems.  A fully degenerate
    spectrum (all eigenvalues equal) gets a small interval around its value
    and is flagged.
    """
    ev = sample.eigenvalues
    raw = ev[-1] - ev[0]
    if raw <= 0:
        half = max(_DEGENERATE_PAD / ev.size, 0.5e-8 * (1.0 + abs(ev[0])))
        return ev[0] - half, ev[0] + half, True
    pad = _PAD_SCALE * raw * ev.size ** (-2.0 / 3.0)
    return ev[0] - pad, ev[-1] + pad, False


def truncate_tail(psi):
    """The coefficients before the noise-dominated tail.

    The cutoff is the last coefficient above 2.5 times a robust noise floor
    estimated from the upper half of the sequence, clamped to [4, 6] and to
    the series' own order.  Estimated tails otherwise feed the Pade
    continuation pure noise, which it amplifies into spurious pole structure.
    """
    psi = np.asarray(psi, dtype=float)
    half = np.sort(np.abs(psi[psi.size // 2 :]))  # the median by hand: np.median imports numpy.ma
    floor = 1.4826 * ((half[(half.size - 1) // 2] + half[half.size // 2]) / 2)
    above = np.where(np.abs(psi) > 2.5 * floor)[0]
    k_eff = int(np.clip(above.max() if above.size else _K_MIN, _K_MIN, _K_CAP))
    return psi[: k_eff + 1]


def fit_density(sample, k_max=50):
    """Fit a DensityModel to an eigenvalue sample.

    The support pads the extreme eigenvalues on the Tracy-Widom scale
    (:func:`estimate_support_edges`).  The Chebyshev-U coefficients come
    from the direct moment estimator on the eigenvalues
    (:func:`chebyshev_coefficients`); their noise-dominated high orders,
    which analytic continuation would amplify, are cut
    (:func:`truncate_tail`), and the kept ones are made a nonnegative
    density of unit mass (:func:`repair_positivity_mass`).
    """
    if not isinstance(sample, SpectrumSample):
        raise InputError("fit_density expects a SpectrumSample")
    lo, hi, degenerate = estimate_support_edges(sample)
    psi = truncate_tail(chebyshev_coefficients(sample, (lo, hi), k_max))
    model = DensityModel(
        support=(lo, hi),
        basis="chebyshev-u",
        psi=psi,
        degenerate_support=degenerate,
        meta={"n_s": sample.eigenvalues.size, "k_max": int(k_max), "k_eff": psi.size - 1},
    )
    return repair_positivity_mass(model)
