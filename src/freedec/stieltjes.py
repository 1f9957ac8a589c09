"""Branch-aware Stieltjes transform evaluators.

Estimators of m(z) = integral rho(x)/(x - z) dx for a compactly supported
density:

* Pade-Chebyshev, the evaluator for fitted models: the Chebyshev-U
  expansion of rho turns the transform into a power series in the inverse
  Joukowski variable, evaluated through Wynn's epsilon algorithm so it
  keeps working outside the series' disk of convergence.  This gives the
  second-sheet continuation used by the characteristic solver for free.
* Law: the closed-form transform of a benchmark ensemble law.
* Lanczos: the continued-fraction resolvent approximation built from a
  matrix, for diagnostics and baselines.

All evaluators share the same interface: ``evaluate(z, branch)`` with branch
'principal' (cut on the support) or 'secondary' (continued through the cut,
discontinuous on the real axis outside it), plus ``derivative`` for Newton
solvers and ``density`` for the underlying model where available.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import ensembles
from .density_fit import _affine_to_unit
from .errors import InputError
from .linalg import make_rng, _check_symmetric

__all__ = [
    "joukowski",
    "joukowski_inverse",
    "wynn_epsilon",
    "ChebyshevPadeEvaluator",
    "LanczosEvaluator",
    "LawEvaluator",
    "lanczos_tridiagonal",
    "lanczos_stieltjes",
    "evaluator_for_model",
]


def joukowski(w):
    """j(w) = (w + 1/w) / 2."""
    w = np.asarray(w, dtype=complex)
    out = 0.5 * (w + 1.0 / w)
    return out if out.ndim else complex(out)


def _sqrt_cut(z):
    # sqrt(z^2 - 1) with the cut on [-1, 1] and s(z) ~ z at infinity;
    # the principal-root product keeps each factor's cut on the negative axis.
    return np.sqrt(z - 1.0) * np.sqrt(z + 1.0)


def joukowski_inverse(z):
    """Principal inverse Joukowski J(z) = z - sqrt(z^2 - 1).

    The square-root branch is cut on [-1, 1] and behaves like z at infinity,
    so |J| <= 1 away from the cut and j(J(z)) = z exactly.  Real inputs
    inside (-1, 1) evaluate to the upper-half-plane limit.
    """
    z = np.asarray(z, dtype=complex)
    on_cut = (z.imag == 0) & (np.abs(z.real) < 1)
    zs = np.where(on_cut, z + 1e-300j, z)
    out = zs - _sqrt_cut(zs)
    return out if out.ndim else complex(out)


def _joukowski_second_sheet(z):
    """Continuation of J through (-1, 1): z + sqrt(z^2 - 1) below the axis."""
    z = np.asarray(z, dtype=complex)
    s = _sqrt_cut(z)
    out = np.where(z.imag < 0, z + s, z - s)
    return out if out.ndim else complex(out)


def wynn_epsilon(coeffs, z, breakdown=1e-300, return_info=False):
    """Evaluate sum_k c_k z^k through Wynn's epsilon table.

    The table reproduces rational functions exactly and analytically
    continues the series outside its disk of convergence.  Partial sums are
    accumulated with compensated summation; table entries whose update would
    divide by a difference below ``breakdown`` are frozen.  Per evaluation
    point the returned value is the stablest even-column entry: successive
    entries along the top diagonal first approach the limit and then degrade
    once roundoff (or coefficient noise) is amplified, so the entry with the
    smallest jump from its predecessor wins.

    Parameters
    ----------
    coeffs : sequence of complex
    z : complex or ndarray
    return_info : bool
        Also return (depth, breakdown_flag) arrays.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size < 1:
        raise InputError("need at least one series coefficient")
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    zf = z.ravel()
    npts = zf.size
    n = coeffs.size

    # Compensated (Kahan) accumulation of the partial sums.
    sums = np.empty((n, npts), dtype=complex)
    acc = np.zeros(npts, dtype=complex)
    comp = np.zeros(npts, dtype=complex)
    power = np.ones(npts, dtype=complex)
    for k in range(n):
        term = coeffs[k] * power - comp
        total = acc + term
        comp = (total - acc) - term
        acc = total
        sums[k] = acc
        power = power * zf

    if n == 1:
        result = sums[0].reshape(shape)
        if return_info:
            return result, np.zeros(shape, dtype=int), np.zeros(shape, dtype=bool)
        return result if shape else complex(result)

    col_prev = np.zeros((n, npts), dtype=complex)  # epsilon_{-1}
    col_curr = sums  # epsilon_0
    valid = np.ones((n, npts), dtype=bool)
    best = sums[-1].copy()
    best_jump = np.full(npts, np.inf)
    prev_cand = sums[0].copy()
    have_prev = np.ones(npts, dtype=bool)
    depth = np.zeros(npts, dtype=int)
    broke = np.zeros(npts, dtype=bool)

    for j in range(1, n):
        rows = n - j
        diff = col_curr[1 : rows + 1] - col_curr[:rows]
        bad = (np.abs(diff) < breakdown) | ~np.isfinite(diff)
        safe = np.where(bad, 1.0, diff)
        col_next = col_prev[1 : rows + 1] + 1.0 / safe
        v = valid[1 : rows + 1] & valid[:rows] & ~bad & np.isfinite(col_next)
        if j % 2 == 0:
            cand = col_next[0]
            jump = np.abs(cand - prev_cand)
            take = v[0] & have_prev & (jump <= best_jump)
            best = np.where(take, cand, best)
            best_jump = np.where(take, jump, best_jump)
            depth = np.where(take, j, depth)
            prev_cand = np.where(v[0], cand, prev_cand)
            have_prev = v[0]
        broke |= bad.any(axis=0)
        col_prev = col_curr
        col_curr = col_next
        valid = v
        if not valid.any():
            break

    result = best.reshape(shape)
    if return_info:
        return result, depth.reshape(shape), broke.reshape(shape)
    return result if shape else complex(result)


# ----------------------------------------------------------------------
# evaluators


class ChebyshevPadeEvaluator:
    """Second-sheet Stieltjes evaluator for Chebyshev-U density models.

    m(z) = -pi Lambda(J(M(z))) with Lambda(w) = sum_k c_k w^{k+1}; the
    series is evaluated through Wynn's epsilon table (a Pade approximant),
    which converges on both Joukowski sheets, so continuing through the
    support cut only requires switching the J branch below the axis.

    Trailing zero coefficients (the tail cut by ``truncate_tail``) are
    dropped before evaluation: they leave the series unchanged but would
    lengthen every epsilon table.
    """

    method = "pade-chebyshev"
    # Deep epsilon-table entries carry roundoff amplified to ~1e-9; root
    # finders should not demand residuals below this.
    residual_scale = 1e-9

    def __init__(self, model):
        self.model = model
        self.support = model.support
        coeffs = model.psi
        nonzero = np.flatnonzero(coeffs)
        self.coeffs = coeffs[: nonzero[-1] + 1 if nonzero.size else 1]

    def evaluate(self, z, branch="secondary"):
        z = np.asarray(z, dtype=complex)
        u = _affine_to_unit(z, self.support)
        if branch == "principal":
            w = joukowski_inverse(u)
        elif branch == "secondary":
            w = _joukowski_second_sheet(u)
        else:
            raise InputError(f"unknown branch {branch!r}")
        w = np.asarray(w, dtype=complex)
        out = -np.pi * w * wynn_epsilon(self.coeffs, w)
        return out if np.ndim(out) else complex(out)

    def derivative(self, z, branch="secondary"):
        z = np.asarray(z, dtype=complex)
        h = 1e-6 * (1.0 + np.abs(z))
        out = (self.evaluate(z + h, branch) - self.evaluate(z - h, branch)) / (2.0 * h)
        return out if np.ndim(out) else complex(out)

    def density(self, x):
        return self.model.density(x)


class LawEvaluator:
    """Exact evaluator backed by a closed-form ensemble law."""

    method = "analytic"

    def __init__(self, law):
        self.law = law
        self.support = law.support

    def evaluate(self, z, branch="secondary"):
        return ensembles.law_stieltjes(self.law, z, branch)

    def derivative(self, z, branch="secondary"):
        return ensembles.law_stieltjes_derivative(self.law, z, branch)

    def density(self, x):
        return ensembles.law_density(self.law, x)


# ----------------------------------------------------------------------
# Lanczos


def lanczos_tridiagonal(a, p, seed=None, start=None, reorthogonalize=True):
    """Lanczos tridiagonalization of a symmetric matrix.

    Returns (alphas, betas, p_eff): diagonal and off-diagonal coefficients,
    truncated early (p_eff < p) on exact breakdown, which means an invariant
    subspace was found and the quadrature is already exact.
    """
    a = _check_symmetric(a)
    n = a.shape[0]
    if not 1 <= p <= n:
        raise InputError(f"step count p={p} out of range [1, {n}]")
    if start is None:
        if seed is None:
            raise InputError("either a start vector or a seed is required")
        v = make_rng(seed).standard_normal(n)
    else:
        v = np.asarray(start, dtype=float).copy()
    v = v / np.linalg.norm(v)

    alphas = np.zeros(p)
    betas = np.zeros(max(p - 1, 0))
    basis = np.empty((p, n))
    basis[0] = v
    w = a @ v
    alphas[0] = v @ w
    w = w - alphas[0] * v
    for j in range(1, p):
        if reorthogonalize:
            w = w - basis[:j].T @ (basis[:j] @ w)
            w = w - basis[:j].T @ (basis[:j] @ w)
        b = np.linalg.norm(w)
        if b < 1e-14 * max(1.0, np.abs(alphas[: j]).max()):
            return alphas[:j], betas[: j - 1], j
        betas[j - 1] = b
        v = w / b
        basis[j] = v
        w = a @ v - b * basis[j - 1]
        alphas[j] = v @ w
        w = w - alphas[j] * v
    return alphas, betas, p


def lanczos_stieltjes(a, p, z, seed=None, start=None, reorthogonalize=True,
                      average=1, return_history=False):
    """Continued-fraction Stieltjes estimate m_p(z) = e1^T (T_p - z I)^-1 e1.

    ``average > 1`` repeats with independent random start vectors and
    averages, since a single start vector estimates the resolvent moment of
    that vector rather than the normalized trace; the two agree in
    expectation.  With ``p = n`` and full reorthogonalization the estimate
    is exact for the start vector's spectral measure.

    Returns the value (vectorized over ``z``), or ``(value, history)`` with
    the successive approximants m_1(z) .. m_p(z) when ``return_history``.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag == 0):
        raise InputError("Lanczos evaluation requires z off the real axis")
    if average > 1 and seed is None:
        raise InputError("averaging over start vectors requires a seed")
    rng = make_rng(seed) if seed is not None else None
    vals = []
    hist = None
    for rep in range(max(average, 1)):
        v0 = start if rep == 0 and start is not None else rng.standard_normal(a.shape[0])
        alphas, betas, p_eff = lanczos_tridiagonal(
            a, p, start=v0, reorthogonalize=reorthogonalize, seed=None
        )
        theta, vec = scipy.linalg.eigh_tridiagonal(alphas, betas)
        wts = vec[0] ** 2
        vals.append((wts[:, np.newaxis] / (theta[:, np.newaxis] - z.ravel())).sum(axis=0))
        if rep == 0 and return_history:
            hist = []
            for q in range(1, p_eff + 1):
                tq, vq = scipy.linalg.eigh_tridiagonal(alphas[:q], betas[: q - 1])
                wq = vq[0] ** 2
                hist.append((wq[:, np.newaxis] / (tq[:, np.newaxis] - z.ravel())).sum(axis=0))
            hist = np.array(hist).reshape((p_eff,) + z.shape)
    out = np.mean(vals, axis=0).reshape(z.shape)
    out = out if out.ndim else complex(out)
    if return_history:
        return out, hist
    return out


class LanczosEvaluator:
    """Evaluator wrapping the Lanczos continued fraction of a matrix.

    The continued fraction is a rational function with real poles, hence
    single-valued: both branch names return the same values.
    """

    method = "lanczos"

    def __init__(self, a, p, seed=None, start=None, reorthogonalize=True):
        alphas, betas, p_eff = lanczos_tridiagonal(
            a, p, seed=seed, start=start, reorthogonalize=reorthogonalize
        )
        theta, vec = scipy.linalg.eigh_tridiagonal(alphas, betas)
        self._nodes = theta
        self._weights = vec[0] ** 2
        self.steps = p_eff
        self.support = (float(theta.min()), float(theta.max()))

    def evaluate(self, z, branch="secondary"):
        z = np.asarray(z, dtype=complex)
        out = (self._weights[:, np.newaxis] / (self._nodes[:, np.newaxis] - z.ravel())).sum(axis=0)
        out = out.reshape(z.shape)
        return out if out.ndim else complex(out)

    def derivative(self, z, branch="secondary"):
        z = np.asarray(z, dtype=complex)
        out = (self._weights[:, np.newaxis] / (self._nodes[:, np.newaxis] - z.ravel()) ** 2).sum(axis=0)
        out = out.reshape(z.shape)
        return out if out.ndim else complex(out)


def evaluator_for_model(model):
    """The second-sheet evaluator for a fitted model: Pade-Chebyshev."""
    return ChebyshevPadeEvaluator(model)
