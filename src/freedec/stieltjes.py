"""Branch-aware Stieltjes transform evaluators.

Three estimators of m(z) = integral rho(x)/(x - z) dx for a compactly
supported density:

* Pade-Chebyshev: the Chebyshev-U expansion of rho turns the transform into
  a power series in the inverse Joukowski variable, evaluated through Wynn's
  epsilon algorithm so it keeps working outside the series' disk of
  convergence.  This gives the second-sheet continuation used by the
  characteristic solver for free.
* Jacobi + glue: per-mode Gauss-Jacobi quadrature above the real axis, with
  an additive rational glue function carrying the continuation below it.
* Lanczos: the continued-fraction resolvent approximation built from a
  matrix, for diagnostics and baselines.

All evaluators share the same interface: ``evaluate(z, branch)`` with branch
'principal' (cut on the support) or 'secondary' (continued through the cut,
discontinuous on the real axis outside it), plus ``derivative`` for Newton
solvers and ``density`` for the underlying model where available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg
from scipy.special import roots_jacobi

from . import ensembles
from .density_fit import DensityModel, _affine_to_unit, _chebyshev_u_matrix, _jacobi_matrix
from .errors import InputError, NumericalError
from .linalg import make_rng, _check_symmetric

__all__ = [
    "joukowski",
    "joukowski_inverse",
    "wynn_epsilon",
    "GlueFunction",
    "fit_glue",
    "ChebyshevPadeEvaluator",
    "JacobiGlueEvaluator",
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
# glue function


@dataclass(frozen=True)
class GlueFunction:
    """Rational correction G(z) = d + c z + sum_j r_j / (z - a_j).

    Chosen so that m_secondary = -m_principal + G is continuous through the
    support cut: G is real on the support interval with Re G = 2 H[rho]
    there, and all poles a_j are real and lie outside the support interior.
    """

    d: float
    c: float
    poles: np.ndarray
    residues: np.ndarray
    residual: float = 0.0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = self.d + self.c * z
        for a, r in zip(self.poles, self.residues):
            out = out + r / (z - a)
        return out if out.ndim else complex(out)


def _model_hilbert(model, x):
    """Hilbert transform of a DensityModel on its support interior."""
    x = np.asarray(x, dtype=float)
    t = _affine_to_unit(x, model.support)
    coef = model.coefficients_effective()
    if model.basis == "chebyshev-u":
        # Re of -pi Lambda(J) on the cut: J = exp(-i theta) turns the series
        # into a cosine sum, i.e. Chebyshev-T values.
        theta = np.arccos(np.clip(t, -1.0, 1.0))
        k = np.arange(coef.size)[:, np.newaxis]
        return -np.pi * np.tensordot(coef, np.cos((k + 1) * theta), axes=(0, 0))
    out = np.zeros_like(x)
    w0 = _jacobi_weight_pv(t, model.alpha, model.beta)
    for k, ck in enumerate(coef):
        if ck == 0.0:
            continue
        out += ck * _jacobi_mode_pv(t, k, model.alpha, model.beta, w0)
    return (2.0 / model.width) * out


def _jacobi_weight_pv(t, alpha, beta):
    # W0(t0) = p.v. integral of w(s) / (s - t0) ds, by adaptive quadrature.
    out = np.empty_like(t)
    for i, t0 in enumerate(t):
        val, _ = scipy.integrate.quad(
            lambda s: (1.0 - s) ** alpha * (1.0 + s) ** beta,
            -1.0,
            1.0,
            weight="cauchy",
            wvar=t0,
        )
        out[i] = val
    return out


def _jacobi_mode_pv(t, k, alpha, beta, w0):
    # p.v. integral of w P_k / (s - t0) = regular part + P_k(t0) W0(t0);
    # the regular part integrates a degree k-1 polynomial exactly.
    nodes, weights = roots_jacobi(max(k, 1), alpha, beta)
    pk_nodes = _jacobi_matrix(nodes, k, alpha, beta)[k]
    pk_t = _jacobi_matrix(t, k, alpha, beta)[k]
    diff = nodes[np.newaxis, :] - t[:, np.newaxis]
    tiny = np.abs(diff) < 1e-12
    if tiny.any():
        # evaluation point on a node: the difference quotient tends to P_k'
        h = 1e-7
        dpk = (_jacobi_matrix(t + h, k, alpha, beta)[k] - _jacobi_matrix(t - h, k, alpha, beta)[k]) / (2 * h)
        quotient = np.where(
            tiny,
            np.broadcast_to(dpk[:, np.newaxis], diff.shape),
            (pk_nodes[np.newaxis, :] - pk_t[:, np.newaxis]) / np.where(tiny, 1.0, diff),
        )
    else:
        quotient = (pk_nodes[np.newaxis, :] - pk_t[:, np.newaxis]) / diff
    regular = quotient @ weights
    return regular + pk_t * w0


def _law_pole_candidates(law):
    qc = law.q
    if qc.size >= 3 and abs(qc[2]) > 1e-14:
        disc = qc[1] ** 2 - 4 * qc[2] * qc[0]
        if disc >= 0:
            s = np.sqrt(disc)
            return [(-qc[1] + s) / (2 * qc[2]), (-qc[1] - s) / (2 * qc[2])]
        return []
    if qc.size >= 2 and abs(qc[1]) > 1e-14:
        return [-qc[0] / qc[1]]
    return []


def fit_glue(source, q=4, grid_size=256):
    """Fit a rational glue function matching 2 H[rho] on the support.

    ``source`` may be a DensityModel or an EnsembleLaw.  The continuation
    quality hinges on extrapolating correctly off the support, so the fit is
    parsimonious: pole counts 0..q are tried in turn, each with nonlinearly
    optimized pole positions (kept outside the support by an exponential
    reparametrization) and linearly solved (d, c, residues), and the
    smallest count that reaches the achievable residual plateau wins.
    Least squares over the support grid also averages out estimator noise
    carried by the Hilbert-transform target.
    """
    if isinstance(source, ensembles.EnsembleLaw):
        lo, hi = source.support
        x = _cheb_interior(lo, hi, grid_size)
        target = 2.0 * ensembles.law_hilbert(source, x)
        seeds = [p for p in _law_pole_candidates(source) if not lo <= p <= hi]
    elif isinstance(source, DensityModel):
        lo, hi = source.support
        x = _cheb_interior(lo, hi, grid_size)
        target = 2.0 * _model_hilbert(source, x)
        seeds = []
    else:
        raise InputError("fit_glue expects a DensityModel or EnsembleLaw")

    import scipy.optimize

    width = hi - lo
    scale = max(float(np.max(np.abs(target))), 1e-30)

    def linear_solve(poles):
        cols = [np.ones_like(x), x] + [1.0 / (x - a) for a in poles]
        a_mat = np.stack(cols, axis=1)
        sol, *_ = np.linalg.lstsq(a_mat, target, rcond=None)
        rms = float(np.sqrt(np.mean((a_mat @ sol - target) ** 2)))
        return sol, rms

    def unpack(params, pole_sides):
        offs = np.exp(np.clip(params, -30.0, 30.0)) * width
        return np.where(np.asarray(pole_sides) < 0, lo - offs, hi + offs)

    def refine(start_offsets, pole_sides):
        def resid_fn(params):
            sol, _ = linear_solve(unpack(params, pole_sides))
            poles = unpack(params, pole_sides)
            cols = [np.ones_like(x), x] + [1.0 / (x - a) for a in poles]
            return np.stack(cols, axis=1) @ sol - target

        p0 = np.log(np.maximum(start_offsets, 1e-8))
        try:
            opt = scipy.optimize.least_squares(resid_fn, p0, method="lm", max_nfev=120)
            poles = unpack(opt.x, pole_sides)
        except Exception:
            poles = unpack(p0, pole_sides)
        sol, rms = linear_solve(poles)
        return rms, poles, sol

    # candidate single-pole starts: exterior grid plus law-structure seeds
    base = [(-1, 0.05), (-1, 0.25), (-1, 1.0), (1, 0.05), (1, 0.25), (1, 1.0)]
    for p in seeds:
        side = -1 if p < lo else 1
        base.append((side, max((lo - p) / width if side < 0 else (p - hi) / width, 1e-7)))

    fits = []
    sol0, rms0 = linear_solve(np.empty(0))
    fits.append((rms0, np.empty(0), sol0))
    for npoles in range(1, q + 1):
        start_sets = (
            [[b] for b in base]
            if npoles == 1
            else [base[i : i + npoles] for i in range(len(base) - npoles + 1)]
        )
        cand = None
        for start in start_sets:
            sides = [s for s, _ in start]
            offs = np.array([o for _, o in start])
            fit = refine(offs, sides)
            if cand is None or fit[0] < cand[0]:
                cand = fit
        fits.append(cand)
        if cand[0] <= 1e-10 * scale:
            break

    best_rms = min(f[0] for f in fits)
    # Parsimony: extrapolation off the support degrades with extra poles, so
    # take the smallest pole count within a factor of two of the best fit.
    rms, poles, sol = next(f for f in fits if f[0] <= max(2.0 * best_rms, 1e-12 * scale))
    keep = np.abs(sol[2:]) > 1e-10 * scale
    if poles.size and not keep.all():
        poles = poles[keep]
        sol, rms = linear_solve(poles)
    return GlueFunction(d=float(sol[0]), c=float(sol[1]), poles=poles,
                        residues=sol[2:].copy(), residual=rms)


def _cheb_interior(lo, hi, n):
    theta = np.pi * (np.arange(n) + 0.5) / n
    pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * 0.9995 * np.cos(theta)
    return np.sort(pts)


# ----------------------------------------------------------------------
# evaluators


class ChebyshevPadeEvaluator:
    """Second-sheet Stieltjes evaluator for Chebyshev-U density models.

    m(z) = -pi Lambda(J(M(z))) with Lambda(w) = sum_k c_k w^{k+1}; the
    series is evaluated through Wynn's epsilon table (a Pade approximant),
    which converges on both Joukowski sheets, so continuing through the
    support cut only requires switching the J branch below the axis.

    With a ``glue`` function attached, the lower half-plane instead uses the
    additive continuation m = -m_principal + G.  For coefficients estimated
    from finite samples this is far more robust: the direct two-sheet Pade
    route amplifies coefficient noise exponentially in the mode index, while
    the glue confines the continuation to a low-dimensional rational whose
    fit averages the noise out.
    """

    method = "pade-chebyshev"
    # Deep epsilon-table entries carry roundoff amplified to ~1e-9; root
    # finders should not demand residuals below this.
    residual_scale = 1e-9

    def __init__(self, model, depth=None, glue=None):
        if model.basis != "chebyshev-u":
            raise InputError("Pade-Chebyshev evaluation needs a Chebyshev-U model")
        self.model = model
        self.support = model.support
        self.coeffs = model.coefficients_effective()
        self.pade_depth = depth if depth is not None else self.coeffs.size // 2
        self.glue = glue

    def evaluate(self, z, branch="secondary"):
        z = np.asarray(z, dtype=complex)
        u = _affine_to_unit(z, self.support)
        if branch == "principal" or self.glue is not None:
            w = joukowski_inverse(u)
        elif branch == "secondary":
            w = _joukowski_second_sheet(u)
        else:
            raise InputError(f"unknown branch {branch!r}")
        w = np.asarray(w, dtype=complex)
        val = wynn_epsilon(self.coeffs, w)
        out = -np.pi * w * val
        if branch == "secondary" and self.glue is not None:
            zz = np.atleast_1d(z)
            mm = np.atleast_1d(out)
            lower = zz.imag < 0
            if lower.any():
                mm = np.where(lower, -mm + self.glue(zz), mm)
            out = mm.reshape(z.shape) if z.ndim else mm[0]
        return out if np.ndim(out) else complex(out)

    def derivative(self, z, branch="secondary"):
        z = np.asarray(z, dtype=complex)
        h = 1e-6 * (1.0 + np.abs(z))
        out = (self.evaluate(z + h, branch) - self.evaluate(z - h, branch)) / (2.0 * h)
        return out if np.ndim(out) else complex(out)

    def density(self, x):
        return self.model.density(x)


class JacobiGlueEvaluator:
    """Gauss-Jacobi quadrature evaluator with explicit glue continuation.

    Each expansion mode gets its own quadrature rule with
    n_k = max(k + 1, n0) nodes; evaluating modes separately keeps high
    orders stable.  Below the real axis the secondary branch is
    -m_principal + G with the fitted glue function G.
    """

    method = "jacobi-glue"

    def __init__(self, model, glue=None, n0=64):
        if model.basis != "jacobi":
            raise InputError("Jacobi-glue evaluation needs a Jacobi-basis model")
        self.model = model
        self.support = model.support
        self.glue = glue if glue is not None else fit_glue(model)
        self.coeffs = model.coefficients_effective()
        self.node_counts = [max(k + 1, n0) for k in range(self.coeffs.size)]
        self._rules = []
        for k, nk in enumerate(self.node_counts):
            nodes, weights = roots_jacobi(nk, model.alpha, model.beta)
            pk = _jacobi_matrix(nodes, k, model.alpha, model.beta)[k]
            self._rules.append((nodes, weights * pk))

    def _principal(self, u):
        out = np.zeros_like(u, dtype=complex)
        for k, (ck, (nodes, wpk)) in enumerate(zip(self.coeffs, self._rules)):
            if ck == 0.0:
                continue
            diff = nodes[np.newaxis, :] - u.ravel()[:, np.newaxis]
            if (np.abs(diff) < 1e-12).any():
                # Node collision: re-evaluate the mode on a shifted rule.
                nodes2, weights2 = roots_jacobi(len(nodes) + 1, self.model.alpha, self.model.beta)
                pk2 = _jacobi_matrix(nodes2, k, self.model.alpha, self.model.beta)[k]
                diff = nodes2[np.newaxis, :] - u.ravel()[:, np.newaxis]
                out += ck * ((weights2 * pk2)[np.newaxis, :] / diff).sum(axis=1).reshape(u.shape)
            else:
                out += ck * (wpk[np.newaxis, :] / diff).sum(axis=1).reshape(u.shape)
        return (2.0 / self.model.width) * out

    def evaluate(self, z, branch="secondary"):
        z = np.asarray(z, dtype=complex)
        u = np.atleast_1d(_affine_to_unit(z, self.support)).astype(complex)
        on_axis = u.imag == 0
        if on_axis.any():
            u = np.where(on_axis, u + 1e-12j, u)
        m = self._principal(u).reshape(z.shape) if z.ndim else self._principal(u)[0]
        if branch == "principal":
            out = m
        elif branch == "secondary":
            zz = np.atleast_1d(z)
            mm = np.atleast_1d(m)
            lower = zz.imag < 0
            if lower.any():
                mm = np.where(lower, -mm + self.glue(zz), mm)
            out = mm.reshape(z.shape) if z.ndim else mm[0]
        else:
            raise InputError(f"unknown branch {branch!r}")
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


def evaluator_for_model(model, glue=None):
    """Pick the natural evaluator for a fitted model."""
    if model.basis == "chebyshev-u":
        return ChebyshevPadeEvaluator(model, glue=glue)
    return JacobiGlueEvaluator(model, glue=glue)
