"""Branch-aware Stieltjes transform evaluators.

Estimators of m(z) = integral rho(x)/(x - z) dx for a compactly supported
density:

* Pade-Chebyshev, the evaluator for fitted models: the Chebyshev-U
  expansion of rho turns the transform into a power series in the inverse
  Joukowski variable.  Its diagonal Pade approximants, solved once per
  model, keep working outside the series' disk of convergence, which gives
  the second-sheet continuation used by the characteristic solver for free.
* Law: the closed-form transform of a benchmark ensemble law.

All evaluators share the same interface: ``evaluate(z, branch)`` with branch
'principal' (cut on the support) or 'secondary' (continued through the cut,
discontinuous on the real axis outside it), plus ``derivative`` for Newton
solvers, and ``density`` for the underlying model.  The law evaluator also
offers ``decompressed(ratio)``, the decompressed law in closed form; it
raises ``InputError`` for a ratio outside the law's decompression domain.
"""

from __future__ import annotations

import numpy as np

from . import ensembles
from .density_fit import _affine_to_unit
from .errors import InputError

__all__ = [
    "joukowski",
    "joukowski_inverse",
    "ChebyshevPadeEvaluator",
    "LawEvaluator",
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


# ----------------------------------------------------------------------
# evaluators


def _diagonal_pade(coeffs):
    """Diagonal Pade approximants [k/k] of the power series sum_i c_i w^i.

    Returns ``(num, den, breakdown)``.  Row k of the coefficient matrices
    (low degree first, zero-padded to the series length) is [k/k] for
    k = 1 .. floor((n - 1) / 2); row 0 is the plain partial sum.  Each
    denominator solves its k x k Toeplitz system by minimum-norm least
    squares (LAPACK gelsd; singular values below eps times the largest count
    as zero), so a series that is exactly rational of lower degree, whose
    deeper systems are singular, still gives that rational function.  [k/k]
    needs c_1 .. c_2k nonzero and finite; the list stops before the first k
    without them, and ``breakdown`` reports whether that cut it short.
    """
    n = coeffs.size
    k_max = (n - 1) // 2
    unusable = np.flatnonzero((coeffs[1:] == 0) | ~np.isfinite(coeffs[1:]))
    count = k_max if unusable.size == 0 else min(k_max, unusable[0] // 2)
    num = np.zeros((count + 1, n))
    den = np.zeros((count + 1, n))
    num[0] = coeffs
    den[0, 0] = 1.0
    for k in range(1, count + 1):
        steps = np.arange(k)
        toeplitz = coeffs[k + steps[:, np.newaxis] - steps]  # entry (i, j) is c_(k+i-j)
        rhs = -coeffs[k + 1 : 2 * k + 1]
        q = np.concatenate([[1.0], np.linalg.lstsq(toeplitz, rhs, rcond=np.finfo(float).eps)[0]])
        den[k, : k + 1] = q
        num[k, : k + 1] = np.convolve(q, coeffs[: k + 1])[: k + 1]
    return num, den, count < k_max


def _wynn_choice(vals, c0):
    """The approximant Wynn's jump rule picks at each point (row) of ``vals``.

    Column 0 of ``vals`` is the partial sum and column k the value of [k/k].
    The jump of a finite approximant is its distance from the last finite
    approximant before it, or from c_0 for the first; a non-finite
    approximant has none.  The choice is the last approximant with the
    smallest jump, or 0 at a point without a jump.  That is where a sweep
    over k ends that takes each approximant whose jump is no larger than
    every earlier one.
    """
    count = vals.shape[1] - 1
    seq = np.empty((count + 1, vals.shape[0]), dtype=complex)  # c_0, then one row per [k/k]
    seq[0] = c0
    seq[1:] = vals[:, 1:].T
    finite = np.isfinite(seq)
    ks = np.arange(count + 1)[:, np.newaxis]
    prev = seq[:-1]
    if not finite.all():
        # the last finite value before each row, c_0 counting as finite; the
        # accumulate is the costliest step, so it runs only when needed
        last = np.maximum.accumulate(np.where(finite, ks, 0), axis=0)
        prev = np.take_along_axis(seq, last[:-1], axis=0)
    jump = np.where(finite[1:], np.abs(seq[1:] - prev), np.nan)
    smallest = np.fmin.reduce(jump, axis=0, initial=np.nan)
    return np.maximum.reduce(np.where(jump == smallest, ks[1:], 0), axis=0, initial=0)


class ChebyshevPadeEvaluator:
    """Second-sheet Stieltjes evaluator for Chebyshev-U density models.

    m(z) = -pi w S(w) with w = J(M(z)) and S(w) = sum_k c_k w^k.  The
    diagonal Pade approximants of S are solved once, at construction
    (``approximant_count`` of them; ``breakdown`` when a zero coefficient
    cut the list short).  They converge on both Joukowski sheets, so
    continuing through the support cut only requires switching the J branch
    below the axis.  An even series, whose odd coefficients are all zero,
    has no [k/k] of its own (c_1 = 0 breaks the list at once); it is
    evaluated as S(w) = T(w^2) with the approximants of the series
    T(v) = sum_j c_2j v^j, which ``approximant_count`` and ``breakdown``
    then describe.

    Per evaluation point the approximant is chosen as Wynn's epsilon
    algorithm would, since successive approximants first approach the limit
    and then degrade once roundoff or coefficient noise is amplified: the
    jump of each finite approximant is measured from the last finite one
    before it (from c_0 for the first), and the choice is the last
    approximant with the smallest jump.  With no approximants, or no finite
    one, the partial sum is used.  The derivative is that of the chosen
    approximant.  Each point's value is independent of the other points in
    the call.

    Trailing zero coefficients (the tail cut by ``truncate_tail``) are
    dropped first: they leave the series and its approximants unchanged,
    but would widen every evaluation and read as a breakdown.
    """

    method = "pade-chebyshev"

    def __init__(self, model):
        self.model = model
        self.support = model.support
        coeffs = model.psi
        nonzero = np.flatnonzero(coeffs)
        self.coeffs = coeffs[: nonzero[-1] + 1 if nonzero.size else 1]
        self._even = not np.any(self.coeffs[1::2])
        series = self.coeffs[::2] if self._even else self.coeffs
        self._num, self._den, self.breakdown = _diagonal_pade(series)
        self.approximant_count = self._num.shape[0] - 1
        orders = np.arange(1, series.size)
        self._dnum = self._num[:, 1:] * orders
        self._dden = self._den[:, 1:] * orders

    def _chosen(self, z, branch):
        """Flat (w, u, powers of the series variable, chosen index, its value R, its denominator)."""
        u = _affine_to_unit(np.asarray(z, dtype=complex), self.support).ravel()
        if branch == "principal":
            w = joukowski_inverse(u)
        elif branch == "secondary":
            w = _joukowski_second_sheet(u)
        else:
            raise InputError(f"unknown branch {branch!r}")
        v = w * w if self._even else w
        # One row would take numpy's matrix-vector product, whose last bits
        # differ from the matrix-matrix product of a batch; a second copy of
        # the row keeps each point's value independent of its batch.
        n = v.size
        powers = np.vander(np.repeat(v, 2) if n == 1 else v, self._num.shape[1], increasing=True)
        num = (powers @ self._num.T)[:n]
        den = (powers @ self._den.T)[:n]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = num / den
            chosen = _wynn_choice(vals, self.coeffs[0])
        rows = np.arange(n)
        return w, u, powers[:n], chosen, vals[rows, chosen], den[rows, chosen]

    def evaluate(self, z, branch="secondary"):
        w, _, _, _, r, _ = self._chosen(z, branch)
        out = (-np.pi * w * r).reshape(np.shape(z))
        return out if out.ndim else complex(out)

    def derivative(self, z, branch="secondary"):
        """dm/dz = -pi (R + w R') w / (w - u) * 2 / (hi - lo) for the chosen approximant R."""
        w, u, powers, chosen, r, den = self._chosen(z, branch)
        dnum = np.einsum("ij,ij->i", powers[:, :-1], self._dnum[chosen])
        dden = np.einsum("ij,ij->i", powers[:, :-1], self._dden[chosen])
        dr = (dnum - r * dden) / den
        if self._even:
            dr = 2.0 * w * dr  # d/dw T(w^2) = 2 w T'(w^2)
        lo, hi = self.support
        out = -np.pi * (r + w * dr) * w / (w - u) * (2.0 / (hi - lo))
        out = out.reshape(np.shape(z))
        return out if out.ndim else complex(out)

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

    def decompressed(self, ratio):
        """The decompressed law in closed form; ``decompress_density`` uses it
        in place of the characteristic solve."""
        return ensembles.decompressed_law(self.law, ratio)


def evaluator_for_model(model):
    """The second-sheet evaluator for a fitted model: Pade-Chebyshev."""
    return ChebyshevPadeEvaluator(model)
