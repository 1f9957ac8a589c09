"""Branch-aware Stieltjes transform evaluators.

Estimators of m(z) = integral rho(x)/(x - z) dx for a compactly supported
density:

* Pade-Chebyshev, the evaluator for fitted models: the Chebyshev-U
  expansion of rho turns the transform into a power series in the inverse
  Joukowski variable.  Its diagonal Pade approximants, solved once per
  model, keep working outside the series' disk of convergence, which gives
  the second-sheet continuation for free.
* Law: the closed-form transform of a benchmark ensemble law.

All evaluators share the same interface: ``evaluate(z, branch)`` with branch
'principal' (cut on the support) or 'secondary' (continued through the cut,
discontinuous on the real axis outside it), ``density`` for the underlying
model, and ``decompressed(ratio)``, the decompressed transform with its
support.  For a law that is the decompressed law in closed form; for a
fitted model it is the followed root of one Pade approximant's
characteristic polynomial (``FollowedRoot``).  Both raise ``InputError``
for a ratio outside the decompression domain.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import ensembles
from .decompress import auto_grid, default_delta
from .density_fit import _affine_to_unit
from .errors import InputError, NumericalError

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

_TOP = 100.0  # start of the root follow, in source widths times the ratio
_TOP_NEWTON = 4  # Newton steps from w = 0 at the top
_HEIGHTS = 20  # geometric heights of the follow from the top to the target
_REFINE = 4  # how much finer the second follow of a flagged point steps
_POLISH = 30  # Newton steps onto a singular point the follow may have reached
_PROBE = 201  # points of the support probe
_PROBE_HEIGHT = 3e-3  # its height above the axis, in units of the evaluation offset delta
_SUPPORT_THRESHOLD = 1e-4  # support = where the density exceeds this fraction of its peak
_MASS_TOL = 1e-2  # largest mass error of an admissible approximant


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

    ``evaluate`` uses the deepest approximant (the partial sum when there
    is none), pointwise, so a point's value does not depend on the other
    points in the call.  ``decompressed(ratio)`` chooses the approximant a
    decompression uses.

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

    def evaluate(self, z, branch="secondary"):
        u = _affine_to_unit(np.asarray(z, dtype=complex), self.support).ravel()
        if branch == "principal":
            w = joukowski_inverse(u)
        elif branch == "secondary":
            w = _joukowski_second_sheet(u)
        else:
            raise InputError(f"unknown branch {branch!r}")
        k = self.approximant_count
        # far from the support the powers overflow; such points come out non-finite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v = w * w if self._even else w
            out = -np.pi * w * npoly.polyval(v, self._num[k]) / npoly.polyval(v, self._den[k])
        out = out.reshape(np.shape(z))
        return out if out.ndim else complex(out)

    def density(self, x):
        return self.model.density(x)

    def _in_w(self, k):
        """Numerator and denominator of [k/k] as polynomials in w (low degree first)."""
        num, den = (np.trim_zeros(p, "b") if p.any() else p[:1] for p in (self._num[k], self._den[k]))
        if self._even:
            num, den = (np.ravel(np.column_stack([p, np.zeros_like(p)]))[:-1] for p in (num, den))
        return num, den

    def decompressed(self, ratio, order=None):
        """The decompressed transform of the deepest admissible approximant.

        Approximants are tried deepest first (``FollowedRoot.admissible``).
        Raises ``InputError`` when none passes: the model has no
        decompression by ``ratio``.  With ``order``, the followed root of
        [order/order] is returned unchecked, with no ``support``.
        """
        if not np.isfinite(self.coeffs).all():
            raise NumericalError("decompression failed: the model has non-finite coefficients")
        r = float(ratio)
        if order is not None:
            return FollowedRoot(*self._in_w(order), self.support, r, order)
        delta = default_delta(self.support)
        for k in range(self.approximant_count, -1, -1):
            followed = FollowedRoot(*self._in_w(k), self.support, r, k)
            if followed.admissible(delta):
                return followed
        raise InputError(f"ratio {r:g} is outside the decompression domain of the model: "
                         "no Pade approximant gives a decompressed transform")


class FollowedRoot:
    """The decompressed transform of one Pade approximant S = N/D.

    With c and h the centre and half-width of the source support and
    a = r - 1, the characteristic equation x' = z - a / m(z) at a target x'
    is, in the Joukowski variable w (z = c + h (w + 1/w) / 2, m = -pi w S),
    the polynomial

        P(w) = pi N(w) (h w^2 + 2 (c - x') w + h) + 2 a D(w) = A(w) - x' B(w).

    High above the axis the physical root is the one with the smallest
    |w|, where z ~ x'.  ``stieltjes`` reaches it by Newton steps from
    w = 0 at height ``_TOP`` r source widths, then follows it down the
    vertical line through ``_HEIGHTS`` geometric heights: at each, an Euler
    step in x' (taken in 1/w) and three Newton steps on P.  A point whose
    Newton steps once moved it more than half its Euler step, or that ends
    unconverged, is followed again through ``_REFINE`` times as many
    heights; where that still ends unconverged, the transform is NaN.  The
    decompressed transform is m' = m(z) / r = -pi w N(w) / (r D(w)).

    ``order`` is k; ``support`` and ``harmless_branch_points`` are set by
    ``admissible``, which keeps the transform on the auto grid it measured
    the mass on, so a decompression on that grid does not follow it again.
    """

    def __init__(self, num, den, source_support, ratio, order):
        lo, hi = source_support
        c, h, a = 0.5 * (lo + hi), 0.5 * (hi - lo), ratio - 1.0
        self.num, self.den, self.ratio, self.order = num, den, ratio, order
        self.support, self.harmless_branch_points, self._on_grid = None, 0, None
        self._centre, self._half, self._a = c, h, a
        self._top = _TOP * ratio * (hi - lo)
        big = npoly.polyadd(np.pi * npoly.polymul(num, [h, 2.0 * c, h]), 2.0 * a * den)
        small = 2.0 * np.pi * npoly.polymulx(num)
        # coefficients of A, A', B and B', one column each (low degree first)
        table = np.zeros((big.size, 4), dtype=complex)
        for col, p in enumerate((big, npoly.polyder(big), small, npoly.polyder(small))):
            table[: p.size, col] = p
        self._table = table

    def _values(self, w):
        """A, A', B and B' at the points of the 1-d array w.  One point is
        padded to two: numpy takes its matrix-vector route for a single row,
        whose last bits differ from a batch's."""
        if w.size == 1:
            return self._values(np.concatenate([w, w]))[:, :1]
        return (np.vander(w, self._table.shape[0], increasing=True) @ self._table).T

    def _heights(self, y, count):
        steps = np.arange(count + 1)[:, np.newaxis] / count
        return y * (self._top / y) ** (1.0 - steps)

    def _follow(self, x, y, count=_HEIGHTS, refine=True):
        """The followed root at x + i y (1-d arrays of one shape, y > 0), and
        where its last Newton step converged."""
        heights = self._heights(y, count)
        w = np.zeros(x.shape, dtype=complex)
        xp = x + 1j * heights[0]
        with np.errstate(all="ignore"):
            for _ in range(_TOP_NEWTON):
                big, dbig, small, dsmall = self._values(w)
                w = w - (big - xp * small) / (dbig - xp * dsmall)
            rough = np.zeros(x.shape, dtype=bool)
            for height in heights[1:]:
                xn = x + 1j * height
                # the derivative at the last Newton iterate, one step short of w
                step = small / (dbig - xp * dsmall) * (xn - xp)
                guess = w * w / (w - step)  # the Euler step taken in 1/w, exact for w ~ 1/x'
                wn = guess
                for _ in range(3):
                    big, dbig, small, dsmall = self._values(wn)
                    newton = (big - xn * small) / (dbig - xn * dsmall)
                    wn = wn - newton
                rough |= ~(np.abs(wn - guess) <= 0.5 * np.abs(guess - w) + 1e-9 * (1.0 + np.abs(wn)))
                w, xp = wn, xn
            converged = np.abs(newton) <= 1e-8 * (1.0 + np.abs(w))
        if refine and (rough | ~converged).any():
            flagged = np.flatnonzero(rough | ~converged)
            w[flagged], converged[flagged] = self._follow(
                x[flagged], y[flagged], _REFINE * count, refine=False)
        return w, converged

    def _transform(self, w):
        with np.errstate(all="ignore"):
            return -np.pi * w * npoly.polyval(w, self.num) / (self.ratio * npoly.polyval(w, self.den))

    def stieltjes(self, z):
        """The decompressed transform m' at points of the open upper
        half-plane; NaN where the follow failed."""
        z = np.asarray(z, dtype=complex)
        if self._on_grid is not None and np.array_equal(z, self._on_grid[0]):
            return self._on_grid[1].copy()
        w, converged = self._follow(z.real.ravel(), z.imag.ravel())
        w[~converged] = np.nan
        out = self._transform(w).reshape(z.shape)
        return out if out.ndim else complex(out)

    def _density(self, x, y):
        return self.stieltjes(x + 1j * y).imag / np.pi

    def _probe(self, y):
        """The contiguous run above ``_SUPPORT_THRESHOLD`` of the peak around
        the peak, on ``_PROBE`` points at height y, doubled in width until the
        density decays at both ends: (points, index of the last point below
        the threshold on each side, threshold), or None without decay or
        with a failed point."""
        half = max(self.ratio, 1.0) * self._half
        for _ in range(4):
            xs = self._centre + half * np.linspace(-1.0, 1.0, _PROBE)
            dens = self._density(xs, y)
            thresh = _SUPPORT_THRESHOLD * dens.max()
            if not (np.isfinite(dens).all() and thresh > 0):
                return None
            above = dens > thresh
            if not (above[0] or above[-1]):
                peak = int(np.argmax(dens))
                below = np.flatnonzero(~above)
                return xs, below[below < peak][-1], below[below > peak][0], thresh
            half *= 2.0
        return None

    def _edges(self, xs, first, last, thresh, y):
        """The probe's run edges, each refined to 64^-4 of the probe spacing."""
        ends = np.array([[xs[first], xs[first + 1]], [xs[last], xs[last - 1]]])  # [outside, inside]
        frac = np.linspace(0.0, 1.0, 65)
        edge = np.arange(2)
        for _ in range(4):
            pts = ends[:, :1] + frac * (ends[:, 1:] - ends[:, :1])
            inside = self._density(pts[:, 1:-1].ravel(), y).reshape(2, -1) > thresh
            j = 1 + np.argmax(np.column_stack([inside, np.ones(2, dtype=bool)]), axis=1)
            ends = np.column_stack([pts[edge, j - 1], pts[edge, j]])
        lo, hi = ends.mean(axis=1)
        return (float(lo), float(hi))

    def _singular_points(self):
        """Branch points and poles of the decompressed transform, in w, and
        their images x'(w)."""
        num, den, h, a = self.num, self.den, self._half, self._a
        wronskian = npoly.polysub(npoly.polymul(npoly.polyder(den), num),
                                  npoly.polymul(den, npoly.polyder(num)))
        crit = npoly.polyadd(
            np.pi * h * npoly.polymul([-1.0, 0.0, 1.0], npoly.polymul(num, num)),
            2.0 * a * npoly.polysub(npoly.polymulx(wronskian), npoly.polymul(den, num)),
        )
        points = np.concatenate([npoly.polyroots(np.trim_zeros(p, "b")) for p in (crit, den)])
        with np.errstate(all="ignore"):
            image = (self._centre + 0.5 * h * (points + 1.0 / points)
                     + a * npoly.polyval(points, den) / (np.pi * points * npoly.polyval(points, num)))
        return points, image

    def _reached(self, points, image):
        """Whether the followed root at each image is its singular point.

        At its image a branch point is a double root of P, where the follow
        ends only roughly; Newton steps there close in on it (halving the
        distance each), else stay on the simple root the follow took.  A
        follow lost on the way counts as reaching."""
        w, _ = self._follow(image.real, image.imag, refine=False)
        with np.errstate(all="ignore"):
            for _ in range(_POLISH):
                big, dbig, small, dsmall = self._values(w)
                w = w - (big - image * small) / (dbig - image * dsmall)
        return ~(np.abs(w - points) > 1e-4 * (1.0 + np.abs(points)))

    def admissible(self, delta):
        """Whether this approximant's decompressed transform is usable.

        The branch points of the inverse map x'(w) = c + h (w + 1/w) / 2 +
        a D / (pi w N) are the zeros of
        pi h (w^2 - 1) N^2 + 2 a (w D' N - D N - w D N'), and the zeros of D
        are poles of m'.  Images within ``delta`` of the axis are support
        edges and atoms; above it, a singular point the followed root
        reaches makes m' no Stieltjes transform of a density there.
        Admissible means: the density at height ``_PROBE_HEIGHT`` delta
        decays on the probe (``_probe``); no reached singular point lies above the
        probe's run (those beyond it are ``harmless_branch_points``); and
        the density at height ``delta`` on the auto grid has mass
        1 +- ``_MASS_TOL``, failed points counting as zero.  Without a
        reached singular point the followed branch is analytic above
        ``delta``, and a grid mass off 1 can only be an atom's Lorentzian
        narrower than the grid spacing, so the mass is counted again on a
        grid of spacing delta / 2.
        """
        y = _PROBE_HEIGHT * delta
        probe = self._probe(y)
        if probe is None:
            return False
        xs, first, last, thresh = probe
        points, image = self._singular_points()
        keep = np.isfinite(image) & (image.imag > delta)
        reached = self._reached(points[keep], image[keep])
        beyond = (image[keep].real < xs[first]) | (image[keep].real > xs[last])
        if (reached & ~beyond).any():
            return False
        self.harmless_branch_points = int(reached.sum())
        self.support = self._edges(xs, first, last, thresh, y)
        grid = auto_grid(self.support)
        targets = grid + 1j * delta
        self._on_grid = (targets, self.stieltjes(targets))
        mass = np.trapezoid(np.nan_to_num(self._on_grid[1].imag / np.pi, nan=0.0), grid)
        if abs(mass - 1.0) > _MASS_TOL and not self.harmless_branch_points:
            grid = np.linspace(grid[0], grid[-1], int((grid[-1] - grid[0]) / (0.5 * delta)) + 1)
            mass = np.trapezoid(np.nan_to_num(self._density(grid, delta), nan=0.0), grid)
        return bool(abs(mass - 1.0) <= _MASS_TOL)


class LawEvaluator:
    """Exact evaluator backed by a closed-form ensemble law."""

    method = "analytic"

    def __init__(self, law):
        self.law = law
        self.support = law.support

    def evaluate(self, z, branch="secondary"):
        return ensembles.law_stieltjes(self.law, z, branch)

    def density(self, x):
        return ensembles.law_density(self.law, x)

    def decompressed(self, ratio, order=None):
        """The decompressed law in closed form (``support``, ``stieltjes``);
        a law has no approximants, so ``order`` is ignored."""
        return ensembles.decompressed_law(self.law, ratio)


def evaluator_for_model(model):
    """The second-sheet evaluator for a fitted model: Pade-Chebyshev."""
    return ChebyshevPadeEvaluator(model)
