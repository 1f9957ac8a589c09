"""Stieltjes transform evaluators and their decompressed transforms.

Estimators of m(z) = integral rho(x)/(x - z) dx for a compactly supported
density:

* Pade-Chebyshev, the evaluator for fitted models: the Chebyshev-U
  expansion of rho turns the transform into a power series in the inverse
  Joukowski variable w.  Its diagonal Pade approximants N(w)/D(w), solved
  once per model, keep working outside the series' disk of convergence,
  and the w-plane holds every sheet of the transform.
* Law: the closed-form transform of a benchmark ensemble law.

All evaluators share the same interface: ``support``, ``density`` for the
underlying model, and ``decompressed(ratio)``, the decompressed transform
with its support.  For a law that is the decompressed law in closed form;
for a fitted model it is the followed root of one Pade approximant's
characteristic polynomial (``FollowedRoot``), and ratio 1 with
``order=approximant_count`` gives the model's own transform.  Both raise
``InputError`` for a ratio outside the decompression domain.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import ensembles
from .decompress import auto_grid, checked_ratio, checked_upper_half, default_delta
from .errors import InputError, is_integer

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


def joukowski_inverse(z):
    """Principal inverse Joukowski J(z) = z - sqrt(z^2 - 1).

    The square-root branch is cut on [-1, 1] and behaves like z at infinity,
    so |J| <= 1 away from the cut and j(J(z)) = z exactly.  Real inputs
    inside (-1, 1) evaluate to the upper-half-plane limit.
    """
    z = np.asarray(z, dtype=complex)
    on_cut = (z.imag == 0) & (np.abs(z.real) < 1)
    zs = np.where(on_cut, z + 1e-300j, z)
    out = zs - ensembles._sqrt_cut(zs, -1.0, 1.0)
    return out if out.ndim else complex(out)


# ----------------------------------------------------------------------
# evaluators

_TOP = 100.0  # start of the root follow, in source widths times the ratio
_TOP_NEWTON = 4  # Newton steps from w = 0 at the top
_HEIGHTS = 20  # geometric heights of the follow from the top to the target
_REFINE = 4  # how much finer the second follow of a flagged point steps
_RESTART_MARGIN = 3  # heights above its first rough step from which a flagged point is followed again
_POLISH = 30  # Newton steps onto a singular point the follow may have reached
_PROBE = 201  # points of the support probe
_PROBE_HEIGHT = 3e-3  # its height above the axis, in units of the evaluation offset delta
_SUPPORT_THRESHOLD = 1e-4  # support = where the density exceeds this fraction of its peak
_MASS_TOL = 1e-2  # largest mass error of an admissible approximant


def _diagonal_pade(coeffs):
    """Diagonal Pade approximants [k/k] of the power series sum_i c_i w^i.

    Returns ``(approximants, breakdown)``.  Entry k of the list is the pair
    (N, D) of [k/k]'s numerator and denominator (low degree first, trailing
    zeros dropped) for k = 1 .. floor((n - 1) / 2); entry 0 is the plain
    partial sum, (c, 1).  Each denominator solves its k x k Toeplitz system
    by minimum-norm least squares (LAPACK gelsd; singular values below eps
    times the largest count as zero), so a series that is exactly rational
    of lower degree, whose deeper systems are singular, still gives that
    rational function.  [k/k] needs c_1 .. c_2k nonzero; the list stops
    before the first k without them, and ``breakdown`` reports whether that
    cut it short.
    """
    n = coeffs.size
    k_max = (n - 1) // 2
    zero = np.flatnonzero(coeffs[1:] == 0)
    count = k_max if zero.size == 0 else min(k_max, zero[0] // 2)
    approximants = [(np.trim_zeros(coeffs, "b"), np.ones(1))]
    for k in range(1, count + 1):
        steps = np.arange(k)
        toeplitz = coeffs[k + steps[:, np.newaxis] - steps]  # entry (i, j) is c_(k+i-j)
        rhs = -coeffs[k + 1 : 2 * k + 1]
        q = np.concatenate([[1.0], np.linalg.lstsq(toeplitz, rhs, rcond=np.finfo(float).eps)[0]])
        num = np.convolve(q, coeffs[: k + 1])[: k + 1]
        approximants.append((np.trim_zeros(num, "b"), np.trim_zeros(q, "b")))
    return approximants, count < k_max


def _spread(p):
    """A polynomial in v = w^2 as one in w (low degree first)."""
    out = np.zeros(2 * p.size - 1)
    out[::2] = p
    return out


def _run(dens):
    """The contiguous run above ``_SUPPORT_THRESHOLD`` of the peak around the
    peak of the densities ``dens`` on a probe line: (index of the last point
    below the threshold on each side, threshold); ``()`` where the run
    reaches an end of the line, None where a density failed or none is
    positive."""
    thresh = _SUPPORT_THRESHOLD * dens.max()
    if not (np.isfinite(dens).all() and thresh > 0):
        return None
    above = dens > thresh
    if above[0] or above[-1]:
        return ()
    peak = int(np.argmax(dens))
    below = np.flatnonzero(~above)
    return below[below < peak][-1], below[below > peak][0], thresh


class ChebyshevPadeEvaluator:
    """Stieltjes evaluator for Chebyshev-U density models.

    m(z) = -pi w S(w) with w = J(M(z)) and S(w) = sum_k c_k w^k.  The
    diagonal Pade approximants S = N/D are solved once, at construction,
    as polynomials in w (``approximant_count`` of them; ``breakdown`` when
    a zero coefficient cut the list short).  An even series, whose odd
    coefficients are all zero, has no [k/k] of its own (c_1 = 0 breaks the
    list at once); its approximants are those of T(v) = sum_j c_2j v^j at
    v = w^2, which ``approximant_count`` and ``breakdown`` then describe.
    ``decompressed(ratio)`` chooses the approximant a decompression uses.
    The model is a density, so every approximant has N_0 = c_0 > 0, D_0 = 1.
    """

    def __init__(self, model):
        self.model, self.support = model, model.support
        even = not np.any(model.psi[1::2])
        approximants, self.breakdown = _diagonal_pade(model.psi[::2] if even else model.psi)
        if even:
            approximants = [(_spread(num), _spread(den)) for num, den in approximants]
        self._approximants = approximants
        self.approximant_count = len(approximants) - 1

    def density(self, x):
        return self.model.density(x)

    def decompressed(self, ratio, order=None):
        """The decompressed transform of the deepest admissible approximant.

        Approximants are tried deepest first (``FollowedRoot.admissible``);
        the one returned counts them in ``candidates_tried`` and
        ``candidates_screened``.
        Raises ``InputError`` for a ratio that is not finite and >= 1, above
        1 for a model whose mass is off 1 by more than ``_MASS_TOL`` (the
        decompressed mass (mass + r - 1) / r would hide it), and when none
        passes: the model has no decompression by ``ratio``.  With ``order``,
        an integer in 0 .. ``approximant_count`` (else ``InputError``; a
        bool is not an order), the followed root of [order/order] is
        returned unchecked, with no ``support``.
        """
        r = checked_ratio(ratio)
        if order is not None and (not is_integer(order) or not 0 <= order <= self.approximant_count):
            raise InputError(f"approximant order must be an integer in 0 .. {self.approximant_count}, "
                             f"got {order!r}")
        mass = self.model.mass()
        if r > 1 and abs(mass - 1.0) > _MASS_TOL:
            raise InputError(f"the model's mass is {mass:.4g}, not 1 within {_MASS_TOL:g}: "
                             "only a density of unit mass has a decompression")
        if order is not None:
            return FollowedRoot(*self._approximants[order], self.support, r, order)
        screened = 0
        for k in range(self.approximant_count, -1, -1):
            followed = FollowedRoot(*self._approximants[k], self.support, r, k)
            if followed.admissible():
                followed.candidates_tried = self.approximant_count + 1 - k
                followed.candidates_screened = screened
                return followed
            screened += followed.screened_out
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
    unconverged, is followed again through ``_REFINE`` times as many heights
    (each ``_REFINE``-th a coarse one) from its coarse iterate
    ``_RESTART_MARGIN`` heights above the last before that step, or above
    the target (margins 0 and 1 put points of exact MP(1/50) and Wigner
    K = 40 models x32 on another root); NaN where that ends unconverged.
    The decompressed transform is m' = m(z) / r = -pi w N(w) / (r D(w)).

    ``order`` is k.  ``admissible``, at the source support's offset delta
    (``default_delta``), sets ``support`` and ``harmless_branch_points`` and
    keeps m' on the auto grid of its mass check, for a decompression there;
    ``screened_out`` when it rejected the approximant on the first pass.
    ``candidates_tried`` counts the approximants the choice checked,
    ``candidates_screened`` those of them rejected on the first pass, and
    ``refined_points`` the points followed again.
    """

    def __init__(self, num, den, source_support, ratio, order):
        lo, hi = source_support
        c, h, a = 0.5 * (lo + hi), 0.5 * (hi - lo), ratio - 1.0
        self.num, self.den, self.ratio, self.order = num, den, ratio, order
        self.support, self.harmless_branch_points, self._on_grid = None, 0, None
        self.candidates_tried, self.candidates_screened, self.refined_points = 0, 0, 0
        self.screened_out = False
        self._centre, self._half, self._a, self._delta = c, h, a, default_delta(source_support)
        self._top = _TOP * ratio * (hi - lo)
        big = npoly.polyadd(np.pi * npoly.polymul(num, [h, 2.0 * c, h]), 2.0 * a * den)
        small = 2.0 * np.pi * npoly.polymulx(num)
        # coefficients of A, A', B and B', one column each (low degree first)
        table = np.zeros((big.size, 4))
        for col, p in enumerate((big, npoly.polyder(big), small, npoly.polyder(small))):
            table[: p.size, col] = p
        self._table = table

    def _values(self, w):
        """A, A', B and B' at the points of the 1-d array w, one row each.

        Row i of the power table is w^i, the row above times w: one
        contiguous product, several times faster in numpy than an accumulate
        down the columns.  The coefficients are real: one real product with
        the powers' interleaved real and imaginary parts gives all four, at
        half a complex product's multiplies, and one point takes a batch's
        route.  The promise is batch invariance, not one numpy kernel's
        bits: a point's bits do not depend on the points evaluated with it."""
        powers = np.empty((self._table.shape[0], w.size), dtype=complex)
        powers[0] = 1.0
        powers[1] = w
        for i in range(2, powers.shape[0]):
            np.multiply(powers[i - 1], w, out=powers[i])
        return (self._table.T @ powers.view(float)).view(complex)

    def _heights(self, y, count):
        """The ``count`` + 1 geometric heights from ``_top`` down to y, one
        row each.  Each row is raised to one scalar exponent: numpy's power
        with an exponent array takes length-dependent paths (at 0.5), which
        would make a point's heights depend on its batch."""
        return np.stack([y * (self._top / y) ** (1.0 - j / count) for j in range(count + 1)])

    def _newton(self, w, xp, steps):
        """``steps`` Newton steps on P at x' = xp from w: the root, the last
        step, and A', B and B' at the last iterate, one step short of it."""
        for _ in range(steps):
            big, dbig, small, dsmall = self._values(w)
            newton = (big - xp * small) / (dbig - xp * dsmall)
            w = w - newton
        return w, newton, dbig, small, dsmall

    def _follow(self, x, y, count=_HEIGHTS, refine=True):
        """The followed root at x + i y (1-d arrays of one shape, y > 0), and
        where its last Newton step converged: the first pass, then the
        second follow of the points ``refine`` (a mask, or all) selects."""
        return self._follow_again(x, y, self._first_pass(x, y, count), refine)

    def _first_pass(self, x, y, count):
        """The root followed once through ``count`` heights: (root, where its
        last Newton step converged, the last height before the first rough
        step, the iterate at each height)."""
        heights = self._heights(y, count)
        path = np.zeros((count + 1,) + x.shape, dtype=complex)
        last = np.full(x.shape, count)  # the last height before the first rough step
        xp = x + 1j * heights[0]
        with np.errstate(all="ignore"):
            w, _, dbig, small, dsmall = self._newton(path[0], xp, _TOP_NEWTON)
            for j in range(1, count + 1):
                xn = x + 1j * heights[j]
                # the derivative at the last Newton iterate, one step short of w
                step = small / (dbig - xp * dsmall) * (xn - xp)
                guess = w * w / (w - step)  # the Euler step taken in 1/w, exact for w ~ 1/x'
                wn, newton, dbig, small, dsmall = self._newton(guess, xn, 3)
                rough = ~(np.abs(wn - guess) <= 0.5 * np.abs(guess - w) + 1e-9 * (1.0 + np.abs(wn)))
                last = np.where(rough & (last == count), j - 1, last)
                path[j - 1], w, xp = w, wn, xn
            converged = np.abs(newton) <= 1e-8 * (1.0 + np.abs(w))
        return w, converged, last, path

    def _follow_again(self, x, y, first, refine):
        """The roots of the first pass ``first``, those of the points that
        ``refine`` selects and that took a rough step or ended unconverged
        followed again (``_refollow``)."""
        w, converged, last, path = first
        count = path.shape[0] - 1
        flagged = np.flatnonzero(refine & ((last < count) | ~converged))
        self.refined_points += flagged.size
        if flagged.size:
            start = np.maximum(last - _RESTART_MARGIN, 0)
            flagged = flagged[np.argsort(start[flagged], kind="stable")]
            begin = start[flagged]
            w[flagged], converged[flagged] = self._refollow(
                x[flagged], y[flagged], _REFINE * count, _REFINE * begin, path[begin, flagged])
        return w, converged

    def _refollow(self, x, y, count, begin, w):
        """``_follow`` through ``count`` heights from each iterate w at its own
        height index ``begin`` (nondecreasing, so the moving points are a
        prefix and a point's root depends on its own path alone)."""
        heights = self._heights(y, count)
        xp = x + 1j * heights[begin, np.arange(x.size)]
        with np.errstate(all="ignore"):
            _, dbig, small, dsmall = self._values(w)  # the first Euler step's derivative at w
            for i in range(begin[0] + 1, count + 1):
                n = np.searchsorted(begin, i)  # the points that started above height i
                xn = x[:n] + 1j * heights[i, :n]
                step = small[:n] / (dbig[:n] - xp[:n] * dsmall[:n]) * (xn - xp[:n])
                w[:n], newton, dbig[:n], small[:n], dsmall[:n] = self._newton(
                    w[:n] * w[:n] / (w[:n] - step), xn, 3)
                xp[:n] = xn
            converged = np.abs(newton) <= 1e-8 * (1.0 + np.abs(w))
        return w, converged

    def _transform(self, w):
        with np.errstate(all="ignore"):
            return -np.pi * w * npoly.polyval(w, self.num) / (self.ratio * npoly.polyval(w, self.den))

    def stieltjes(self, z):
        """The decompressed transform m' at finite points of the open upper
        half-plane (else ``InputError``); NaN where the follow failed."""
        z = checked_upper_half(z)
        if self._on_grid is not None and np.array_equal(z, self._on_grid[0]):
            return self._on_grid[1].copy()
        w, converged = self._follow(z.real.ravel(), z.imag.ravel())
        w[~converged] = np.nan
        out = self._transform(w).reshape(z.shape)
        return out if out.ndim else complex(out)

    def _density(self, x, y):
        return self.stieltjes(x + 1j * y).imag / np.pi

    def _probe_line(self, doubling):
        """The ``_PROBE`` points of the support probe's width 2^doubling."""
        half = max(self.ratio, 1.0) * self._half * 2.0 ** doubling
        return self._centre + half * np.linspace(-1.0, 1.0, _PROBE)

    def _probe(self, dens):
        """The probe's run (``_run``) on the probe line at height
        ``_PROBE_HEIGHT`` delta, doubled in width until the density decays
        at both ends: (points, index of the last point below the threshold
        on each side, threshold), or None without decay or with a failed
        point.  ``dens`` is on the first width."""
        for doubling in range(4):
            xs = self._probe_line(doubling)
            if doubling:
                dens = self._density(xs, _PROBE_HEIGHT * self._delta)
            run = _run(dens)
            if run is None:
                return None
            if run:
                return xs, *run
        return None

    def _edges(self, xs, first, last, thresh):
        """The probe's run edges, each refined to 64^-4 of the probe spacing."""
        ends = np.array([[xs[first], xs[first + 1]], [xs[last], xs[last - 1]]])  # [outside, inside]
        frac = np.linspace(0.0, 1.0, 65)
        edge = np.arange(2)
        for _ in range(4):
            pts = ends[:, :1] + frac * (ends[:, 1:] - ends[:, :1])
            inside = self._density(pts[:, 1:-1], _PROBE_HEIGHT * self._delta) > thresh
            j = 1 + np.argmax(np.column_stack([inside, np.ones(2, dtype=bool)]), axis=1)
            ends = np.column_stack([pts[edge, j - 1], pts[edge, j]])
        return tuple(float(end) for end in ends.mean(axis=1))

    def _singular_points(self):
        """Branch points and poles of the decompressed transform, in w, and
        their images x'(w), where those lie more than delta above the axis."""
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
        keep = np.isfinite(image) & (image.imag > self._delta)
        return points[keep], image[keep]

    def _reached(self, points, image, w):
        """Whether the followed root w at each image is its singular point.

        At its image a branch point is a double root of P, where the follow
        ends only roughly (it is not followed again); Newton steps there
        close in on it (halving the distance each), else stay on the simple
        root the follow took.  A follow lost on the way counts as reaching."""
        with np.errstate(all="ignore"):
            w = self._newton(w, image, _POLISH)[0]
        return ~(np.abs(w - points) > 1e-4 * (1.0 + np.abs(points)))

    def admissible(self):
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

        One first pass (``_first_pass``) takes the probe's first width and
        the images, which are then polished (``_reached``).  A reached
        singular point above the run of the first pass's densities on that
        width (``_run``) rejects the approximant at once (``screened_out``),
        before any point is followed again.  Otherwise only the probe's
        points are followed again, and the checks above run on the refined
        densities: an approximant is rejected when either run holds a
        reached singular point.
        """
        delta, n = self._delta, _PROBE
        points, image = self._singular_points()
        line = self._probe_line(0)
        x = np.concatenate([line, image.real])
        y = np.concatenate([np.full(n, _PROBE_HEIGHT * delta), image.imag])
        first = self._first_pass(x, y, _HEIGHTS)
        w, converged = first[:2]
        reached = self._reached(points, image, w[n:])

        def density(w, converged):  # on the probe's first width
            return self._transform(np.where(converged[:n], w[:n], np.nan)).imag / np.pi

        def holds_reached(xs, lo, hi, _thresh):
            return bool((reached & (image.real >= xs[lo]) & (image.real <= xs[hi])).any())

        screen = _run(density(w, converged))
        if screen and holds_reached(line, *screen):
            self.screened_out = True
            return False
        w, converged = self._follow_again(x, y, first, np.arange(x.size) < n)
        probe = self._probe(density(w, converged))
        if probe is None or holds_reached(*probe):
            return False
        self.harmless_branch_points = int(reached.sum())
        self.support = self._edges(*probe)
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

    def __init__(self, law):
        self.law = law
        self.support = law.support

    def density(self, x):
        return ensembles.law_density(self.law, x)

    def decompressed(self, ratio, order=None):
        """The decompressed law in closed form (``support``, ``stieltjes``);
        a law has no approximants, so ``order`` is ignored."""
        return ensembles.decompressed_law(self.law, ratio)


def evaluator_for_model(model):
    """The evaluator for a fitted model: Pade-Chebyshev."""
    return ChebyshevPadeEvaluator(model)
