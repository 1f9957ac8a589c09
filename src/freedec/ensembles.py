"""Benchmark random-matrix laws and their transforms.

Five closed-form spectral laws (Wigner semicircle, Marchenko-Pastur,
Kesten-McKay, Wachter, free Meixner) with density, support, atoms, and the
polynomial pair (P, Q) of the quadratic identity

    Q(z) m(z)^2 - P(z) m(z) + 1 = 0

satisfied by the Stieltjes transform m(z) = integral rho(x)/(x - z) dx.  Unit
mass makes q2 + p1 + 1 = 0, so P^2 - 4Q = (2 + p1)^2 (z - lo)(z - hi).  With
s = -(2 + p1) sqrt(z - lo) sqrt(z - hi), cut on the support, the principal
branch is m = 2/(P + s); the secondary branch, its continuation through the
cut, is 2/(P - s) below the axis.  Inside the support the Hilbert transform
is the rational function P/(2Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decompress import checked_ratio, checked_upper_half
from .errors import InputError, NumericalError, is_integer
from .linalg import _haar, make_rng
from .metrics import cumulative_trapezoid

__all__ = [
    "EnsembleLaw",
    "EnsembleDraw",
    "wigner_law",
    "marchenko_pastur_law",
    "kesten_mckay_law",
    "wachter_law",
    "meixner_law",
    "law_density",
    "law_cdf",
    "law_stieltjes",
    "law_hilbert",
    "law_r_transform",
    "meixner_decompression_params",
    "decompressed_law",
    "draw_ensemble",
]

_TINY = 1e-14
_CDF_GRID = 4096  # trapezoid nodes of law_cdf over the support


@dataclass(frozen=True)
class EnsembleLaw:
    """Closed-form spectral law.

    ``p = (p0, p1)`` and ``q = (q0, q1, q2)`` are the coefficients (floats,
    low degree first) of P and Q in the quadratic Stieltjes identity, with
    q2 + p1 + 1 = 0 (unit mass); ``atoms`` lists the ``(location, mass)``
    point masses outside the continuous density.
    """

    name: str
    support: tuple[float, float]
    p: tuple[float, float]
    q: tuple[float, float, float]
    atoms: list[tuple[float, float]] = field(default_factory=list)

    @property
    def width(self):
        return self.support[1] - self.support[0]

    def stieltjes(self, z):
        """``law_stieltjes`` on the open upper half-plane alone (else ``InputError``)."""
        return law_stieltjes(self, checked_upper_half(z))


def _real_roots(c0, c1, c2):
    """The real roots of c0 + c1 x + c2 x^2, increasing.

    The quadratic case takes t = -(c1 + sign(c1) sqrt(c1^2 - 4 c0 c2)) / 2
    and the roots t / c2 and c0 / t, so neither subtracts nearly equal
    numbers.  A complex pair whose imaginary part is at most
    1e-12 (1 + |x|) counts as a double real root.
    """
    if c2 == 0.0:
        return [] if c1 == 0.0 else [-c0 / c1]
    disc = c1 * c1 - 4.0 * c0 * c2
    if disc < 0.0:
        re, im = -c1 / (2.0 * c2), math.sqrt(-disc) / (2.0 * abs(c2))
        return [re, re] if im <= 1e-12 * (1.0 + math.hypot(re, im)) else []
    t = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [0.0, 0.0] if t == 0.0 else sorted((t / c2, c0 / t))


def _make_law(name, p, q):
    """The law of Q m^2 - P m + 1 = 0, with its support and atoms.

    The support [lo, hi] is the pair of real roots of P^2 - 4Q.  Atoms sit
    at the real zeros x0 of Q outside it where the principal branch
    m = 2/(P + s) has its pole, P(x0) + s(x0) = 0 (there s^2 = P^2, so
    sign P = -sign s); the mass, the residue of -m, is -P(x0)/Q'(x0).
    """
    p0, p1, q0, q1, q2 = coefficients = tuple(map(float, (*p, *q)))
    if not all(map(math.isfinite, coefficients)):
        raise InputError(f"{name!r} needs finite parameters")
    edges = _real_roots(p0 * p0 - 4.0 * q0, 2.0 * p0 * p1 - 4.0 * q1, p1 * p1 - 4.0 * q2)
    if len(edges) != 2 or not math.isfinite(edges[1] - edges[0]):
        raise NumericalError(f"{name!r} has no bounded support")
    lo, hi = edges
    atoms = []
    for x0 in _real_roots(q0, q1, q2):
        # s is 0 inside the support and on its edges: no atom
        s = (2.0 + p1) * math.copysign(math.sqrt(max((x0 - lo) * (x0 - hi), 0.0)), hi - x0)
        px = p0 + p1 * x0
        if px * s < 0:
            atoms.append((x0, -px / (q1 + 2.0 * q2 * x0)))
    return EnsembleLaw(name, (lo, hi), (p0, p1), (q0, q1, q2), atoms)


def wigner_law(r=2.0):
    """Semicircle of radius ``r``: P = -z, Q = r^2/4, R(z) = (r^2/4) z."""
    if r <= 0:
        raise InputError("semicircle radius must be positive")
    return _make_law("wigner", (0.0, -1.0), (r * r / 4.0, 0.0, 0.0))


def marchenko_pastur_law(lam):
    """Marchenko-Pastur with ratio ``lam``: P = 1 - lam - z, Q = lam z."""
    if lam <= 0:
        raise InputError("Marchenko-Pastur ratio must be positive")
    return _make_law("mp", (1 - lam, -1.0), (0.0, lam, 0.0))


def kesten_mckay_law(d):
    """Kesten-McKay with degree parameter ``d >= 2``."""
    if d < 2:
        raise InputError("Kesten-McKay parameter d must be >= 2")
    return _make_law("kesten-mckay", (0.0, (2.0 - d) / (d - 1.0)),
                     (d * d / (d - 1.0), 0.0, -1.0 / (d - 1.0)))


def wachter_law(a, b):
    """Wachter (free Jacobi) law with ratios ``ac = d1/n``, ``b = d2/n``."""
    if a <= 0 or b <= 0 or a + b <= 1:
        raise InputError("Wachter requires a > 0, b > 0 and a + b > 1")
    s = a + b
    return _make_law("wachter", ((a - 1.0) / (s - 1.0), -(s - 2.0) / (s - 1.0)),
                     (0.0, 1.0 / (s - 1.0), -1.0 / (s - 1.0)))


def meixner_law(a, b, c):
    """Free Meixner law with density c sqrt(4b - (x-a)^2) / (2 pi D(x)).

    ``D(x) = (1-c) x^2 + a c x + b c^2``.  The matching quadratic-identity
    polynomials are P = (c-2) z - a c and Q = D(z); these follow from the
    bordered-Toeplitz continued fraction with Jacobi data
    (alpha0, beta0^2, alpha1, beta1^2) = (0, bc, a, b).
    """
    if b <= 0:
        raise InputError("Meixner parameter b must be positive")
    if not 0 < c <= 1:
        raise InputError("Meixner parameter c must lie in (0, 1]")
    return _make_law("meixner", (-a * c, c - 2.0), (b * c * c, a * c, 1.0 - c))


# ----------------------------------------------------------------------
# transforms


def law_density(law, x):
    """Absolutely continuous density of ``law`` at ``x`` (vectorized).

    Atoms are reported separately on the law object, never folded into the
    returned values.  Zero outside the support.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = law.support
    inside = (x > lo) & (x < hi)
    (p0, p1), (q0, q1, q2) = law.p, law.q
    pv = p0 + p1 * x
    qv = q0 + x * (q1 + x * q2)
    disc = 4.0 * qv - pv * pv
    out = np.zeros_like(x, dtype=float)
    good = inside & (disc > 0)
    out[good] = np.sqrt(disc[good]) / (2.0 * np.pi * qv[good])
    return out if out.ndim else float(out)


def law_cdf(law, x):
    """Distribution function of ``law`` (continuous part plus atoms)."""
    lo, hi = law.support
    grid = np.linspace(lo, hi, _CDF_GRID)
    cum = cumulative_trapezoid(grid, law_density(law, grid))
    x = np.asarray(x, dtype=float)
    vals = np.interp(x, grid, cum, left=0.0, right=cum[-1])
    for loc, mass in law.atoms:
        vals = vals + mass * (x >= loc)
    return vals if vals.ndim else float(vals)


def _sqrt_cut(z, lo, hi):
    """sqrt((z - lo)(z - hi)) with the cut on [lo, hi] and s(z) ~ z at
    infinity; the principal-root product keeps each factor's cut on the
    negative axis, so the two cuts cancel left of lo."""
    return np.sqrt(z - lo) * np.sqrt(z - hi)


def law_stieltjes(law, z, branch="principal"):
    """Stieltjes transform of ``law`` on the requested branch.

    The principal branch is the Herglotz map (Im m > 0 on the upper
    half-plane) with a cut on the support; the secondary branch agrees with
    it above the real axis and continues analytically through the support
    cut into the lower half-plane, at the cost of a jump across the real
    axis outside the support.
    """
    z = np.asarray(z, dtype=complex)
    # Exactly real inputs are upper-half limits; without a nudge a pole on the
    # axis (an atom) divides by zero.
    on_axis = z.imag == 0
    if np.any(on_axis):
        z = np.where(on_axis, z + 1j * 1e-10 * (1.0 + np.abs(z)), z)
    p0, p1 = law.p
    s = -(2.0 + p1) * _sqrt_cut(z, *law.support)
    if branch == "secondary":
        s = np.where(z.imag < 0, -s, s)
    elif branch != "principal":
        raise InputError(f"unknown branch {branch!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2.0 / (p0 + p1 * z + s)
    return out if out.ndim else complex(out)


def law_hilbert(law, x):
    """Hilbert transform H[rho](x) = P(x) / (2 Q(x)) inside the open support."""
    x_arr = np.asarray(x, dtype=float)
    lo, hi = law.support
    if np.any(x_arr <= lo) or np.any(x_arr >= hi):
        raise InputError("Hilbert transform is the rational form only inside the open support")
    (p0, p1), (q0, q1, q2) = law.p, law.q
    qv = q0 + x_arr * (q1 + x_arr * q2)
    if np.any(np.abs(qv) < _TINY):
        raise InputError("Q(x) vanishes at the requested point")
    out = (p0 + p1 * x_arr) / (2.0 * qv)
    return out if out.ndim else float(out)


def law_r_transform(law, z):
    """R-transform of ``law`` near zero (branch analytic at the origin).

    Substituting m = -g and z = R + 1/g into the quadratic identity and
    dividing by g (the constant term is q2 + p1 + 1 = 0) leaves
    q2 g R^2 + beta R + gamma = 0 with beta = q1 g + 2 q2 + p1 and
    gamma = q0 g + q1 + p0.  The root that stays finite at g = 0 is
    -2 gamma / (beta + sqrt(beta^2 - 4 q2 g gamma)), the square root taken on
    beta's side.
    """
    g = np.asarray(z, dtype=complex)
    (p0, p1), (q0, q1, q2) = law.p, law.q
    beta = q1 * g + 2.0 * q2 + p1
    gamma = q0 * g + q1 + p0
    root = np.sqrt(beta * beta - 4.0 * q2 * g * gamma)
    root = np.where((root * np.conj(beta)).real < 0, -root, root)
    out = -2.0 * gamma / (beta + root)
    return out if out.ndim else complex(out)


def meixner_decompression_params(a, b, c, alpha):
    """Flow of Meixner parameters under argument scaling of the R-transform.

    Satisfies R_{a,b,c}(alpha z) = R_{a', b', c'}(z) exactly, with

        a' = a alpha,   c' = c / (c + alpha (1 - c)),
        b' = b alpha^2 (1 - c) / (1 - c').

    The b' exponent structure is forced: matching the rational and algebraic
    parts of the two R-transforms separately pins c' and then b', and only
    this version gives the required second-cumulant scaling b'c' = alpha b c.
    """
    if not 0 < c < 1:
        raise InputError("flow requires c in (0, 1)")
    if alpha <= 0:
        raise InputError("flow requires alpha > 0")
    c_new = c / (c + alpha * (1.0 - c))
    b_new = b * alpha**2 * (1.0 - c) / (1.0 - c_new)
    return a * alpha, b_new, c_new


def decompressed_law(law, ratio):
    """The law of ``law`` decompressed by ``ratio``, in closed form.

    Along the characteristics z = T + a/m (a = ratio - 1) the decompressed
    transform is m' = m / ratio, and substituting z into Q m^2 - P m + 1 = 0
    gives another quadratic of the same form:

        P'(T) = r (P(T) - a q1 - 2 a q2 T) / C,   Q'(T) = r^2 Q(T) / C,

    with C = 1 - a p1 + a^2 q2.  C vanishes at the decompression limit
    c / (c - 1) of a free Meixner law with c > 1 and is negative beyond it.
    """
    r = checked_ratio(ratio)
    (p0, p1), (q0, q1, q2) = law.p, law.q
    a = r - 1.0
    c = 1.0 - a * p1 + a * a * q2
    if c <= 0:
        raise InputError(f"ratio {r:g} is outside the decompression domain of {law.name!r}")
    p_new = (r * (p0 - a * q1) / c, r * (p1 - a * (2.0 * q2)) / c)
    q_new = (r * r * q0 / c, r * r * q1 / c, r * r * q2 / c)
    return _make_law(f"{law.name} x{r:g}", p_new, q_new)


# ----------------------------------------------------------------------
# matrix realizations


@dataclass(frozen=True)
class EnsembleDraw:
    """A matrix realization together with its limiting law."""

    law: EnsembleLaw
    matrix: np.ndarray


def _symmetrize(a):
    return (a + a.T) / 2.0


def _wishart(rng, n, d, chunk=10000):
    # Accumulate X X^T / d in column chunks so huge d never materializes X.
    # One helper thread draws the next chunk while this thread adds the
    # current one (both release the GIL).  The chunks come from the stream in
    # the serial order and are summed in that order, so the matrix is
    # bit-identical to a serial loop's; at most one chunk is drawn ahead.
    from concurrent.futures import ThreadPoolExecutor

    a = np.zeros((n, n))
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(rng.standard_normal, (n, min(chunk, d)))
        for done in range(chunk, d + chunk, chunk):
            x = ahead.result()
            if done < d:
                ahead = pool.submit(rng.standard_normal, (n, min(chunk, d - done)))
            a += x @ x.T
    return _symmetrize(a / d)


def draw_ensemble(name, n, seed, d=None, d1=None, d2=None):
    """Draw one matrix realization of the named law.

    Parameters
    ----------
    name : {'wigner', 'mp', 'kesten-mckay', 'wachter'}
    n : int
        Matrix order.
    seed : int
    d : int
        Wishart degrees of freedom ('mp') or even degree ('kesten-mckay').
    d1, d2 : int
        Degrees of freedom of the two Wishart factors ('wachter').

    Notes
    -----
    The empirical spectral distribution of every draw converges to the law
    it is returned with.  Free Meixner has no realization here; it is sampled
    from its law (``freedec sample --ensemble meixner``).
    """
    if not is_integer(n) or n < 1:
        raise InputError(f"matrix order must be >= 1 and an integer, got {n!r}")
    rng = make_rng(seed)
    if name == "wigner":
        x = rng.standard_normal((n, n))
        mat = _symmetrize(np.sqrt(2.0) * x)  # (x + x.T)/sqrt(2)
        law = wigner_law(2.0 * np.sqrt(n))
    elif name == "mp":
        if not is_integer(d) or d < 1:
            raise InputError(f"'mp' requires integer degrees of freedom d >= 1, got {d!r}")
        mat = _wishart(rng, n, d)
        law = marchenko_pastur_law(n / d)
    elif name == "kesten-mckay":
        if not is_integer(d) or d < 2 or d % 2 != 0:
            raise InputError(f"'kesten-mckay' requires even d >= 2 (d = 2k Haar summands), got {d!r}")
        mat = np.zeros((n, n))
        for _ in range(d // 2):
            o = _haar(rng, n)
            mat += o + o.T  # exactly symmetric
        law = kesten_mckay_law(d)
    elif name == "wachter":
        if not (is_integer(d1) and is_integer(d2)) or d1 < 1 or d2 < 1:
            raise InputError(f"'wachter' requires integers d1 >= 1 and d2 >= 1, got {d1!r} and {d2!r}")
        if d1 + d2 <= n:
            raise InputError("'wachter' requires d1 + d2 > n for a positive definite sum")
        s1 = _wishart(rng, n, d1)
        s2 = _wishart(rng, n, d2)
        chol = np.linalg.cholesky(s1 + s2)
        inv = np.linalg.solve(chol, np.linalg.solve(chol, s1).T)
        mat = _symmetrize(inv)
        law = wachter_law(d1 / n, d2 / n)
    else:
        raise InputError(f"unknown ensemble {name!r}")
    return EnsembleDraw(law, mat)
