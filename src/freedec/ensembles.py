"""Benchmark random-matrix laws and their transforms.

Five closed-form spectral laws (Wigner semicircle, Marchenko-Pastur,
Kesten-McKay, Wachter, free Meixner) with density, support, atoms, and the
polynomial pair (P, Q) of the quadratic identity

    Q(z) m(z)^2 - P(z) m(z) + 1 = 0

satisfied by the Stieltjes transform m(z) = integral rho(x)/(x - z) dx.  The
Herglotz root of the quadratic is the principal branch; the other root is its
analytic continuation through the support cut (the secondary branch).  The
Hilbert transform inside the support is the rational function P/(2Q).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import InputError, NumericalError
from .linalg import _haar, make_rng

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

    ``p`` and ``q`` are polynomial coefficient arrays (low degree first, up to
    degree 2) of the quadratic Stieltjes identity; ``atoms`` is a list of
    ``(location, mass)`` point masses carried outside the continuous density.
    """

    name: str
    params: dict
    support: tuple[float, float]
    p: np.ndarray
    q: np.ndarray
    atoms: list[tuple[float, float]] = field(default_factory=list)

    @property
    def width(self):
        return self.support[1] - self.support[0]

    def stieltjes(self, z):
        """The principal transform, as ``law_stieltjes``."""
        return law_stieltjes(self, z)


def _atoms_from_quadratic(p, q, support):
    """Point masses sit at real zeros of Q outside the open support.

    The mass is the residue of -m at the pole, recovered from the Herglotz
    limit eta * Im m(x0 + i eta) as eta -> 0+.
    """
    qc = np.asarray(q, dtype=float)
    if qc.size < 3 or abs(qc[2]) < _TINY * max(1.0, abs(qc[0]), abs(qc[1])):
        roots = [] if qc.size < 2 or qc[1] == 0 else [-qc[0] / qc[1]]
    else:
        disc = qc[1] ** 2 - 4.0 * qc[2] * qc[0]
        if disc < 0:
            roots = []
        else:
            s = np.sqrt(disc)
            roots = [(-qc[1] + s) / (2 * qc[2]), (-qc[1] - s) / (2 * qc[2])]
    lo, hi = support
    scale = max(abs(lo), abs(hi), 1.0)
    atoms = []
    for x0 in roots:
        if lo - 1e-12 * scale < x0 < hi + 1e-12 * scale:
            continue
        eta = 1e-7 * scale
        m = _stieltjes_from_pq(p, q, np.array([x0 + 1j * eta]), "principal")[0]
        mass = float(eta * m.imag)
        if mass > 1e-10:
            atoms.append((float(x0), mass))
    return atoms


def _make_law(name, params, support, p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    atoms = _atoms_from_quadratic(p, q, support)
    return EnsembleLaw(name, params, support, p, q, atoms)


def wigner_law(r=2.0):
    """Semicircle of radius ``r``: P = -z, Q = r^2/4, R(z) = (r^2/4) z."""
    if r <= 0:
        raise InputError("semicircle radius must be positive")
    return _make_law("wigner", {"r": r}, (-r, r), [0.0, -1.0], [r * r / 4.0])


def marchenko_pastur_law(lam):
    """Marchenko-Pastur with ratio ``lam``: P = 1 - lam - z, Q = lam z."""
    if lam <= 0:
        raise InputError("Marchenko-Pastur ratio must be positive")
    edge = np.sqrt(lam)
    support = ((1 - edge) ** 2, (1 + edge) ** 2)
    return _make_law("mp", {"lam": lam}, support, [1 - lam, -1.0], [0.0, lam])


def kesten_mckay_law(d):
    """Kesten-McKay with degree parameter ``d >= 2``."""
    if d < 2:
        raise InputError("Kesten-McKay parameter d must be >= 2")
    half = 2.0 * np.sqrt(d - 1.0)
    p = [0.0, (2.0 - d) / (d - 1.0)]
    q = [d * d / (d - 1.0), 0.0, -1.0 / (d - 1.0)]
    return _make_law("kesten-mckay", {"d": d}, (-half, half), p, q)


def wachter_law(a, b):
    """Wachter (free Jacobi) law with ratios ``ac = d1/n``, ``b = d2/n``."""
    if a <= 0 or b <= 0 or a + b <= 1:
        raise InputError("Wachter requires a > 0, b > 0 and a + b > 1")
    s = a + b
    root = np.sqrt(a * (s - 1.0))
    lo = ((np.sqrt(b) - root) / s) ** 2
    hi = ((np.sqrt(b) + root) / s) ** 2
    p = [(a - 1.0) / (s - 1.0), -(s - 2.0) / (s - 1.0)]
    q = [0.0, 1.0 / (s - 1.0), -1.0 / (s - 1.0)]
    return _make_law("wachter", {"a": a, "b": b}, (lo, hi), p, q)


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
    half = 2.0 * np.sqrt(b)
    p = [-a * c, c - 2.0]
    q = [b * c * c, a * c, 1.0 - c]
    return _make_law("meixner", {"a": a, "b": b, "c": c}, (a - half, a + half), p, q)


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
    pv = npoly.polyval(x, law.p)
    qv = npoly.polyval(x, law.q)
    disc = 4.0 * qv - pv * pv
    out = np.zeros_like(x, dtype=float)
    good = inside & (disc > 0)
    out[good] = np.sqrt(disc[good]) / (2.0 * np.pi * qv[good])
    return out if out.ndim else float(out)


def law_cdf(law, x):
    """Distribution function of ``law`` (continuous part plus atoms)."""
    lo, hi = law.support
    grid = np.linspace(lo, hi, _CDF_GRID)
    dens = law_density(law, grid)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    x = np.asarray(x, dtype=float)
    vals = np.interp(x, grid, cum, left=0.0, right=cum[-1])
    for loc, mass in law.atoms:
        vals = vals + mass * (x >= loc)
    return vals if vals.ndim else float(vals)


def _stieltjes_from_pq(p, q, z, branch):
    z = np.asarray(z, dtype=complex)
    # Exactly real inputs are upper-half limits; without a nudge both roots
    # are real there and the Herglotz selection has nothing to compare.
    on_axis = z.imag == 0
    if np.any(on_axis):
        z = np.where(on_axis, z + 1j * 1e-10 * (1.0 + np.abs(z)), z)
    pv = npoly.polyval(z, np.asarray(p, dtype=complex))
    qv = npoly.polyval(z, np.asarray(q, dtype=complex))
    scale = np.maximum(np.abs(pv), np.abs(qv))
    if np.any((np.abs(pv) < _TINY * (1 + scale)) & (np.abs(qv) < _TINY * (1 + scale))):
        raise NumericalError("both roots of the Stieltjes quadratic are unbounded here")

    s = np.sqrt(pv * pv - 4.0 * qv)
    # Cancellation-safe: build the large root of u^2 - P u + Q first.
    flip = (pv.real * s.real + pv.imag * s.imag) < 0
    s = np.where(flip, -s, s)
    u = 0.5 * (pv + s)

    # Points where the quadratic degenerates to -P m + 1 = 0.
    degenerate = np.abs(qv) < 1e-300 + _TINY**2 * np.abs(u) ** 2
    qv_safe = np.where(degenerate, 1.0, qv)
    u_safe = np.where(np.abs(u) < 1e-300, 1.0, u)
    root_a = u / qv_safe
    root_b = 1.0 / u_safe

    # Herglotz selection.  Both roots can have Im m > 0 far from the support,
    # so compare F = -1/m instead: on the principal branch F is Herglotz with
    # F(z) ~ z, hence Im F >= Im z, and the root sum P/Q rules out both roots
    # satisfying that at once.  Real inputs are treated as upper-half limits.
    score_a = (-1.0 / np.where(np.abs(root_a) < 1e-300, 1.0, root_a)).imag
    score_b = (-1.0 / np.where(np.abs(root_b) < 1e-300, 1.0, root_b)).imag
    upper = z.imag >= 0
    pick_a = np.where(upper, score_a >= score_b, score_a < score_b)
    principal = np.where(pick_a, root_a, root_b)
    if branch == "principal":
        out = principal
    elif branch == "secondary":
        other = np.where(pick_a, root_b, root_a)
        out = np.where(upper, principal, other)
    else:
        raise InputError(f"unknown branch {branch!r}")
    out = np.where(degenerate, 1.0 / np.where(np.abs(pv) < 1e-300, np.inf, pv), out)
    return out


def law_stieltjes(law, z, branch="principal"):
    """Stieltjes transform of ``law`` on the requested branch.

    The principal branch is the Herglotz map (Im m > 0 on the upper
    half-plane) with a cut on the support; the secondary branch agrees with
    it above the real axis and continues analytically through the support
    cut into the lower half-plane, at the cost of a jump across the real
    axis outside the support.
    """
    z = np.asarray(z, dtype=complex)
    out = _stieltjes_from_pq(law.p, law.q, z, branch)
    return out if out.ndim else complex(out)


def law_hilbert(law, x):
    """Hilbert transform H[rho](x) = P(x) / (2 Q(x)) inside the open support."""
    x_arr = np.asarray(x, dtype=float)
    lo, hi = law.support
    if np.any(x_arr <= lo) or np.any(x_arr >= hi):
        raise InputError("Hilbert transform is the rational form only inside the open support")
    qv = npoly.polyval(x_arr, law.q)
    if np.any(np.abs(qv) < _TINY):
        raise InputError("Q(x) vanishes at the requested point")
    out = npoly.polyval(x_arr, law.p) / (2.0 * qv)
    return out if out.ndim else float(out)


def law_r_transform(law, z):
    """R-transform of ``law`` near zero (branch analytic at the origin)."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-12
    zs = np.where(small, 1.0, z)
    name, par = law.name, law.params
    if name == "wigner":
        out = (par["r"] ** 2 / 4.0) * z
    elif name == "mp":
        out = 1.0 / (1.0 - par["lam"] * z)
    elif name == "kesten-mckay":
        d = par["d"]
        out = d * (np.sqrt(1.0 + 4.0 * zs * zs) - 1.0) / (2.0 * zs)
        out = np.where(small, d * z, out)
    elif name == "wachter":
        a, b = par["a"], par["b"]
        s = a + b
        out = (-s + zs + np.sqrt(s * s + 2.0 * (a - b) * zs + zs * zs)) / (2.0 * zs)
        out = np.where(small, a / s + 0.0 * z, out)
    elif name == "meixner":
        a, b, c = par["a"], par["b"], par["c"]
        if c < 1:
            root = np.sqrt((1.0 - a * zs) ** 2 - 4.0 * b * (1.0 - c) * zs * zs)
            out = (c / (1.0 - c)) * (1.0 - a * zs - root) / (2.0 * zs)
        else:
            # c -> 1 limit of the branch analytic at the origin.
            out = b * zs / (1.0 - a * zs)
        out = np.where(small, b * c * z, out)
    else:
        raise InputError(f"unknown law {name!r}")
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
    r = float(ratio)
    if r < 1:
        raise InputError("decompression ratio must be >= 1")
    p = np.pad(np.asarray(law.p, dtype=float), (0, 2))[:2]
    q = np.pad(np.asarray(law.q, dtype=float), (0, 3))[:3]
    a = r - 1.0
    c = 1.0 - a * p[1] + a * a * q[2]
    if c <= 0:
        raise InputError(f"ratio {r:g} is outside the decompression domain of {law.name!r}")
    p_new = r * (p - a * np.array([q[1], 2.0 * q[2]])) / c
    q_new = r * r * q / c
    edges = npoly.polyroots(npoly.polysub(npoly.polymul(p_new, p_new), 4.0 * q_new))
    edges = np.sort(edges[np.abs(edges.imag) <= 1e-12 * (1.0 + np.abs(edges))].real)
    if edges.size != 2:
        raise NumericalError(f"decompressed {law.name!r} has no bounded support")
    support = (float(edges[0]), float(edges[1]))
    return _make_law(f"{law.name} x{r:g}", {"source": law, "ratio": r}, support, p_new, q_new)


# ----------------------------------------------------------------------
# matrix realizations


@dataclass(frozen=True)
class EnsembleDraw:
    """A matrix realization together with its limiting law."""

    law: EnsembleLaw
    matrix: np.ndarray
    generator_params: dict


def _symmetrize(a):
    return (a + a.T) / 2.0


def _wishart(rng, n, d, chunk=10000):
    # Accumulate X X^T / d in column chunks so huge d never materializes X.
    a = np.zeros((n, n))
    done = 0
    while done < d:
        cols = min(chunk, d - done)
        x = rng.standard_normal((n, cols))
        a += x @ x.T
        done += cols
    return _symmetrize(a / d)


def draw_ensemble(name, n, seed, d=None, d1=None, d2=None, coeffs=None):
    """Draw one matrix realization of the named law.

    Parameters
    ----------
    name : {'wigner', 'mp', 'kesten-mckay', 'wachter', 'meixner'}
    n : int
        Matrix order.
    seed : int
    d : int
        Wishart degrees of freedom ('mp') or even degree ('kesten-mckay').
    d1, d2 : int
        Degrees of freedom of the two Wishart factors ('wachter').
    coeffs : tuple
        ``(alpha0, beta0, alpha1, beta1)`` Jacobi data ('meixner').

    Notes
    -----
    The Wigner, MP, Kesten-McKay and Wachter draws have empirical spectral
    distributions converging to their laws.  The Meixner draw is the n-th
    truncation of the bordered-Toeplitz Jacobi matrix; the law there is the
    spectral measure at the first coordinate (Gauss-quadrature weights), not
    the flat eigenvalue counting measure.
    """
    if n < 1:
        raise InputError("matrix order must be >= 1")
    rng = make_rng(seed)
    if name == "wigner":
        x = rng.standard_normal((n, n))
        mat = _symmetrize(np.sqrt(2.0) * x)  # (x + x.T)/sqrt(2)
        law = wigner_law(2.0 * np.sqrt(n))
        params = {"n": n}
    elif name == "mp":
        if d is None or d < 1:
            raise InputError("'mp' requires degrees of freedom d >= 1")
        mat = _wishart(rng, n, d)
        law = marchenko_pastur_law(n / d)
        params = {"n": n, "d": d}
    elif name == "kesten-mckay":
        if d is None or d < 2 or d % 2 != 0:
            raise InputError("'kesten-mckay' requires even d >= 2 (d = 2k Haar summands)")
        k = d // 2
        mat = np.zeros((n, n))
        for i in range(k):
            o = _haar(rng, n)
            mat += o + o.T
        mat = _symmetrize(mat)
        law = kesten_mckay_law(d)
        params = {"n": n, "d": d}
    elif name == "wachter":
        if d1 is None or d2 is None or d1 < 1 or d2 < 1:
            raise InputError("'wachter' requires d1 >= 1 and d2 >= 1")
        if d1 + d2 <= n:
            raise InputError("'wachter' requires d1 + d2 > n for a positive definite sum")
        s1 = _wishart(rng, n, d1)
        s2 = _wishart(rng, n, d2)
        chol = np.linalg.cholesky(s1 + s2)
        inv = np.linalg.solve(chol, np.linalg.solve(chol, s1).T)
        mat = _symmetrize(inv)
        law = wachter_law(d1 / n, d2 / n)
        params = {"n": n, "d1": d1, "d2": d2}
    elif name == "meixner":
        if coeffs is None or len(coeffs) != 4:
            raise InputError("'meixner' requires coeffs = (alpha0, beta0, alpha1, beta1)")
        a0, b0, a1, b1 = map(float, coeffs)
        if b0 <= 0 or b1 <= 0:
            raise InputError("Jacobi off-diagonal coefficients must be positive")
        diag = np.full(n, a1)
        diag[0] = a0
        off = np.full(n - 1, b1)
        if n > 1:
            off[0] = b0
        mat = np.diag(diag)
        if n > 1:
            mat += np.diag(off, 1) + np.diag(off, -1)
        law = meixner_law(a=a1, b=b1 * b1, c=(b0 * b0) / (b1 * b1))
        params = {"n": n, "coeffs": (a0, b0, a1, b1)}
    else:
        raise InputError(f"unknown ensemble {name!r}")
    return EnsembleDraw(law, mat, params)
