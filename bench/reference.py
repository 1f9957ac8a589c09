"""Reference computations the benchmark checks freedec against.

Everything here is written from the closed forms in the random-matrix
literature and integrated with the benchmark's own quadrature; nothing is
imported from freedec.  Run ``python3 bench/reference.py`` for the
self-test, which compares each formula with scipy's adaptive quadrature.

Free decompression by a ratio r multiplies the n-th free cumulant by
r^(n-1) (Nica & Speicher, Amer. J. Math. 118, 1996).  Hence the
decompressed law keeps unit mass and the source mean, its variance is r
times the source variance, and the closed-form families map into
themselves: MP(lam) -> MP(r lam), a semicircle of radius R -> radius
R sqrt(r), and Kesten-McKay(4) at r = 2 becomes the arcsine law on [-4, 4].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NODES = 4096  # midpoint nodes in the angle variable; spectral for sqrt edges


@dataclass(frozen=True)
class Law:
    """A closed-form density on a compact interval."""

    name: str
    support: tuple[float, float]
    density: object  # vectorised callable, zero outside the support
    even: bool = False  # symmetric about the centre of its support

    def moments(self):
        """(mass, mean, variance) by quadrature in the angle variable."""
        x, w = _angle_rule(self.support, _NODES)
        f = self.density(x) * w
        mass = f.sum()
        mean = (x * f).sum() / mass
        return float(mass), float(mean), float(((x - mean) ** 2 * f).sum() / mass)

    def mass_between(self, lo, hi):
        """Mass of the law inside [lo, hi]."""
        a = max(lo, self.support[0])
        b = min(hi, self.support[1])
        if b <= a:
            return 0.0
        c, h = _centre_half(self.support)
        th_hi = math.acos(max(-1.0, min(1.0, (a - c) / h)))
        th_lo = math.acos(max(-1.0, min(1.0, (b - c) / h)))
        th = th_lo + (th_hi - th_lo) * (np.arange(_NODES) + 0.5) / _NODES
        x = c + h * np.cos(th)
        return float((self.density(x) * h * np.sin(th)).sum() * (th_hi - th_lo) / _NODES)


def _centre_half(support):
    lo, hi = support
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _angle_rule(support, n):
    # x = c + h cos(theta): the sqrt(edge) factor of every law here becomes
    # sin(theta), so the midpoint rule in theta converges spectrally.
    c, h = _centre_half(support)
    th = np.pi * (np.arange(n) + 0.5) / n
    return c + h * np.cos(th), h * np.sin(th) * np.pi / n


def _inside(x, support):
    x = np.asarray(x, dtype=float)
    return x, (x > support[0]) & (x < support[1])


def marchenko_pastur(lam):
    """MP law of ratio lam < 1 with unit mean: sqrt((x-a)(b-x)) / (2 pi lam x)."""
    a, b = (1 - math.sqrt(lam)) ** 2, (1 + math.sqrt(lam)) ** 2

    def density(x):
        x, ok = _inside(x, (a, b))
        xs = np.where(ok, x, 0.5 * (a + b))
        return np.where(ok, np.sqrt((xs - a) * (b - xs)) / (2 * np.pi * lam * xs), 0.0)

    return Law(f"mp({lam:g})", (a, b), density)


def semicircle(radius):
    """Wigner semicircle: 2 sqrt(R^2 - x^2) / (pi R^2)."""

    def density(x):
        x, ok = _inside(x, (-radius, radius))
        return np.where(ok, 2 * np.sqrt(np.where(ok, radius**2 - x * x, 0.0)) / (np.pi * radius**2), 0.0)

    return Law(f"semicircle({radius:g})", (-radius, radius), density, even=True)


def arcsine(half_width):
    """Arcsine law on [-a, a]: 1 / (pi sqrt(a^2 - x^2))."""

    def density(x):
        x, ok = _inside(x, (-half_width, half_width))
        return np.where(ok, 1 / (np.pi * np.sqrt(np.where(ok, half_width**2 - x * x, 1.0))), 0.0)

    return Law(f"arcsine({half_width:g})", (-half_width, half_width), density, even=True)


def kesten_mckay(d):
    """Kesten-McKay law: d sqrt(4(d-1) - x^2) / (2 pi (d^2 - x^2))."""
    edge = 2 * math.sqrt(d - 1)

    def density(x):
        x, ok = _inside(x, (-edge, edge))
        xs = np.where(ok, x, 0.0)
        return np.where(ok, d * np.sqrt(4 * (d - 1) - xs * xs) / (2 * np.pi * (d * d - xs * xs)), 0.0)

    return Law(f"kesten-mckay({d:g})", (-edge, edge), density, even=True)


def wachter(a, b):
    """Wachter law: (a+b) sqrt((x-x-)(x+-x)) / (2 pi x (1-x))."""
    s = a + b
    lo = ((math.sqrt(b) - math.sqrt(a * (s - 1))) / s) ** 2
    hi = ((math.sqrt(b) + math.sqrt(a * (s - 1))) / s) ** 2

    def density(x):
        x, ok = _inside(x, (lo, hi))
        xs = np.where(ok, x, 0.5 * (lo + hi))
        return np.where(ok, s * np.sqrt((xs - lo) * (hi - xs)) / (2 * np.pi * xs * (1 - xs)), 0.0)

    return Law(f"wachter({a:g},{b:g})", (lo, hi), density)


def free_meixner(a, b, c):
    """Free Meixner law: c sqrt(4b - (x-a)^2) / (2 pi ((1-c) x^2 + a c x + b c^2))."""
    lo, hi = a - 2 * math.sqrt(b), a + 2 * math.sqrt(b)

    def density(x):
        x, ok = _inside(x, (lo, hi))
        xs = np.where(ok, x, a)
        den = (1 - c) * xs * xs + a * c * xs + b * c * c
        return np.where(ok, c * np.sqrt(4 * b - (xs - a) ** 2) / (2 * np.pi * den), 0.0)

    return Law(f"meixner({a:g},{b:g},{c:g})", (lo, hi), density)


def mp_log_moment(lam):
    """Integral of log x against MP(lam): -1 + (lam - 1)/lam log(1 - lam)."""
    return -1.0 + (lam - 1.0) / lam * math.log1p(-lam)


def chebyshev_u_coefficients(law, order):
    """Coefficients c_k with rho(x) = sqrt(1 - t^2) sum_k c_k U_k(t) on the support.

    t maps the support onto [-1, 1].  Orthogonality of U_k under
    sqrt(1 - t^2) gives c_k = (2/pi) int_0^pi rho(x(cos th)) sin((k+1) th) dth.
    The odd coefficients of an even law vanish by symmetry and are set to
    exactly zero.
    """
    c, h = _centre_half(law.support)
    th = np.pi * (np.arange(_NODES) + 0.5) / _NODES
    f = law.density(c + h * np.cos(th))
    k = np.arange(order + 1)[:, np.newaxis]
    coeffs = (2.0 / _NODES) * (f * np.sin((k + 1) * th)).sum(axis=1)
    if law.even:
        coeffs[1::2] = 0.0
    return coeffs


def chebyshev_u_density(coeffs, support, x):
    """Evaluate sqrt(1 - t^2) sum_k c_k U_k(t) by the three-term recurrence."""
    c, h = _centre_half(support)
    t = (np.asarray(x, dtype=float) - c) / h
    ok = np.abs(t) < 1
    t = np.where(ok, t, 0.0)
    u_prev, u = np.zeros_like(t), np.ones_like(t)
    total = np.zeros_like(t)
    for ck in coeffs:
        total += ck * u
        u_prev, u = u, 2 * t * u - u_prev
    return np.where(ok, np.sqrt(1 - t * t) * total, 0.0)


def grid_moments(x, rho):
    """(mass, mean, variance) of grid samples by the trapezoid rule."""
    mass = float(np.trapezoid(rho, x))
    mean = float(np.trapezoid(x * rho, x)) / mass
    var = float(np.trapezoid((x - mean) ** 2 * rho, x)) / mass
    return mass, mean, var


def honest_tv(x, estimate, target):
    """Total variation that hides nothing.

    ``estimate`` holds the density on the grid ``x`` with failed points
    already set to zero.  Nothing is renormalised, and target mass outside
    the grid counts in full.
    """
    on_grid = float(np.trapezoid(np.abs(estimate - target.density(x)), x))
    off_grid = 1.0 - target.mass_between(x[0], x[-1])
    return 0.5 * (on_grid + max(off_grid, 0.0))


def log_moment(x, estimate):
    """Integral of log x against the estimate over x > 0, not renormalised.

    Mass at x <= 0 has no logarithm and is left out; it shows in the TV.
    """
    pos = x > 0
    return float(np.trapezoid(np.log(x[pos]) * estimate[pos], x[pos]))


def identity_errors(x, estimate, source_mean, source_var, ratio, tol):
    """Deviations from the decompression identities, as readable strings.

    ``tol`` = (mass, mean in units of the target standard deviation,
    relative variance).  Returns an empty list when all three hold.
    """
    mass, mean, var = grid_moments(x, estimate)
    target_var = ratio * source_var
    errors = []
    if abs(mass - 1.0) > tol[0]:
        errors.append(f"mass {mass:.4f} != 1")
    if abs(mean - source_mean) > tol[1] * math.sqrt(target_var):
        errors.append(f"mean {mean:.4f} != {source_mean:.4f}")
    if abs(var - target_var) > tol[2] * target_var:
        errors.append(f"variance {var:.4f} != {ratio:g} x {source_var:.5f}")
    return errors


def self_test():
    """Check every formula above against scipy's adaptive quadrature.

    Returns a list of failures; empty means the references hold.
    """
    import scipy.integrate

    def quad(f, lo, hi):
        return scipy.integrate.quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-12)[0]

    failures = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            failures.append(f"{name}: {got!r} vs {want!r}")

    cases = [
        (marchenko_pastur(1 / 50), 1.0, 1 / 50),
        (marchenko_pastur(0.64), 1.0, 0.64),
        (semicircle(2.0), 0.0, 1.0),
        (arcsine(4.0), 0.0, 8.0),
        (kesten_mckay(4), 0.0, 4.0),
        (wachter(2.5, 1.5625), 2.5 / 4.0625, None),
        (free_meixner(0.1, 4.0, 0.6), 0.0, 4.0 * 0.6),
    ]
    for law, mean, var in cases:
        lo, hi = law.support
        f = lambda v: float(law.density(v))  # noqa: E731
        q_mass = quad(f, lo, hi)
        q_mean = quad(lambda v: v * f(v), lo, hi) / q_mass
        q_var = quad(lambda v: (v - q_mean) ** 2 * f(v), lo, hi) / q_mass
        mass_, mean_, var_ = law.moments()
        expect(f"{law.name} mass", mass_, 1.0, 1e-9)
        expect(f"{law.name} quad mass", q_mass, 1.0, 1e-7)
        expect(f"{law.name} mean", mean_, mean, 1e-9)
        expect(f"{law.name} quad mean", q_mean, mean_, 1e-7)
        expect(f"{law.name} variance", var_, q_var, 1e-7)
        if var is not None:
            expect(f"{law.name} closed-form variance", var_, var, 1e-9)
        mid = 0.5 * (lo + hi)
        expect(f"{law.name} half mass", law.mass_between(lo - 1, mid), quad(f, lo, mid), 1e-7)
    for lam in (2 / 50, 8 / 50, 32 / 50):
        law = marchenko_pastur(lam)
        lo, hi = law.support
        got = quad(lambda v: math.log(v) * float(law.density(v)), lo, hi)
        expect(f"mp({lam:g}) log-moment", mp_log_moment(lam), got, 1e-9)
    expect("mp(0.64) log-moment value", mp_log_moment(0.64), -0.425321, 1e-6)
    for law, order in ((marchenko_pastur(1 / 50), 20), (kesten_mckay(4), 50)):
        coeffs = chebyshev_u_coefficients(law, order)
        x = np.linspace(*law.support, 101)[1:-1]
        err = float(np.max(np.abs(chebyshev_u_density(coeffs, law.support, x) - law.density(x))))
        expect(f"{law.name} Chebyshev-U series", err, 0.0, 1e-9)
        c, h = _centre_half(law.support)
        q_c2 = (2 / np.pi) * quad(
            lambda th: float(law.density(c + h * math.cos(th))) * math.sin(3 * th), 0, math.pi
        )
        expect(f"{law.name} c_2", coeffs[2], q_c2, 1e-9)
    law = semicircle(2.0)
    x = np.linspace(-1.0, 1.0, 2001)
    expect("honest TV of a perfect half-grid estimate", honest_tv(x, law.density(x), law),
           0.5 * (1.0 - quad(lambda v: float(law.density(v)), -1.0, 1.0)), 1e-6)
    x = np.linspace(-3.0, 3.0, 6001)
    expect("honest TV of a zero estimate", honest_tv(x, np.zeros_like(x), law), 0.5, 1e-5)
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("reference self-test:", "FAIL" if problems else "ok")
    raise SystemExit(1 if problems else 0)
