import threading
import warnings
import weakref

import numpy as np
import pytest
import scipy.integrate
from numpy.polynomial import polynomial as npoly

from freedec import (
    EnsembleLaw,
    InputError,
    NumericalError,
    decompressed_law,
    draw_ensemble,
    eigenvalues_symmetric,
    kesten_mckay_law,
    law_cdf,
    law_density,
    law_hilbert,
    law_r_transform,
    law_stieltjes,
    make_rng,
    marchenko_pastur_law,
    meixner_decompression_params,
    meixner_law,
    wachter_law,
    wigner_law,
)
from freedec.ensembles import _real_roots, _wishart

ALL_LAWS = {
    "wigner": wigner_law(2.0),
    "mp": marchenko_pastur_law(0.5),
    "kesten-mckay": kesten_mckay_law(4),
    "wachter": wachter_law(2.5, 1.5625),
    "meixner": meixner_law(0.1, 4.0, 0.6),
}


def _random_upper(law, count, rng):
    lo, hi = law.support
    return rng.uniform(lo - 1, hi + 1, count) + 1j * rng.uniform(0.01, 3.0, count)


# ---------------------------------------------------------------------------
# densities


def test_wigner_density_center():
    law = wigner_law(2.0)
    assert law_density(law, 0.0) == pytest.approx(1.0 / np.pi)


def test_mp_zero_outside_support():
    law = marchenko_pastur_law(1.0 / 50.0)
    below = (1 - np.sqrt(1 / 50)) ** 2 - 1e-6
    assert law_density(law, below) == 0.0
    assert law_density(law, 10.0) == 0.0


def test_mp_density_value_and_histogram():
    law = marchenko_pastur_law(0.5)
    lo, hi = law.support
    want = np.sqrt((hi - 1.0) * (1.0 - lo)) / (2 * np.pi * 0.5 * 1.0)
    assert law_density(law, 1.0) == pytest.approx(want)
    draw = draw_ensemble("mp", 2000, seed=1, d=4000)
    ev = eigenvalues_symmetric(draw.matrix).eigenvalues
    # bulk histogram cross-check; edge bins are bias-dominated at this n
    width = hi - lo
    hist, edges = np.histogram(
        ev, bins=20, range=(lo + 0.1 * width, hi - 0.1 * width), density=True
    )
    hist *= np.mean((ev >= lo + 0.1 * width) & (ev <= hi - 0.1 * width))
    centers = 0.5 * (edges[1:] + edges[:-1])
    assert np.max(np.abs(hist - law_density(law, centers))) <= 0.05


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_density_mass_plus_atoms(name):
    law = ALL_LAWS[name]
    mass, _ = scipy.integrate.quad(
        lambda x: law_density(law, x), law.support[0], law.support[1], limit=400
    )
    assert mass + sum(m for _, m in law.atoms) == pytest.approx(1.0, abs=1e-8)


def test_mp_atom_above_one():
    law = marchenko_pastur_law(2.0)
    assert len(law.atoms) == 1
    loc, mass = law.atoms[0]
    assert abs(loc) < 1e-9
    assert mass == pytest.approx(1 - 1 / 2.0, abs=1e-8)


def test_wachter_atoms():
    law = wachter_law(0.8, 1.5)  # d1 < n: atom at zero with mass 1 - a
    locs = {round(loc, 6): mass for loc, mass in law.atoms}
    assert locs.get(0.0) == pytest.approx(0.2, abs=1e-6)


def _wachter_edges(a, b):
    s = a + b
    root = np.sqrt(a * (s - 1.0))
    return ((np.sqrt(b) - root) / s) ** 2, ((np.sqrt(b) + root) / s) ** 2


# each law's textbook edges and atoms, which _make_law derives from (P, Q)
_CLOSED_FORMS = [
    (wigner_law(2.0), (-2.0, 2.0), []),
    *[(marchenko_pastur_law(lam), ((1 - np.sqrt(lam)) ** 2, (1 + np.sqrt(lam)) ** 2),
       [(0.0, 1 - 1 / lam)] if lam > 1 else []) for lam in (1 / 50, 0.5, 1.0, 2.5)],
    (kesten_mckay_law(4), (-2.0 * np.sqrt(3.0), 2.0 * np.sqrt(3.0)), []),
    (wachter_law(2.5, 1.5625), _wachter_edges(2.5, 1.5625), []),
    (wachter_law(0.8, 1.5), _wachter_edges(0.8, 1.5), [(0.0, 0.2)]),  # d1 < n: mass 1 - a at 0
    (meixner_law(0.1, 4.0, 0.6), (0.1 - 4.0, 0.1 + 4.0), []),
    (decompressed_law(wachter_law(2.5, 1.5625), 2.0), None, [(1.0, 7 / 32)]),
]


@pytest.mark.parametrize("law, edges, atoms", _CLOSED_FORMS, ids=[
    "wigner(2)", "mp(0.02)", "mp(0.5)", "mp(1)", "mp(2.5)", "kesten-mckay(4)", "wachter(2.5,1.5625)",
    "wachter(0.8,1.5)", "meixner(0.1,4,0.6)", "wachter(2.5,1.5625)-x2"])
def test_support_and_atoms_match_closed_forms(law, edges, atoms):
    if edges is not None:
        assert np.max(np.abs(np.subtract(law.support, edges))) <= 1e-12 * law.width
    assert len(law.atoms) == len(atoms)
    for (loc, mass), (want_loc, want_mass) in zip(law.atoms, atoms):
        assert loc == pytest.approx(want_loc, abs=1e-12)
        assert mass == pytest.approx(want_mass, abs=1e-14)


def _reference_real_roots(c):
    # the root finder _make_law used before: numpy.polynomial plus the 1e-12 rule
    roots = npoly.polyroots(npoly.polytrim(c))
    return np.sort(roots[np.abs(roots.imag) <= 1e-12 * (1.0 + np.abs(roots))].real)


@pytest.mark.parametrize("c", [
    (3.0, -2.0, 0.0),  # c2 = 0: linear
    (3.0, 0.0, 0.0),  # c1 = c2 = 0: constant, no root
    (0.0, 0.0, 0.0),
    (0.0, 2.0, -1.0),  # c0 = 0: a root at 0
    (1.0, -2.0, 1.0),  # double root
    (0.81e-24, 0.0, 1.0),  # complex pair +-0.9e-12 i: inside the rule, a double root
    (-4 * 0.81e-24, 0.0, -4.0),
    (1.21e-24, 0.0, 1.0),  # +-1.1e-12 i: outside the rule, no root
    (2.0, -5.0, -3.0),
    (2.0, -1e8, 3.0),  # c1^2 >> 4 c0 c2
], ids=["linear", "constant", "zero", "root-at-0", "double", "pair-inside", "pair-inside-neg",
        "pair-outside", "two-roots", "c1-dominant"])
def test_real_roots_match_numpy_polynomial(c):
    got, want = _real_roots(*c), _reference_real_roots(c)
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=0.0, atol=1e-14 * (1.0 + np.max(np.abs(want), initial=0.0)))


def test_real_roots_keep_the_small_root():
    # c1^2 >> 4 c0 c2: the roots are 2e-8 and 3.3e7.  The textbook formula
    # (-c1 - sqrt(disc)) / (2 c2) gives the small one as 1.987e-8 and
    # numpy.polynomial as 1.86e-8 (both within the reference test's tolerance
    # at the scale of the large root); Vieta's product and sum hold to rounding.
    c0, c1, c2 = 2.0, -1e8, 3.0
    lo, hi = _real_roots(c0, c1, c2)
    assert lo * hi == pytest.approx(c0 / c2, rel=1e-15, abs=0.0)
    assert lo + hi == pytest.approx(-c1 / c2, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("make", [
    lambda: wigner_law(np.nan), lambda: marchenko_pastur_law(np.inf), lambda: kesten_mckay_law(np.inf),
    lambda: wachter_law(np.inf, 1.0), lambda: meixner_law(np.nan, 1.0, 0.5),
    lambda: decompressed_law(wigner_law(2.0), 1e200),  # r^2 Q overflows
])
def test_non_finite_parameters_are_bad_input(make):
    with pytest.raises(InputError, match="needs finite parameters"):
        make()


def test_overflowing_support_raises():
    # Q = 2.5e307 is finite, but P^2 - 4Q's discriminant overflows
    with pytest.raises(NumericalError, match="no bounded support"):
        wigner_law(1e154)


def test_cdf_jumps_at_atoms():
    for law, loc, mass in ((marchenko_pastur_law(2.5), 0.0, 0.6),
                           (decompressed_law(wachter_law(2.5, 1.5625), 2.0), 1.0, 7 / 32)):
        below, above = law_cdf(law, [loc - 1e-9, loc + 1e-9])
        assert above - below == pytest.approx(mass, abs=1e-14)
        assert law_cdf(law, law.support[1] + 1.0) == pytest.approx(1.0, abs=1e-4)


# ---------------------------------------------------------------------------
# Stieltjes transforms


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_quadratic_identity(name):
    law = ALL_LAWS[name]
    rng = make_rng(17)
    z = _random_upper(law, 100, rng)
    m = law_stieltjes(law, z)
    pv = npoly.polyval(z, law.p)
    qv = npoly.polyval(z, law.q)
    assert np.max(np.abs(qv * m * m - pv * m + 1.0)) <= 1e-12


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_herglotz_and_schwarz(name):
    law = ALL_LAWS[name]
    rng = make_rng(23)
    z = _random_upper(law, 50, rng)
    m = law_stieltjes(law, z)
    assert np.min(m.imag) > 0
    assert np.max(np.abs(law_stieltjes(law, np.conj(z)) - np.conj(m))) <= 1e-12


def test_wigner_tail():
    law = wigner_law(2.0)
    z = 1e4j
    assert abs(law_stieltjes(law, z) - (-1.0 / z)) / abs(1.0 / z) <= 1e-3


def test_mp_quadratic_polynomials():
    law = marchenko_pastur_law(0.3)
    assert law.p == (1 - 0.3, -1.0)
    assert law.q == (0.0, 0.3, 0.0)


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_plemelj_recovers_density(name):
    law = ALL_LAWS[name]
    lo, hi = law.support
    x = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 21)
    approx = law_stieltjes(law, x + 1e-6j).imag / np.pi
    assert np.max(np.abs(approx - law_density(law, x))) <= 1e-3


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_secondary_branch_continuous_inside_cut(name):
    law = ALL_LAWS[name]
    lo, hi = law.support
    x = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 17)
    up = law_stieltjes(law, x + 1e-8j, "secondary")
    down = law_stieltjes(law, x - 1e-8j, "secondary")
    # tolerance relative to the transform scale: the residual jump at finite
    # eta is the Lipschitz bound 2 eta |m'|, which grows with |m|
    scale = np.maximum(1.0, np.abs(up))
    assert np.max(np.abs(up - down) / scale) <= 1e-6


def test_secondary_branch_jumps_outside_support():
    law = marchenko_pastur_law(0.5)
    x = law.support[1] + 0.3 * law.width
    jump = abs(
        law_stieltjes(law, x + 1e-8j, "secondary") - law_stieltjes(law, x - 1e-8j, "secondary")
    )
    assert jump > 1e-3


def test_degenerate_quadratic_limit():
    # Q(0) = 0 for the MP law; the transform continues through 1/P there.
    law = marchenko_pastur_law(0.25)
    val = law_stieltjes(law, 0.0)
    assert val == pytest.approx(1.0 / (1.0 - 0.25), abs=1e-9)


def test_on_axis_pole_is_finite():
    # exactly real points are nudged 1e-10 (1 + |x|) above the axis: a pole
    # there (an atom) stays finite, and the nudge height times Im m is its mass
    cases = [
        (marchenko_pastur_law(2.0), 0.0, 0.5),
        (marchenko_pastur_law(1.0), 0.0, None),  # the left edge, no atom
        (decompressed_law(wachter_law(2.5, 1.5625), 2.0), 1.0, 0.21875),
    ]
    for law, x, mass in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = law_stieltjes(law, x)
        assert np.isfinite(m)
        if mass is not None:
            assert 1e-10 * (1.0 + abs(x)) * m.imag == pytest.approx(mass, rel=1e-6)


# ---------------------------------------------------------------------------
# Hilbert transforms


def test_wigner_hilbert_odd():
    assert law_hilbert(wigner_law(2.0), 0.0) == pytest.approx(0.0, abs=1e-14)
    assert law_hilbert(wigner_law(2.0), 0.5) == pytest.approx(-0.25)


def test_mp_hilbert_against_pv_quadrature():
    law = marchenko_pastur_law(0.25)
    for x0 in (1.0, 0.8, 1.4):
        want, _ = scipy.integrate.quad(
            lambda s: law_density(law, s),
            law.support[0],
            law.support[1],
            weight="cauchy",
            wvar=x0,
            limit=400,
        )
        # quad's cauchy weight is 1/(s - x0), matching H[rho](x0)
        assert law_hilbert(law, x0) == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_hilbert_structure(name):
    law = ALL_LAWS[name]
    lo, hi = law.support
    width = hi - lo
    # outside the support the transform is the (real) principal branch
    left = np.linspace(lo - 2.0 * width, lo - 1e-3 * width, 64)
    right = np.linspace(hi + 1e-3 * width, hi + 2.0 * width, 64)
    h_left = law_stieltjes(law, left).real
    h_right = law_stieltjes(law, right).real
    assert np.all(h_left > 0)
    assert np.all(np.diff(h_left) > 0)
    assert np.all(h_right < 0)
    assert np.all(np.diff(h_right) > 0)
    # odd number of interior sign changes (exact zeros on the grid dropped)
    x = np.linspace(lo + 1e-4 * width, hi - 1e-4 * width, 2001)
    signs = np.sign(law_hilbert(law, x))
    signs = signs[signs != 0]
    changes = int(np.sum(signs[1:] * signs[:-1] < 0))
    assert changes % 2 == 1
    # -1/x tail
    far = lo - 1e3 * width
    assert abs(law_stieltjes(law, far).real * far + 1.0) <= 1e-2


def test_hilbert_requires_interior():
    law = wigner_law(2.0)
    with pytest.raises(InputError):
        law_hilbert(law, 2.5)


# ---------------------------------------------------------------------------
# R-transforms


def test_r_transform_closed_forms():
    z = 0.037 + 0.011j
    assert law_r_transform(wigner_law(2.0), z) == pytest.approx(z)
    assert law_r_transform(marchenko_pastur_law(0.5), z) == pytest.approx(1 / (1 - 0.5 * z))


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_r_functional_identity(name):
    # R is the inverse side of the transform: R(-m(w)) - 1/m(w) = w.
    law = ALL_LAWS[name]
    rng = make_rng(31)
    lo, hi = law.support
    w = rng.uniform(lo, hi, 20) + 1j * rng.uniform(0.5, 2.0, 20) * (hi - lo)
    m = law_stieltjes(law, w)
    assert np.max(np.abs(law_r_transform(law, -m) - 1.0 / m - w)) <= 1e-9


# the ratios inside each law's decompression domain, of 2, 8 and 32
_DOMAIN = {"wigner": (2, 8, 32), "mp": (2, 8, 32), "kesten-mckay": (2,), "wachter": (2,),
           "meixner": (2, 8, 32)}


@pytest.mark.parametrize("name", sorted(ALL_LAWS))
def test_r_transform_of_decompressed_law(name):
    # decompression scales the free cumulants as kappa_n -> r^(n-1) kappa_n,
    # so the decompressed law's R at z is the source law's R at r z
    law = ALL_LAWS[name]
    rng = make_rng(41)
    for ratio in (2, 8, 32):
        if ratio not in _DOMAIN[name]:
            with pytest.raises(InputError):
                decompressed_law(law, ratio)
            continue
        z = (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)) * (0.005 / ratio)
        got = law_r_transform(decompressed_law(law, ratio), z)
        assert np.max(np.abs(got - law_r_transform(law, ratio * z))) <= 1e-12


def test_meixner_flow_identity_and_composition():
    a, b, c = 0.1, 4.0, 0.6
    rng = make_rng(5)
    for alpha in (2.0, 8.0, 32.0):
        a2, b2, c2 = meixner_decompression_params(a, b, c, alpha)
        z = (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)) * (0.005 / alpha)
        lhs = law_r_transform(meixner_law(a, b, c), alpha * z)
        rhs = law_r_transform(meixner_law(a2, b2, c2), z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9
    via = meixner_decompression_params(*meixner_decompression_params(a, b, c, 4.0), 8.0)
    direct = meixner_decompression_params(a, b, c, 32.0)
    assert np.max(np.abs(np.array(via) - np.array(direct))) <= 1e-12 * max(direct)


def test_meixner_flow_identity_alpha_one():
    assert meixner_decompression_params(0.1, 4.0, 0.6, 1.0) == pytest.approx((0.1, 4.0, 0.6))


def test_meixner_flow_validation():
    with pytest.raises(InputError):
        meixner_decompression_params(0.1, 4.0, 1.2, 2.0)
    with pytest.raises(InputError):
        meixner_decompression_params(0.1, 4.0, 0.6, -1.0)


# ---------------------------------------------------------------------------
# closed-form decompression


def _assert_same_law(got, want):
    # measured: coefficients 2e-16, edges 3e-14 of the width, densities 9e-14
    # of the peak
    for g, w in ((got.p, want.p), (got.q, want.q)):
        assert np.max(np.abs(np.subtract(g, w))) <= 1e-12 * max(1.0, np.max(np.abs(w)))
    assert np.max(np.abs(np.subtract(got.support, want.support))) <= 1e-12 * want.width
    assert [m for _, m in got.atoms] == pytest.approx([m for _, m in want.atoms], abs=1e-9)
    lo, hi = want.support
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * (np.arange(999) + 0.5) / 999)
    want_rho = law_density(want, x)
    assert np.max(np.abs(law_density(got, x) - want_rho)) <= 1e-10 * want_rho.max()


def test_decompressed_law_closed_forms():
    for ratio in (1.0, 2.0, 8.0, 32.0):
        _assert_same_law(decompressed_law(marchenko_pastur_law(1 / 50), ratio),
                         marchenko_pastur_law(ratio / 50))
        _assert_same_law(decompressed_law(wigner_law(2.0), ratio), wigner_law(2.0 * np.sqrt(ratio)))
    # past lam r = 1 the MP law grows an atom at zero
    _assert_same_law(decompressed_law(marchenko_pastur_law(0.5), 4.0), marchenko_pastur_law(2.0))
    for ratio in (2.0, 8.0, 32.0):
        flowed = meixner_decompression_params(0.1, 4.0, 0.6, ratio)
        _assert_same_law(decompressed_law(meixner_law(0.1, 4.0, 0.6), ratio), meixner_law(*flowed))


def test_decompressed_kesten_mckay_is_arcsine():
    law = decompressed_law(kesten_mckay_law(4), 2.0)
    arcsine = EnsembleLaw("arcsine", (-4.0, 4.0), (0.0, 0.0), (16.0, 0.0, -1.0))
    _assert_same_law(law, arcsine)
    x = np.linspace(-3.99, 3.99, 999)
    assert law_density(law, x) == pytest.approx(1.0 / (np.pi * np.sqrt(16.0 - x * x)), rel=1e-12)


def test_decompressed_wachter_atom():
    # Wachter(2.5, 1.5625) x2 puts mass 7/32 on x = 1, outside its support
    law = decompressed_law(wachter_law(2.5, 1.5625), 2.0)
    assert len(law.atoms) == 1
    loc, mass = law.atoms[0]
    assert loc == pytest.approx(1.0, abs=1e-12)
    assert mass == pytest.approx(0.21875, abs=1e-6)
    assert law.support[1] < 1.0
    cont, _ = scipy.integrate.quad(lambda x: law_density(law, x), *law.support, limit=400)
    assert cont == pytest.approx(0.78125, abs=1e-8)


# 23 source laws for the closed-form sweep, some with atoms, some whose
# decompression domain ends inside the ratios below, by name and parameters
_SWEEP = [
    *[(wigner_law, (r,)) for r in (0.5, 2.0, 7.0)],
    *[(marchenko_pastur_law, (lam,)) for lam in (1 / 50, 0.1, 0.5, 0.9, 1.0, 2.0, 2.5)],
    *[(kesten_mckay_law, (d,)) for d in (2, 3, 4, 10)],
    *[(wachter_law, ab) for ab in ((2.5, 1.5625), (0.8, 1.5), (3.0, 3.0), (0.5, 0.7))],
    *[(meixner_law, abc) for abc in ((0.1, 4.0, 0.6), (2.0, 0.5, 0.2), (0.0, 1.0, 1.0),
                                      (-1.0, 2.0, 0.9), (0.5, 1.0, 0.05))],
]
_SWEEP_LAWS = {f"{make(*args).name}{args}": make(*args) for make, args in _SWEEP}


def _reference_decompression(law, ratio):
    # (P', Q') of decompressed_law through numpy arrays, None outside the domain
    p, q = np.array(law.p), np.array(law.q)
    a = ratio - 1.0
    c = 1.0 - a * p[1] + a * a * q[2]
    if c <= 0:
        return None
    return ratio * (p - a * np.array([q[1], 2.0 * q[2]])) / c, ratio * ratio * q / c


def _reference_support_and_atoms(p, q):
    # _make_law's support and atoms through numpy.polynomial
    lo, hi = _reference_real_roots(npoly.polysub(npoly.polymul(p, p), 4.0 * q))
    atoms = []
    for x0 in _reference_real_roots(q):
        s = -(2.0 + p[1]) * np.sign(x0 - hi) * np.sqrt(max((x0 - lo) * (x0 - hi), 0.0))
        px = npoly.polyval(x0, p)
        if px * s < 0:
            atoms.append((x0, -px / npoly.polyval(x0, npoly.polyder(q))))
    return (lo, hi), atoms


@pytest.mark.parametrize("law", _SWEEP_LAWS.values(), ids=_SWEEP_LAWS)
def test_decompressed_laws_match_numpy_polynomial(law):
    # measured: edges within 7.9e-16 of the width, atoms within 1.8e-15 in
    # location and 5.6e-16 in mass
    for ratio in (1.0, 1.001, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0):
        ref = _reference_decompression(law, ratio)
        if ref is None:
            with pytest.raises(InputError):
                decompressed_law(law, ratio)
            continue
        got = decompressed_law(law, ratio)
        assert all(type(v) is float for v in got.p + got.q)
        assert (len(got.p), len(got.q)) == (2, 3)
        assert np.array_equal(got.p, ref[0]) and np.array_equal(got.q, ref[1])
        support, atoms = _reference_support_and_atoms(*ref)
        assert np.max(np.abs(np.subtract(got.support, support))) <= 1e-14 * got.width
        assert len(got.atoms) == len(atoms)
        for (loc, mass), (want_loc, want_mass) in zip(got.atoms, atoms):
            assert loc == pytest.approx(want_loc, abs=1e-14 * max(1.0, abs(want_loc)))
            assert mass == pytest.approx(want_mass, abs=1e-14)


def test_decompressed_law_domain():
    # C = 1 - a p1 + a^2 q2 vanishes at the pole ratio d of Kesten-McKay(d)
    assert decompressed_law(kesten_mckay_law(4), 3.9).width > 0
    for ratio in (4.0, 8.0, 0.5, np.nan, np.inf):
        with pytest.raises(InputError):
            decompressed_law(kesten_mckay_law(4), ratio)


# ---------------------------------------------------------------------------
# draws


def test_wigner_draw_edge_confinement():
    draw = draw_ensemble("wigner", 1000, seed=8)
    ev = eigenvalues_symmetric(draw.matrix).eigenvalues / np.sqrt(1000)
    frac_outside = np.mean((ev < -2.2) | (ev > 2.2))
    assert frac_outside <= 0.01


def test_ks_distance_decreases_with_n():
    # every ensemble draw_ensemble realizes: its eigenvalues follow the law it returns
    for name, kwargs in (("wigner", {}), ("mp", {"d": 2000}), ("kesten-mckay", {"d": 4}),
                         ("wachter", {"d1": 1500, "d2": 1200})):
        stats = []
        for n in (60, 480):
            draw = draw_ensemble(name, n, seed=13, **kwargs)
            ev = eigenvalues_symmetric(draw.matrix).eigenvalues
            ecdf = (np.arange(ev.size) + 1) / ev.size
            stats.append(np.max(np.abs(law_cdf(draw.law, ev) - ecdf)))
        assert stats[1] < stats[0]


def test_kesten_mckay_draw_requires_even_degree():
    with pytest.raises(InputError):
        draw_ensemble("kesten-mckay", 50, seed=1, d=3)


def test_kesten_mckay_draw_spectrum():
    draw = draw_ensemble("kesten-mckay", 400, seed=2, d=4)
    ev = eigenvalues_symmetric(draw.matrix).eigenvalues
    lo, hi = draw.law.support
    assert np.mean((ev < lo - 0.4) | (ev > hi + 0.4)) < 0.02


def test_wishart_needs_dimensions():
    with pytest.raises(InputError):
        draw_ensemble("mp", 100, seed=1)


# ---------------------------------------------------------------------------
# The chunked Wishart draw: one chunk of normals is drawn ahead on a helper
# thread while the previous chunk's X X^T is added.


def _serial_wishart(rng, n, d):
    # the acceptance fixture's loop: one chunk at a time, in stream order
    a = np.zeros((n, n))
    done = 0
    while done < d:
        cols = min(10000, d - done)
        x = rng.standard_normal((n, cols))
        a += x @ x.T
        done += cols
    return (a + a.T) / (2.0 * d)


@pytest.mark.parametrize("d", [3, 9999, 20000, 25001])
def test_mp_draw_matches_serial_loop_bit_for_bit(d):
    mat = draw_ensemble("mp", 30, seed=11, d=d).matrix
    ref = _serial_wishart(make_rng(11), 30, d)
    assert mat.tobytes() == ref.tobytes()


def test_wachter_draw_matches_serial_loop_bit_for_bit():
    n, d1, d2 = 30, 25001, 20000
    mat = draw_ensemble("wachter", n, seed=12, d1=d1, d2=d2).matrix
    rng = make_rng(12)
    s1 = _serial_wishart(rng, n, d1)
    s2 = _serial_wishart(rng, n, d2)
    chol = np.linalg.cholesky(s1 + s2)
    inv = np.linalg.solve(chol, np.linalg.solve(chol, s1).T)
    assert mat.tobytes() == ((inv + inv.T) / 2.0).tobytes()


class _StubNormals:
    """A ``standard_normal`` source that can fail, misshape, and count its live chunks."""

    def __init__(self, raise_at=None, misshape_at=None):
        self.raise_at, self.misshape_at = raise_at, misshape_at
        self.calls = self.live = self.peak = 0
        self._lock = threading.Lock()

    def _release(self):
        with self._lock:
            self.live -= 1

    def standard_normal(self, shape):
        self.calls += 1
        if self.calls == self.raise_at:
            raise RuntimeError("stub draw failed")
        if self.calls == self.misshape_at:
            shape = (shape[0] + 1, shape[1])
        x = np.full(shape, float(self.calls))
        with self._lock:
            self.live += 1
            self.peak = max(self.peak, self.live)
        weakref.finalize(x, self._release)
        return x


@pytest.mark.parametrize("fault, error", [
    ({"raise_at": 2}, RuntimeError),  # the helper thread's draw raises
    ({"misshape_at": 2}, ValueError),  # this thread's update raises
])
def test_wishart_failure_reaches_caller_and_joins_helper(fault, error):
    stub = _StubNormals(**fault)
    threads = threading.active_count()
    caught = []

    def draw():
        try:
            _wishart(stub, 4, 50, chunk=10)
        except Exception as exc:
            caught.append(exc)

    caller = threading.Thread(target=draw, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()  # the draw returned: no helper was left blocked
    assert len(caught) == 1 and isinstance(caught[0], error)
    assert threading.active_count() == threads
    assert stub.calls <= 3  # the draw stopped within one chunk of the failure


def test_wishart_draws_at_most_one_chunk_ahead():
    stub = _StubNormals()
    mat = _wishart(stub, 3, 400, chunk=2)
    # chunk k is all k: sum_k 2 k^2 over k = 1..200, over d, in every entry
    assert np.all(mat == sum(2.0 * k * k for k in range(1, 201)) / 400)
    assert stub.calls == 200
    # the chunk being added and the one drawn ahead: 2, as in the serial
    # loop; drawing every chunk ahead would keep up to 200 alive
    assert stub.peak <= 3
