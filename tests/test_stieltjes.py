import warnings

import numpy as np
import pytest
import scipy.integrate
from numpy.polynomial import polynomial as npoly
from scipy.special import eval_chebyu

import freedec.stieltjes as stieltjes
from freedec import (
    ChebyshevPadeEvaluator,
    DensityModel,
    InputError,
    LawEvaluator,
    chebyshev_coefficients_from_grid,
    evaluator_for_model,
    joukowski,
    joukowski_inverse,
    kesten_mckay_law,
    law_density,
    law_stieltjes,
    make_rng,
    marchenko_pastur_law,
    wigner_law,
)


def _quad_transform(density, lo, hi, z):
    re = scipy.integrate.quad(lambda s: (density(s) / (s - z)).real, lo, hi, limit=400)[0]
    im = scipy.integrate.quad(lambda s: (density(s) / (s - z)).imag, lo, hi, limit=400)[0]
    return re + 1j * im


def _exact_model(law, k_max):
    sup = (law.support[0] - 1e-9, law.support[1] + 1e-9)
    xs = np.linspace(sup[0], sup[1], 8192)
    psi = chebyshev_coefficients_from_grid(xs, law_density(law, xs), sup, k_max)
    return DensityModel(support=sup, basis="chebyshev-u", psi=psi)


def _mp_model(lam=0.5, k_max=40):
    law = marchenko_pastur_law(lam)
    return _exact_model(law, k_max), law


# ---------------------------------------------------------------------------
# Joukowski


def test_joukowski_inverse_pair():
    w = 0.5 * np.exp(1j * np.pi / 3)
    z = joukowski(w)
    assert abs(joukowski_inverse(z) - w) <= 1e-12


def test_joukowski_inverse_roundtrip():
    rng = make_rng(12)
    z = rng.uniform(-3, 3, 60) + 1j * rng.uniform(0.01, 2.0, 60)
    assert np.max(np.abs(joukowski(joukowski_inverse(z)) - z)) <= 1e-12


def test_joukowski_tail():
    y = 1e4
    want = 1.0 / (2j * y)
    got = joukowski_inverse(1j * y)
    assert abs(got - want) / abs(want) <= 1e-3


def test_joukowski_unit_disk():
    x = np.linspace(-0.99, 0.99, 41)
    assert np.max(np.abs(joukowski_inverse(x + 1e-6j))) <= 1.0 + 1e-12
    rng = make_rng(3)
    z = rng.uniform(-4, 4, 100) + 1j * rng.uniform(1e-4, 5, 100)
    assert np.max(np.abs(joukowski_inverse(z))) <= 1.0


def test_chebyshev_weight_transform_identity():
    # quadrature of U_k(x) sqrt(1-x^2) / (z - x) equals pi J(z)^(k+1)
    rng = make_rng(8)
    for k in range(6):
        for _ in range(3):
            z = rng.uniform(-2, 2) + 1j * rng.uniform(0.1, 2.0)
            got = _quad_transform(
                lambda s, k=k: eval_chebyu(k, s) * np.sqrt(1 - s * s), -1, 1, z
            )
            assert abs(-got - np.pi * joukowski_inverse(z) ** (k + 1)) <= 1e-8


# ---------------------------------------------------------------------------
# diagonal Pade approximants


def _series_evaluator(coeffs):
    model = DensityModel(support=(-1.0, 1.0), basis="chebyshev-u", psi=np.asarray(coeffs, float))
    return ChebyshevPadeEvaluator(model)


def _series_at(ev, w):
    # S(w) = N(w) / D(w) of the deepest approximant, straight from the pair list
    num, den = ev._approximants[ev.approximant_count]
    return npoly.polyval(w, num) / npoly.polyval(w, den)


def _principal(ev, z):
    # the model's own transform: the ratio-1 follow of the deepest approximant
    return ev.decompressed(1.0, order=ev.approximant_count).stieltjes(z)


def test_pade_geometric_beyond_radius():
    ev = _series_evaluator(np.ones(10))
    assert (ev.approximant_count, ev.breakdown) == (4, False)
    assert abs(_series_at(ev, 2.0) - (-1.0)) <= 1e-10


def test_pade_constant_series():
    ev = _series_evaluator([5.0, 0.0])
    assert _series_at(ev, 123.0) == pytest.approx(5.0)


def test_pade_two_pole_rational():
    k = np.arange(12)
    ev = _series_evaluator(1.5 - 0.5 * (1.0 / 3.0) ** k)  # 1/((1-w)(1-w/3))
    want = 1.0 / ((1 - 2.0) * (1 - 2.0 / 3.0))
    assert abs(_series_at(ev, 2.0) - want) <= 1e-8


def test_pade_singular_systems_take_minimum_norm_denominators():
    # the two-pole series is rational of degree 2, so every [k/k] system with
    # k >= 3 is singular; each denominator must still satisfy the Pade
    # conditions and be the minimum-norm solution of its Toeplitz system
    c = 1.5 - 0.5 * (1.0 / 3.0) ** np.arange(12)
    ev = _series_evaluator(c)
    assert (ev.approximant_count, ev.breakdown) == (5, False)
    for k in range(1, 6):
        num, den = ev._approximants[k]
        q = np.pad(den, (0, k + 1 - den.size))
        assert np.max(np.abs(np.convolve(q, c)[k + 1 : 2 * k + 1])) <= 1e-13
        assert np.max(np.abs(np.pad(num, (0, k + 1 - num.size)) - np.convolve(q, c)[: k + 1])) <= 1e-13
        toeplitz = np.array([[c[k + i - j] for j in range(k)] for i in range(k)])
        want = -np.linalg.pinv(toeplitz) @ c[k + 1 : 2 * k + 1]
        assert np.max(np.abs(q[1:] - want)) <= 1e-12


def test_pade_zero_coefficient_breakdown():
    # c_1 = 0 leaves no approximant: the plain partial sum is returned
    ev = _series_evaluator([1.0, 0.0, 2.0, 3.0])
    assert (ev.approximant_count, ev.breakdown) == (0, True)
    assert _series_at(ev, 2.0) == pytest.approx(1.0 + 2.0 * 2.0**2 + 3.0 * 2.0**3, rel=1e-14)


def test_pade_even_series_uses_approximants_in_w_squared():
    # all odd coefficients zero: [k/k] of T(v) = sum c_2j v^j, spread from v = w^2 to w
    c = np.zeros(12)
    c[::2] = 0.6 ** np.arange(6)  # T(v) = 1 / (1 - 0.6 v) up to order 5
    ev = _series_evaluator(c)
    assert (ev.approximant_count, ev.breakdown) == (2, False)
    for num, den in ev._approximants:
        assert not (num[1::2].any() or den[1::2].any())
    assert abs(_series_at(ev, 2.0) - 1.0 / (1.0 - 0.6 * 2.0**2)) <= 1e-12


def test_pade_far_points_raise_no_warning():
    # powers of w underflow and overflow far from the support; the follow
    # gives a value instead of raising a RuntimeWarning
    model, _ = _mp_model(lam=1 / 50, k_max=20)
    z = np.array([1e150j, 1e150 + 1e-3j, 1e300 + 1e300j])
    for ev in (ChebyshevPadeEvaluator(model), _series_evaluator(0.5 ** np.arange(9))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _principal(ev, z)


# ---------------------------------------------------------------------------
# Pade-Chebyshev evaluator: the model's own transform


def test_single_mode_transform_closed_form():
    model = DensityModel(support=(-1.0, 1.0), basis="chebyshev-u", psi=np.array([2 / np.pi]))
    ev = ChebyshevPadeEvaluator(model)
    z = 2j
    got = _principal(ev, z)
    want = _quad_transform(model.density, -1, 1, z)
    assert abs(got - want) <= 1e-8
    assert got == pytest.approx(-2.0 * joukowski_inverse(z), abs=1e-12)


def test_pade_matches_quadrature_upper_plane():
    model, law = _mp_model()
    ev = ChebyshevPadeEvaluator(model)
    rng = make_rng(4)
    for _ in range(5):
        z = complex(rng.uniform(0, 3), rng.uniform(0.2, 2.0))
        want = _quad_transform(model.density, *model.support, z)
        assert abs(_principal(ev, z) - want) <= 1e-6


def test_pade_tail_and_herglotz():
    model, _ = _mp_model()
    ev = ChebyshevPadeEvaluator(model)
    lo, hi = model.support
    z_far = 0.5 * (lo + hi) + 1e4j * (hi - lo)
    assert abs(z_far * _principal(ev, z_far) + 1.0) <= 1e-3
    rng = make_rng(6)
    z = rng.uniform(lo, hi, 20) + 1j * rng.uniform(0.05, 2, 20)
    assert np.min(_principal(ev, z).imag) > 0


def test_pade_plemelj_recovery():
    model, _ = _mp_model()
    ev = ChebyshevPadeEvaluator(model)
    lo, hi = model.support
    x = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 31)
    approx = _principal(ev, x + 1e-6j).imag / np.pi
    assert np.max(np.abs(approx - model.density(x))) <= 1e-3


# ---------------------------------------------------------------------------
# evaluator for fitted models


def test_evaluator_for_model_chebyshev_only():
    model, _ = _mp_model(lam=0.5, k_max=20)
    assert isinstance(evaluator_for_model(model), ChebyshevPadeEvaluator)


def test_pade_drops_zero_tail():
    model, _ = _mp_model(lam=0.5, k_max=12)
    padded = DensityModel(support=model.support, basis="chebyshev-u",
                          psi=np.concatenate([model.psi, np.zeros(30)]))
    ev_padded = ChebyshevPadeEvaluator(padded)
    ev = ChebyshevPadeEvaluator(model)
    assert ev_padded.model.psi.size == np.flatnonzero(padded.psi)[-1] + 1 == model.psi.size
    assert (ev_padded.approximant_count, ev_padded.breakdown) == (ev.approximant_count, ev.breakdown)
    for padded_pair, pair in zip(ev_padded._approximants, ev._approximants):
        assert all(np.array_equal(a, b) for a, b in zip(padded_pair, pair))
    # an all-zero vector is no density: no evaluator is built for it
    with pytest.raises(InputError, match="psi_0 > 0"):
        ChebyshevPadeEvaluator(DensityModel(support=(0.0, 1.0), basis="chebyshev-u", psi=np.zeros(5)))


@pytest.mark.parametrize("order", [None, 0])
@pytest.mark.parametrize("ratio", [np.nan, np.inf, 0.5, -1.0])
def test_pade_decompressed_rejects_bad_ratio_before_following(monkeypatch, ratio, order):
    law = wigner_law(2.0)
    xs = np.linspace(-2.0, 2.0, 2001)
    psi = chebyshev_coefficients_from_grid(xs, law_density(law, xs), law.support, 2)
    ev = ChebyshevPadeEvaluator(DensityModel(support=law.support, basis="chebyshev-u", psi=psi))
    assert ev.model.psi.size == 3

    def no_follow(*args):
        raise AssertionError("an approximant was followed")

    monkeypatch.setattr(stieltjes, "FollowedRoot", no_follow)
    with pytest.raises(InputError, match="finite and >= 1"):
        ev.decompressed(ratio, order=order)


@pytest.mark.parametrize("order", [None, 0])
def test_pade_decompressed_rejects_wrong_mass_before_following(monkeypatch, order):
    # the decompressed mass (M + r - 1) / r hides a wrong source mass M: the
    # exact MP(1/50) model scaled to mass 0.9 would decompress x32 to mass
    # 0.996 with no failed point
    model, _ = _mp_model(lam=1 / 50, k_max=20)
    ev = ChebyshevPadeEvaluator(DensityModel(support=model.support, basis="chebyshev-u",
                                             psi=0.9 * model.psi))
    # ratio 1 is no decompression: the model's own transform stays available
    own = ev.decompressed(1.0, order=ev.approximant_count).stieltjes(1j)
    unit = ChebyshevPadeEvaluator(model)
    assert own == pytest.approx(0.9 * unit.decompressed(1.0, order=unit.approximant_count).stieltjes(1j),
                                rel=1e-12)

    def no_follow(*args):
        raise AssertionError("an approximant was followed")

    monkeypatch.setattr(stieltjes, "FollowedRoot", no_follow)
    with pytest.raises(InputError, match="mass is 0.9, not 1"):
        ev.decompressed(32.0, order=order)


def _followed_roots_of_every_order():
    # every approximant of the exact MP(1/50) K = 20 and even Kesten-McKay(4)
    # K = 50 models, x2: tables of 4 .. 53 rows
    km = _exact_model(kesten_mckay_law(4), 50)
    km = DensityModel(support=km.support, basis="chebyshev-u",
                      psi=np.where(np.arange(km.psi.size) % 2 == 0, km.psi, 0.0))
    for ev in (ChebyshevPadeEvaluator(_mp_model(lam=1 / 50, k_max=20)[0]), ChebyshevPadeEvaluator(km)):
        for order in range(ev.approximant_count + 1):
            yield ev.decompressed(2.0, order=np.int64(order))


def test_followed_root_values_match_the_extended_precision_vandermonde_product():
    # A, A', B and B' agree with the Vandermonde product in extended
    # precision, relative to the same product of absolute values (the scale
    # of a polynomial's rounding error): at worst 1.0e-15, and an
    # accumulate-built complex table meets the bound too (1.1e-15)
    rng = make_rng(28)
    rows_seen = set()
    for followed in _followed_roots_of_every_order():
        rows = followed._table.shape[0]
        rows_seen.add(rows)
        for n in (1, 2, 3, 211, 1000):
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            want = (np.vander(w.astype(np.clongdouble), rows, increasing=True)
                    @ followed._table.astype(np.longdouble)).T
            scale = (np.abs(np.vander(w, rows, increasing=True)) @ np.abs(followed._table)).T
            assert np.max(np.abs(followed._values(w) - want) / scale) <= 4e-15, (followed.order, n)
    assert (min(rows_seen), max(rows_seen)) == (4, 53)


def test_followed_root_values_do_not_depend_on_the_batch():
    # a point's A, A', B and B' have the same bits alone and in any batch:
    # runs of 1, 2, 3, 211 and 1000 points at offsets 0, 1 and 3 equal
    # their columns of the full batch
    rng = make_rng(29)
    w = rng.normal(size=1003) + 1j * rng.normal(size=1003)
    for followed in _followed_roots_of_every_order():
        full = followed._values(w)
        for n in (1, 2, 3, 211, 1000):
            for offset in (0, 1, 3):
                part = slice(offset, offset + n)
                assert np.array_equal(followed._values(w[part]), full[:, part]), (followed.order, n, offset)


def test_followed_root_values_isolate_non_finite_points():
    # NaN and infinite points give the others the bits of a batch without them
    rng = make_rng(30)
    w = rng.normal(size=40) + 1j * rng.normal(size=40)
    bad = np.array([np.nan, np.inf, -np.inf, complex(np.inf, np.inf), complex(0.0, np.nan), complex(1.0, -np.inf)])
    mixed = np.insert(w, [0, 6, 6, 17, 29, 40], bad)
    finite = np.isfinite(mixed)
    assert np.array_equal(mixed[finite], w)
    for followed in _followed_roots_of_every_order():
        with np.errstate(all="ignore"):
            assert np.array_equal(followed._values(mixed)[:, finite], followed._values(w)), followed.order


# ---------------------------------------------------------------------------
# law evaluator plumbing


def test_law_evaluator_interface():
    law = marchenko_pastur_law(0.5)
    ev = LawEvaluator(law)
    z = 1.2 + 0.3j
    assert ev.decompressed(1.0).stieltjes(z) == pytest.approx(law_stieltjes(law, z, "principal"), rel=1e-14)
    assert ev.density(1.0) == law_density(law, 1.0)
    assert ev.decompressed(2.0).support == marchenko_pastur_law(1.0).support
