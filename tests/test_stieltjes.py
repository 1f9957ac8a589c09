import numpy as np
import pytest
import scipy.integrate
from scipy.special import eval_chebyu

from freedec import (
    ChebyshevPadeEvaluator,
    DensityModel,
    LawEvaluator,
    chebyshev_coefficients_from_grid,
    evaluator_for_model,
    joukowski,
    joukowski_inverse,
    law_density,
    law_stieltjes,
    make_rng,
    marchenko_pastur_law,
)
from freedec.stieltjes import _wynn_choice


def _quad_transform(density, lo, hi, z):
    re = scipy.integrate.quad(lambda s: (density(s) / (s - z)).real, lo, hi, limit=400)[0]
    im = scipy.integrate.quad(lambda s: (density(s) / (s - z)).imag, lo, hi, limit=400)[0]
    return re + 1j * im


def _mp_model(lam=0.5, k_max=40):
    law = marchenko_pastur_law(lam)
    sup = (law.support[0] - 1e-9, law.support[1] + 1e-9)
    xs = np.linspace(sup[0], sup[1], 8192)
    psi = chebyshev_coefficients_from_grid(xs, law_density(law, xs), sup, k_max)
    return DensityModel(support=sup, basis="chebyshev-u", psi=psi), law


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
    # S(w) = sum c_k w^k as the evaluator continues it: on (-1, 1), m = -pi w S(w)
    # with w = J(z), and the second sheet below the axis reaches |w| > 1.
    return ev.evaluate(joukowski(w), "secondary") / (-np.pi * w)


_W2 = 2.0 - 1e-12j  # w = 2, nudged below the axis onto the second sheet


def test_pade_geometric_beyond_radius():
    ev = _series_evaluator(np.ones(10))
    assert (ev.approximant_count, ev.breakdown) == (4, False)
    assert abs(_series_at(ev, _W2) - (-1.0)) <= 1e-10


def test_pade_constant_series():
    ev = _series_evaluator([5.0, 0.0])
    assert _series_at(ev, 123.0 - 1e-9j) == pytest.approx(5.0)


def test_pade_two_pole_rational():
    k = np.arange(12)
    ev = _series_evaluator(1.5 - 0.5 * (1.0 / 3.0) ** k)  # 1/((1-w)(1-w/3))
    want = 1.0 / ((1 - 2.0) * (1 - 2.0 / 3.0))
    assert abs(_series_at(ev, _W2) - want) <= 1e-8


def test_pade_singular_systems_take_minimum_norm_denominators():
    # the two-pole series is rational of degree 2, so every [k/k] system with
    # k >= 3 is singular; each denominator must still satisfy the Pade
    # conditions and be the minimum-norm solution of its Toeplitz system
    c = 1.5 - 0.5 * (1.0 / 3.0) ** np.arange(12)
    ev = _series_evaluator(c)
    assert (ev.approximant_count, ev.breakdown) == (5, False)
    for k in range(1, 6):
        q = ev._den[k, : k + 1]
        assert np.max(np.abs(np.convolve(q, c)[k + 1 : 2 * k + 1])) <= 1e-13
        toeplitz = np.array([[c[k + i - j] for j in range(k)] for i in range(k)])
        want = -np.linalg.pinv(toeplitz) @ c[k + 1 : 2 * k + 1]
        assert np.max(np.abs(q[1:] - want)) <= 1e-12


def test_pade_vectorized_matches_scalar():
    # bit for bit: a point's value does not depend on the batch it is in
    ev = _series_evaluator(0.7 ** np.arange(15))
    zs = np.array([0.2 + 0.1j, 1.7 - 0.3j, -2.4 + 0.0j, 0.3 - 0.6j])
    for branch in ("principal", "secondary"):
        for method in (ev.evaluate, ev.derivative):
            vec = method(zs, branch)
            for i, z in enumerate(zs):
                assert vec[i] == method(complex(z), branch)


def test_pade_zero_coefficient_breakdown():
    # c_1 = 0 leaves no approximant: the plain partial sum is returned
    ev = _series_evaluator([1.0, 0.0, 2.0, 3.0])
    assert (ev.approximant_count, ev.breakdown) == (0, True)
    assert _series_at(ev, _W2) == pytest.approx(1.0 + 2.0 * _W2**2 + 3.0 * _W2**3, rel=1e-14)


def test_pade_even_series_uses_approximants_in_w_squared():
    # all odd coefficients zero: [k/k] of T(v) = sum c_2j v^j, evaluated at v = w^2
    c = np.zeros(12)
    c[::2] = 0.6 ** np.arange(6)  # T(v) = 1 / (1 - 0.6 v) up to order 5
    ev = _series_evaluator(c)
    assert (ev.approximant_count, ev.breakdown) == (2, False)
    assert abs(_series_at(ev, _W2) - 1.0 / (1.0 - 0.6 * _W2**2)) <= 1e-12
    # the derivative is that of S(w) = T(w^2)
    model, _ = _mp_model()
    sym = DensityModel(support=(-1.0, 1.0), basis="chebyshev-u",
                       psi=np.where(np.arange(model.psi.size) % 2 == 0, model.psi, 0.0))
    ev = ChebyshevPadeEvaluator(sym)
    z = np.array([0.3 + 0.2j, -1.4 - 0.1j, 2.0 - 0.7j, 0.1 - 0.05j])
    h = 1e-6
    for branch in ("principal", "secondary"):
        fd = (ev.evaluate(z + h, branch) - ev.evaluate(z - h, branch)) / (2 * h)
        assert np.max(np.abs(ev.derivative(z, branch) - fd)) <= 1e-7


# ---------------------------------------------------------------------------
# choosing the approximant per point


def _reference_choice(vals, c0):
    # The per-k sweep the evaluator ran before the one-pass selection: take
    # each finite approximant whose jump from the last finite value (c_0 at
    # first) is no larger than every earlier jump.
    chosen = np.zeros(vals.shape[0], dtype=int)
    best_jump = np.full(vals.shape[0], np.inf)
    prev = np.full(vals.shape[0], c0, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, vals.shape[1]):
            finite = np.isfinite(vals[:, k])
            jump = np.abs(vals[:, k] - prev)
            take = finite & (jump <= best_jump)
            chosen[take] = k
            best_jump[take] = jump[take]
            prev = np.where(finite, vals[:, k], prev)
    return chosen


def _assert_choice_matches_reference(vals, c0):
    with np.errstate(over="ignore", invalid="ignore"):
        got = _wynn_choice(vals, c0)
    assert np.array_equal(got, _reference_choice(vals, c0))


def test_choice_matches_sweep_on_random_rows():
    rng = make_rng(31)
    holes = np.array([np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0.0, np.nan)])
    for count in (0, 1, 2, 5, 12):
        shape = (300, count + 1)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        _assert_choice_matches_reference(vals, 0.3)
        # non-finite approximants, up to whole rows of them
        holed = vals.copy()
        mask = rng.random(shape) < np.linspace(0.0, 1.0, shape[0])[:, np.newaxis]
        holed[mask] = rng.choice(holes, mask.sum())
        _assert_choice_matches_reference(holed, 0.3)
        _assert_choice_matches_reference(holed, np.nan)
        # small integers: exact ties everywhere
        ties = (rng.integers(-2, 3, shape) + 1j * rng.integers(-1, 2, shape)).astype(complex)
        _assert_choice_matches_reference(ties, 0.0)


def test_choice_matches_sweep_on_ties_and_infinite_jumps():
    big = np.finfo(float).max
    vals = np.array([
        [9.0, 1.0, 2.0, 3.0, 4.0],  # equal jumps after the first
        [9.0, 1.0, 0.5, 1.0, 0.5],  # the smallest jump occurs three times
        [9.0, big, -big, big, -big],  # every jump after the first overflows
        [9.0, big, -big, np.nan, np.inf],
        [9.0, np.nan, np.inf, np.nan, np.nan],  # no finite approximant: the partial sum
        [9.0, 0.0, np.nan, 0.0, 5.0],  # a jump measured across a non-finite value
    ], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _wynn_choice(vals, 0.0).tolist() == [4, 4, 1, 1, 0, 3]
        # from c_0 = -big every jump of rows 2 and 3 is infinite: the last finite
        assert _wynn_choice(vals, -big).tolist() == [4, 4, 4, 2, 0, 3]
    for c0 in (0.0, -big):
        _assert_choice_matches_reference(vals, c0)


def test_choice_matches_sweep_through_the_evaluator():
    # zero denominators (the geometric series' [k/k] has its pole at w = 2),
    # overflow at large |w|, and a model without approximants
    model, _ = _mp_model(lam=1 / 50, k_max=20)
    evaluators = [
        _series_evaluator(0.5 ** np.arange(9)),
        ChebyshevPadeEvaluator(model),
        _series_evaluator([1.0, 0.0, 2.0, 3.0]),
    ]
    assert evaluators[2].approximant_count == 0
    rng = make_rng(8)
    w = np.concatenate([
        rng.standard_normal(200) * 3 + 1j * rng.standard_normal(200),
        [2.0, 2.0 + 0j, -2.0, 1e100, 1e200j, -1e300],
    ])
    seen_non_finite = False
    for ev in evaluators:
        lo, hi = ev.support
        z = np.concatenate([rng.uniform(lo - 1, hi + 1, 100) + 1j * rng.uniform(-1, 1, 100),
                            [1e150, -1e150j, 1e300 - 1e300j]])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            powers = np.vander(w, ev._num.shape[1], increasing=True)
            vals = (powers @ ev._num.T) / (powers @ ev._den.T)
            seen_non_finite |= not np.isfinite(vals[:, 1:]).all()
            _assert_choice_matches_reference(vals, ev.coeffs[0])
            for branch in ("principal", "secondary"):
                _, _, powers, chosen, _, _ = ev._chosen(z, branch)
                vals = (powers @ ev._num.T) / (powers @ ev._den.T)
                assert np.array_equal(chosen, _reference_choice(vals, ev.coeffs[0]))
    assert seen_non_finite


# ---------------------------------------------------------------------------
# Pade-Chebyshev evaluator


def test_single_mode_transform_closed_form():
    model = DensityModel(support=(-1.0, 1.0), basis="chebyshev-u", psi=np.array([2 / np.pi]))
    ev = ChebyshevPadeEvaluator(model)
    z = 2j
    got = ev.evaluate(z, "principal")
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
        assert abs(ev.evaluate(z, "principal") - want) <= 1e-6


def test_pade_secondary_matches_law_second_sheet():
    model, law = _mp_model()
    ev = ChebyshevPadeEvaluator(model)
    pts = np.array([1.0 - 0.4j, 0.5 - 0.2j, 2.2 - 0.8j])
    got = ev.evaluate(pts, "secondary")
    want = law_stieltjes(law, pts, "secondary")
    assert np.max(np.abs(got - want)) <= 1e-3


def test_pade_cut_continuity_and_branch_agreement():
    model, _ = _mp_model()
    ev = ChebyshevPadeEvaluator(model)
    lo, hi = model.support
    x = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 11)
    jump = np.abs(ev.evaluate(x + 1e-6j, "secondary") - ev.evaluate(x - 1e-6j, "secondary"))
    assert np.max(jump) <= 1e-4
    z = x + 0.5j
    assert np.max(np.abs(ev.evaluate(z, "secondary") - ev.evaluate(z, "principal"))) <= 1e-10


def test_pade_tail_and_schwarz_and_herglotz():
    model, _ = _mp_model()
    ev = ChebyshevPadeEvaluator(model)
    lo, hi = model.support
    z_far = 0.5 * (lo + hi) + 1e4j * (hi - lo)
    assert abs(z_far * ev.evaluate(z_far, "principal") + 1.0) <= 1e-3
    rng = make_rng(6)
    z = rng.uniform(lo, hi, 20) + 1j * rng.uniform(0.05, 2, 20)
    m = ev.evaluate(z, "principal")
    assert np.min(m.imag) > 0
    assert np.max(np.abs(ev.evaluate(np.conj(z), "principal") - np.conj(m))) <= 1e-12


def test_pade_derivative_matches_central_difference():
    model, _ = _mp_model()
    ev = ChebyshevPadeEvaluator(model)
    lo, hi = model.support
    rng = make_rng(9)
    x = rng.uniform(lo - 0.2, hi + 0.2, 12)
    y = rng.uniform(0.05, 1.0, 12) * (hi - lo)
    z = np.concatenate([x + 1j * y, x - 1j * y])
    h = 1e-6
    for branch in ("principal", "secondary"):
        fd = (ev.evaluate(z + h, branch) - ev.evaluate(z - h, branch)) / (2 * h)
        assert np.max(np.abs(ev.derivative(z, branch) - fd)) <= 1e-7


def test_pade_plemelj_recovery():
    model, _ = _mp_model()
    ev = ChebyshevPadeEvaluator(model)
    lo, hi = model.support
    x = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 31)
    approx = ev.evaluate(x + 1e-6j, "secondary").imag / np.pi
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
    assert ev_padded.coeffs.size == np.flatnonzero(padded.psi)[-1] + 1 == model.psi.size
    rng = make_rng(4)
    lo, hi = model.support
    z = rng.uniform(lo, hi, 40) + 1j * rng.uniform(-1.0, 1.0, 40) * (hi - lo)
    for branch in ("principal", "secondary"):
        assert np.array_equal(ev_padded.evaluate(z, branch), ev.evaluate(z, branch))
    # an all-zero model keeps one coefficient
    zero = DensityModel(support=(0.0, 1.0), basis="chebyshev-u", psi=np.zeros(5))
    assert ChebyshevPadeEvaluator(zero).coeffs.size == 1


# ---------------------------------------------------------------------------
# law evaluator plumbing


def test_law_evaluator_interface():
    law = marchenko_pastur_law(0.5)
    ev = LawEvaluator(law)
    z = 1.2 + 0.3j
    assert ev.evaluate(z) == law_stieltjes(law, z, "secondary")
    h = 1e-7
    fd = (law_stieltjes(law, z + h) - law_stieltjes(law, z - h)) / (2 * h)
    assert abs(ev.derivative(z, "principal") - fd) <= 1e-6 * abs(fd)
