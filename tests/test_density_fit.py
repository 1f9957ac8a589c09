import numpy as np
import pytest
from dataclasses import replace

from freedec import (
    DensityModel,
    InputError,
    SpectrumSample,
    chebyshev_coefficients,
    chebyshev_coefficients_from_grid,
    estimate_support_edges,
    fit_density,
    make_rng,
    marchenko_pastur_law,
    repair_positivity_mass,
)


def _semicircle_sample(n, seed=42):
    # inverse-transform draw from the unit semicircle
    rng = make_rng(seed)
    xs = np.linspace(-1, 1, 20001)
    dens = 2 / np.pi * np.sqrt(np.maximum(1 - xs * xs, 0))
    cdf = np.concatenate([[0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
    cdf /= cdf[-1]
    ev = np.sort(np.interp(rng.uniform(0, 1, n), cdf, xs))
    return SpectrumSample(ev)


# ---------------------------------------------------------------------------
# support


def test_support_formula():
    # each side is padded by half the width times n^{-2/3}
    s = SpectrumSample(np.array([0.0, 1.0]))
    lo, hi, degenerate = estimate_support_edges(s)
    pad = 0.5 * 2 ** (-2 / 3)
    assert (lo, hi) == pytest.approx((-pad, 1.0 + pad))
    assert not degenerate


def test_support_degenerate():
    s = SpectrumSample(np.array([5.0, 5.0, 5.0]))
    lo, hi, degenerate = estimate_support_edges(s)
    assert degenerate
    assert lo < 5.0 < hi


def test_support_covers_mp_edges():
    law = marchenko_pastur_law(1 / 50)
    rng = make_rng(1)
    x = rng.standard_normal((1000, 50000 // 10))  # d=5000 keeps the test light
    a = x @ x.T / 5000
    ev = np.sort(np.linalg.eigvalsh((a + a.T) / 2))
    lo, hi, _ = estimate_support_edges(SpectrumSample(ev))
    law_edges = marchenko_pastur_law(0.2).support
    assert lo == pytest.approx(law_edges[0], abs=0.05)
    assert hi == pytest.approx(law_edges[1], abs=0.05)


# ---------------------------------------------------------------------------
# coefficients


def test_semicircle_moment_coefficients():
    s = _semicircle_sample(100000)
    psi = chebyshev_coefficients(s, (-1.0, 1.0), 10)
    assert psi[0] == pytest.approx(2 / np.pi, abs=0.01)
    assert np.max(np.abs(psi[1:])) <= 0.01


def test_symmetric_sample_odd_coefficients_vanish():
    s = _semicircle_sample(40000, seed=7)
    sym = np.sort(np.concatenate([s.eigenvalues, -s.eigenvalues]))
    psi = chebyshev_coefficients(SpectrumSample(sym), (-1.0, 1.0), 12)
    odd = psi[1::2]
    assert np.max(np.abs(odd)) <= 3.0 / np.sqrt(sym.size)


def test_moment_estimator_rejects_outliers():
    s = SpectrumSample(np.array([0.0, 2.0]))
    with pytest.raises(InputError):
        chebyshev_coefficients(s, (0.0, 1.0), 4)


def test_grid_projection_recovers_coefficients():
    # a density built from known coefficients projects back onto them; the
    # midpoint rule in theta is exact to roundoff here, so what is left is the
    # linear interpolation of the samples at the square-root edges (about
    # 2e-5 from 4096 samples, 2e-6 from 20001)
    sup = (0.3, 2.1)
    psi = np.array([4 / (np.pi * 1.8), 0.05, -0.08, 0.03, 0.0, -0.01, 0.004])
    model = DensityModel(support=sup, basis="chebyshev-u", psi=psi)
    for samples, tol in ((4096, 5e-5), (20001, 5e-6)):
        xs = np.linspace(sup[0], sup[1], samples)
        recovered = chebyshev_coefficients_from_grid(xs, model.density(xs), sup, 10)
        assert np.max(np.abs(recovered[:7] - psi)) <= tol
        assert np.max(np.abs(recovered[7:])) <= tol


def test_model_rejects_other_basis():
    with pytest.raises(InputError, match="jacobi"):
        DensityModel(support=(0.0, 1.0), basis="jacobi", psi=np.array([1.0, 0.1]))


def test_model_rejects_infinite_support():
    for support in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(InputError, match="finite"):
            DensityModel(support=support, basis="chebyshev-u", psi=np.array([1.0]))


def test_affine_equivariance():
    s = _semicircle_sample(5000, seed=3)
    scale, shift = 2.5, -0.7
    mapped = SpectrumSample(np.sort(scale * s.eigenvalues + shift))
    m1 = fit_density(s, k_max=16)
    m2 = fit_density(mapped, k_max=16)
    grid = np.linspace(*m1.support, 1500)
    pushed = m1.density(grid) / scale
    assert np.max(np.abs(m2.density(scale * grid + shift) - pushed)) <= 1e-8


# ---------------------------------------------------------------------------
# repair


def _mp_model(seed=4):
    rng = make_rng(seed)
    x = rng.standard_normal((500, 2500))
    a = x @ x.T / 2500
    ev = np.sort(np.linalg.eigvalsh((a + a.T) / 2))
    return fit_density(SpectrumSample(ev), k_max=30)


def test_repair_fixed_point():
    model = _mp_model()
    again = repair_positivity_mass(model)
    assert np.max(np.abs(again.psi - model.psi)) <= 1e-12


def test_repair_mass_only_rescales():
    model = _mp_model()
    scaled = replace(model, psi=model.psi * 1.1)
    fixed = repair_positivity_mass(scaled)
    assert fixed.mass() == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(fixed.psi - model.psi)) <= 1e-9


def test_repair_negative_lobe():
    model = _mp_model()
    bad_psi = model.psi.copy()
    bad_psi[3] -= 0.6 * abs(bad_psi[0])
    bad = replace(model, psi=bad_psi)
    grid = np.linspace(*bad.support, 2048)
    assert bad.density(grid).min() < -1e-9  # the injected lobe really dips
    fixed = repair_positivity_mass(bad)
    assert fixed.density(grid).min() >= -1e-9
    assert fixed.mass() == pytest.approx(1.0, abs=1e-6)
    assert fixed.repaired


def test_repair_blends_when_the_descent_stalls():
    # the projected-gradient descent reaches no feasible point on these, so
    # the repair blends toward the single-mode model and flags it
    for psi in ([0.049, -0.089, -0.086, -0.17], [174.073, 87.66]):
        bad = DensityModel(support=(-1.0, 1.0), basis="chebyshev-u", psi=np.array(psi))
        fixed = repair_positivity_mass(bad)
        assert fixed.repaired and fixed.repair_warning
        assert fixed.mass() == pytest.approx(1.0, abs=1e-6)
        assert fixed.density(np.linspace(-1.0, 1.0, 2048)).min() >= -1e-9


def test_repair_blend_takes_the_largest_feasible_weight():
    # the blend theta psi0 + (1 - theta) floor, floor the unit-mass single-mode
    # model, is nonnegative at every constraint node and touches zero at one,
    # so a slightly larger theta dips below zero there
    from freedec.density_fit import _REPAIR_GRID, chebyshev_nodes

    for psi in ([0.049, -0.089, -0.086, -0.17], [174.073, 87.66]):
        bad = DensityModel(support=(-1.0, 1.0), basis="chebyshev-u", psi=np.array(psi))
        fixed = repair_positivity_mass(bad)
        assert fixed.repair_warning and fixed.psi.size == bad.psi.size
        floor = np.zeros(bad.psi.size)
        floor[0] = 4.0 / (np.pi * bad.width)
        # fixed = blend / mass(blend) with mass(blend) = theta m0 + 1 - theta:
        # psi_1 of fixed over psi_1 of bad is s = theta / mass(blend)
        s = fixed.psi[1] / bad.psi[1]
        theta = s / (1.0 - s * (bad.mass() - 1.0))
        assert 0.0 < theta < 1.0
        nodes = chebyshev_nodes(bad.support, _REPAIR_GRID)

        def blend(weight):
            return replace(bad, psi=weight * bad.psi + (1.0 - weight) * floor).density(nodes)

        tol = 1e-15 * blend(theta).max()  # rounding
        assert blend(theta).min() >= -tol
        assert blend(theta * (1.0 + 1e-6)).min() < -tol


def test_repair_keeps_truncated_tail_zero():
    # a log-spaced spectrum needs the repair; it must not refill the tail
    # that truncate_tail zeroed
    model = fit_density(SpectrumSample(np.geomspace(1e-2, 1e2, 400)))
    assert model.repaired
    assert np.count_nonzero(model.psi) == model.meta["k_eff"] + 1
    assert model.mass() == pytest.approx(1.0, abs=1e-6)


def test_model_keeps_coefficients_up_to_the_last_nonzero():
    model = DensityModel(support=(0.0, 1.0), basis="chebyshev-u", psi=[0.5, -0.25, 0.0, 0.0])
    assert model.psi.tolist() == [0.5, -0.25] and model.order == 1
    assert DensityModel(support=(0.0, 1.0), basis="chebyshev-u", psi=np.zeros(5)).psi.tolist() == [0.0]
    for psi in ([], [[1.0]], 1.0):
        with pytest.raises(InputError, match="non-empty list"):
            DensityModel(support=(0.0, 1.0), basis="chebyshev-u", psi=psi)


def test_fit_keeps_only_the_coefficients_before_the_tail():
    # a feasible fit is the moment estimate's prefix, k_eff + 1 coefficients
    sample = _semicircle_sample(2000)
    model = fit_density(sample, k_max=50)
    assert not model.repaired and model.psi.size == model.meta["k_eff"] + 1 == 7
    assert np.array_equal(model.psi, chebyshev_coefficients(sample, model.support, 50)[:7])


def test_fit_density_invariants():
    model = _mp_model()
    grid = np.linspace(*model.support, 2048)
    assert model.mass() == pytest.approx(1.0, abs=1e-6)
    assert model.density(grid).min() >= -1e-9
    assert model.density(np.array([model.support[0] - 1.0])) == 0.0


def test_model_density_is_its_sine_series():
    # sqrt(1 - t^2) U_k(t) = sin((k + 1) theta) at t = cos(theta): a reference
    # free of the U recurrence, to a tolerance of a few ulps of sum |psi_k|
    psi = make_rng(7).normal(size=12)
    lo, hi = 0.3, 2.1
    model = DensityModel(support=(lo, hi), basis="chebyshev-u", psi=psi)
    x = np.linspace(lo - 0.5, hi + 0.5, 4001)
    theta = np.arccos(np.clip((2 * x - (hi + lo)) / (hi - lo), -1.0, 1.0))
    want = np.sin(np.outer(np.arange(1, psi.size + 1), theta)).T @ psi
    assert np.max(np.abs(model.density(x) - want)) <= 1e-13 * np.abs(psi).sum()
    assert np.all(model.density(x[(x <= lo) | (x >= hi)]) == 0.0)
    scalar = model.density(1.0)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(model.density(np.array([1.0]))[0], rel=1e-14)


def test_repair_grid_is_the_plain_chebyshev_nodes():
    # with no margin the shared node function is, bit for bit, the nodes mapped
    # onto the support, as the repair placed its constraint points before
    from freedec.density_fit import _REPAIR_GRID, chebyshev_nodes

    theta = np.pi * (np.arange(_REPAIR_GRID) + 0.5) / _REPAIR_GRID
    for lo, hi in [(0.3, 2.1), (-1.0, 1.0), (0.449455, 1.7347), (-15.9842, 15.4956), (1e-4, 1e4)]:
        want = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)[::-1]
        assert np.array_equal(chebyshev_nodes((lo, hi), _REPAIR_GRID), want)
