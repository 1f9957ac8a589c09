import numpy as np
import pytest

import freedec.decompress as dc
from freedec.stieltjes import FollowedRoot
from freedec import (
    ChebyshevPadeEvaluator,
    DecompressionRequest,
    DensityModel,
    InputError,
    LawEvaluator,
    NumericalError,
    chebyshev_coefficients_from_grid,
    decompress_density,
    decompressed_law,
    eigenvalues_symmetric,
    fit_density,
    kesten_mckay_law,
    law_density,
    law_stieltjes,
    make_rng,
    marchenko_pastur_law,
    meixner_law,
    total_variation,
    track_support,
    verify_crossing,
    wachter_law,
    wigner_law,
)


def _tv_vs_law(result, law):
    good = ~result.failed
    xs = result.grid[good]
    return total_variation(xs, np.maximum(result.density[good], 0.0), law_density(law, xs))


# the bench's law_oracle cases
_LAW_CASES = [
    (marchenko_pastur_law(1 / 50), (2, 8, 32)),
    (wigner_law(2.0), (2, 8, 32)),
    (meixner_law(0.1, 4.0, 0.6), (2, 8, 32)),
    (kesten_mckay_law(4), (2,)),
    (wachter_law(2.5, 1.5625), (2,)),
]


def _exact_model(law, k_max=40):
    sup = (law.support[0] - 1e-9, law.support[1] + 1e-9)
    xs = np.linspace(sup[0], sup[1], 8192)
    psi = chebyshev_coefficients_from_grid(xs, law_density(law, xs), sup, k_max)
    return DensityModel(support=sup, basis="chebyshev-u", psi=psi)


def _even_model(law, k_max):
    # a symmetric law's odd coefficients are zero up to quadrature noise
    model = _exact_model(law, k_max)
    psi = np.where(np.arange(model.psi.size) % 2 == 0, model.psi, 0.0)
    return DensityModel(support=model.support, basis="chebyshev-u", psi=psi)


# ---------------------------------------------------------------------------
# characteristic roots


def _one_point(ev, x, ratio, delta=None):
    res = decompress_density(
        DecompressionRequest(evaluator=ev, ratio=ratio, grid=np.array([x]), delta=delta)
    )
    return complex(res.roots[0]), res


def test_zero_time_degenerates():
    z, res = _one_point(LawEvaluator(marchenko_pastur_law(0.5)), 1.0, 1.0, delta=1e-3)
    assert z == 1.0 + 1e-3j
    assert not res.failed.any()


def test_mp_bulk_root_descends():
    # the root of the bulk centre solves the characteristic equation below the axis,
    # for the closed form and for the followed root of an exact model
    law = marchenko_pastur_law(1 / 50)
    x_bulk = 1.0 + 32.0 / 50.0  # center of the decompressed bulk
    for ev in (LawEvaluator(law), ChebyshevPadeEvaluator(_exact_model(law, k_max=20))):
        z, res = _one_point(ev, x_bulk, 32.0)
        residual = abs(z - 31.0 / law_stieltjes(law, z, "secondary") - (x_bulk + 1j * res.delta))
        assert residual <= 1e-5 * (1 + abs(x_bulk))
        assert z.imag < 0


def test_wigner_symmetry_pins_root_to_axis():
    ev = LawEvaluator(wigner_law(2.0))
    for ratio in (np.exp(0.5), np.exp(1.5), 7.0):
        z, res = _one_point(ev, 0.0, ratio)
        assert not res.failed.any()
        assert abs(z.real) <= 1e-10


def test_negative_time_rejected():
    with pytest.raises(InputError):
        track_support(LawEvaluator(wigner_law(2.0)), -0.5)


def _roots_at(followed, xp):
    """Every root of the characteristic polynomial at each target (companion eigenvalues)."""
    coeffs = followed._table[:, 0] - xp[:, np.newaxis] * followed._table[:, 2]
    d = coeffs.shape[1] - 1
    companion = np.zeros((xp.size, d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, -1] = -coeffs[:, :-1] / coeffs[:, -1:]
    return np.linalg.eigvals(companion)


def _all_roots_follow(followed, x, y, count=200):
    # the smallest |w| at the top, then the nearest root at each of count heights
    heights = followed._heights(y, count)
    roots = _roots_at(followed, x + 1j * heights[0])
    rows = np.arange(x.size)
    w = roots[rows, np.argmin(np.abs(roots), axis=1)]
    for height in heights[1:]:
        roots = _roots_at(followed, x + 1j * height)
        w = roots[rows, np.argmin(np.abs(roots - w[:, np.newaxis]), axis=1)]
    return w


def test_predictor_corrector_matches_all_roots_follow():
    # 20 heights of Euler and Newton steps land on the root that following
    # every root through 200 heights picks, at every tenth auto-grid point
    cases = [
        (ChebyshevPadeEvaluator(_exact_model(marchenko_pastur_law(1 / 50), k_max=20)), 32.0),
        (ChebyshevPadeEvaluator(_exact_model(meixner_law(0.1, 4.0, 0.6))), 8.0),
        (ChebyshevPadeEvaluator(_even_model(kesten_mckay_law(4), 50)), 2.0),
    ]
    for ev, ratio in cases:
        followed = ev.decompressed(ratio)
        grid = dc.auto_grid(followed.support)[::10]
        y = np.full(grid.size, dc.default_delta(ev.support))
        w, converged = followed._follow(grid, y)
        assert converged.all()
        assert np.max(np.abs(w - _all_roots_follow(followed, grid, y)) / (1 + np.abs(w))) <= 1e-8


def test_mass_counts_failed_points_as_zero():
    grid = np.linspace(0.0, 1.0, 11)
    density = np.ones_like(grid)
    failed = np.zeros(grid.size, dtype=bool)
    failed[4:7] = True  # a run of failures inside the support
    density[failed] = np.nan
    res = dc.DecompressionResult(grid, density, (0.0, 1.0), 2.0, 1e-3, grid + 0j, failed)
    bridged = np.trapezoid(density[~failed], grid[~failed])  # 1.0
    assert res.mass() == pytest.approx(np.trapezoid(np.where(failed, 0.0, density), grid))
    assert res.mass() == pytest.approx(0.7)
    assert res.mass() < bridged


# ---------------------------------------------------------------------------
# densities


def test_identity_decompression_law():
    law = marchenko_pastur_law(0.5)
    res = decompress_density(DecompressionRequest(evaluator=LawEvaluator(law), ratio=1.0))
    assert np.max(np.abs(res.density - law_density(law, res.grid))) <= 1e-6


def test_identity_decompression_model():
    model = _exact_model(marchenko_pastur_law(0.5))
    ev = ChebyshevPadeEvaluator(model)
    res = decompress_density(DecompressionRequest(evaluator=ev, ratio=1.0))
    assert np.max(np.abs(res.density - model.density(res.grid))) <= 1e-6


def test_mp_law_characteristic_exactness():
    # the decompressed MP(lam) is exactly MP(lam * ratio)
    ev = LawEvaluator(marchenko_pastur_law(1 / 50))
    res = decompress_density(DecompressionRequest(evaluator=ev, ratio=32.0))
    assert res.failed.sum() == 0
    assert _tv_vs_law(res, marchenko_pastur_law(32 / 50)) <= 0.02
    assert 0.98 <= res.mass() <= 1.02


def test_wigner_law_radius_scaling():
    ev = LawEvaluator(wigner_law(2.0))
    ratio = 4.0
    res = decompress_density(DecompressionRequest(evaluator=ev, ratio=ratio))
    target = wigner_law(2.0 * np.sqrt(ratio))
    assert _tv_vs_law(res, target) <= 0.02
    assert res.support[0] == pytest.approx(-4.0, abs=0.02 * 8.0)
    assert res.support[1] == pytest.approx(4.0, abs=0.02 * 8.0)
    assert 0.98 <= res.mass() <= 1.02


def test_mass_conserved_along_flow():
    ev = LawEvaluator(marchenko_pastur_law(1 / 50))
    for ratio in (2.0, 8.0, 32.0):
        res = decompress_density(DecompressionRequest(evaluator=ev, ratio=ratio))
        assert 0.98 <= res.mass() <= 1.02


def test_followed_root_keeps_neighbours_on_one_root():
    # test_stability_growth's n_s = 500 fit (drawn as it draws, in column
    # chunks of 10000), x32.  A point that finished on another root than its
    # neighbours would jump away from their interpolant: each point lies
    # within 1e-2 of the peak of it (measured 6.9e-3 over 976 triples).
    # Within 4 grid spacings of a support edge the square-root rise bends
    # more than that (0.11 of the peak next to the lower edge, 0.011 five
    # spacings in); there each point's density is the one that following
    # every root through 200 heights gives (measured 1.2e-13 of the peak).
    rng = make_rng(1734)
    x, y = rng.standard_normal((500, 10000)), rng.standard_normal((500, 2500))
    a = x @ x.T + y @ y.T
    model = fit_density(eigenvalues_symmetric((a + a.T) / 25000.0))
    res = decompress_density(
        DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=32.0)
    )
    assert not res.failed.any()
    g, rho = res.grid, res.density
    w = (g[1:-1] - g[:-2]) / (g[2:] - g[:-2])
    kink = np.abs(rho[1:-1] - (1.0 - w) * rho[:-2] - w * rho[2:])
    index = np.arange(g.size)
    near = np.min(np.abs(index[:, np.newaxis] - np.searchsorted(g, res.support)), axis=1) <= 4
    away = ~(near[:-2] | near[1:-1] | near[2:])
    assert away.sum() > 900
    assert kink[away].max() <= 1e-2 * rho.max()
    followed = res.decompressed
    followed_all = _all_roots_follow(followed, g[near], np.full(near.sum(), res.delta))
    density_all = followed._transform(followed_all).imag / np.pi
    assert np.max(np.abs(density_all - rho[near])) <= 1e-8 * rho.max()


def test_closed_form_matches_newton_on_law_cases():
    # Same grid, the law's closed form against the root of its exact
    # Chebyshev model (K = 40) followed by Euler and Newton steps on the
    # characteristic polynomial.  Measured: at most 5.3e-5 of the peak in
    # density (Kesten-McKay x2) and 9.3e-5 in roots.
    for law, ratios in _LAW_CASES:
        model = _even_model(law, 40) if law.name in ("wigner", "kesten-mckay") else _exact_model(law)
        for ratio in ratios:
            closed = decompress_density(
                DecompressionRequest(evaluator=LawEvaluator(law), ratio=ratio)
            )
            solved = decompress_density(DecompressionRequest(
                evaluator=ChebyshevPadeEvaluator(model), ratio=ratio, grid=closed.grid))
            assert not closed.failed.any() and not solved.failed.any()
            assert closed.support == decompressed_law(law, ratio).support
            peak = closed.density.max()
            assert np.max(np.abs(closed.density - solved.density)) <= 2e-3 * peak
            assert np.max(np.abs(closed.roots - solved.roots) / (1 + np.abs(closed.roots))) <= 1e-3


def test_closed_form_through_forwarding_wrapper():
    # The closed form is found by attribute, so a wrapper that forwards
    # attributes (as a tracing proxy does) gets the same result.
    class Forwarding:
        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

    ev = LawEvaluator(meixner_law(0.1, 4.0, 0.6))
    direct = decompress_density(DecompressionRequest(evaluator=ev, ratio=8.0))
    wrapped = decompress_density(DecompressionRequest(evaluator=Forwarding(ev), ratio=8.0))
    assert np.array_equal(wrapped.density, direct.density)


def test_explicit_grid_and_validation():
    ev = LawEvaluator(wigner_law(2.0))
    grid = np.linspace(-5.0, 5.0, 101)
    res = decompress_density(DecompressionRequest(evaluator=ev, ratio=4.0, grid=grid))
    assert np.array_equal(res.grid, grid)
    with pytest.raises(InputError):
        decompress_density(
            DecompressionRequest(evaluator=ev, ratio=4.0, grid=np.array([1.0, 0.5]))
        )
    with pytest.raises(InputError):
        DecompressionRequest(evaluator=ev).resolved_ratio()
    with pytest.raises(InputError):
        DecompressionRequest(evaluator=ev, ratio=0.5).resolved_ratio()


def test_non_finite_ratio_is_bad_input():
    ev = LawEvaluator(marchenko_pastur_law(0.5))
    for ratio in (np.nan, np.inf):
        with pytest.raises(InputError, match="finite"):
            decompress_density(DecompressionRequest(evaluator=ev, ratio=ratio))


def test_non_finite_grid_is_bad_input():
    # a NaN abscissa passes a monotonicity check; it must not reach the solver
    ev = ChebyshevPadeEvaluator(_exact_model(marchenko_pastur_law(1 / 50), k_max=10))
    for grid in ([0.5, np.nan, 1.5], [0.5, 1.0, np.inf]):
        with pytest.raises(InputError, match="finite"):
            decompress_density(DecompressionRequest(evaluator=ev, ratio=4.0, grid=np.array(grid)))


def test_meixner_class_decompression_domain():
    # Kesten-McKay(d) and Wachter(a, b) are free Meixner laws with
    # c = d / (d - 1) and (a + b) / (a + b - 1) > 1: the flow's pole sits at
    # ratio c / (c - 1), i.e. d and a + b, and no law answers ratios beyond it.
    for law, limit in ((kesten_mckay_law(4), 4.0), (wachter_law(2.5, 1.5625), 4.0625)):
        ev = LawEvaluator(law)
        for ratio in (limit * (1 + 1e-9), 8.0):
            with pytest.raises(InputError, match="domain"):
                decompress_density(DecompressionRequest(evaluator=ev, ratio=ratio))
        # just inside the limit the law still decompresses, its mass almost all in atoms
        near = decompress_density(DecompressionRequest(evaluator=ev, ratio=limit * (1 - 1e-9)))
        assert not near.failed.any()
        result = decompress_density(DecompressionRequest(evaluator=ev, ratio=2.0))
        assert not result.failed.any()
        assert result.mass() == pytest.approx(1.0, abs=1e-2)


def test_exact_models_past_their_domain_raise():
    # Wachter(2.5, 1.5625) and Kesten-McKay(4) have no decompression past
    # x4.0625 and x4 (test_meixner_class_decompression_domain); their exact
    # K = 50 models at x8 have no admissible approximant either, and raise
    # instead of returning a density whose mass is off
    for model in (_exact_model(wachter_law(2.5, 1.5625), 50), _even_model(kesten_mckay_law(4), 50)):
        with pytest.raises(InputError, match="domain"):
            decompress_density(DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=8.0))


def test_seed_4321_fit_keeps_mass():
    # test_stability_growth's monotone-in-ratio fit, x4: every point solved
    # and the mass kept (the deepest approximant passes the choice here)
    x = make_rng(4321).standard_normal((1000, 25000))
    a = (x @ x.T) / 25000.0
    model = fit_density(eigenvalues_symmetric((a + a.T) / 2.0))
    res = decompress_density(DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=4.0))
    assert not res.failed.any()
    assert abs(res.mass() - 1.0) <= 0.01


def test_corrupted_model_aborts_with_diagnostics():
    class BrokenEvaluator:
        # a vanishing decompressed transform puts every root at infinity
        support = (0.0, 1.0)

        def density(self, x):
            return np.zeros(np.shape(x))

        def decompressed(self, ratio):
            class Vanishing:
                support = (0.0, 1.0)

                def stieltjes(self, z):
                    return np.zeros(np.shape(z), dtype=complex)

            return Vanishing()

    with pytest.raises(NumericalError) as err:
        decompress_density(
            DecompressionRequest(
                evaluator=BrokenEvaluator(), ratio=32.0, grid=np.linspace(-4, 4, 100)
            )
        )
    assert "failed" in str(err.value)


def test_unconverged_follow_fails_points(monkeypatch):
    # A follow through one height, not followed again, ends unconverged at
    # every point: those come out failed, not as a density, and raise
    ev = ChebyshevPadeEvaluator(_exact_model(marchenko_pastur_law(1 / 50), k_max=20))
    followed = ev.decompressed(32.0)
    follow = FollowedRoot._follow
    monkeypatch.setattr(FollowedRoot, "_follow",
                        lambda self, x, y, count=None, refine=True: follow(self, x, y, 1, False))

    class OneHeight:
        support = ev.support

        def decompressed(self, ratio):
            return followed

    grid = np.linspace(*followed.support, 200)
    assert np.isnan(followed.stieltjes(grid + 1e-3j)).all()
    with pytest.raises(NumericalError, match="failed on 200 of 200"):
        decompress_density(DecompressionRequest(evaluator=OneHeight(), ratio=32.0, grid=grid))


def test_semigroup_composition():
    # decompress by 4 then refit and decompress by 2 ~ direct decompress by 8
    law0 = marchenko_pastur_law(1 / 50)
    res_a = decompress_density(DecompressionRequest(evaluator=LawEvaluator(law0), ratio=4.0))
    good = ~res_a.failed
    xs, ds = res_a.grid[good], np.maximum(res_a.density[good], 0.0)
    thr = 1e-6 * ds.max()
    inside = ds > thr
    sup = (xs[inside][0] - 1e-6, xs[inside][-1] + 1e-6)
    psi = chebyshev_coefficients_from_grid(xs, ds, sup, 40)
    mid_model = DensityModel(support=sup, basis="chebyshev-u", psi=psi)
    res_b = decompress_density(
        DecompressionRequest(evaluator=ChebyshevPadeEvaluator(mid_model), ratio=2.0)
    )
    assert _tv_vs_law(res_b, marchenko_pastur_law(8 / 50)) <= 0.05


def test_pade_even_series_kesten_mckay_x2():
    # every odd coefficient of the symmetric law is zero, so c_1 = 0 leaves
    # the series in w without approximants; those of the series in w^2 give
    # the decompressed law's identities
    ev = ChebyshevPadeEvaluator(_even_model(kesten_mckay_law(4), 50))
    assert ev.approximant_count > 0 and not ev.breakdown
    res = decompress_density(DecompressionRequest(evaluator=ev, ratio=2.0))
    assert not res.failed.any()
    mass = res.mass()
    mean = np.trapezoid(res.grid * res.density, res.grid) / mass
    variance = np.trapezoid((res.grid - mean) ** 2 * res.density, res.grid) / mass
    assert abs(mass - 1.0) <= 0.01
    assert abs(variance - 8.0) <= 0.02 * 8.0


# ---------------------------------------------------------------------------
# support tracking


def _assert_batched_newton_matches_single_point_solves(ev):
    # A point's decompressed transform does not depend on the points solved
    # with it: each gets exactly what solving it alone would
    decompressed = ev.decompressed(8.0)  # MP(8/50): support (0.36, 1.96)
    x = np.array([0.05, 0.2, 0.34, 0.36, 0.37, 0.5, 1.0, 1.5, 1.9, 1.96, 1.97, 2.2, 3.0])
    delta = dc.default_delta(ev.support)
    for height in (1e-4 * delta, delta):
        z = x + 1j * height
        batch = decompressed.stieltjes(z)
        for k in range(x.size):
            assert decompressed.stieltjes(z[k : k + 1])[0] == batch[k]


def test_batched_newton_matches_single_point_solves():
    _assert_batched_newton_matches_single_point_solves(LawEvaluator(marchenko_pastur_law(1 / 50)))


def test_batched_newton_matches_single_point_solves_pade():
    model = _exact_model(marchenko_pastur_law(1 / 50), k_max=20)
    _assert_batched_newton_matches_single_point_solves(ChebyshevPadeEvaluator(model))


def test_track_support_edge_search_batched(monkeypatch):
    # Each edge refinement round evaluates both edges' 63 interior points
    # in one call: four calls in all for the chosen approximant.
    calls, searching = [], [False]
    edges, density = FollowedRoot._edges, FollowedRoot._density

    def counting_edges(self, *args):
        calls.clear()
        searching[0] = True
        try:
            return edges(self, *args)
        finally:
            searching[0] = False

    def counting_density(self, x, y):
        if searching[0]:
            calls.append(x.size)
        return density(self, x, y)

    monkeypatch.setattr(FollowedRoot, "_edges", counting_edges)
    monkeypatch.setattr(FollowedRoot, "_density", counting_density)
    model = _exact_model(marchenko_pastur_law(1 / 50), k_max=20)
    track_support(ChebyshevPadeEvaluator(model), np.log(32.0))
    assert calls == [126] * 4


def test_track_support_closed_form_edges():
    # Worst case measured: 9.1e-7 of the width (MP x32 lower edge).
    mp = [(marchenko_pastur_law(1 / 50), r, marchenko_pastur_law(r / 50).support) for r in (2, 8, 32)]
    sc = [(wigner_law(2.0), r, wigner_law(2.0 * np.sqrt(r)).support) for r in (2, 32)]
    km = [(kesten_mckay_law(4), 2, (-4.0, 4.0))]  # x2 is the arcsine law on (-4, 4)
    for law, ratio, (lo, hi) in mp + sc + km:
        tracked = track_support(LawEvaluator(law), np.log(ratio))
        assert np.max(np.abs(np.subtract(tracked, (lo, hi)))) <= 1e-5 * (hi - lo)


def test_track_support_identity():
    ev = LawEvaluator(marchenko_pastur_law(0.5))
    assert track_support(ev, 0.0) == pytest.approx(ev.support)


def test_track_support_mp32():
    ev = LawEvaluator(marchenko_pastur_law(1 / 50))
    lo, hi = track_support(ev, np.log(32.0))
    law = marchenko_pastur_law(32 / 50)
    width = law.support[1] - law.support[0]
    assert lo == pytest.approx(law.support[0], abs=0.02 * width)
    assert hi == pytest.approx(law.support[1], abs=0.02 * width)


def test_track_support_wigner_scaling():
    ev = LawEvaluator(wigner_law(2.0))
    t = np.log(4.0)
    lo, hi = track_support(ev, t)
    radius = 2.0 * np.exp(t / 2.0)
    assert lo == pytest.approx(-radius, abs=0.02 * 2 * radius)
    assert hi == pytest.approx(radius, abs=0.02 * 2 * radius)


# ---------------------------------------------------------------------------
# crossing


def test_crossing_mp_and_wigner():
    rng = make_rng(6)
    for law in (marchenko_pastur_law(1 / 50), wigner_law(2.0)):
        ev = LawEvaluator(law)
        lo, hi = law.support
        z = complex(rng.uniform(lo, hi), rng.uniform(0.05, 0.5) * (hi - lo))
        report = verify_crossing(ev, z, t_max=12.0)
        assert report.crossed
        assert report.t_star > 0
        assert report.inside_support


def test_crossing_time_monotone_in_height():
    ev = LawEvaluator(marchenko_pastur_law(1 / 50))
    heights = [0.02, 0.05, 0.1, 0.2, 0.4]
    times = [verify_crossing(ev, 1.0 + 1j * h, t_max=14.0).t_star for h in heights]
    assert all(t is not None for t in times)
    assert np.all(np.diff(times) > 0)


def test_crossing_immediate_for_tiny_height():
    ev = LawEvaluator(marchenko_pastur_law(1 / 50))
    report = verify_crossing(ev, 1.0 + 1e-6j, t_max=2.0, dt=1e-4)
    assert report.crossed
    assert report.t_star <= 1e-2
    assert report.inside_support


def test_crossing_not_reached():
    ev = LawEvaluator(wigner_law(2.0))
    report = verify_crossing(ev, 0.0 + 5.0j, t_max=0.05)
    assert not report.crossed
    assert report.t_star is None


def test_crossing_model_matches_law():
    # The exact model's approximant is chosen once per label; its crossing
    # times match the law's (measured 1.1e-8, 3.6e-7 and 5.0e-6, the
    # model's own error)
    law = marchenko_pastur_law(1 / 50)
    ev = ChebyshevPadeEvaluator(_exact_model(law, k_max=20))
    choices = []
    decompressed = ev.decompressed

    def counting(ratio, order=None):
        choices.append(order is None)
        return decompressed(ratio, order=order)

    ev.decompressed = counting
    for z in (1.0 + 0.05j, 1.6 + 0.4j, 0.3 + 0.2j):
        choices.clear()
        got = verify_crossing(ev, z, t_max=14.0)
        want = verify_crossing(LawEvaluator(law), z, t_max=14.0)
        assert got.crossed and got.inside_support
        assert got.t_star == pytest.approx(want.t_star, abs=1e-5)
        assert sum(choices) == 1


def test_crossing_rejects_lower_half():
    ev = LawEvaluator(wigner_law(2.0))
    with pytest.raises(InputError):
        verify_crossing(ev, 1.0 - 0.5j)
