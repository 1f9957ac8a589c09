import numpy as np
import pytest

import freedec.decompress as dc
from freedec import (
    ChebyshevPadeEvaluator,
    DecompressionRequest,
    DensityModel,
    InputError,
    LawEvaluator,
    NumericalError,
    chebyshev_coefficients_from_grid,
    decompress_density,
    kesten_mckay_law,
    law_density,
    make_rng,
    marchenko_pastur_law,
    meixner_law,
    solve_characteristic,
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


def _exact_model(law, k_max=40):
    sup = (law.support[0] - 1e-9, law.support[1] + 1e-9)
    xs = np.linspace(sup[0], sup[1], 8192)
    psi = chebyshev_coefficients_from_grid(xs, law_density(law, xs), sup, k_max)
    return DensityModel(support=sup, basis="chebyshev-u", psi=psi)


# ---------------------------------------------------------------------------
# characteristic solves


def test_zero_time_degenerates():
    ev = LawEvaluator(marchenko_pastur_law(0.5))
    z, info = solve_characteristic(ev, 1.0, 0.0, delta=1e-3)
    assert z == 1.0 + 1e-3j
    assert info["converged"]


def test_mp_bulk_root_descends():
    law = marchenko_pastur_law(1 / 50)
    ev = LawEvaluator(law)
    t = np.log(32.0)
    x_bulk = 1.0 + 32.0 / 50.0  # center of the decompressed bulk
    z, info = solve_characteristic(ev, x_bulk, t)
    assert info["converged"]
    assert info["residual"] <= 1e-12 * (1 + abs(x_bulk))
    assert z.imag < 0


def test_wigner_symmetry_pins_root_to_axis():
    ev = LawEvaluator(wigner_law(2.0))
    for t in (0.5, 1.5, np.log(7.0)):
        z, info = solve_characteristic(ev, 0.0, t)
        assert info["converged"]
        assert abs(z.real) <= 1e-10


def test_negative_time_rejected():
    ev = LawEvaluator(wigner_law(2.0))
    with pytest.raises(InputError):
        solve_characteristic(ev, 0.0, -0.5)


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


def test_meixner_x32_neighbour_reseed():
    # Margin points of this case converge only from converged neighbours'
    # roots; each must report the iterations of the solve that produced it.
    law = meixner_law(0.1, 4.0, 0.6)  # mean 0, variance b c = 2.4
    request = DecompressionRequest(evaluator=LawEvaluator(law), ratio=32.0)
    res = decompress_density(request)
    assert not res.failed.any()
    assert not res.degraded.any()
    x, rho = res.grid, res.density
    mass = np.trapezoid(rho, x)
    mean = np.trapezoid(x * rho, x) / mass
    var = np.trapezoid((x - mean) ** 2 * rho, x) / mass
    assert abs(mass - 1.0) <= 0.01
    assert abs(mean) <= 0.01 * np.sqrt(32 * 2.4)
    assert abs(var / (32 * 2.4) - 1.0) <= 0.02
    assert res.iterations.max() < request.max_iter


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


def test_ratio_from_orders():
    req = DecompressionRequest(
        evaluator=LawEvaluator(wigner_law(2.0)), source_order=1000, target_order=4000
    )
    assert req.resolved_ratio() == 4.0


def test_meixner_class_decompression_domain():
    # Kesten-McKay(d) and Wachter(a, b) are free Meixner laws with
    # c = d / (d - 1) and (a + b) / (a + b - 1) > 1: the flow's pole sits at
    # ratio c / (c - 1), i.e. d and a + b, and no law answers ratios beyond it.
    for law, limit in ((kesten_mckay_law(4), 4.0), (wachter_law(2.5, 1.5625), 4.0625)):
        ev = LawEvaluator(law)
        assert ev.max_ratio == pytest.approx(limit, rel=1e-12)
        with pytest.raises(InputError, match="domain"):
            decompress_density(DecompressionRequest(evaluator=ev, ratio=8.0))
        result = decompress_density(DecompressionRequest(evaluator=ev, ratio=2.0))
        assert not result.failed.any()
        assert result.mass() == pytest.approx(1.0, abs=1e-2)
    for law in (marchenko_pastur_law(0.5), wigner_law(2.0), meixner_law(0.1, 4.0, 0.6)):
        assert LawEvaluator(law).max_ratio == np.inf


def test_corrupted_model_aborts_with_diagnostics():
    class BrokenEvaluator:
        # a vanishing field makes the characteristic equation unsolvable
        support = (0.0, 1.0)
        max_ratio = np.inf

        def evaluate(self, z, branch="secondary"):
            return np.full(np.shape(z), 1e-20 + 0j)

        def derivative(self, z, branch="secondary"):
            return np.zeros(np.shape(z), dtype=complex)

        def density(self, x):
            return np.zeros(np.shape(x))

    with pytest.raises(NumericalError) as err:
        decompress_density(
            DecompressionRequest(
                evaluator=BrokenEvaluator(), ratio=32.0, grid=np.linspace(-4, 4, 100)
            )
        )
    assert "failed" in str(err.value)


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


# ---------------------------------------------------------------------------
# support tracking


def test_batched_newton_matches_single_point_solves():
    # The support-edge search solves unrelated points in one call; each must
    # get exactly what solving it alone would, converged or not.
    ev = LawEvaluator(marchenko_pastur_law(1 / 50))
    t = np.log(8.0)  # MP(8/50): support (0.36, 1.96)
    x = np.array([0.05, 0.2, 0.34, 0.36, 0.37, 0.5, 1.0, 1.5, 1.9, 1.96, 1.97, 2.2, 3.0])
    targets = x + 1j * 1e-4 * dc._default_delta(ev)
    for z0 in (targets, np.full(x.size, 1.0 - 0.5j)):
        batch = dc._newton(ev, targets, t, z0, 1e-12, 60)
        assert batch[3].any() and not batch[3].all()
        for k in range(x.size):
            alone = dc._newton(ev, targets[k : k + 1], t, z0[k : k + 1], 1e-12, 60)
            for got, want in zip(batch, alone):
                assert got[k] == want[0]


def test_track_support_edge_search_batched(monkeypatch):
    # Count the Newton calls outside the probe's continuation solves: those
    # are the edge search's.
    calls, in_probe = [], [False]
    newton, solve_targets = dc._newton, dc._solve_targets

    def counting_newton(*args):
        if not in_probe[0]:
            calls.append(len(args[1]))
        return newton(*args)

    def flagged_solve_targets(*args):
        in_probe[0] = True
        try:
            return solve_targets(*args)
        finally:
            in_probe[0] = False

    monkeypatch.setattr(dc, "_newton", counting_newton)
    monkeypatch.setattr(dc, "_solve_targets", flagged_solve_targets)
    track_support(LawEvaluator(marchenko_pastur_law(1 / 50)), np.log(32.0))
    assert 0 < len(calls) <= 10


def test_track_support_closed_form_edges():
    # Worst case measured: 9.1e-7 of the width (MP x32 lower edge).
    mp = [(marchenko_pastur_law(1 / 50), r, marchenko_pastur_law(r / 50).support) for r in (2, 8, 32)]
    sc = [(wigner_law(2.0), r, wigner_law(2.0 * np.sqrt(r)).support) for r in (2, 32)]
    km = [(kesten_mckay_law(4), 2, (-4.0, 4.0))]  # x2 is the arcsine law on (-4, 4)
    for law, ratio, (lo, hi) in mp + sc + km:
        tracked = track_support(LawEvaluator(law), np.log(ratio))
        assert np.max(np.abs(np.subtract(tracked, (lo, hi)))) <= 1e-5 * (hi - lo)


def test_track_support_no_decay_raises():
    class FlatEvaluator:
        # m = i everywhere: the decompressed density never decays
        support = (0.0, 1.0)

        def evaluate(self, z, branch="secondary"):
            return np.full(np.shape(z), 1j)

        def derivative(self, z, branch="secondary"):
            return np.zeros(np.shape(z), dtype=complex)

    with pytest.raises(NumericalError, match="no density decay"):
        track_support(FlatEvaluator(), np.log(2.0))


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


def test_crossing_rejects_lower_half():
    ev = LawEvaluator(wigner_law(2.0))
    with pytest.raises(InputError):
        verify_crossing(ev, 1.0 - 0.5j)
