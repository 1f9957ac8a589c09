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
    decompressed_law,
    eigenvalues_symmetric,
    fit_density,
    kesten_mckay_law,
    law_density,
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


class _NewtonOnly:
    """A law's evaluator without its closed-form decompression, so that
    ``decompress_density`` runs the characteristic solve on it."""

    def __init__(self, law):
        ev = LawEvaluator(law)
        self.support = ev.support
        self.evaluate, self.derivative, self.density = ev.evaluate, ev.derivative, ev.density


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


# ---------------------------------------------------------------------------
# characteristic solves


def _solve_one(ev, x, t, delta=None):
    delta = dc._default_delta(ev) if delta is None else delta
    z, resid, _, conv = dc._solve_targets(ev, np.array([complex(x, delta)]), t, 200)
    return complex(z[0]), float(resid[0]), bool(conv[0])


def test_zero_time_degenerates():
    ev = LawEvaluator(marchenko_pastur_law(0.5))
    z, _, converged = _solve_one(ev, 1.0, 0.0, delta=1e-3)
    assert z == 1.0 + 1e-3j
    assert converged


def test_mp_bulk_root_descends():
    law = marchenko_pastur_law(1 / 50)
    ev = LawEvaluator(law)
    t = np.log(32.0)
    x_bulk = 1.0 + 32.0 / 50.0  # center of the decompressed bulk
    z, residual, converged = _solve_one(ev, x_bulk, t)
    assert converged
    assert residual <= 1e-12 * (1 + abs(x_bulk))
    assert z.imag < 0


def test_wigner_symmetry_pins_root_to_axis():
    ev = LawEvaluator(wigner_law(2.0))
    for t in (0.5, 1.5, np.log(7.0)):
        z, _, converged = _solve_one(ev, 0.0, t)
        assert converged
        assert abs(z.real) <= 1e-10


def test_negative_time_rejected():
    ev = LawEvaluator(wigner_law(2.0))
    with pytest.raises(InputError):
        _solve_one(ev, 0.0, -0.5)


def _sequential_newton(evaluator, targets, t, z0, tol, max_iter):
    """Reference: ``_newton`` with a rejected step halved and re-evaluated in
    turn, the whole active set at each halving, up to four times."""
    a = np.exp(t) - 1.0
    targets = np.asarray(targets, dtype=complex)
    z_full = np.array(z0, dtype=complex)
    n = z_full.size
    resid_full = np.full(n, np.inf)
    iters_full = np.full(n, max_iter, dtype=int)
    lo, hi = evaluator.support
    max_step = 0.5 * max(hi - lo, 1.0) * max(np.exp(t / 2.0), 1.0)

    def fval(zz, tg):
        m = np.asarray(evaluator.evaluate(zz, "secondary"), dtype=complex)
        m = np.where((np.abs(m) < 1e-13) | ~np.isfinite(m), 1e-13, m)
        return zz - a / m - tg, m

    act, z, tg = np.arange(n), z_full.copy(), targets.copy()
    f, m = fval(z, tg)
    dm = np.asarray(evaluator.derivative(z, "secondary"), dtype=complex)
    fp = 1.0 + a * dm / (m * m)
    best_absf, stall = np.abs(f), np.zeros(n, dtype=int)
    for it in range(max_iter):
        absf = np.abs(f)
        improved = absf < 0.999 * best_absf
        best_absf = np.where(improved, absf, best_absf)
        stall = np.where(improved, 0, stall + 1)
        done = absf <= tol * (1.0 + np.abs(tg))
        out = done | (stall > 15)
        z_full[act[out]], resid_full[act[out]], iters_full[act[out]] = z[out], absf[out], it
        keep = ~out
        act, z, tg, f, fp = act[keep], z[keep], tg[keep], f[keep], fp[keep]
        best_absf, stall, absf = best_absf[keep], stall[keep], absf[keep]
        if act.size == 0:
            break
        fp = np.where((np.abs(fp) < 1e-13) | ~np.isfinite(fp), 1e-13, fp)
        step = f / fp
        mag = np.abs(step)
        step = np.where(mag > max_step, step * (max_step / np.maximum(mag, 1e-300)), step)
        z_new = z - step
        f_new, _ = fval(z_new, tg)
        for _ in range(4):
            worse = np.abs(f_new) > absf
            if not worse.any():
                break
            step = np.where(worse, 0.5 * step, step)
            z_new = z - step
            f_new, _ = fval(z_new, tg)
        dz = z_new - z
        dz = np.where(np.abs(dz) < 1e-300, 1e-300, dz)
        fp = (f_new - f) / dz
        z, f = z_new, f_new
    if act.size:
        z_full[act] = z
        resid_full[act] = np.abs(f)
    conv = resid_full <= tol * (1.0 + np.abs(targets))
    return z_full, resid_full, iters_full, conv


def _grid_start(law, ratio, n=400):
    # targets over the decompressed range and its margins, started at the
    # targets themselves: the solve's first stage, where backtracking is
    # frequent
    lo, hi = law.support
    half = 0.6 * (hi - lo) * ratio
    x = np.linspace(0.5 * (lo + hi) - half, 0.5 * (lo + hi) + half, n)
    targets = x + 1j * 1e-3 * (hi - lo)
    return targets, np.log(ratio), targets.copy()


def test_batched_line_search_matches_sequential_halving():
    for law, ratio in ((meixner_law(0.1, 4.0, 0.6), 8.0), (marchenko_pastur_law(1 / 50), 32.0)):
        ev = LawEvaluator(law)
        targets, t, z0 = _grid_start(law, ratio)
        got = dc._newton(ev, targets, t, z0, 1e-12, 200)
        want = _sequential_newton(ev, targets, t, z0, 1e-12, 200)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    law = marchenko_pastur_law(1 / 50)
    ev = ChebyshevPadeEvaluator(_exact_model(law, k_max=20))
    targets, t, z0 = _grid_start(law, 32.0)
    z, r, i, c = dc._newton(ev, targets, t, z0, 1e-12, 200)
    z_ref, r_ref, i_ref, c_ref = _sequential_newton(ev, targets, t, z0, 1e-12, 200)
    assert np.array_equal(c, c_ref) and np.array_equal(i, i_ref)
    assert np.max(np.abs(z - z_ref)) <= 1e-13


def test_newton_two_evaluations_per_iteration():
    class Counting(LawEvaluator):
        calls = {"evaluate": 0, "derivative": 0}

        def evaluate(self, z, branch="secondary"):
            self.calls["evaluate"] += 1
            return super().evaluate(z, branch)

        def derivative(self, z, branch="secondary"):
            self.calls["derivative"] += 1
            return super().derivative(z, branch)

    law = meixner_law(0.1, 4.0, 0.6)
    ev = Counting(law)
    targets, t, z0 = _grid_start(law, 8.0)
    _, _, iters, _ = dc._newton(ev, targets, t, z0, 1e-12, 200)
    assert ev.calls["derivative"] <= 1
    assert ev.calls["evaluate"] <= 2 * iters.max() + 1


def test_mass_counts_failed_points_as_zero():
    grid = np.linspace(0.0, 1.0, 11)
    density = np.ones_like(grid)
    failed = np.zeros(grid.size, dtype=bool)
    failed[4:7] = True  # a run of failures inside the support
    density[failed] = np.nan
    zeros = np.zeros(grid.size)
    res = dc.DecompressionResult(grid, density, (0.0, 1.0), 2.0, 1e-3, grid + 0j, zeros,
                                 zeros.astype(int), failed, np.zeros(grid.size, dtype=bool))
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


def test_meixner_x32_neighbour_reseed():
    # Margin points of this case converge only from converged neighbours'
    # roots; each must report the iterations of the solve that produced it.
    law = meixner_law(0.1, 4.0, 0.6)  # mean 0, variance b c = 2.4
    request = DecompressionRequest(evaluator=_NewtonOnly(law), ratio=32.0)
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
    assert res.iterations.max() < dc._MAX_ITER


def test_substep_reseed_keeps_neighbours_on_one_root():
    # test_stability_growth's n_s = 500 fit (drawn as it draws, in column
    # chunks of 10000), x32.  Without the re-seed inside the continuation
    # substeps, 15 points near the lower edge finish on another root: the
    # density there jumps by 0.51 against a peak of 0.90, and the mass drops
    # 0.977 -> 0.958.  With it, each point away from the lifted (degraded)
    # ones lies within 7e-4 of the peak of its neighbours' interpolant.
    rng = make_rng(1734)
    x, y = rng.standard_normal((500, 10000)), rng.standard_normal((500, 2500))
    a = x @ x.T + y @ y.T
    model = fit_density(eigenvalues_symmetric((a + a.T) / 25000.0))
    res = decompress_density(
        DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=32.0)
    )
    assert not res.failed.any()
    g, rho, deg = res.grid, res.density, res.degraded
    w = (g[1:-1] - g[:-2]) / (g[2:] - g[:-2])
    kink = np.abs(rho[1:-1] - (1.0 - w) * rho[:-2] - w * rho[2:])
    clean = ~(deg[:-2] | deg[1:-1] | deg[2:])
    assert clean.sum() > 900
    assert kink[clean].max() <= 1e-2 * rho.max()


def test_closed_form_matches_newton_on_law_cases():
    # Same grid, closed form against the characteristic solve: measured
    # 1.3e-10 of the peak in density (Kesten-McKay x2), 9e-11 in roots.
    for law, ratios in _LAW_CASES:
        for ratio in ratios:
            closed = decompress_density(
                DecompressionRequest(evaluator=LawEvaluator(law), ratio=ratio)
            )
            newton = decompress_density(
                DecompressionRequest(evaluator=_NewtonOnly(law), ratio=ratio, grid=closed.grid)
            )
            assert not closed.failed.any() and not newton.failed.any()
            assert not closed.iterations.any() and not closed.degraded.any()
            assert closed.support == decompressed_law(law, ratio).support
            peak = closed.density.max()
            assert np.max(np.abs(closed.density - newton.density)) <= 1e-9 * peak
            assert np.max(np.abs(closed.roots - newton.roots) / (1 + np.abs(closed.roots))) <= 1e-9


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
    assert not wrapped.iterations.any()


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


def test_corrupted_model_aborts_with_diagnostics():
    class BrokenEvaluator:
        # a vanishing field makes the characteristic equation unsolvable
        support = (0.0, 1.0)

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


def test_pade_even_series_kesten_mckay_x2():
    # every odd coefficient of the symmetric law is zero, so c_1 = 0 leaves
    # the series in w without approximants; those of the series in w^2 give
    # the decompressed law's identities
    law = kesten_mckay_law(4)
    model = _exact_model(law, k_max=50)
    model = DensityModel(support=model.support, basis="chebyshev-u",
                         psi=np.where(np.arange(model.psi.size) % 2 == 0, model.psi, 0.0))
    ev = ChebyshevPadeEvaluator(model)
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
    # The support-edge search solves unrelated points in one call; each must
    # get exactly what solving it alone would, converged or not.
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


def test_batched_newton_matches_single_point_solves():
    _assert_batched_newton_matches_single_point_solves(LawEvaluator(marchenko_pastur_law(1 / 50)))


def test_batched_newton_matches_single_point_solves_pade():
    model = _exact_model(marchenko_pastur_law(1 / 50), k_max=20)
    _assert_batched_newton_matches_single_point_solves(ChebyshevPadeEvaluator(model))


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
