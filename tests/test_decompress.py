import numpy as np
import pytest

import freedec.decompress as dc
import freedec.stieltjes as stieltjes
from freedec.stieltjes import _PROBE_HEIGHT, FollowedRoot
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


def _one_point(ev, x, ratio):
    res = decompress_density(DecompressionRequest(evaluator=ev, ratio=ratio, grid=np.array([x])))
    return complex(res.roots[0]), res


def test_zero_time_degenerates():
    law = marchenko_pastur_law(0.5)
    z, res = _one_point(LawEvaluator(law), 1.0, 1.0)
    assert z == 1.0 + 1j * dc.default_delta(law.support)
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
    # so is a NaN or infinite time, not with numpy's LinAlgError, and a time
    # whose e^t overflows, with no overflow warning (pytest's settings make
    # a RuntimeWarning an error)
    for ev in (LawEvaluator(wigner_law(2.0)), ChebyshevPadeEvaluator(_exact_model(wigner_law(2.0), 20))):
        for t in (np.nan, np.inf, 709.8, 1000.0):
            with pytest.raises(InputError, match=f"scale t .*finite.*, got {t:g}"):
                track_support(ev, t)


def _roots_at(followed, xp):
    """Every root of the characteristic polynomial at each target (companion
    eigenvalues), but those at a common zero of N and D (a Froissart doublet
    of the approximant): those are roots at every target, a stationary root
    no follow ends on, which nearest-root matching can jump to when the
    followed root passes it.  They come out infinite."""
    coeffs = followed._table[:, 0] - xp[:, np.newaxis] * followed._table[:, 2]
    d = coeffs.shape[1] - 1
    companion = np.zeros((xp.size, d, d), dtype=complex)
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, -1] = -coeffs[:, :-1] / coeffs[:, -1:]
    roots = np.linalg.eigvals(companion)
    zeros, poles = (np.polynomial.polynomial.polyroots(p) for p in (followed.num, followed.den))
    doublets = zeros[np.min(np.abs(zeros[:, np.newaxis] - poles), axis=1, initial=np.inf) <= 1e-8]
    near = np.abs(roots[..., np.newaxis] - doublets) <= 1e-6 * (1.0 + np.abs(doublets))
    return np.where(near.any(axis=-1), np.inf, roots)


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


def _newton_polished(followed, w, xp, steps=3):
    # companion eigenvalues lose digits next to a double root (1.6e-8 at the
    # probe point beside exact MP K = 20 x32's upper edge); Newton steps on P
    # restore them without leaving the root (the next one is 1.6e-2 away there)
    poly, table = np.polynomial.polynomial, followed._table
    for _ in range(steps):
        value = poly.polyval(w, table[:, 0]) - xp * poly.polyval(w, table[:, 2])
        w = w - value / (poly.polyval(w, table[:, 1]) - xp * poly.polyval(w, table[:, 3]))
    return w


def test_refollow_restarts_on_the_root(monkeypatch):
    # Every point the follow refines, on the auto grid and on the probe line,
    # restarts 3 coarse heights above its first rough step.  It lands on the
    # root that following every root through 50 heights picks (200 heights
    # pick the same roots), and gets the same bits alone and in batches that
    # mix restart heights.  Restarting 0 or 1 height above (a point that only
    # ended unconverged one above the target) fails the first assertion on
    # the MP K = 40 and Wigner cases.
    restarts = []
    refollow = FollowedRoot._refollow

    def recording(self, x, y, count, begin, w):
        restarts.append((x, begin))
        return refollow(self, x, y, count, begin, w)

    monkeypatch.setattr(FollowedRoot, "_refollow", recording)
    mp = marchenko_pastur_law(1 / 50)
    cases = [(_exact_model(mp, k_max=20), 32.0), (_exact_model(mp), 32.0),
             (_even_model(wigner_law(2.0), 40), 32.0), (_even_model(kesten_mckay_law(4), 50), 2.0)]
    mixed = 0
    for model, ratio in cases:
        followed = ChebyshevPadeEvaluator(model).decompressed(ratio)
        delta = dc.default_delta(model.support)
        lines = [(dc.auto_grid(followed.support), delta), (followed._probe_line(0), _PROBE_HEIGHT * delta)]
        for line, height in lines:
            y = np.full(line.size, height)
            restarts.clear()
            w, converged = followed._follow(line, y)
            if not restarts:
                continue
            x, begin = restarts[0]
            order = np.argsort(x)
            x, begin = x[order], begin[order]
            refined = np.searchsorted(line, x)
            assert converged[refined].all()
            xp = x + 1j * height
            want = _newton_polished(followed, _all_roots_follow(followed, x, y[refined], count=50), xp)
            assert np.max(np.abs(w[refined] - want) / (1 + np.abs(want))) <= 1e-8
            for k in refined:
                assert followed._follow(line[k : k + 1], y[k : k + 1])[0][0] == w[k]
            for part in (refined[::-2], refined[-2::-2]):
                mixed += np.unique(begin[np.searchsorted(refined, part)]).size > 1
                assert np.array_equal(followed._follow(line[part], y[part])[0], w[part])
    assert mixed >= 4


def _refined_only_admissible(self, stages):
    """``FollowedRoot.admissible`` with the singular-point test on the refined
    probe run alone, and no first-pass screen; ``stages`` gets the check
    that rejected each order, or "admissible"."""
    delta, n = self._delta, stieltjes._PROBE
    points, image = self._singular_points()
    w, converged = self._follow(np.concatenate([self._probe_line(0), image.real]),
                                np.concatenate([np.full(n, _PROBE_HEIGHT * delta), image.imag]),
                                refine=np.arange(n + image.size) < n)
    probe = self._probe(self._transform(np.where(converged[:n], w[:n], np.nan)).imag / np.pi)
    if probe is None:
        stages[self.order] = "probe"
        return False
    xs, first, last, thresh = probe
    reached = self._reached(points, image, w[n:])
    if (reached & (image.real >= xs[first]) & (image.real <= xs[last])).any():
        stages[self.order] = "singular"
        return False
    self.harmless_branch_points = int(reached.sum())
    self.support = self._edges(xs, first, last, thresh)
    grid = dc.auto_grid(self.support)
    targets = grid + 1j * delta
    self._on_grid = (targets, self.stieltjes(targets))
    mass = np.trapezoid(np.nan_to_num(self._on_grid[1].imag / np.pi, nan=0.0), grid)
    if abs(mass - 1.0) > stieltjes._MASS_TOL and not self.harmless_branch_points:
        grid = np.linspace(grid[0], grid[-1], int((grid[-1] - grid[0]) / (0.5 * delta)) + 1)
        mass = np.trapezoid(np.nan_to_num(self._density(grid, delta), nan=0.0), grid)
    stages[self.order] = "admissible" if abs(mass - 1.0) <= stieltjes._MASS_TOL else "mass"
    return stages[self.order] == "admissible"


@pytest.mark.parametrize("k_max, divergent", [(30, [15]), (40, [15]), (50, [24, 15])])
def test_first_pass_screen_keeps_the_refined_choice(monkeypatch, k_max, divergent):
    # Exact Wachter(2.5, 1.5625) models x32: the first pass's run holds a
    # reached singular point that the refined run leaves out, so the screen
    # rejects an approximant the refined singular test passes (4 such
    # screens in a sweep of 175 exact models).  The refined rule rejects it
    # later, on its mass, and the choice and its density stay the same.
    model = _exact_model(wachter_law(2.5, 1.5625), k_max)
    admissible, screened = FollowedRoot.admissible, []

    def recording(self):
        verdict = admissible(self)
        screened.extend([self.order] * self.screened_out)
        return verdict

    monkeypatch.setattr(FollowedRoot, "admissible", recording)
    got = decompress_density(DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=32.0))
    stages = {}
    monkeypatch.setattr(FollowedRoot, "admissible", lambda self: _refined_only_admissible(self, stages))
    want = decompress_density(DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=32.0))
    assert [k for k in screened if stages[k] != "singular"] == divergent
    assert all(stages[k] == "mass" for k in divergent)
    assert got.decompressed.order == want.decompressed.order == 1
    for name in ("grid", "density", "support"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


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


class _InterfaceOnly:
    """An evaluator seen through its interface alone, as a tracing proxy
    sees it: ``support``, ``density`` and ``decompressed``; any other
    attribute raises ``AttributeError``."""

    _INTERFACE = ("support", "density", "decompressed")

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name not in self._INTERFACE:
            raise AttributeError(name)
        return getattr(self._inner, name)


def test_pipeline_needs_only_the_evaluator_interface():
    # The decompression, support tracking and crossing check use nothing but
    # the interface, so a proxy that forwards only it gets the same results,
    # bit for bit.
    evaluators = [LawEvaluator(meixner_law(0.1, 4.0, 0.6)),
                  ChebyshevPadeEvaluator(_exact_model(marchenko_pastur_law(1 / 50), k_max=20))]
    for ev in evaluators:
        proxy = _InterfaceOnly(ev)
        with pytest.raises(AttributeError):
            proxy.approximant_count
        for ratio in (1.0, 8.0):
            direct, wrapped = (decompress_density(DecompressionRequest(evaluator=e, ratio=ratio))
                               for e in (ev, proxy))
            for name in ("grid", "density", "roots", "failed", "support", "ratio", "delta"):
                assert np.array_equal(getattr(direct, name), getattr(wrapped, name))
        assert track_support(proxy, np.log(8.0)) == track_support(ev, np.log(8.0))
        lo, hi = ev.support
        z = complex(0.5 * (lo + hi), 0.1 * (hi - lo))
        assert verify_crossing(proxy, z, t_max=14.0) == verify_crossing(ev, z, t_max=14.0)


def test_support_probe_widens_just_above_ratio_one(monkeypatch):
    # Just above ratio 1 the decompressed density's run reaches the ends of
    # the probe's first width, so the probe doubles it.  Measured: each case
    # widens once, with no failed point; edges within 6.5e-3 of the width of
    # the decompressed law's (MP(0.5) lower edge) and mass within 1.6e-3 of 1.
    cases = [
        (marchenko_pastur_law(1 / 50), _exact_model(marchenko_pastur_law(1 / 50), k_max=20), 1.001),
        (marchenko_pastur_law(0.5), _exact_model(marchenko_pastur_law(0.5), k_max=40), 1.01),
        (wigner_law(2.0), _even_model(wigner_law(2.0), 40), 1.001),
        (kesten_mckay_law(4), _even_model(kesten_mckay_law(4), 50), 1.01),
    ]
    widths = []
    probe_line = FollowedRoot._probe_line

    def recording(self, doubling):
        widths.append((self, doubling))
        return probe_line(self, doubling)

    monkeypatch.setattr(FollowedRoot, "_probe_line", recording)
    for law, model, ratio in cases:
        widths.clear()
        res = decompress_density(DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=ratio))
        assert max(d for followed, d in widths if followed is res.decompressed) >= 1
        assert not res.failed.any()
        lo, hi = decompressed_law(law, ratio).support
        assert np.max(np.abs(np.subtract(res.support, (lo, hi)))) <= 1e-2 * (hi - lo)
        assert abs(res.mass() - 1.0) <= 5e-3


def test_probe_gives_up_when_the_density_never_decays(monkeypatch):
    # A density above the threshold at both ends of all four probe widths
    # gives the approximant no support: every one is rejected, so the ratio
    # is outside the model's decompression domain.
    widths = []
    probe_line = FollowedRoot._probe_line

    def recording(self, doubling):
        widths.append(doubling)
        return probe_line(self, doubling)

    monkeypatch.setattr(FollowedRoot, "_probe_line", recording)
    monkeypatch.setattr(FollowedRoot, "_transform", lambda self, w: np.full(w.shape, 1j * np.pi))
    ev = ChebyshevPadeEvaluator(_exact_model(marchenko_pastur_law(1 / 50), k_max=20))
    with pytest.raises(InputError, match="domain"):
        ev.decompressed(8.0)
    # the admissibility follow's first width, then the probe's four
    assert widths == [0, 0, 1, 2, 3] * (ev.approximant_count + 1)


@pytest.mark.parametrize("scale", [2.0 ** 10, 2.0 ** 14])
def test_decompression_commutes_with_scaling(scale):
    # x -> s x takes a density rho to rho(x / s) / s.  delta is a fixed
    # fraction of the source width, so with s a power of two every step of
    # the decompression scales exactly.
    model = _exact_model(marchenko_pastur_law(1 / 50), k_max=20)
    scaled = DensityModel(support=(scale * model.support[0], scale * model.support[1]),
                          basis="chebyshev-u", psi=model.psi / scale)
    base, result = (decompress_density(DecompressionRequest(evaluator=ChebyshevPadeEvaluator(m), ratio=8.0))
                    for m in (model, scaled))
    assert result.decompressed.order == base.decompressed.order
    assert np.array_equal(result.grid, scale * base.grid)
    assert np.array_equal(result.density, base.density / scale)


def test_auto_grid_is_the_sorted_chebyshev_nodes():
    # on the supports of the law_oracle benchmark's laws and their decompressions
    cases = [(marchenko_pastur_law(1 / 50), (2, 8, 32)), (wigner_law(2.0), (2, 8, 32)),
             (meixner_law(0.1, 4.0, 0.6), (2, 8, 32)), (kesten_mckay_law(4), (2,)),
             (wachter_law(2.5, 1.5625), (2,))]
    theta = np.pi * (np.arange(dc._AUTO_GRID) + 0.5) / dc._AUTO_GRID
    for law, ratios in cases:
        for lo, hi in [law.support] + [decompressed_law(law, r).support for r in ratios]:
            pad = 0.5 * dc._MARGIN * (hi - lo)
            nodes = 0.5 * (lo - pad + hi + pad) + 0.5 * (hi - lo + 2 * pad) * np.cos(theta)
            assert np.array_equal(dc.auto_grid((lo, hi)), np.sort(nodes))


def test_explicit_grid_and_validation():
    ev = LawEvaluator(wigner_law(2.0))
    grid = np.linspace(-5.0, 5.0, 101)
    res = decompress_density(DecompressionRequest(evaluator=ev, ratio=4.0, grid=grid))
    assert np.array_equal(res.grid, grid)
    with pytest.raises(InputError):
        decompress_density(
            DecompressionRequest(evaluator=ev, ratio=4.0, grid=np.array([1.0, 0.5]))
        )
    for ratio in (None, 0.5):
        with pytest.raises(InputError, match="decompression ratio"):
            decompress_density(DecompressionRequest(evaluator=ev, ratio=ratio))


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


def test_failed_points_are_counted_inside_the_support_alone():
    # An exact law's decompressed transform, NaN at chosen grid points.  Up
    # to 5% of the points inside the support may fail, however many outside
    # do: those come out NaN and failed, and count as zero in the mass.  One
    # more inside raises
    law = marchenko_pastur_law(1 / 50)
    target = decompressed_law(law, 8.0)
    lo, hi = target.support
    grid = np.linspace(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), 400)
    inside = np.flatnonzero((grid >= lo) & (grid <= hi))
    allowed = int(0.05 * inside.size)

    class Holes:
        support = law.support

        def __init__(self, holes):
            self.holes = holes

        def decompressed(self, ratio):
            holes = self.holes

            class Punctured:
                support = target.support

                def stieltjes(self, z):
                    out = target.stieltjes(z)
                    out[holes] = np.nan
                    return out

            return Punctured()

    def run(holes):
        return decompress_density(DecompressionRequest(evaluator=Holes(holes), ratio=8.0, grid=grid))

    whole = run(np.zeros(grid.size, dtype=bool))
    assert not whole.failed.any()
    holes = (grid < lo) | (grid > hi)
    holes[inside[10 : 10 + allowed]] = True
    res = run(holes)
    assert np.array_equal(res.failed, holes)
    assert np.isnan(res.density[holes]).all()
    assert np.array_equal(res.density[~holes], whole.density[~holes])
    assert res.mass() == np.trapezoid(np.where(holes, 0.0, whole.density), grid) < whole.mass()
    holes[inside[10 + allowed]] = True
    with pytest.raises(NumericalError, match=f"failed on {allowed + 1} of {inside.size} grid points inside the support"):
        run(holes)


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


def test_followed_root_does_not_depend_on_the_batch():
    # 3000 points spread over the support of exact MP(1/50) K = 20 x8, at
    # heights log-uniform in 1e-6 .. 1e-1 support widths: each gets the bits
    # of its own call.  With the follow's heights raised to an exponent
    # array, numpy's power took length-dependent paths in the exponent-0.5
    # row, and 35-56 of 3000 such points moved by up to 2.6e-15
    followed = ChebyshevPadeEvaluator(_exact_model(marchenko_pastur_law(1 / 50), k_max=20)).decompressed(8.0)
    lo, hi = followed.support
    rng = make_rng(37)
    z = rng.uniform(lo, hi, 3000) + 1j * (hi - lo) * 10 ** rng.uniform(-6, -1, 3000)
    batch = followed.stieltjes(z)
    alone = np.array([followed.stieltjes(z[k : k + 1])[0] for k in range(z.size)])
    assert np.array_equal(batch, alone, equal_nan=True)


@pytest.mark.parametrize("kind", ["law", "pade"])
def test_decompressed_transform_takes_the_open_upper_half_plane(kind):
    # Both decompressed transforms refuse a point off the open upper
    # half-plane, and the check leaves their values on it unchanged: the
    # same bits as the unchecked transform, the law's principal branch or
    # the followed root.
    law = marchenko_pastur_law(1 / 50)
    ev = LawEvaluator(law) if kind == "law" else ChebyshevPadeEvaluator(_exact_model(law, k_max=20))
    decompressed = ev.decompressed(8.0)
    for z in (0.5 + 0j, [1j, 0.5 - 0.01j], np.nan + 1j, 1.0 + np.inf * 1j, np.inf + 0.1j, "z"):
        with pytest.raises(InputError, match="open upper half-plane"):
            decompressed.stieltjes(z)
    delta = dc.default_delta(ev.support)
    x = np.linspace(-0.5, 2.5, 61)
    z = x + 1j * np.array([1e-4 * delta, delta, 1.0])[:, np.newaxis]
    if kind == "law":
        unchecked = law_stieltjes(decompressed, z)
    else:
        w, converged = decompressed._follow(z.real.ravel(), z.imag.ravel())
        unchecked = decompressed._transform(np.where(converged, w, np.nan)).reshape(z.shape)
    assert np.array_equal(decompressed.stieltjes(z), unchecked, equal_nan=True)
    assert decompressed.stieltjes(z[1, 20]) == unchecked[1, 20]
    assert isinstance(decompressed.stieltjes(z[1, 20]), complex)


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
    report = verify_crossing(ev, 1.0 + 1e-6j, t_max=2.0)
    assert report.crossed
    assert report.t_star <= 1e-2
    assert report.inside_support


@pytest.mark.parametrize("t_max", [np.nan, np.inf])
def test_crossing_rejects_a_step_that_never_advances(t_max):
    # the steps never arrive at a NaN or infinite end
    ev = LawEvaluator(marchenko_pastur_law(1 / 50))
    with pytest.raises(InputError, match="finite t_max"):
        verify_crossing(ev, 1.0 + 0.1j, t_max=t_max)


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
