"""Acceptance suite: one test per criterion, each printing a verdict line.

Heavy pipelines are shared through module-scoped fixtures; the printed lines
carry the measured values so a red criterion still reports its evidence.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest
import scipy.integrate
from scipy.special import eval_chebyu

from freedec import (
    ChebyshevPadeEvaluator,
    DecompressionRequest,
    DensityModel,
    InputError,
    LawEvaluator,
    chebyshev_coefficients_from_grid,
    decompress_density,
    eigenvalues_symmetric,
    fit_density,
    haar_orthogonal,
    jensen_shannon,
    joukowski_inverse,
    kesten_mckay_law,
    law_density,
    law_hilbert,
    law_r_transform,
    law_stieltjes,
    log_determinant,
    make_rng,
    marchenko_pastur_law,
    meixner_decompression_params,
    meixner_law,
    qmc_sample,
    sample_principal_submatrix,
    total_variation,
    verify_crossing,
    wachter_law,
    wigner_law,
)
from freedec.linalg import SpectrumSample
from numpy.polynomial import polynomial as npoly

LOGDET_BASELINE = -13538.94


def _verdict(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] {name}: {status} ({detail})")
    return ok


def _decompress_fit(seed, n_s, d, ratio):
    draw_rng = make_rng(seed)
    a = np.zeros((n_s, n_s))
    done = 0
    while done < d:
        cols = min(10000, d - done)
        x = draw_rng.standard_normal((n_s, cols))
        a += x @ x.T
        done += cols
    a = (a + a.T) / (2.0 * d)
    model = fit_density(eigenvalues_symmetric(a))
    evaluator = ChebyshevPadeEvaluator(model)
    result = decompress_density(DecompressionRequest(evaluator=evaluator, ratio=ratio))
    good = ~result.failed
    return model, result.grid[good], np.maximum(result.density[good], 0.0), result


@pytest.fixture(scope="module")
def mp_pipeline():
    """Five seeded Wishart fits (n_s=1000, d=50000) decompressed by 32."""
    law = marchenko_pastur_law(32.0 / 50.0)
    t0 = time.time()
    rows = []
    for seed in range(5):
        _, xs, ds, result = _decompress_fit(seed, 1000, 50000, 32.0)
        target = law_density(law, xs)
        pos = xs > 1e-9
        rows.append(
            {
                "tv": total_variation(xs, ds, target),
                "js": jensen_shannon(xs, ds, target),
                "logdet": log_determinant(xs[pos], ds[pos], 32000),
                "failed": int(result.failed.sum()),
                "order": result.decompressed.order,
                "mass": result.mass(),
            }
        )
    return {"rows": rows, "elapsed": time.time() - t0}


def test_mp_decompression(mp_pipeline):
    """Headline MP pipeline: TV <= 2%, JS <= 5% averaged over 5 seeds, <= 2 min."""
    tv = float(np.mean([r["tv"] for r in mp_pipeline["rows"]]))
    js = float(np.mean([r["js"] for r in mp_pipeline["rows"]]))
    elapsed = mp_pipeline["elapsed"]
    ok = tv <= 0.02 and js <= 0.05 and elapsed <= 120.0
    _verdict(
        "MP decompression x32",
        ok,
        f"TV={tv:.4f} (gate 0.02), JS={js:.4f} (gate 0.05), runtime={elapsed:.0f}s (gate 120s)",
    )
    assert js <= 0.05
    assert elapsed <= 120.0
    # Fit fluctuations at n_s=1000 are amplified ~(n/n_s)^nu by the flow
    # (nu around 1), which puts density-grid TV an order above this gate;
    # see the stability criterion for the growth law itself.
    assert tv <= 0.02


def test_log_determinant(mp_pipeline):
    """Same pipeline, n=32000: relative log-determinant error <= 3%."""
    lds = np.array([r["logdet"] for r in mp_pipeline["rows"]])
    rel = float(np.mean(np.abs(lds - LOGDET_BASELINE) / abs(LOGDET_BASELINE)))
    ok = rel <= 0.03
    _verdict(
        "log-determinant",
        ok,
        f"mean estimate={lds.mean():.1f} vs baseline {LOGDET_BASELINE}, rel err={rel:.4f} (gate 0.03)",
    )
    assert rel <= 0.03


def test_mp_pipeline_solves_every_point(mp_pipeline):
    """Seeds 0-4: no failed grid point, and the solved points carry mass 1 +- 5%.

    This guards the choice of the approximant whose root is followed: on
    seeds 2 and 4 the deepest one reaches a branch point above the support,
    and its density has mass 1.117 and 0.980.
    """
    rows = mp_pipeline["rows"]
    ok = all(r["failed"] == 0 and abs(r["mass"] - 1.0) <= 0.05 for r in rows)
    _verdict(
        "MP x32 solves every point",
        ok,
        "; ".join(
            f"seed {seed}: failed={r['failed']}, [{r['order']}/{r['order']}], mass={r['mass']:.4f}"
            for seed, r in enumerate(rows)
        ),
    )
    assert ok


def test_wigner_decompression():
    """GOE n_s=1000 decompressed x32 vs semicircle with radius scaled by sqrt(32)."""
    tvs = []
    for seed in range(3):
        rng = make_rng(seed)
        x = rng.standard_normal((1000, 1000))
        a = (x + x.T) / np.sqrt(2.0)
        a = (a + a.T) / 2.0
        model = fit_density(eigenvalues_symmetric(a))
        res = decompress_density(
            DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=32.0)
        )
        good = ~res.failed
        law = wigner_law(2.0 * np.sqrt(32 * 1000))
        tvs.append(
            total_variation(res.grid[good], np.maximum(res.density[good], 0.0),
                            law_density(law, res.grid[good]))
        )
    tv = float(np.mean(tvs))
    ok = tv <= 0.03
    _verdict("Wigner decompression x32", ok, f"TV={tv:.4f} (gate 0.03)")
    assert tv <= 0.03


def test_meixner_flow_identity():
    """R_{a,b,c}(alpha z) == R_{flowed}(z) for alpha in {2, 8, 32}."""
    a, b, c = 0.1, 4.0, 0.6
    rng = make_rng(77)
    worst = 0.0
    for alpha in (2.0, 8.0, 32.0):
        flowed = meixner_decompression_params(a, b, c, alpha)
        z = (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)) * (0.005 / alpha)
        lhs = law_r_transform(meixner_law(a, b, c), alpha * z)
        rhs = law_r_transform(meixner_law(*flowed), z)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-9
    _verdict("Meixner flow identity", ok, f"max residual={worst:.2e} (gate 1e-9)")
    assert worst <= 1e-9


def test_chebyshev_transform_closed_form():
    """Quadrature transform of U_k sqrt(1-x^2) equals pi J(z)^(k+1), k = 0..5."""
    rng = make_rng(99)
    worst = 0.0
    for k in range(6):
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2.0))
            re = scipy.integrate.quad(
                lambda s: (eval_chebyu(k, s) * np.sqrt(1 - s * s) / (z - s)).real,
                -1, 1, limit=200,
            )[0]
            im = scipy.integrate.quad(
                lambda s: (eval_chebyu(k, s) * np.sqrt(1 - s * s) / (z - s)).imag,
                -1, 1, limit=200,
            )[0]
            worst = max(worst, abs(re + 1j * im - np.pi * joukowski_inverse(z) ** (k + 1)))
    ok = worst <= 1e-8
    _verdict("Chebyshev transform identity", ok, f"max |delta|={worst:.2e} (gate 1e-8)")
    assert worst <= 1e-8


def _five_laws():
    return {
        "wigner": wigner_law(2.0),
        "mp": marchenko_pastur_law(0.5),
        "kesten-mckay": kesten_mckay_law(4),
        "wachter": wachter_law(2.5, 1.5625),
        "meixner": meixner_law(0.1, 4.0, 0.6),
    }


def test_quadratic_identity():
    """|Q m^2 - P m + 1| <= 1e-12 at 100 random upper-half points per law."""
    rng = make_rng(55)
    worst = 0.0
    for law in _five_laws().values():
        lo, hi = law.support
        z = rng.uniform(lo - 1, hi + 1, 100) + 1j * rng.uniform(0.01, 3.0, 100)
        m = law_stieltjes(law, z)
        pv = npoly.polyval(z, law.p.astype(complex))
        qv = npoly.polyval(z, law.q.astype(complex))
        worst = max(worst, float(np.max(np.abs(qv * m * m - pv * m + 1.0))))
    ok = worst <= 1e-12
    _verdict("quadratic identity", ok, f"max residual={worst:.2e} (gate 1e-12)")
    assert worst <= 1e-12


def test_hilbert_structure():
    """Sign, monotonicity, zero parity and -1/x tail for all five laws."""
    checks = []
    for name, law in _five_laws().items():
        lo, hi = law.support
        width = hi - lo
        left = np.linspace(lo - 2 * width, lo - 1e-3 * width, 64)
        right = np.linspace(hi + 1e-3 * width, hi + 2 * width, 64)
        h_left = law_stieltjes(law, left).real
        h_right = law_stieltjes(law, right).real
        x = np.linspace(lo + 1e-4 * width, hi - 1e-4 * width, 2001)
        signs = np.sign(law_hilbert(law, x))
        signs = signs[signs != 0]
        changes = int(np.sum(signs[1:] * signs[:-1] < 0))
        far = lo - 1e3 * width
        checks.append(
            np.all(h_left > 0)
            and np.all(np.diff(h_left) > 0)
            and np.all(h_right < 0)
            and np.all(np.diff(h_right) > 0)
            and changes % 2 == 1
            and abs(law_stieltjes(law, far).real * far + 1.0) <= 1e-2
        )
    ok = all(bool(c) for c in checks)
    _verdict("Hilbert transform structure", ok, f"five laws -> {checks}")
    assert ok


def test_crossing_property():
    """Characteristic labels cross the axis inside the support (MP, Wigner)."""
    rng = make_rng(21)
    count, inside = 0, 0
    for law in (marchenko_pastur_law(1 / 50), wigner_law(2.0)):
        ev = LawEvaluator(law)
        lo, hi = law.support
        for _ in range(20):
            z = complex(rng.uniform(lo, hi), rng.uniform(0.02, 0.8) * (hi - lo))
            report = verify_crossing(ev, z, t_max=16.0)
            count += 1
            if report.crossed and report.inside_support:
                inside += 1
    ok = inside == count
    _verdict("crossing property", ok, f"{inside}/{count} labels crossed inside the support")
    assert ok


def test_identity_decompression():
    """Ratio 1 reproduces each fitted density to 1e-6 sup-norm."""
    worst = 0.0
    for name, law in _five_laws().items():
        grid = np.linspace(law.support[0], law.support[1], 4096)
        eigs = qmc_sample(grid, law_density(law, grid), 2000)
        model = fit_density(SpectrumSample(eigs, eigs.size), k_max=50)
        res = decompress_density(
            DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=1.0)
        )
        worst = max(
            worst,
            float(np.max(np.abs(res.density - np.maximum(model.density(res.grid), 0.0)))),
        )
    ok = worst <= 1e-6
    _verdict("identity decompression", ok, f"sup deviation={worst:.2e} (gate 1e-6)")
    assert worst <= 1e-6


def test_stability_growth():
    """L2 error growth under x32 stays below ratio^6; log-log slope finite."""
    law_src = marchenko_pastur_law(1 / 25)
    growths = []
    for n_s in (500, 1000, 2000):
        model, xs, ds, _ = _decompress_fit(1234 + n_s, n_s, 25 * n_s, 32.0)
        grid0 = np.linspace(model.support[0], model.support[1], 2001)
        err_before = np.sqrt(
            np.trapezoid((model.density(grid0) - law_density(law_src, grid0)) ** 2, grid0)
        )
        law_t = marchenko_pastur_law(32 / 25)
        dsn = ds / np.trapezoid(ds, xs)
        err_after = np.sqrt(np.trapezoid((dsn - law_density(law_t, xs)) ** 2, xs))
        growths.append(err_after / max(err_before, 1e-300))
    bound = 32.0**6
    ok_growth = all(g <= bound for g in growths)

    # monotone-in-ratio regression on one fit
    draw_rng = make_rng(4321)
    x = draw_rng.standard_normal((1000, 25000))
    a = (x @ x.T) / 25000.0
    a = (a + a.T) / 2.0
    model = fit_density(eigenvalues_symmetric(a))
    ev = ChebyshevPadeEvaluator(model)
    ratios = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    errs = []
    for r in ratios:
        res = decompress_density(DecompressionRequest(evaluator=ev, ratio=r))
        good = ~res.failed
        xs, ds = res.grid[good], np.maximum(res.density[good], 0.0)
        law_t = marchenko_pastur_law(r / 25)
        dsn = ds / np.trapezoid(ds, xs)
        errs.append(np.sqrt(np.trapezoid((dsn - law_density(law_t, xs)) ** 2, xs)))
    slope = np.polyfit(np.log(ratios), np.log(errs), 1)[0]
    ok = ok_growth and np.isfinite(slope) and slope <= 6.0
    _verdict(
        "stability growth",
        ok,
        f"growth factors={np.round(growths, 2).tolist()} (gate {bound:.1e}), "
        f"log-log slope={slope:.2f} (gate 6)",
    )
    assert ok


def test_ill_conditioned_ingestion():
    """Synthetic 5000x5000 Gram matrix spanning 1e8 condition number.

    Stand-in for the external-data scale runs: the fit must hold the mass
    and positivity invariants, and the x5 decompression, which no Pade
    approximant of the fit gives, must raise as out of domain.
    """
    n = 5000
    lam = np.geomspace(1e-4, 1e4, n)
    rng = make_rng(2024)
    a = np.diag(lam)
    for _ in range(8):
        # orthogonal conjugation by Householder reflectors scrambles the
        # eigenvectors while keeping the spectrum exact
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        av = a @ v
        vav = float(v @ av)
        a = a - 2.0 * np.outer(v, av) - 2.0 * np.outer(av, v) + 4.0 * vav * np.outer(v, v)
        a = (a + a.T) / 2.0
    sub = sample_principal_submatrix(a, 1000, seed=7)
    sample = eigenvalues_symmetric(sub)
    model = fit_density(sample)
    grid = np.linspace(model.support[0], model.support[1], 2048)
    with pytest.raises(InputError, match="domain") as err:
        decompress_density(
            DecompressionRequest(evaluator=ChebyshevPadeEvaluator(model), ratio=5.0)
        )
    ok = (
        model.mass() == pytest.approx(1.0, abs=1e-6)
        and model.density(grid).min() >= -1e-9
    )
    _verdict(
        "ill-conditioned ingestion",
        bool(ok),
        f"cond={lam[-1]/lam[0]:.1e}, mass={model.mass():.8f}, "
        f"min density={model.density(grid).min():.2e}, x5: {err.value}",
    )
    assert ok
