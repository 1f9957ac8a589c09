import itertools

import numpy as np
import pytest

from freedec import (
    InputError,
    chebyshev_coefficients_from_grid,
    compare_densities,
    jensen_shannon,
    jensen_shannon_samples,
    law_cdf,
    law_density,
    log_determinant,
    marchenko_pastur_law,
    moments,
    qmc_sample,
    total_variation,
    total_variation_samples,
    van_der_corput,
    wigner_law,
)
from freedec.io import load_density_csv, save_density_csv


def _grid_and(law, n=4096):
    x = np.linspace(law.support[0], law.support[1], n)
    return x, law_density(law, x)


# ---------------------------------------------------------------------------
# TV / JS


def test_tv_js_identical_zero():
    x, rho = _grid_and(wigner_law(2.0))
    assert total_variation(x, rho, rho) == 0.0
    assert jensen_shannon(x, rho, rho) == 0.0


def test_tv_disjoint_bumps():
    x = np.linspace(0, 10, 8001)
    a = np.exp(-0.5 * ((x - 2) / 0.2) ** 2)
    b = np.exp(-0.5 * ((x - 8) / 0.2) ** 2)
    assert total_variation(x, a, b) == pytest.approx(1.0, abs=1e-6)


def test_tv_js_symmetric():
    x, rho_a = _grid_and(wigner_law(2.0))
    rho_b = law_density(marchenko_pastur_law(0.5), np.linspace(*wigner_law(2.0).support, x.size))
    rho_b = np.maximum(rho_b, 0.0) + 1e-12
    assert total_variation(x, rho_a, rho_b) == pytest.approx(total_variation(x, rho_b, rho_a))
    assert jensen_shannon(x, rho_a, rho_b) == pytest.approx(jensen_shannon(x, rho_b, rho_a))
    assert jensen_shannon(x, rho_a, rho_b) <= np.log(2.0)


def test_grid_mismatch_rejected():
    x = np.linspace(0, 1, 10)
    with pytest.raises(InputError):
        total_variation(x, np.ones(10), np.ones(9))


def test_empirical_variants_track_density_versions():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 1.0, 20000)
    b = rng.normal(0.5, 1.0, 20000)
    tv_hist = total_variation_samples(a, b)
    x = np.linspace(-5, 6, 4001)
    ga = np.exp(-0.5 * x**2)
    gb = np.exp(-0.5 * (x - 0.5) ** 2)
    tv_dens = total_variation(x, ga, gb)
    assert tv_hist == pytest.approx(tv_dens, abs=0.03)
    assert jensen_shannon_samples(a, b) == pytest.approx(
        jensen_shannon(x, ga, gb), abs=0.01
    )


# ---------------------------------------------------------------------------
# moments


def test_wigner_moments():
    x, rho = _grid_and(wigner_law(2.0), 20001)
    mu = moments(x, rho, 2)
    assert mu[0] == pytest.approx(1.0, abs=1e-6)
    assert mu[1] == pytest.approx(0.0, abs=1e-3)
    assert mu[2] == pytest.approx(1.0, abs=1e-3)  # Catalan: r^2/4


def test_repaired_model_mass_exact():
    from freedec import DensityModel, repair_positivity_mass

    model = repair_positivity_mass(
        DensityModel(support=(-1.0, 1.0), basis="chebyshev-u", psi=np.array([0.7, 0.1]))
    )
    # closed-form mass is pinned exactly; the grid moment carries the
    # trapezoid's O(h^{3/2}) edge error on top
    assert model.mass() == pytest.approx(1.0, abs=1e-12)
    x = np.linspace(-1, 1, 200001)
    assert moments(x, model.density(x), 0)[0] == pytest.approx(1.0, abs=1e-6)


def test_mp_mean_is_one():
    x, rho = _grid_and(marchenko_pastur_law(0.3), 20001)
    rho = rho / np.trapezoid(rho, x)
    assert moments(x, rho, 1)[1] == pytest.approx(1.0, abs=1e-3)


def test_narrow_bump_mean():
    x = np.linspace(0, 10, 20001)
    rho = np.exp(-0.5 * ((x - 3.0) / 0.01) ** 2)
    assert moments(x, rho / np.trapezoid(rho, x), 1)[1] == pytest.approx(3.0, abs=1e-6)


# ---------------------------------------------------------------------------
# log-determinant


def test_logdet_point_mass_at_one():
    x = np.linspace(0.99, 1.01, 2001)
    rho = np.exp(-0.5 * ((x - 1.0) / 0.001) ** 2)
    assert log_determinant(x, rho, 100) == pytest.approx(0.0, abs=0.01)


def test_logdet_uniform_closed_form():
    x = np.linspace(1.0, np.e, 4001)
    rho = np.full_like(x, 1.0 / (np.e - 1.0))
    want = 500 * 1.0 / (np.e - 1.0)  # n * integral of ln on [1, e] = n/(e-1)
    assert log_determinant(x, rho, 500) == pytest.approx(want, rel=1e-5)


def test_logdet_affine_identity():
    law = marchenko_pastur_law(0.5)
    x, rho = _grid_and(law, 20001)
    base = log_determinant(x, rho, 200)
    scaled = log_determinant(2.0 * x, rho / 2.0, 200)
    assert scaled == pytest.approx(base + 200 * np.log(2.0), abs=0.01)


def test_logdet_rejects_zero_support():
    x = np.linspace(0.0, 1.0, 101)
    with pytest.raises(InputError):
        log_determinant(x, np.ones_like(x), 10)


# ---------------------------------------------------------------------------
# QMC sampling


def test_vdc_first_point_half():
    assert van_der_corput(1)[0] == 0.5
    assert np.array_equal(van_der_corput(3), [0.5, 0.25, 0.75])


def test_qmc_single_sample_is_median():
    law = marchenko_pastur_law(0.5)
    x, rho = _grid_and(law, 8001)
    sample = qmc_sample(x, rho, 1)
    cdf_at = law_cdf(law, sample[0])
    assert cdf_at == pytest.approx(0.5, abs=1e-3)


def test_qmc_uniform_discrepancy():
    x = np.linspace(0.0, 1.0, 2001)
    rho = np.ones_like(x)
    count = 512
    pts = qmc_sample(x, rho, count)
    ecdf_dev = np.max(np.abs((np.arange(count) + 1) / count - pts))
    assert ecdf_dev <= 2.0 / count


def test_qmc_mp_ks_distance():
    law = marchenko_pastur_law(1 / 50)
    x, rho = _grid_and(law, 8001)
    pts = qmc_sample(x, rho, 1000)
    ecdf = (np.arange(1000) + 1) / 1000.0
    ks = np.max(np.abs(law_cdf(law, pts) - ecdf))
    assert ks <= 0.01


def test_qmc_seed_rotation():
    x = np.linspace(0.0, 1.0, 1001)
    rho = np.ones_like(x)
    a = qmc_sample(x, rho, 64, seed=0)
    b = qmc_sample(x, rho, 64, seed=5)
    assert not np.allclose(a, b)
    assert np.allclose(qmc_sample(x, rho, 64, seed=5), b)


# ---------------------------------------------------------------------------
# comparison report


def test_compare_densities_report():
    law_a = marchenko_pastur_law(0.5)
    x = np.linspace(0.01, 3.5, 4096)
    rho_a = law_density(law_a, x)
    comparison = compare_densities(x, rho_a, rho_a, order=100)
    assert comparison.tv == 0.0
    assert comparison.js == 0.0
    assert comparison.moment_rel_err == (0.0, 0.0)
    assert comparison.logdet_a == comparison.logdet_b
    table = comparison.to_table()
    assert "TV" in table and "mu2" in table
    assert '"tv": 0.0' in comparison.to_json()


# ---------------------------------------------------------------------------
# one rule for a density on a grid


def _load_written(x, rho, tmp_path):
    # the rows of a hand-written density file; a missing cell stays empty
    path = tmp_path / "in.csv"
    rows = itertools.zip_longest(x, rho, fillvalue="")
    path.write_text("x,density\n" + "".join(f"{a},{b}\n" for a, b in rows))
    return load_density_csv(path)


# every function that takes a density on a grid, called as (x, rho, tmp_path);
# the second density of a comparison is a good one on the same grid
_GRID_READERS = {
    "total_variation": lambda x, rho, _: total_variation(x, rho, np.ones(np.shape(x))),
    "jensen_shannon": lambda x, rho, _: jensen_shannon(x, rho, np.ones(np.shape(x))),
    "compare_densities": lambda x, rho, _: compare_densities(x, rho, np.ones(np.shape(x)), order=10),
    "moments": lambda x, rho, _: moments(x, rho),
    "log_determinant": lambda x, rho, _: log_determinant(x, rho, 10),
    "qmc_sample": lambda x, rho, _: qmc_sample(x, rho, 4),
    "chebyshev_coefficients_from_grid":
        lambda x, rho, _: chebyshev_coefficients_from_grid(x, rho, (1.0, 2.0), 3),
    "save_density_csv": lambda x, rho, tmp_path: save_density_csv(tmp_path / "out.csv", x, rho),
    "load_density_csv": _load_written,
}

_X = np.linspace(1.0, 2.0, 5)  # above 0, so the log-determinant has a value
_RHO = np.ones(5)
_BAD_DENSITIES = {
    "nan value": (_X, np.where(np.arange(5) == 2, np.nan, 1.0)),  # unchecked: JS 0.0, TV nan
    "inf grid point": (np.append(_X[:-1], np.inf), _RHO),
    "decreasing grid": (_X[::-1], _RHO),  # unchecked: mass -1, zero coefficients
    "single point": (_X[:1], _RHO[:1]),  # unchecked: saved, then refused by the loader
    "length mismatch": (_X, _RHO[:-1]),  # unchecked: saved without the last grid point
}


@pytest.mark.parametrize("reader", sorted(_GRID_READERS))
def test_grid_readers_take_a_good_density(reader, tmp_path):
    _GRID_READERS[reader](_X, _RHO, tmp_path)


@pytest.mark.parametrize("bad", sorted(_BAD_DENSITIES))
@pytest.mark.parametrize("reader", sorted(_GRID_READERS))
def test_grid_readers_reject_a_bad_density(reader, bad, tmp_path):
    x, rho = _BAD_DENSITIES[bad]
    with pytest.raises(InputError):
        _GRID_READERS[reader](x, rho, tmp_path)
    assert not (tmp_path / "out.csv").exists()
