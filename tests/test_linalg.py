import numpy as np
import pytest

from freedec import (
    InputError,
    SpectrumSample,
    eigenvalues_symmetric,
    haar_orthogonal,
    make_rng,
    sample_principal_submatrix,
)


# ---------------------------------------------------------------------------
# independent oracle: Householder tridiagonalization + Sturm-sequence bisection


def _householder_tridiagonal(a):
    a = a.copy()
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        alpha = -np.sign(x[0] if x[0] != 0 else 1.0) * np.linalg.norm(x)
        if alpha == 0:
            continue
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        h = np.eye(n)
        h[k + 1 :, k + 1 :] -= 2.0 * np.outer(v, v)
        a = h @ a @ h
    return np.diagonal(a).copy(), np.diagonal(a, 1).copy()


def _sturm_count(d, e, x):
    # eigenvalues of the tridiagonal strictly below x, by LDL sign changes
    count = 0
    q = d[0] - x
    if q < 0:
        count += 1
    for i in range(1, len(d)):
        denom = q if q != 0 else 1e-300
        q = d[i] - x - e[i - 1] ** 2 / denom
        if q < 0:
            count += 1
    return count


def _bisection_eigenvalues(a, tol=1e-13):
    d, e = _householder_tridiagonal(a)
    radius = np.abs(d).max() + 2 * (np.abs(e).max() if len(e) else 0.0) + 1.0
    out = []
    for idx in range(len(d)):
        lo, hi = -radius, radius
        while hi - lo > tol * radius:
            mid = 0.5 * (lo + hi)
            if _sturm_count(d, e, mid) <= idx:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


# ---------------------------------------------------------------------------


def test_identity_eigenvalues():
    sample = eigenvalues_symmetric(np.eye(3))
    assert np.allclose(sample.eigenvalues, [1.0, 1.0, 1.0])
    assert sample.eigenvalues.size == 3


def test_permuted_diagonal():
    d = np.diag([1.0, 2.0, 3.0])
    perm = np.array([2, 0, 1])
    m = d[np.ix_(perm, perm)]
    assert np.allclose(eigenvalues_symmetric(m).eigenvalues, [1.0, 2.0, 3.0])


def test_goe_against_sturm_bisection_oracle():
    rng = make_rng(50)
    x = rng.standard_normal((50, 50))
    a = (x + x.T) / np.sqrt(2.0)
    got = eigenvalues_symmetric(a).eigenvalues
    want = np.sort(_bisection_eigenvalues(a))
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.abs(a).max())


def test_trace_preserved():
    rng = make_rng(7)
    x = rng.standard_normal((40, 40))
    a = (x + x.T) / 2.0
    ev = eigenvalues_symmetric(a).eigenvalues
    norm = np.linalg.norm(a, 2)
    assert abs(ev.sum() - np.trace(a)) <= 40 * 1e-10 * norm


def test_rejects_asymmetric_and_nonfinite():
    with pytest.raises(InputError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]]))
    bad = np.zeros((2, 2))
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(InputError):
        eigenvalues_symmetric(bad)


def test_spectrum_sample_validation():
    with pytest.raises(InputError):
        SpectrumSample(np.array([2.0, 1.0]))
    with pytest.raises(InputError, match="1-d"):
        SpectrumSample(np.ones((2, 2)))
    for value in ("inf", "nan"):
        with pytest.raises(InputError, match=f"eigenvalue {value} is not finite"):
            SpectrumSample(np.array([1.0, 2.0, float(value)]))


def test_submatrix_full_size_is_permutation():
    rng = make_rng(3)
    x = rng.standard_normal((6, 6))
    a = (x + x.T) / 2.0
    sub = sample_principal_submatrix(a, 6, seed=9)
    ev_a = eigenvalues_symmetric(a).eigenvalues
    ev_s = eigenvalues_symmetric(sub).eigenvalues
    assert np.max(np.abs(ev_a - ev_s)) < 1e-10
    assert sorted(np.diagonal(sub).tolist()) == pytest.approx(sorted(np.diagonal(a).tolist()))


def test_submatrix_k1_is_diagonal_entry():
    rng = make_rng(4)
    x = rng.standard_normal((5, 5))
    a = (x + x.T) / 2.0
    sub = sample_principal_submatrix(a, 1, seed=1)
    assert sub.shape == (1, 1)
    assert sub[0, 0] in np.diagonal(a)


def test_submatrix_seed_determinism():
    rng = make_rng(5)
    x = rng.standard_normal((8, 8))
    a = (x + x.T) / 2.0
    s1 = sample_principal_submatrix(a, 4, seed=42)
    s2 = sample_principal_submatrix(a, 4, seed=42)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, sample_principal_submatrix(a, 4, seed=43))


def test_submatrix_range_errors():
    a = np.eye(4)
    with pytest.raises(InputError):
        sample_principal_submatrix(a, 0, seed=1)
    with pytest.raises(InputError):
        sample_principal_submatrix(a, 5, seed=1)


def test_cauchy_interlacing():
    rng = make_rng(11)
    for trial in range(5):
        x = rng.standard_normal((10, 10))
        a = (x + x.T) / 2.0
        big = sample_principal_submatrix(a, 7, seed=trial)
        small = big[:6, :6]  # nested subset of the same index set
        mu = eigenvalues_symmetric(big).eigenvalues
        nu = eigenvalues_symmetric(small).eigenvalues
        for i in range(6):
            assert mu[i] <= nu[i] + 1e-12
            assert nu[i] <= mu[i + 1] + 1e-12


def test_haar_orthogonality():
    o = haar_orthogonal(16, seed=2)
    assert np.max(np.abs(o.T @ o - np.eye(16))) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(o, axis=0) - 1.0)) <= 1e-12


def test_haar_n1_signs():
    vals = [haar_orthogonal(1, seed=s)[0, 0] for s in range(400)]
    assert set(np.round(np.abs(vals), 12)) == {1.0}
    frac = np.mean(np.array(vals) > 0)
    assert 0.4 < frac < 0.6


def test_haar_rotation_invariance_statistics():
    # first-entry moments match under a fixed left rotation
    n, draws = 8, 300
    fixed = haar_orthogonal(n, seed=999)
    plain, rotated = [], []
    for s in range(draws):
        o = haar_orthogonal(n, seed=s)
        plain.append(o[0, 0])
        rotated.append((fixed @ o)[0, 0])
    for vals in (plain, rotated):
        vals = np.array(vals)
        assert abs(vals.mean()) < 4.0 / np.sqrt(n * draws)
        assert abs(vals.var() - 1.0 / n) < 0.05
