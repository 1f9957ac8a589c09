"""Dense symmetric eigensolves, random principal submatrices, Haar orthogonals.

Eigenvalues come from LAPACK ``syevd`` (values only) through numpy's
``eigvalsh``, so the package depends on numpy alone.

Everything here is deterministic given a seed.  Randomness flows through a
single counter-based generator (Philox, 64-bit) keyed by the user seed, so
independent streams can be split off without correlating parallel runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, is_integer

__all__ = [
    "SpectrumSample",
    "make_rng",
    "eigenvalues_symmetric",
    "sample_principal_submatrix",
    "haar_orthogonal",
]


def make_rng(seed):
    """Return a Philox-backed generator keyed by ``seed``.

    Philox is a splittable 64-bit counter-based generator; every stochastic
    routine in the package accepts a seed and builds its generator here, so
    there is no hidden entropy anywhere.
    """
    if not (is_integer(seed) and -2**63 <= seed < 2**63):
        raise InputError("seed is required and must be an integer in [-2**63, 2**63) (stochastic "
                         f"routines use no hidden entropy), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=np.uint64(np.int64(seed))))


@dataclass(frozen=True)
class SpectrumSample:
    """All eigenvalues of a sampled principal submatrix, sorted ascending;
    their count is the submatrix order n_s."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size == 0:
            raise InputError(f"sample is empty or not a 1-d array: shape {ev.shape}")
        bad = np.flatnonzero(~np.isfinite(ev))
        if bad.size:
            raise InputError(f"eigenvalue {float(ev[bad[0]])} is not finite")
        if np.any(np.diff(ev) < 0):
            raise InputError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)


def _check_symmetric(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError("expected a square matrix of order >= 1")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise InputError("matrix is not exactly symmetric; symmetrize with (a + a.T)/2")
    return a


def eigenvalues_symmetric(a):
    """All eigenvalues of a real symmetric matrix, sorted ascending.

    Parameters
    ----------
    a : (n, n) ndarray
        Exactly symmetric with finite entries.

    Returns
    -------
    SpectrumSample
    """
    a = _check_symmetric(a)
    try:
        ev = np.linalg.eigvalsh(a)  # ascending, as SpectrumSample checks
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"symmetric eigensolve failed to converge: {exc}") from exc
    return SpectrumSample(ev)


def _random_index_subset(n, k, rng):
    # Partial Fisher-Yates: only the first k swaps are performed, O(k) draws.
    idx = np.arange(n)
    for i in range(k):
        j = i + int(rng.integers(0, n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]


def sample_principal_submatrix(a, k, seed):
    """Principal submatrix on a uniformly random ``k``-subset of indices.

    Equivalent to the top-left ``k x k`` block after conjugating by a uniform
    random permutation.  Deterministic for a fixed seed; the subset is drawn
    without replacement.
    """
    a = _check_symmetric(a)
    n = a.shape[0]
    if not is_integer(k) or not 1 <= k <= n:
        raise InputError(f"submatrix order must be an integer in 1 .. {n}, got {k!r}")
    idx = _random_index_subset(n, k, make_rng(seed))
    return a[np.ix_(idx, idx)]


def haar_orthogonal(n, seed):
    """Haar-distributed orthogonal matrix via QR with sign correction.

    QR of a Gaussian matrix alone is not Haar; rescaling each column of Q by
    the sign of the corresponding diagonal entry of R fixes the distribution.
    """
    if not is_integer(n) or n < 1:
        raise InputError(f"order must be >= 1 and an integer, got {n!r}")
    return _haar(make_rng(seed), n)


def _haar(rng, n):
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    signs = np.where(np.diagonal(r) >= 0, 1.0, -1.0)
    return q * signs[np.newaxis, :]
