"""Evolution of a Stieltjes evaluator to larger matrix dimension.

The transform of the full matrix at scale t = log(n / n_s) follows from the
source transform m0 along straight characteristics: for each evaluation
abscissa x one solves

    x + i delta = z_x - (e^t - 1) / m0(z_x)

for the initial label z_x (Newton, continued in t), after which the density
estimate is (1/pi) Im m0(z_x) e^{-t}.  The root descends through the support
cut for moderate t, which is why m0 must be supplied on the secondary
(continued) branch.

Closed-form laws are decompressed in closed form: their decompressed law
satisfies a quadratic of the same kind as the source's
(``ensembles.decompressed_law``), which gives the density, the support and
the roots without iteration.  The Newton solve and the support search
serve fitted models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import law_stieltjes
from .errors import InputError, NumericalError

__all__ = [
    "DecompressionRequest",
    "DecompressionResult",
    "CrossingReport",
    "decompress_density",
    "track_support",
    "verify_crossing",
]

_AUTO_GRID = 1000
_MARGIN = 0.2
_TOL = 1e-12  # relative residual at which a characteristic root counts as converged
_MAX_ITER = 200  # Newton budget of the final solve at each grid point
_SUPPORT_THRESHOLD = 1e-4  # support = where the density exceeds this fraction of its peak
_EDGE_TOL = 1e-3  # slack, in support widths, of verify_crossing's inside test
_EDGE_LEVELS = 3  # bisection levels per batched round of the support-edge search
_HALVINGS = 0.5 ** np.arange(1, 5)  # line-search step factors tried after a rejected step


@dataclass(frozen=True)
class DecompressionRequest:
    """Inputs of one decompression run.

    ``ratio`` is n / n_s, finite and >= 1.  ``grid`` is an explicit finite,
    strictly increasing array or 'auto'.  ``delta`` is the imaginary offset
    of the evaluation points (defaults to 1e-3 times the source support
    width).
    """

    evaluator: object
    ratio: float | None = None
    grid: object = "auto"
    delta: float | None = None

    def resolved_ratio(self):
        if self.ratio is None:
            raise InputError("need a decompression ratio")
        r = float(self.ratio)
        if not 1 <= r < np.inf:
            raise InputError(f"decompression ratio must be finite and >= 1, got {r:g}")
        return r


@dataclass(frozen=True)
class DecompressionResult:
    grid: np.ndarray
    density: np.ndarray
    support: tuple[float, float]
    ratio: float
    delta: float
    roots: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    failed: np.ndarray
    degraded: np.ndarray = field(repr=False)

    def mass(self):
        # a failed point counts as zero density, never bridged by its neighbours
        return float(np.trapezoid(np.where(self.failed, 0.0, self.density), self.grid))


def _default_delta(evaluator):
    # scale-aware, capped so wide spectra still satisfy delta in (0, 1)
    lo, hi = evaluator.support
    return min(1e-3 * (hi - lo), 0.5)


def _newton(evaluator, targets, t, z0, tol, max_iter):
    """Vectorized damped Newton/secant solve of z - (e^t - 1)/m(z) = target.

    The first derivative comes from the evaluator; afterwards the difference
    quotient of successive residuals is used.  A step that raises the
    residual is replaced by the first of its halvings 1/2 ... 1/16 that does
    not (else by the last), which keeps iterates from leaping back and forth
    across the secondary branch's jump line when a root sits close to the
    real axis outside the source support.  The halvings of all rejected
    steps are evaluated in one call, so an iteration costs two field
    evaluations at most.  Converged and stalled points drop out of the
    working set; each reports the iteration at which it left.  Points never
    interact, so for an elementwise evaluator a batched call gives each
    point what solving it alone would.
    """
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
        bad = (np.abs(m) < 1e-13) | ~np.isfinite(m)
        m = np.where(bad, 1e-13, m)
        return zz - a / m - tg, m

    act = np.arange(n)
    z = z_full.copy()
    tg = targets.copy()
    f, m = fval(z, tg)
    dm = np.asarray(evaluator.derivative(z, "secondary"), dtype=complex)
    fp = 1.0 + a * dm / (m * m)
    best_absf = np.abs(f)
    stall = np.zeros(n, dtype=int)
    for it in range(max_iter):
        absf = np.abs(f)
        improved = absf < 0.999 * best_absf
        best_absf = np.where(improved, absf, best_absf)
        stall = np.where(improved, 0, stall + 1)
        done = absf <= tol * (1.0 + np.abs(tg))
        # Points oscillating without progress (typically pinned against a
        # branch jump) retire early instead of burning the iteration budget.
        stalled = ~done & (stall > 15)
        if done.any() or stalled.any():
            idx = act[done]
            z_full[idx] = z[done]
            resid_full[idx] = absf[done]
            iters_full[idx] = it
            idx_s = act[stalled]
            z_full[idx_s] = z[stalled]
            resid_full[idx_s] = absf[stalled]
            iters_full[idx_s] = it
            keep = ~(done | stalled)
            act, z, tg, f, fp = act[keep], z[keep], tg[keep], f[keep], fp[keep]
            best_absf, stall = best_absf[keep], stall[keep]
            absf = absf[keep]
        if act.size == 0:
            break
        fp = np.where((np.abs(fp) < 1e-13) | ~np.isfinite(fp), 1e-13, fp)
        step = f / fp
        mag = np.abs(step)
        step = np.where(mag > max_step, step * (max_step / np.maximum(mag, 1e-300)), step)
        z_new = z - step
        f_new, _ = fval(z_new, tg)
        worse = np.abs(f_new) > absf
        if worse.any():
            zh = z[worse, None] - step[worse, None] * _HALVINGS
            fh = fval(zh.ravel(), np.repeat(tg[worse], _HALVINGS.size))[0].reshape(zh.shape)
            ok = np.abs(fh) <= absf[worse, None]
            ok[:, -1] = True  # no halving helps: keep the smallest step
            pick = (np.arange(zh.shape[0]), ok.argmax(1))
            z_new[worse], f_new[worse] = zh[pick], fh[pick]
        dz = z_new - z
        dz = np.where(np.abs(dz) < 1e-300, 1e-300, dz)
        fp = (f_new - f) / dz
        z, f = z_new, f_new
    if act.size:
        z_full[act] = z
        resid_full[act] = np.abs(f)
    conv = resid_full <= tol * (1.0 + np.abs(targets))
    return z_full, resid_full, iters_full, conv


def _reseed(evaluator, targets, t, z, resid, iters, conv, tol, max_iter):
    """Re-solve unconverged points from their nearest converged neighbours.

    Roots vary continuously along the grid, so a converged neighbour is an
    excellent start.  Each pass starts every unconverged point from its
    nearest converged neighbour on the left, then from the one on the right;
    passes repeat while any point converges, carrying converged roots
    across runs of failures.  Updates the arrays in place.
    """
    progress = True
    while progress and conv.any() and not conv.all():
        progress = False
        for side in ("left", "right"):
            bad = np.where(~conv)[0]
            good = np.where(conv)[0]
            pos = np.searchsorted(good, bad) - (side == "left")
            has = (pos >= 0) & (pos < good.size)
            bad, nearest = bad[has], good[pos[has]]
            if bad.size == 0:
                continue
            z2, r2, i2, c2 = _newton(evaluator, targets[bad], t, z[nearest], tol, max_iter)
            take = bad[c2]
            z[take], resid[take], iters[take], conv[take] = z2[c2], r2[c2], i2[c2], True
            progress |= bool(c2.any())


def _solve_targets(evaluator, targets, t, max_iter):
    """Continuation in t from the degenerate start z = target.

    The root moves continuously in t, so a few loosely converged substeps
    with warm starts carry it to the final scale even though the final
    equation is far from its start; points a substep leaves unconverged are
    re-seeded from converged neighbours, or else go on from their last
    iterate.  Points the final solve leaves unconverged get, in turn, a
    retry from a start pushed below the target (kept where it converged or
    lowered the residual) and a re-seed from converged neighbours;
    ``_newton_grid`` re-solves what is still unusable at imaginary offsets
    lifted x10 and x100.  ``iterations`` counts the Newton
    iterations of the solve that produced each returned root.
    """
    if t < 0:
        raise InputError("decompression scale t must be >= 0")
    targets = np.asarray(targets, dtype=complex)
    substeps = max(2, int(np.ceil(t / 0.9)))
    z = targets.copy()
    for j in range(1, substeps):
        tj = t * j / substeps
        z, resid, iters, conv = _newton(evaluator, targets, tj, z, 1e-8, 40)
        _reseed(evaluator, targets, tj, z, resid, iters, conv, 1e-8, 40)
    z, resid, iters, conv = _newton(evaluator, targets, t, z, _TOL, max_iter)
    if not conv.all():
        lo, hi = evaluator.support
        idx = np.where(~conv)[0]
        retry = targets[idx] - 1j * 0.1 * (hi - lo)
        z2, r2, i2, c2 = _newton(evaluator, targets[idx], t, retry, _TOL, max_iter)
        take = c2 | (r2 < resid[idx])
        z[idx[take]], resid[idx[take]], iters[idx[take]] = z2[take], r2[take], i2[take]
        conv[idx] = c2
    _reseed(evaluator, targets, t, z, resid, iters, conv, _TOL, max_iter)
    return z, resid, iters, conv


def _density_from_roots(evaluator, z, t):
    m = np.asarray(evaluator.evaluate(z, "secondary"), dtype=complex)
    return m.imag / np.pi * np.exp(-t)


def _usable(resid, conv, x):
    # Newton stagnation at a residual far below any density error scale is
    # usable; only genuinely unresolved points count as failures.
    return conv | (resid <= 1e-6 * (1.0 + np.abs(x)))


def _newton_grid(evaluator, grid, t, delta):
    """Characteristic solve of every grid point: ``_solve_targets`` at the
    nominal offset, then at offsets lifted x10 and x100 for what is still
    unusable.  Returns the raw density, roots, residuals, iterations and
    the failed and degraded flags."""
    z = np.empty(grid.size, dtype=complex)
    resid = np.empty(grid.size)
    iters = np.empty(grid.size, dtype=int)
    usable = np.zeros(grid.size, dtype=bool)
    degraded = np.zeros(grid.size, dtype=bool)
    for lift in (1.0, 10.0, 100.0):
        # The lifts are for roots pinned against the continued branch's jump
        # line outside the source support, which resist the nominal offset;
        # lifting delta moves them off the line.  The extra smoothing is
        # immaterial where it happens.
        idx = np.where(~usable)[0]
        if idx.size == 0:
            break
        z2, r2, i2, c2 = _solve_targets(evaluator, grid[idx] + 1j * lift * delta, t, _MAX_ITER)
        ok = _usable(r2, c2, grid[idx])
        take = ok | (lift == 1.0)  # a failed point keeps its nominal-offset root
        z[idx[take]], resid[idx[take]], iters[idx[take]] = z2[take], r2[take], i2[take]
        usable[idx[ok]] = True
        degraded[idx[ok]] = (lift > 1.0) | ~c2[ok]
    raw = np.where(usable, _density_from_roots(evaluator, z, t), np.nan)
    return raw, z, resid, iters, ~usable, degraded


def _closed_form_grid(evaluator, law, grid, ratio, delta):
    """The decompressed law's principal transform m' at x + i delta, and the
    characteristic roots it implies, z = x + i delta + (r - 1) / (r m'),
    checked against the evaluator's own residual with the usable rule of
    the Newton path.  No iteration, so none is degraded."""
    targets = grid + 1j * delta
    m = law_stieltjes(law, targets)
    z = targets + (ratio - 1.0) / (ratio * m)
    m0 = np.asarray(evaluator.evaluate(z, "secondary"), dtype=complex)
    resid = np.abs(z - (ratio - 1.0) / m0 - targets)
    failed = ~_usable(resid, resid <= _TOL * (1.0 + np.abs(targets)), grid)
    zeros = np.zeros(grid.size, dtype=int)
    return m.imag / np.pi, z, resid, zeros, failed, zeros.astype(bool)


def decompress_density(request):
    """Run a full decompression and return the density on a grid.

    Ratio 1 reproduces the evaluator's own density exactly: the imaginary
    offset delta only exists to keep the t > 0 root finding away from the
    real axis, and at t = 0 the Plemelj limit is available directly.  An
    evaluator with a ``decompressed(ratio)`` method (closed-form laws)
    supplies the decompressed law itself, which replaces the support search
    and the characteristic solve.
    """
    ratio = request.resolved_ratio()
    t = float(np.log(ratio))
    evaluator = request.evaluator
    delta = request.delta if request.delta is not None else _default_delta(evaluator)
    if not 0 < delta < 1:
        raise InputError("imaginary offset delta must lie in (0, 1)")
    # Looked up as an attribute, so wrappers that forward attributes keep it.
    decompressed = getattr(evaluator, "decompressed", None)
    law = decompressed(ratio) if t > 0 and decompressed is not None else None

    if isinstance(request.grid, str) and request.grid == "auto":
        if law is not None:
            lo_t, hi_t = law.support
        else:
            lo_t, hi_t = track_support(evaluator, t)
        pad = 0.5 * _MARGIN * (hi_t - lo_t)
        theta = np.pi * (np.arange(_AUTO_GRID) + 0.5) / _AUTO_GRID
        grid = 0.5 * (lo_t - pad + hi_t + pad) + 0.5 * (hi_t - lo_t + 2 * pad) * np.cos(theta)
        grid = np.sort(grid)
        support_est = (lo_t, hi_t)
    else:
        grid = np.asarray(request.grid, dtype=float)
        finite = grid.ndim == 1 and grid.size >= 1 and np.isfinite(grid).all()
        if not finite or np.any(np.diff(grid) <= 0):
            raise InputError("explicit grid must be finite and strictly increasing")
        support_est = None

    if t == 0:
        dens = np.asarray(evaluator.density(grid), dtype=float)
        return DecompressionResult(
            grid=grid,
            density=np.maximum(dens, 0.0),
            support=support_est if support_est is not None else evaluator.support,
            ratio=ratio,
            delta=delta,
            roots=grid + 1j * delta,
            residuals=np.zeros_like(grid),
            iterations=np.zeros(grid.size, dtype=int),
            failed=np.zeros(grid.size, dtype=bool),
            degraded=np.zeros(grid.size, dtype=bool),
        )

    if law is not None:
        solved = _closed_form_grid(evaluator, law, grid, ratio, delta)
    else:
        solved = _newton_grid(evaluator, grid, t, delta)
    raw, z, resid, iters, failed, degraded = solved
    if support_est is not None:
        in_support = (grid >= support_est[0]) & (grid <= support_est[1])
    else:
        in_support = np.ones(grid.size, dtype=bool)
    # Margin points beyond the tracked support carry no mass; only failures
    # where the estimate lives are fatal.
    fatal = failed & in_support
    if fatal.sum() > 0.05 * max(in_support.sum(), 1):
        raise NumericalError(
            f"characteristic solve failed on {fatal.sum()} of {in_support.sum()} "
            f"grid points inside the tracked support "
            f"(worst residual {np.nanmax(resid):.3e})"
        )
    density = np.where(failed, np.nan, np.maximum(raw, 0.0))
    if support_est is None:
        good = ~failed
        thresh = _SUPPORT_THRESHOLD * np.nanmax(density)
        above = good & (density > thresh)
        support_est = (
            (float(grid[above][0]), float(grid[above][-1])) if above.any() else evaluator.support
        )
    return DecompressionResult(
        grid=grid,
        density=density,
        support=support_est,
        ratio=ratio,
        delta=delta,
        roots=z,
        residuals=resid,
        iterations=iters,
        failed=failed,
        degraded=degraded,
    )


def track_support(evaluator, t):
    """Support interval of the decompressed density by a batched edge search.

    A 97-point probe spans the source support scaled about its center by
    e^t, doubled up to 10 times until the density decays below 1e-4 of its
    peak at both ends; then both edges are refined together by 30 bisection
    levels (2^-30 of the probe spacing).  The imaginary offset here is 1e-4
    times the density-evaluation default: the threshold crossing would
    otherwise sit on the offset's Poisson tail instead of the edge.
    """
    if t < 0:
        raise InputError("decompression scale t must be >= 0")
    lo, hi = evaluator.support
    if t == 0:
        return (float(lo), float(hi))
    delta = 1e-4 * _default_delta(evaluator)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * np.exp(t)

    for attempt in range(10):
        probe = np.linspace(center - half, center + half, 97)
        roots, _, _, conv = _solve_targets(evaluator, probe + 1j * delta, t, 100)
        vals = np.where(conv, _density_from_roots(evaluator, roots, t), 0.0)
        peak = vals.max()
        if peak <= 0:
            half *= 2.0
            continue
        thresh = _SUPPORT_THRESHOLD * peak
        above = vals > thresh
        if above[0] or above[-1]:
            half *= 2.0
            continue
        # Edges of the contiguous run around the peak; detached spurious
        # lobes (fit noise on the continued sheet) do not count as support.
        i_peak = int(np.argmax(vals))
        first = i_peak
        while first > 0 and above[first - 1]:
            first -= 1
        last = i_peak
        while last < len(above) - 1 and above[last + 1]:
            last += 1

        # Both edges at once: each round solves the 2^b - 1 interior dyadic
        # points (b = _EDGE_LEVELS) of both brackets [outside, inside] in one
        # Newton call, warm-started from the bracket's inside root (the root
        # moves little between nearby abscissae), then walks the b-level
        # bisection path through them; 30 levels in all.  A point is inside
        # only when it converged above threshold, else it reads as below.
        ends = np.array([[probe[first - 1], probe[first]], [probe[last + 1], probe[last]]])
        z_in = roots[[first, last]]
        frac = np.arange(2**_EDGE_LEVELS + 1) / 2**_EDGE_LEVELS
        edge = np.arange(2)
        for _ in range(30 // _EDGE_LEVELS):
            xs = (1.0 - frac) * ends[:, :1] + frac * ends[:, 1:]
            zm, _, _, ok = _newton(evaluator, xs[:, 1:-1].ravel() + 1j * delta, t,
                                   np.repeat(z_in, frac.size - 2), _TOL, 60)
            inside = (ok & (_density_from_roots(evaluator, zm, t) > thresh)).reshape(2, -1)
            zs = np.column_stack([zm.reshape(2, -1), z_in])
            out, inn = np.zeros(2, dtype=int), np.full(2, frac.size - 1)
            for _ in range(_EDGE_LEVELS):
                mid = (out + inn) // 2
                hit = inside[edge, mid - 1]
                out, inn = np.where(hit, out, mid), np.where(hit, mid, inn)
            ends, z_in = np.column_stack([xs[edge, out], xs[edge, inn]]), zs[edge, inn - 1]
        left, right = 0.5 * (ends[:, 0] + ends[:, 1])
        return (float(left), float(right))
    raise NumericalError("support tracking failed: no density decay inside the bracket")


@dataclass(frozen=True)
class CrossingReport:
    crossed: bool
    t_star: float | None
    crossing_point: float | None
    inside_support: bool | None


def verify_crossing(evaluator, z, t_max=8.0, dt=0.05):
    """Locate the time at which the characteristic label crosses the axis.

    For fixed target ``z`` in the upper half-plane, the label phi(t, z)
    solving z = phi - (e^t - 1)/m(phi) starts at z and descends; the report
    contains the first time t* with Im phi(t*) = 0 (found by bisection) and
    whether Re phi(t*) lies inside the evaluator's support.
    """
    z = complex(z)
    if z.imag <= 0:
        raise InputError("crossing verification expects z in the open upper half-plane")
    lo, hi = evaluator.support
    width = hi - lo

    def phi_at(t, z_start):
        zz, resid, _, conv = _newton(
            evaluator, np.array([z]), t, np.array([z_start]), _TOL, _MAX_ITER
        )
        if not conv[0]:
            raise NumericalError(f"label tracking failed at t={t:.4f} (residual {resid[0]:.2e})")
        return complex(zz[0])

    t_prev, phi_prev = 0.0, z
    t_cur = dt
    while t_cur <= t_max + 1e-12:
        phi_cur = phi_at(t_cur, phi_prev)
        if phi_cur.imag <= 0.0:
            t_lo, t_hi = t_prev, t_cur
            p_lo = phi_prev
            for _ in range(80):
                t_mid = 0.5 * (t_lo + t_hi)
                p_mid = phi_at(t_mid, p_lo)
                if p_mid.imag > 0:
                    t_lo, p_lo = t_mid, p_mid
                else:
                    t_hi = t_mid
            t_star = 0.5 * (t_lo + t_hi)
            x_star = phi_at(t_star, p_lo).real
            inside = lo - _EDGE_TOL * width <= x_star <= hi + _EDGE_TOL * width
            return CrossingReport(True, t_star, float(x_star), bool(inside))
        t_prev, phi_prev = t_cur, phi_cur
        t_cur += dt
    return CrossingReport(False, None, None, None)
