"""Command-line front end wiring the full pipeline.

Subcommands: ``sample`` (ensemble eigenvalues), ``fit`` (density model from
an eigenvalue file), ``decompress`` (evolve a model to a larger dimension),
``metrics`` (compare two density files).  Every stochastic command requires
an explicit ``--seed``; results are byte-reproducible.  ``decompress``
writes the density CSV plus a ``.diag.json`` sidecar with the failed-point
count, the order of the Pade approximant the decompression chose and the
count of its harmless branch points, the model's fit flags and the
evaluator's Pade approximant count and breakdown flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import decompress as dc
from . import density_fit as df
from . import ensembles as ens
from . import io as fio
from . import linalg as la
from . import metrics as mt
from . import stieltjes as st
from .errors import InputError, NumericalError

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="freedec",
        description="Spectral density estimation of huge Hermitian matrices "
        "from sampled principal submatrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw an ensemble matrix and write its eigenvalues")
    p.add_argument("--ensemble", required=True,
                   choices=["wigner", "mp", "kesten-mckay", "wachter", "meixner"])
    p.add_argument("--n", type=int, required=True, help="matrix order / sample count")
    p.add_argument("--d", type=int, help="degrees of freedom (mp) or even degree (kesten-mckay)")
    p.add_argument("--d1", type=int, help="first Wishart degrees of freedom (wachter)")
    p.add_argument("--d2", type=int, help="second Wishart degrees of freedom (wachter)")
    p.add_argument("--a", type=float, help="Meixner parameter a")
    p.add_argument("--b", type=float, help="Meixner parameter b")
    p.add_argument("--c", type=float, help="Meixner parameter c")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("fit", help="fit a density model to an eigenvalue file")
    p.add_argument("--eigs", required=True, help="newline-separated eigenvalue file")
    p.add_argument("-K", "--order", type=int, default=50, dest="order")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("decompress", help="evolve a fitted model to a larger dimension")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", type=float, help="target over source dimension")
    group.add_argument("--target-n", type=int, help="target dimension (uses fit n_s)")
    p.add_argument("--grid", default="auto", help="'auto' or lo:hi:count")
    p.add_argument("--delta", type=float, help="imaginary offset of evaluation points")
    p.add_argument("-o", "--output", required=True, help="density CSV path")

    p = sub.add_parser("metrics", help="compare two density CSV files")
    p.add_argument("--a", required=True, dest="density_a")
    p.add_argument("--b", required=True, dest="density_b")
    p.add_argument("--order", type=int, help="matrix order for log-determinants")
    p.add_argument("-o", "--output", help="JSON report path (table prints to stdout)")

    return parser


def _cmd_sample(args):
    name = args.ensemble
    if name == "meixner":
        # The Meixner benchmark is sampled from its analytic law by QMC, the
        # tridiagonal realization being a spectral-measure construction.
        if args.a is None or args.b is None or args.c is None:
            raise InputError("'meixner' requires --a, --b and --c")
        law = ens.meixner_law(args.a, args.b, args.c)
        grid = np.linspace(law.support[0], law.support[1], 8192)
        eigs = mt.qmc_sample(grid, ens.law_density(law, grid), args.n, seed=args.seed)
    else:
        kwargs = {}
        if name in ("mp", "kesten-mckay"):
            if args.d is None:
                raise InputError(f"'{name}' requires --d")
            kwargs["d"] = args.d
        if name == "wachter":
            if args.d1 is None or args.d2 is None:
                raise InputError("'wachter' requires --d1 and --d2")
            kwargs["d1"], kwargs["d2"] = args.d1, args.d2
        draw = ens.draw_ensemble(name, args.n, args.seed, **kwargs)
        eigs = la.eigenvalues_symmetric(draw.matrix).eigenvalues
    fio.atomic_write(args.output, "\n".join(f"{v:.17g}" for v in eigs) + "\n")
    return 0


def _cmd_fit(args):
    values = np.loadtxt(args.eigs, ndmin=1)
    sample = la.SpectrumSample(np.sort(values), values.size)
    model = df.fit_density(sample, k_max=args.order)
    fio.save_model(args.output, model)
    grid = np.linspace(model.support[0], model.support[1], 2048)
    dens = model.density(grid)
    print(
        f"fit: support=({model.support[0]:.6g}, {model.support[1]:.6g}) "
        f"mass={model.mass():.8f} min-density={dens.min():.3g} "
        f"k_eff={model.meta.get('k_eff')} repaired={model.repaired}"
    )
    return 0


def _parse_grid(spec):
    if spec == "auto":
        return "auto"
    try:
        lo, hi, count = spec.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise InputError(f"grid spec {spec!r} is not 'auto' or lo:hi:count") from exc


def _cmd_decompress(args):
    model = fio.load_model(args.model)
    evaluator = st.evaluator_for_model(model)
    ratio = args.ratio
    if ratio is None:
        n_s = model.meta.get("n_s")
        if not n_s:
            raise InputError("--target-n needs a model with fit_meta.n_s; use --ratio")
        ratio = args.target_n / n_s
    request = dc.DecompressionRequest(
        evaluator=evaluator, ratio=ratio, grid=_parse_grid(args.grid), delta=args.delta
    )
    result = dc.decompress_density(request)
    good = ~result.failed
    fio.save_density_csv(args.output, result.grid[good], np.maximum(result.density[good], 0.0))
    followed = result.decompressed  # None at ratio 1
    diag = {
        "ratio": result.ratio,
        "delta": result.delta,
        "support": list(result.support),
        "mass": result.mass(),
        "failed_points": int(result.failed.sum()),
        "grid_points": int(result.grid.size),
        "pade_order": None if followed is None else followed.order,
        "harmless_branch_points": 0 if followed is None else followed.harmless_branch_points,
        "pade_approximants": evaluator.approximant_count,
        "pade_breakdown": evaluator.breakdown,
        "k_eff": model.meta.get("k_eff"),
        "repaired": model.repaired,
        "repair_warning": model.repair_warning,
        "degenerate_support": model.degenerate_support,
    }
    fio.atomic_write(os.path.splitext(args.output)[0] + ".diag.json", json.dumps(diag, indent=2) + "\n")
    print(
        f"decompress: ratio={result.ratio:g} support=({result.support[0]:.6g}, "
        f"{result.support[1]:.6g}) mass={result.mass():.4f} failures={int(result.failed.sum())}"
    )
    return 0


def _cmd_metrics(args):
    xa, da = fio.load_density_csv(args.density_a)
    xb, db = fio.load_density_csv(args.density_b)
    grid = mt.shared_grid((xa[0], xa[-1]), (xb[0], xb[-1]))
    comparison = mt.compare_densities(
        grid, mt.regrid(xa, da, grid), mt.regrid(xb, db, grid), order=args.order
    )
    print(comparison.to_table())
    if args.output:
        fio.atomic_write(args.output, comparison.to_json() + "\n")
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "decompress": _cmd_decompress,
    "metrics": _cmd_metrics,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"freedec: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"freedec: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
