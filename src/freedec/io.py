"""Model and density file formats.

Models serialize to a versioned JSON document; densities to a two-column
CSV with full float precision.  Writes go through a temp file plus rename
so partially written files are never observed.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .density_fit import DensityModel
from .errors import InputError

__all__ = [
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "save_density_csv",
    "load_density_csv",
    "law_descriptor",
    "atomic_write",
]

SCHEMA_VERSION = 1


def atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-freedec-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def model_to_dict(model):
    basis = {"kind": model.basis}
    if model.basis == "jacobi":
        basis["alpha"] = model.alpha
        basis["beta"] = model.beta
    return {
        "schema_version": SCHEMA_VERSION,
        "support": [model.support[0], model.support[1]],
        "basis": basis,
        "coefficients": list(map(float, model.psi)),
        "damping": None if model.damping is None else list(map(float, model.damping)),
        "gamma": float(model.gamma),
        "repaired": bool(model.repaired),
        "repair_warning": bool(model.repair_warning),
        "degenerate_support": bool(model.degenerate_support),
        "fit_meta": model.meta,
    }


def model_from_dict(doc):
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    support = doc["support"]
    if not (len(support) == 2 and support[0] < support[1]):
        raise InputError("model support must be [lo, hi] with lo < hi")
    if doc.get("glue") is not None:
        # No evaluator reads a stored glue continuation; ignoring it would
        # silently change what the file decompresses to.
        raise InputError("model carries a glue continuation, which is no longer supported")
    coeffs = np.asarray(doc["coefficients"], dtype=float)
    damping = doc.get("damping")
    if damping is not None:
        damping = np.asarray(damping, dtype=float)
        if damping.shape != coeffs.shape:
            raise InputError("damping and coefficient arrays must have equal length")
    basis = doc["basis"]
    return DensityModel(
        support=(float(support[0]), float(support[1])),
        basis=basis["kind"],
        psi=coeffs,
        alpha=float(basis.get("alpha", 0.5)),
        beta=float(basis.get("beta", 0.5)),
        damping=damping,
        gamma=float(doc.get("gamma", 0.0)),
        degenerate_support=bool(doc.get("degenerate_support", False)),
        repaired=bool(doc.get("repaired", False)),
        repair_warning=bool(doc.get("repair_warning", False)),
        meta=doc.get("fit_meta", {}),
    )


def save_model(path, model):
    atomic_write(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path):
    with open(path, encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))


def save_density_csv(path, x, density):
    x = np.asarray(x, dtype=float)
    density = np.asarray(density, dtype=float)
    if np.any(np.diff(x) <= 0):
        raise InputError("density grid must be strictly increasing")
    if np.any(density < 0):
        raise InputError("density values must be nonnegative")
    lines = ["x,density"]
    lines += [f"{xv:.17g},{dv:.17g}" for xv, dv in zip(x, density)]
    atomic_write(path, "\n".join(lines) + "\n")


def load_density_csv(path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        if header != "x,density":
            raise InputError(f"unexpected density CSV header {header!r}")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    x, density = data[:, 0], data[:, 1]
    if np.any(np.diff(x) <= 0):
        raise InputError("density CSV grid must be strictly increasing")
    if np.any(density < 0):
        raise InputError("density CSV values must be nonnegative")
    return x, density


def law_descriptor(law):
    """JSON-ready descriptor of a closed-form law."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": law.name,
        "params": law.params,
        "support": [law.support[0], law.support[1]],
        "p": list(map(float, law.p)),
        "q": list(map(float, law.q)),
        "atoms": [[loc, mass] for loc, mass in law.atoms],
    }
