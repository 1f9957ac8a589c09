"""Eigenvalue, model and density file formats.

Eigenvalues serialize to one value a line, models to a versioned JSON
document, densities to a two-column CSV, all with full float precision.
Writes go through a temp file plus rename so partially written files are
never observed, and every ``InputError`` a load raises names the file.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings

import numpy as np

from .density_fit import DensityModel
from .errors import InputError
from .linalg import SpectrumSample
from .metrics import checked_density

__all__ = [
    "save_eigenvalues",
    "load_eigenvalues",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "save_density_csv",
    "load_density_csv",
    "atomic_write",
]

SCHEMA_VERSION = 1
_MODEL_KEYS = {
    "schema_version", "support", "basis", "coefficients", "repaired", "repair_warning",
    "degenerate_support", "fit_meta", "gamma",
}


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


def _loadtxt(source, **kwargs):
    # a file with no rows loads as an empty array, which its caller rejects
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, **kwargs)


def save_eigenvalues(path, eigenvalues):
    atomic_write(path, "\n".join(f"{v:.17g}" for v in eigenvalues) + "\n")


def load_eigenvalues(path):
    """The ``SpectrumSample`` of an eigenvalue file: one value a line, in any order."""
    try:
        return SpectrumSample(np.sort(_loadtxt(path, ndmin=1)))
    except (OSError, ValueError) as exc:  # InputError is a ValueError
        raise InputError(f"eigenvalues {path}: {exc}") from exc


def model_to_dict(model):
    return {
        "schema_version": SCHEMA_VERSION,
        "support": [model.support[0], model.support[1]],
        "basis": {"kind": model.basis},
        "coefficients": list(map(float, model.psi)),
        "repaired": bool(model.repaired),
        "repair_warning": bool(model.repair_warning),
        "degenerate_support": bool(model.degenerate_support),
        "fit_meta": model.meta,
    }


def model_from_dict(doc):
    """Model from a parsed JSON document.

    A non-null entry the model cannot represent (a glue continuation, a
    coefficient filter) raises ``InputError``, since ignoring it would
    silently change what the file decompresses to; so does a basis other
    than Chebyshev-U, and so does a missing or malformed support (an
    infinite edge included), basis, coefficient list or ``fit_meta``, and
    coefficients of no density.  A stored ``gamma``, a fit setting that
    never changed the evaluated model, is ignored.
    """
    if not isinstance(doc, dict):
        raise InputError("model document is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    unknown = sorted(k for k, v in doc.items() if k not in _MODEL_KEYS and v is not None)
    if unknown:
        raise InputError(f"model document has unsupported entries: {', '.join(unknown)}")
    try:
        support = np.asarray(doc["support"], dtype=float)
        basis = doc["basis"]["kind"]
        psi = np.asarray(doc["coefficients"], dtype=float)
    except KeyError as exc:
        raise InputError(f"model document has no {exc.args[0]!r} entry") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"model document has a malformed entry: {exc}") from exc
    if support.shape != (2,):
        raise InputError("model support must be [lo, hi] with lo < hi")
    meta = doc.get("fit_meta") or {}
    if not isinstance(meta, dict):
        raise InputError("model fit_meta must be a JSON object")
    return DensityModel(
        support=(float(support[0]), float(support[1])),
        basis=basis,
        psi=psi,
        degenerate_support=bool(doc.get("degenerate_support", False)),
        repaired=bool(doc.get("repaired", False)),
        repair_warning=bool(doc.get("repair_warning", False)),
        meta=meta,
    )


def save_model(path, model):
    atomic_write(path, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(path):
    """``model_from_dict`` of a JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return model_from_dict(json.load(handle))
    except (OSError, ValueError) as exc:  # InputError and json.JSONDecodeError are ValueErrors
        raise InputError(f"model {path}: {exc}") from exc


def _checked_nonnegative(x, density):
    # metrics' rule for a density on a grid, and a density file's own: no negative value
    x, density = checked_density(x, density)
    if np.any(density < 0):
        raise InputError("density values must be nonnegative")
    return x, density


def save_density_csv(path, x, density):
    x, density = _checked_nonnegative(x, density)
    lines = ["x,density"]
    lines += [f"{xv:.17g},{dv:.17g}" for xv, dv in zip(x, density)]
    atomic_write(path, "\n".join(lines) + "\n")


def load_density_csv(path):
    try:
        with open(path, encoding="utf-8") as handle:
            header = handle.readline().strip()
            if header != "x,density":
                raise InputError(f"unexpected density CSV header {header!r}")
            x, density = _loadtxt(handle, delimiter=",", ndmin=2, usecols=(0, 1), unpack=True)
            return _checked_nonnegative(x, density)
    except (OSError, ValueError) as exc:  # InputError is a ValueError
        raise InputError(f"density CSV {path}: {exc}") from exc
