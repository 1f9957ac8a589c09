import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from freedec import ChebyshevPadeEvaluator, DensityModel, InputError, SpectrumSample, fit_density
from freedec.cli import _build_parser, main
from freedec.io import (
    atomic_write,
    load_density_csv,
    load_model,
    model_from_dict,
    model_to_dict,
    save_density_csv,
    save_model,
)


ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: pytest itself has already imported scipy.
_COLD_START = """
import sys
import numpy as np
import freedec
from freedec.cli import main
from freedec.io import load_density_csv, save_density_csv

# the Wishart draw's helper thread comes from a lazy import inside the draw
assert "concurrent.futures" not in sys.modules
loaded = ["scipy" in sys.modules]
x = np.random.default_rng(0).standard_normal((200, 2000))
np.savetxt("eigs.txt", np.linalg.eigvalsh(x @ x.T / 2000))
assert main(["fit", "--eigs", "eigs.txt", "-K", "20", "-o", "model.json"]) == 0
assert main(["decompress", "--model", "model.json", "--ratio", "2", "-o", "dens.csv"]) == 0
# the log-determinant takes a strictly positive support: drop the grid's margin below 0
x, rho = load_density_csv("dens.csv")
save_density_csv("pos.csv", x[x > 0], rho[x > 0])
assert main(["metrics", "--a", "pos.csv", "--b", "pos.csv", "--order", "400"]) == 0
loaded.append("scipy" in sys.modules)
assert main(["sample", "--ensemble", "wigner", "--n", "8", "--seed", "1", "-o", "s.txt"]) == 0
# the Wishart draw and the eigensolve
assert main(["sample", "--ensemble", "mp", "--n", "30", "--d", "300", "--seed", "1",
             "-o", "mp.txt"]) == 0
loaded.append("scipy" in sys.modules)
# np.median and np.unique would import numpy.ma on their first call
assert "numpy.ma" not in sys.modules
print(loaded)
"""


def test_scipy_never_loads(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # not after `import freedec`, not after fit/decompress/metrics, not after sample
    assert proc.stdout.splitlines()[-1] == "[False, False, False]"
    assert np.loadtxt(tmp_path / "s.txt").size == 8
    assert np.loadtxt(tmp_path / "mp.txt").size == 30


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_sample_determinism(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["sample", "--ensemble", "wigner", "--n", "4", "--seed", "7"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert _read(out1) == _read(out2)


def test_sample_mp_sorted(tmp_path):
    out = tmp_path / "eig.txt"
    code = main(
        ["sample", "--ensemble", "mp", "--n", "50", "--d", "500", "--seed", "1", "-o", str(out)]
    )
    assert code == 0
    vals = np.loadtxt(out)
    assert vals.size == 50
    assert np.all(np.diff(vals) >= 0)


def test_sample_kesten_mckay_odd_degree_fails(tmp_path, capsys):
    code = main(
        ["sample", "--ensemble", "kesten-mckay", "--n", "10", "--d", "3", "--seed", "1",
         "-o", str(tmp_path / "x.txt")]
    )
    assert code == 2
    assert "even" in capsys.readouterr().err


def test_sample_meixner_qmc(tmp_path):
    out = tmp_path / "m.txt"
    code = main(
        ["sample", "--ensemble", "meixner", "--n", "200", "--a", "0.1", "--b", "4",
         "--c", "0.6", "--seed", "3", "-o", str(out)]
    )
    assert code == 0
    vals = np.loadtxt(out)
    assert vals.size == 200
    assert vals.min() > 0.1 - 2 * np.sqrt(4.0) - 0.1


def test_fit_and_decompress_roundtrip(tmp_path, capsys):
    eigs = tmp_path / "eigs.txt"
    model_path = tmp_path / "model.json"
    dens_path = tmp_path / "dens.csv"
    assert main(
        ["sample", "--ensemble", "mp", "--n", "300", "--d", "3000", "--seed", "5",
         "-o", str(eigs)]
    ) == 0
    assert main(["fit", "--eigs", str(eigs), "-K", "30", "-o", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "mass=1.0000" in out
    model = load_model(model_path)
    assert model.mass() == pytest.approx(1.0, abs=1e-6)

    # ratio 1 reproduces the model density on the output grid
    assert main(
        ["decompress", "--model", str(model_path), "--ratio", "1", "-o", str(dens_path)]
    ) == 0
    x, d = load_density_csv(dens_path)
    assert np.max(np.abs(d - np.maximum(model.density(x), 0.0))) <= 1e-12
    diag = json.loads((tmp_path / "dens.diag.json").read_text())
    assert diag["failed_points"] == 0
    assert (diag["pade_order"], diag["harmless_branch_points"]) == (None, 0)
    assert (diag["pade_candidates_tried"], diag["refined_points"]) == (0, 0)
    assert diag["pade_candidates_screened"] == 0
    assert diag["ratio"] == 1.0
    assert diag["k_eff"] == model.meta["k_eff"]
    # a fit with no exactly zero kept coefficient gets every [k/k] up to its order
    n_coeffs = np.flatnonzero(model.psi)[-1] + 1
    assert (diag["pade_approximants"], diag["pade_breakdown"]) == ((n_coeffs - 1) // 2, False)
    assert (diag["repaired"], diag["repair_warning"], diag["degenerate_support"]) == (
        model.repaired, model.repair_warning, model.degenerate_support)

    # above ratio 1 the sidecar names the approximant the decompression chose
    assert main(
        ["decompress", "--model", str(model_path), "--ratio", "4", "-o", str(dens_path)]
    ) == 0
    diag = json.loads((tmp_path / "dens.diag.json").read_text())
    followed = ChebyshevPadeEvaluator(model).decompressed(4.0)
    assert (diag["pade_order"], diag["harmless_branch_points"]) == (
        followed.order, followed.harmless_branch_points)
    assert (diag["pade_candidates_tried"], diag["refined_points"]) == (
        followed.candidates_tried, followed.refined_points)
    assert diag["pade_candidates_screened"] == followed.candidates_screened
    assert 0 <= diag["pade_order"] <= diag["pade_approximants"]
    assert diag["pade_candidates_tried"] == diag["pade_approximants"] + 1 - diag["pade_order"]
    assert 0 <= diag["pade_candidates_screened"] <= diag["pade_candidates_tried"] - 1


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_diag_counts_the_approximant_choice(tmp_path):
    # The bench's pade_exact models (built by its reference, as
    # bench/workloads.py builds them): the choice tries 7, 7 and 11
    # approximants, deepest first, and the count of points the chosen
    # root's follow refined repeats exactly from run to run.  Every other
    # approximant is rejected on the first pass of its probe's follow.
    ref = _bench_module("reference")
    mp, km = ref.marchenko_pastur(1 / 50), ref.kesten_mckay(4)
    model_path, dens_path = tmp_path / "model.json", tmp_path / "dens.csv"
    for law, order, ratio, tried in ((mp, 20, 8, 7), (mp, 20, 32, 7), (km, 50, 2, 11)):
        psi = ref.chebyshev_u_coefficients(law, order)
        save_model(model_path, DensityModel(support=law.support, basis="chebyshev-u", psi=psi))
        diags = []
        for _ in range(2):
            argv = ["decompress", "--model", str(model_path), "--ratio", str(ratio), "-o", str(dens_path)]
            assert main(argv) == 0
            diags.append(json.loads((tmp_path / "dens.diag.json").read_text()))
        assert diags[0]["pade_candidates_tried"] == tried
        assert diags[0]["pade_candidates_screened"] == tried - 1
        assert diags[0]["refined_points"] == diags[1]["refined_points"]


def test_only_the_chosen_approximant_is_followed_again(monkeypatch):
    # Deciding the bench's exact MP(1/50) K = 20 x32 and Kesten-McKay(4)
    # K = 50 x2 models, every rejected approximant is rejected on the first
    # pass of its probe's follow, so each second follow belongs to the
    # chosen one.  With the singular test on the refined run alone, each
    # rejected one here followed 4-74 probe points again first.
    from freedec.stieltjes import FollowedRoot

    orders = []
    refollow = FollowedRoot._refollow

    def recording(self, x, y, count, begin, w):
        orders.append(self.order)
        return refollow(self, x, y, count, begin, w)

    monkeypatch.setattr(FollowedRoot, "_refollow", recording)
    ref = _bench_module("reference")
    for law, order, ratio in ((ref.marchenko_pastur(1 / 50), 20, 32.0), (ref.kesten_mckay(4), 50, 2.0)):
        psi = ref.chebyshev_u_coefficients(law, order)
        orders.clear()
        followed = ChebyshevPadeEvaluator(DensityModel(support=law.support, basis="chebyshev-u", psi=psi)).decompressed(ratio)
        assert followed.candidates_tried > 1
        assert set(orders) <= {followed.order}


def test_bench_contract(tmp_path):
    # What bench/ uses of the library: bench/tracing.py's wrappers around
    # the public functions, DensityModel(basis=...), coefficients_effective(),
    # DecompressionResult.degraded, track_support and evaluator_for_model.
    # A library change that drops one of them breaks the benchmark.
    import freedec.decompress as dc
    import freedec.stieltjes as st

    tracing = _bench_module("tracing")
    originals = (dc.track_support, dc.decompress_density, st.evaluator_for_model)
    eigs, model_path = tmp_path / "eigs.txt", tmp_path / "model.json"
    x = np.random.default_rng(0).standard_normal((200, 2000))
    np.savetxt(eigs, np.linalg.eigvalsh(x @ x.T / 2000))
    with tracing.Tracer().installed() as tracer:
        assert main(["fit", "--eigs", str(eigs), "-K", "8", "-o", str(model_path)]) == 0
        argv = ["decompress", "--model", str(model_path), "--ratio", "2", "-o", str(tmp_path / "d.csv")]
        assert main(argv) == 0
        model = load_model(model_path)
        dc.track_support(st.evaluator_for_model(model), 0.0)
    assert (dc.track_support, dc.decompress_density, st.evaluator_for_model) == originals
    for metric in ("density_fit.coeffs_nonzero", "decompress.grid_points", "decompress.track_s",
                   "stieltjes.build_s"):
        assert metric in tracer.totals
    assert model.basis == "chebyshev-u"
    assert np.array_equal(model.coefficients_effective(), model.psi)
    assert "degraded" in {f.name for f in dataclasses.fields(dc.DecompressionResult)}


def test_fit_k0_single_coefficient(tmp_path):
    eigs = tmp_path / "eigs.txt"
    model_path = tmp_path / "m.json"
    main(["sample", "--ensemble", "wigner", "--n", "64", "--seed", "2", "-o", str(eigs)])
    assert main(["fit", "--eigs", str(eigs), "-K", "0", "-o", str(model_path)]) == 0
    model = load_model(model_path)
    assert model.psi.size == 1
    assert model.meta["k_eff"] == 0  # never above the fit order


def test_model_roundtrip_exact():
    rng = np.random.default_rng(3)
    model = DensityModel(
        support=(-1.25, 2.75),
        basis="chebyshev-u",
        psi=rng.standard_normal(17) * np.pi,
        degenerate_support=True,
        repaired=True,
        repair_warning=True,
        meta={"n_s": 12},
    )
    doc = json.loads(json.dumps(model_to_dict(model)))
    back = model_from_dict(doc)
    assert np.array_equal(back.psi, model.psi)  # repr round-trip is exact
    assert back.support == model.support
    assert back.degenerate_support and back.repaired and back.repair_warning
    # documents written before these fields existed load with the defaults
    for key in ("degenerate_support", "repaired", "repair_warning"):
        del doc[key]
    old = model_from_dict(doc)
    assert not (old.degenerate_support or old.repaired or old.repair_warning)
    # a numpy integer order is a valid k_max, and the fit's meta writes it as a JSON number
    fitted = fit_density(SpectrumSample(np.array([0.5, 1.0, 2.0])), k_max=np.int64(8))
    assert model_from_dict(json.loads(json.dumps(model_to_dict(fitted)))).meta["k_max"] == 8


def test_model_schema_validation(tmp_path):
    good = {"schema_version": 1, "support": [0, 1], "basis": {"kind": "chebyshev-u"},
            "coefficients": [1.0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**good, "schema_version": 2}))
    with pytest.raises(Exception):
        load_model(path)
    # a stored glue continuation has no evaluator, so it is refused, not ignored
    path.write_text(json.dumps({**good, "glue": {"c": -1.0, "d": 0.0, "poles": [],
                                                 "residues": []}}))
    with pytest.raises(InputError, match="glue"):
        load_model(path)
    path.write_text(json.dumps({**good, "glue": None}))
    assert load_model(path).psi.tolist() == [1.0]
    # so are a basis without a second-sheet evaluator and a damping filter
    path.write_text(json.dumps({**good, "basis": {"kind": "jacobi", "alpha": 0.5, "beta": 0.5}}))
    with pytest.raises(InputError, match="jacobi"):
        load_model(path)
    path.write_text(json.dumps({**good, "damping": [1.0]}))
    with pytest.raises(InputError, match="damping"):
        load_model(path)
    # documents written with the old damping and gamma keys still load
    path.write_text(json.dumps({**good, "damping": None, "gamma": 1e-4}))
    assert load_model(path).psi.tolist() == [1.0]


def test_decompress_fault_injection(tmp_path, capsys, monkeypatch):
    # a model that decompresses, whose chosen transform (or at ratio 1 its
    # density) is NaN on the grid as if every follow failed: a numerical
    # failure, exit 3, with no density file
    path = tmp_path / "model.json"
    save_model(path, DensityModel(support=(0.0, 1.0), basis="chebyshev-u", psi=[4 / np.pi, 0.1]))
    choose = ChebyshevPadeEvaluator.decompressed

    def broken(self, ratio, order=None):
        followed = choose(self, ratio, order)
        followed.stieltjes = lambda z: np.full(np.shape(z), complex("nan"))
        return followed

    monkeypatch.setattr(ChebyshevPadeEvaluator, "decompressed", broken)
    monkeypatch.setattr(ChebyshevPadeEvaluator, "density", lambda self, x: np.full(np.shape(x), np.nan))
    for ratio in ("1", "2"):
        code = main(["decompress", "--model", str(path), "--ratio", ratio, "-o", str(tmp_path / "d.csv")])
        assert code == 3
        assert "failed" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()


def test_decompress_non_finite_input_exits_2(tmp_path, capsys):
    # bad input, not a solver failure (exit 3) or a traceback
    model = DensityModel(support=(0.0, 1.0), basis="chebyshev-u", psi=np.array([4 / np.pi, 0.1]))
    path = tmp_path / "m.json"
    save_model(path, model)
    for extra in (["--ratio", "nan"], ["--ratio", "inf"], ["--ratio", "4", "--grid", "0:nan:50"]):
        code = main(["decompress", "--model", str(path), *extra, "-o", str(tmp_path / "d.csv")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_fit_non_finite_eigenvalue_exits_2(tmp_path, capsys):
    # bad input named as such: not a NaN model with exit 0, nor a support error
    for value in ("inf", "nan"):
        path = tmp_path / f"{value}.txt"
        path.write_text(f"0.5\n1.0\n{value}\n")
        code = main(["fit", "--eigs", str(path), "-o", str(tmp_path / "m.json")])
        assert code == 2
        assert f"eigenvalue {value} is not finite" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


_GOOD_MODEL = {"schema_version": 1, "support": [0, 1], "basis": {"kind": "chebyshev-u"},
               "coefficients": [1.0]}
_DECOMPRESS_BAD = ["decompress", "--ratio", "2", "--model"]


def _model_without(key):
    return json.dumps({k: v for k, v in _GOOD_MODEL.items() if k != key})


# the command up to the input file, and the file's content (None: no file)
_BAD_INPUTS = {
    "fit non-numeric line": (["fit", "--eigs"], "0.5\nabc\n1.0\n"),
    "fit missing file": (["fit", "--eigs"], None),
    "fit two columns": (["fit", "--eigs"], "0.5 1.0\n0.7 1.2\n0.9 1.4\n"),
    "fit empty file": (["fit", "--eigs"], ""),
    "decompress non-JSON": (_DECOMPRESS_BAD, "{not json"),
    "decompress no basis": (_DECOMPRESS_BAD, _model_without("basis")),
    "decompress no support": (_DECOMPRESS_BAD, _model_without("support")),
    "decompress no coefficients": (_DECOMPRESS_BAD, _model_without("coefficients")),
    "decompress non-numeric coefficient": (
        _DECOMPRESS_BAD, json.dumps({**_GOOD_MODEL, "coefficients": [1.0, "x"]})
    ),
    "decompress scalar coefficients": (
        _DECOMPRESS_BAD, json.dumps({**_GOOD_MODEL, "coefficients": 1.0})
    ),
    "decompress fit_meta not an object": (
        _DECOMPRESS_BAD, json.dumps({**_GOOD_MODEL, "fit_meta": [1]})
    ),
    "decompress --target-n, n_s not a number": (
        ["decompress", "--target-n", "4", "--model"], json.dumps({**_GOOD_MODEL, "fit_meta": {"n_s": "abc"}})
    ),
    "decompress --target-n, n_s a list": (
        ["decompress", "--target-n", "4", "--model"], json.dumps({**_GOOD_MODEL, "fit_meta": {"n_s": [3]}})
    ),
    "decompress infinite support": (
        _DECOMPRESS_BAD, json.dumps({**_GOOD_MODEL, "support": [0, float("inf")]})
    ),
    "decompress mass not 1": (_DECOMPRESS_BAD, json.dumps(_GOOD_MODEL)),  # mass pi / 4, not ratio 2's fault
    "decompress zero coefficients at ratio 1": (
        ["decompress", "--ratio", "1", "--model"], json.dumps({**_GOOD_MODEL, "coefficients": [0.0]})
    ),
    "decompress nan coefficient": (
        _DECOMPRESS_BAD, json.dumps({**_GOOD_MODEL, "coefficients": [4 / np.pi, float("nan")]})
    ),
    "decompress one-point grid": (
        ["decompress", "--ratio", "2", "--grid", "0.5:1:1", "--model"],
        json.dumps({**_GOOD_MODEL, "coefficients": [4 / np.pi, 0.1]}),  # one that decompresses
    ),
    "metrics non-numeric cell": (["metrics", "--b", "{path}", "--a"],
                                 "x,density\n0.0,1.0\n0.5,abc\n1.0,1.0\n"),
    "metrics no rows": (["metrics", "--b", "{path}", "--a"], "x,density\n"),
    "metrics bad header": (["metrics", "--b", "{path}", "--a"], "x,rho\n0.0,1.0\n1.0,1.0\n"),
    "metrics one row": (["metrics", "--b", "{path}", "--a"], "x,density\n0.0,1.0\n"),
    "metrics nan density": (["metrics", "--b", "{path}", "--a"],
                            "x,density\n0.0,1.0\n0.5,nan\n1.0,1.0\n"),
    "metrics inf grid": (["metrics", "--b", "{path}", "--a"],
                         "x,density\n0.0,1.0\n0.5,1.0\ninf,1.0\n"),
    "metrics decreasing grid": (["metrics", "--b", "{path}", "--a"],
                                "x,density\n0.0,1.0\n1.0,1.0\n0.5,1.0\n"),
    "metrics negative density": (["metrics", "--b", "{path}", "--a"],
                                 "x,density\n0.0,1.0\n0.5,-1.0\n1.0,1.0\n"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_file_exits_2(case, tmp_path, capsys):
    # a file that cannot be read is bad input named as such, not a traceback
    argv, content = _BAD_INPUTS[case]
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    argv = [arg.format(path=path) for arg in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + [str(path), "-o", str(out)]) == 2
    assert not caught  # the error line is the only report
    err = capsys.readouterr().err
    assert err.startswith("freedec: ") and str(path) in err
    assert {p.name for p in tmp_path.iterdir()} <= {"input"}  # no output, no .diag.json


def test_atomic_write_leaves_no_temporary_file(tmp_path):
    # text UTF-8 cannot encode fails inside the write: the error reaches the
    # caller, the old file is kept and no temporary file is left behind
    target = tmp_path / "out.txt"
    atomic_write(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(target, "new \ud800\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert target.read_text() == "old\n"


def test_metrics_command(tmp_path, capsys):
    x = np.linspace(0.0, 1.0, 257)
    save_density_csv(tmp_path / "a.csv", x, np.ones_like(x))
    save_density_csv(tmp_path / "b.csv", x, 2.0 * x)
    code = main(
        ["metrics", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
         "-o", str(tmp_path / "report.json")]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "TV" in out and "JS" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tv"] == pytest.approx(0.25, abs=1e-3)


def test_density_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,density\n1.0,0.5\n0.5,0.5\n")
    with pytest.raises(Exception):
        load_density_csv(path)
    for x, rho in (([0.0, np.inf], [1.0, 1.0]), ([0.0, 1.0], [np.nan, 1.0])):
        with pytest.raises(InputError, match="finite"):
            save_density_csv(path, x, rho)


# ---------------------------------------------------------------------------
# every flag takes effect

_MP = ["sample", "--ensemble", "mp", "--n", "30", "--d", "300", "--seed", "1"]
_WACHTER = ["sample", "--ensemble", "wachter", "--n", "20", "--d1", "40", "--d2", "30",
            "--seed", "1"]
_MEIXNER = ["sample", "--ensemble", "meixner", "--n", "50", "--a", "0.1", "--b", "4",
            "--c", "0.6", "--seed", "3"]
_FIT = ["fit", "--eigs", "{eigs}"]
_DECOMPRESS = ["decompress", "--model", "{model}", "--ratio", "2"]
_METRICS = ["metrics", "--a", "{dens_a}", "--b", "{dens_b}"]

# (command, long flag) -> (base arguments, the same with the flag at a
# non-default value), or None for a flag that names a file; the output goes
# to the file named after the command
_OUTPUT = {"sample": "out.txt", "fit": "out.json", "decompress": "out.csv", "metrics": "out.json"}
_FLAG_EFFECTS = {
    ("sample", "--ensemble"): (_MP, _MP[:2] + ["wigner"] + _MP[3:]),
    ("sample", "--n"): (_MP, _MP + ["--n", "31"]),
    ("sample", "--d"): (_MP, _MP + ["--d", "400"]),
    ("sample", "--d1"): (_WACHTER, _WACHTER + ["--d1", "50"]),
    ("sample", "--d2"): (_WACHTER, _WACHTER + ["--d2", "40"]),
    ("sample", "--a"): (_MEIXNER, _MEIXNER + ["--a", "0.2"]),
    ("sample", "--b"): (_MEIXNER, _MEIXNER + ["--b", "3"]),
    ("sample", "--c"): (_MEIXNER, _MEIXNER + ["--c", "0.5"]),
    ("sample", "--seed"): (_MP, _MP + ["--seed", "2"]),
    ("sample", "--output"): None,
    ("fit", "--eigs"): None,
    ("fit", "--order"): (_FIT, _FIT + ["-K", "2"]),
    ("fit", "--output"): None,
    ("decompress", "--model"): None,
    ("decompress", "--ratio"): (_DECOMPRESS, _DECOMPRESS + ["--ratio", "3"]),
    ("decompress", "--target-n"): (_DECOMPRESS, _DECOMPRESS[:3] + ["--target-n", "900"]),
    ("decompress", "--grid"): (_DECOMPRESS, _DECOMPRESS + ["--grid", "0.2:2.5:64"]),
    ("decompress", "--output"): None,
    ("metrics", "--a"): None,
    ("metrics", "--b"): None,
    ("metrics", "--order"): (_METRICS, _METRICS + ["--order", "1000"]),
    ("metrics", "--output"): None,
}


def _effect(path):
    if path.suffix != ".json":
        return path.read_bytes()
    doc = json.loads(path.read_text())
    doc.pop("fit_meta", None)  # echoes the fit arguments, so an ignored flag still shows there
    return doc


def _parser_flags():
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    return {
        (command, max(action.option_strings, key=len))
        for command, sub in subparsers.items()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    }


def test_flag_table_lists_every_parser_flag():
    assert _parser_flags() == set(_FLAG_EFFECTS)


@pytest.mark.parametrize("key", sorted(k for k, v in _FLAG_EFFECTS.items() if v is not None),
                         ids=" ".join)
def test_every_flag_takes_effect(key, tmp_path, capsys):
    inputs = {"eigs": tmp_path / "eigs.txt", "model": tmp_path / "model.json",
              "dens_a": tmp_path / "a.csv", "dens_b": tmp_path / "b.csv"}
    assert main(["sample", "--ensemble", "mp", "--n", "300", "--d", "3000", "--seed", "5",
                 "-o", str(inputs["eigs"])]) == 0
    assert main(["fit", "--eigs", str(inputs["eigs"]), "-K", "30",
                 "-o", str(inputs["model"])]) == 0
    x = np.linspace(0.5, 2.0, 257)
    save_density_csv(inputs["dens_a"], x, np.ones_like(x))
    save_density_csv(inputs["dens_b"], x, x)
    capsys.readouterr()

    def outputs(argv, name):
        out_dir = tmp_path / name
        out_dir.mkdir()
        argv = [arg.format(**inputs) for arg in argv]
        assert main(argv + ["-o", str(out_dir / _OUTPUT[argv[0]])]) == 0
        files = {p.name: _effect(p) for p in sorted(out_dir.iterdir())}
        return files, capsys.readouterr().out

    base, changed = _FLAG_EFFECTS[key]
    assert outputs(changed, "changed") != outputs(base, "base")
