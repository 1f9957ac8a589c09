"""Every input check raises ``InputError``, and the command line exits 2 on it.

One row per check: a library call and the message it must raise, or a
command line (without ``-o``) and the message its exit-2 error line must
carry.  Bad files for the command line are in ``test_cli._BAD_INPUTS``.
"""

import re

import numpy as np
import pytest

from freedec import (
    ChebyshevPadeEvaluator,
    DecompressionRequest,
    DensityModel,
    InputError,
    LawEvaluator,
    SpectrumSample,
    chebyshev_coefficients,
    chebyshev_coefficients_from_grid,
    decompress_density,
    decompressed_law,
    draw_ensemble,
    eigenvalues_symmetric,
    fit_density,
    haar_orthogonal,
    kesten_mckay_law,
    law_hilbert,
    law_stieltjes,
    make_rng,
    marchenko_pastur_law,
    meixner_law,
    sample_principal_submatrix,
    track_support,
    verify_crossing,
    wachter_law,
    wigner_law,
)
from freedec.cli import main
from freedec.io import model_from_dict
from freedec.metrics import log_determinant, moments, qmc_sample, total_variation, van_der_corput

_X = np.linspace(1.0, 2.0, 5)
_MODEL_DOC = {"schema_version": 1, "support": [0, 1], "basis": {"kind": "chebyshev-u"},
              "coefficients": [4 / np.pi]}
_KM2 = kesten_mckay_law(2)  # Q = 4 - x^2 vanishes at the edges +-2
_SEMICIRCLE = LawEvaluator(wigner_law(2.0))
_THREE = SpectrumSample(np.array([0.5, 1.0, 2.0]))
# unit mass on [0, 1] with five coefficients: approximants [0/0] .. [2/2]
_PADE = ChebyshevPadeEvaluator(DensityModel(support=(0.0, 1.0), basis="chebyshev-u",
                                            psi=[4 / np.pi, 0.1, 0.05, 0.02, 0.01]))
_FOLLOWED = _PADE.decompressed(2.0, order=2)
_LAW_X2 = _SEMICIRCLE.decompressed(2.0)

# the call, or a command line, and a pattern of its error message
_BAD_CALLS = {
    "wigner radius": (lambda: wigner_law(0.0), "radius must be positive"),
    "mp ratio": (lambda: marchenko_pastur_law(-1.0), "ratio must be positive"),
    "kesten-mckay d": (lambda: kesten_mckay_law(1), "d must be >= 2"),
    "wachter a + b": (lambda: wachter_law(0.5, 0.5), "a \\+ b > 1"),
    "meixner b": (lambda: meixner_law(0.0, 0.0, 0.5), "b must be positive"),
    "meixner c": (lambda: meixner_law(0.0, 1.0, 1.5), "c must lie in"),
    "law_stieltjes branch": (lambda: law_stieltjes(_KM2, 1j, "third"), "unknown branch 'third'"),
    "law_hilbert Q vanishes": (lambda: law_hilbert(_KM2, np.nextafter(2.0, 0.0)), "Q\\(x\\) vanishes"),
    "draw order": (lambda: draw_ensemble("wigner", 0, seed=0), "matrix order"),
    "draw wachter d2": (lambda: draw_ensemble("wachter", 4, seed=0, d1=8), "d1 >= 1 and d2 >= 1"),
    "draw wachter d1 + d2": (lambda: draw_ensemble("wachter", 4, seed=0, d1=2, d2=2), "d1 \\+ d2 > n"),
    "draw order 2.5": (lambda: draw_ensemble("wigner", 2.5, seed=0), "order must be >= 1 and an integer, got 2.5"),
    "draw order True": (lambda: draw_ensemble("wigner", True, seed=0), "order must be >= 1 and an integer, got True"),
    "draw mp d 2.5": (lambda: draw_ensemble("mp", 4, seed=0, d=2.5), "d >= 1, got 2.5"),
    "draw kesten-mckay d 4.0": (lambda: draw_ensemble("kesten-mckay", 4, seed=0, d=4.0), "even d >= 2 .*got 4\\.0"),
    "draw wachter d1 2.5": (lambda: draw_ensemble("wachter", 4, seed=0, d1=2.5, d2=8), "d1 >= 1 and d2 >= 1, got 2.5"),
    "draw meixner": (lambda: draw_ensemble("meixner", 4, seed=0), "unknown ensemble 'meixner'"),
    "draw unknown name": (lambda: draw_ensemble("gue", 4, seed=0), "unknown ensemble 'gue'"),
    "decompressed_law ratio None": (lambda: decompressed_law(_KM2, None), "ratio must be a number, got None"),
    "decompress ratio '2x'": (lambda: decompress_density(DecompressionRequest(evaluator=_SEMICIRCLE, ratio="2x")),
                              "ratio must be a number, got '2x'"),
    "track_support t None": (lambda: track_support(_SEMICIRCLE, None), "scale t must be a number"),
    "verify_crossing t_max None": (lambda: verify_crossing(_SEMICIRCLE, 1j, t_max=None),
                                   "t_max must be a number"),
    "verify_crossing z None": (lambda: verify_crossing(_SEMICIRCLE, None), "target z must be a number, got None"),
    "verify_crossing z nan": (lambda: verify_crossing(_SEMICIRCLE, np.nan + 1j), "open upper half-plane"),
    "verify_crossing z inf": (lambda: verify_crossing(_SEMICIRCLE, np.inf + 1j), "open upper half-plane"),
    "decompress grid '0:1:5'": (lambda: decompress_density(DecompressionRequest(_SEMICIRCLE, 2.0, grid="0:1:5")),
                                "'auto' or numbers, got '0:1:5'"),
    "pade order -1": (lambda: _PADE.decompressed(2.0, order=-1), "integer in 0 \\.\\. 2, got -1"),
    "pade order 99": (lambda: _PADE.decompressed(2.0, order=99), "integer in 0 \\.\\. 2, got 99"),
    "pade order 2.5": (lambda: _PADE.decompressed(2.0, order=2.5), "integer in 0 \\.\\. 2, got 2.5"),
    "pade order True": (lambda: _PADE.decompressed(2.0, order=True), "integer in 0 \\.\\. 2, got True"),
    "followed stieltjes on the axis": (lambda: _FOLLOWED.stieltjes(0.1 + 0j), "open upper half-plane"),
    "followed stieltjes below the axis": (lambda: _FOLLOWED.stieltjes([1j, 0.1 - 0.01j]), "open upper half-plane"),
    "followed stieltjes nan": (lambda: _FOLLOWED.stieltjes(np.nan + 1j), "open upper half-plane"),
    "followed stieltjes not a number": (lambda: _FOLLOWED.stieltjes("z"), "open upper half-plane, got 'z'"),
    "law x2 stieltjes on the axis": (lambda: _LAW_X2.stieltjes(0.1 + 0j), "open upper half-plane"),
    "law x2 stieltjes below the axis": (lambda: _LAW_X2.stieltjes([1j, 0.1 - 0.01j]), "open upper half-plane"),
    "law x2 stieltjes nan": (lambda: _LAW_X2.stieltjes(np.nan + 1j), "open upper half-plane"),
    "make_rng without seed": (lambda: make_rng(None), "seed is required"),
    "make_rng seed 2.5": (lambda: make_rng(2.5), "must be an integer .*got 2\\.5"),
    "make_rng seed True": (lambda: make_rng(True), "must be an integer .*got True"),
    "eigenvalues non-square": (lambda: eigenvalues_symmetric(np.ones((2, 3))), "square matrix"),
    "haar order": (lambda: haar_orthogonal(0, seed=0), "order must be >= 1"),
    "haar order 2.5": (lambda: haar_orthogonal(2.5, seed=0), "order must be >= 1 and an integer, got 2.5"),
    "submatrix k 2.5": (lambda: sample_principal_submatrix(np.eye(3), 2.5, seed=0), "integer in 1 \\.\\. 3, got 2.5"),
    "submatrix k True": (lambda: sample_principal_submatrix(np.eye(3), True, seed=0),
                         "integer in 1 \\.\\. 3, got True"),
    "coefficients k_max": (lambda: chebyshev_coefficients(SpectrumSample(np.array([0.5])), (0, 1), -1),
                           "order must be >= 0"),
    "fit k_max None": (lambda: fit_density(_THREE, k_max=None), "order must be >= 0 and an integer, got None"),
    "fit k_max 2.5": (lambda: fit_density(_THREE, k_max=2.5), "order must be >= 0 and an integer, got 2.5"),
    "fit k_max -1": (lambda: fit_density(_THREE, k_max=-1), "order must be >= 0 and an integer, got -1"),
    "fit k_max True": (lambda: fit_density(_THREE, k_max=True), "order must be >= 0 and an integer, got True"),
    "grid coefficients k_max": (lambda: chebyshev_coefficients_from_grid(_X, np.ones(5), (1, 2), -1),
                                "order must be >= 0"),
    "fit empty sample": (lambda: fit_density(SpectrumSample(np.empty(0))), "sample is empty"),
    "fit not a sample": (lambda: fit_density(np.array([0.5, 1.0])), "expects a SpectrumSample"),
    "log_determinant order": (lambda: log_determinant(_X, np.ones(5), 0), "order must be >= 1"),
    "log_determinant no mass": (lambda: log_determinant(_X, np.zeros(5), 10), "no mass"),
    "van_der_corput count": (lambda: van_der_corput(0), "at least one point"),
    "van_der_corput count 2.5": (lambda: van_der_corput(2.5), "at least one point.*got 2\\.5"),
    "qmc_sample count 2.5": (lambda: qmc_sample(_X, np.ones(5), 2.5), "at least one point.*got 2\\.5"),
    "moments k_max 2.5": (lambda: moments(_X, np.ones(5), 2.5), "order must be >= 0 and an integer, got 2.5"),
    "qmc_sample zero density": (lambda: qmc_sample(_X, np.zeros(5), 3), "no mass on the grid"),
    "normalize zero density": (lambda: total_variation(_X, np.zeros(5), np.ones(5)), "no mass on the grid"),
    "model document not an object": (lambda: model_from_dict([1.0]), "not a JSON object"),
    "model support reversed": (lambda: model_from_dict({**_MODEL_DOC, "support": [1, 0]}), "lo < hi"),
    "model support of three": (lambda: model_from_dict({**_MODEL_DOC, "support": [0, 1, 2]}), "lo < hi"),
    "cli sample mp without --d": (["sample", "--ensemble", "mp", "--n", "4", "--seed", "0"],
                                  "degrees of freedom d >= 1"),
    "cli sample kesten-mckay without --d": (
        ["sample", "--ensemble", "kesten-mckay", "--n", "4", "--seed", "0"], "even d >= 2"),
    "cli sample wachter without --d1": (
        ["sample", "--ensemble", "wachter", "--n", "4", "--d2", "8", "--seed", "0"], "d1 >= 1 and d2 >= 1"),
    "cli sample meixner without --a": (
        ["sample", "--ensemble", "meixner", "--n", "4", "--b", "1", "--c", "0.5", "--seed", "0"],
        "requires --a"),
    "cli decompress malformed --grid": (
        ["decompress", "--model", "no-such-model.json", "--ratio", "2", "--grid", "0:1"],
        "grid spec '0:1'"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CALLS))
def test_bad_input_raises_input_error(case, tmp_path, capsys):
    call, pattern = _BAD_CALLS[case]
    if callable(call):
        with pytest.raises(InputError, match=pattern):
            call()
        return
    out = tmp_path / "out"
    assert main(call + ["-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("freedec: ") and re.search(pattern, err), err
    assert not out.exists()
