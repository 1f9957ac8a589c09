"""freedec: spectral density estimation for matrices too large to touch.

Estimate the eigenvalue density of a huge Hermitian matrix from one sampled
principal submatrix: fit a smooth density to the submatrix spectrum, evaluate
its Stieltjes transform on the analytically continued (second) branch, and
evolve it to the target dimension along the characteristic curves of

    dm/dt = -m + (1/m) dm/dz,      t = log(n / n_s).

The package also ships closed-form benchmark ensembles, density metrics, and
a command-line front end (``freedec``).
"""

from .decompress import (
    CrossingReport,
    DecompressionRequest,
    DecompressionResult,
    decompress_density,
    track_support,
    verify_crossing,
)
from .density_fit import (
    DensityModel,
    chebyshev_coefficients,
    chebyshev_coefficients_from_grid,
    estimate_support_edges,
    fit_density,
    repair_positivity_mass,
)
from .ensembles import (
    EnsembleDraw,
    EnsembleLaw,
    decompressed_law,
    draw_ensemble,
    kesten_mckay_law,
    law_cdf,
    law_density,
    law_hilbert,
    law_r_transform,
    law_stieltjes,
    marchenko_pastur_law,
    meixner_decompression_params,
    meixner_law,
    wachter_law,
    wigner_law,
)
from .errors import InputError, NumericalError
from .linalg import (
    SpectrumSample,
    eigenvalues_symmetric,
    haar_orthogonal,
    make_rng,
    sample_principal_submatrix,
)
from .metrics import (
    DensityComparison,
    compare_densities,
    jensen_shannon,
    jensen_shannon_samples,
    log_determinant,
    moments,
    qmc_sample,
    total_variation,
    total_variation_samples,
    van_der_corput,
)
from .stieltjes import (
    ChebyshevPadeEvaluator,
    LawEvaluator,
    evaluator_for_model,
    joukowski,
    joukowski_inverse,
)

__version__ = "0.1.0"
