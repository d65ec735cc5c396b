"""Dual complex numbers and matrices.

Arithmetic of the algebra spanned by {1, i, eps*j, eps*k} with eps^2 = 0,
dense matrices over it, right eigenvalues, the block spectral decomposition
of Hermitian matrices into eigenvalue and subeigenvalue blocks, and the
singular value decomposition of general rectangular matrices.
"""

from .errors import (
    AccuracyError,
    BadEigenspace,
    DCError,
    IllConditionedGap,
    Inconsistent,
    NonFinite,
    NotAppreciable,
    NotHermitian,
    NotOrthogonal,
    NotSkewSymmetric,
    ShapeMismatch,
    SingularStandardPart,
    UnknownEigenvalue,
)
from .scalar import (
    DEFAULT_TOL,
    EPS_J,
    EPS_K,
    I_UNIT,
    ONE,
    DualComplex,
    Tolerances,
    dc_abs,
    dc_inv,
    dc_mul,
    dc_similar,
)
from .matrix import (
    DCMatrix,
    component_norms,
    conj_transpose,
    frobenius_norm,
    from_scalars,
    gen_random,
    identity,
    inner,
    is_hermitian,
    is_unitary,
    mat_inv,
    mat_mul,
    vector_norm,
    zeros,
)
from .eig import (
    RightEigenPair,
    complex_right_eigs,
    dual_right_eigs,
    simple_eig_lift,
    verify_eigenpair,
)
from .spectral import (
    DoubleEigClassification,
    SpectralBlock,
    SpectralDecomposition,
    assemble_blocks,
    classify_multiplicity,
    double_eig_classify,
    herm_spectral,
    is_pd,
    is_psd,
    subeigenpairs,
    verify_spectral,
    verify_subeigenpair,
    youla_skew,
)
from .svd import (
    SingularBlock,
    SvdResult,
    assemble_layout,
    dc_svd,
    standard_rank,
    verify_svd,
)

__version__ = "0.1.0"
