"""Sector-constrained polynomial zero synthesis and P/P0-matrix spectra."""

from .errors import (
    AngleTooSmall,
    ComplexCharPoly,
    DegenerateInput,
    DegreeOne,
    DimensionCap,
    DomainError,
    FeasibleButUnwitnessed,
    NotAdmissible,
    NotConjugateClosed,
    PreconditionError,
    SectorPolyError,
    ZeroLambda,
    ZeroModulus,
)
from .pmatrix import (
    MatrixClass,
    MinorReport,
    SpectrumMultiset,
    eigen_witness,
    eigenvalues,
    generate_p_matrix,
    kellogg_admissible,
    principal_minors,
    spectrum_feasible,
    wedge_admissible,
)
from .poly import (
    SignClass,
    canonical,
    classify_signs,
    from_polar,
    principal_arg,
)
from .roots import RootSet, find_roots
from .synthesis import (
    CotReport,
    SectorIndex,
    SynthesisResult,
    build_q_avg,
    build_qj,
    lift,
    sector_index,
    sign_lemma_check,
    synthesize,
    verify_cot,
)

__version__ = "0.1.0"
