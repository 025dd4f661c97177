"""Exact knot invariants from integer Seifert matrices.

From a 2g x 2g integer Seifert matrix this package computes, all in exact
arithmetic: the Alexander polynomial, its unit-circle roots with
multiplicities (isolated via Sturm sequences in z = t + 1/t), the
equivariant signature step function of the Hermitian form
B(w) = (1-w)V + (1-conj(w))V^T on the unit circle, and a machine-checkable
certificate for the simple-unit-root hypothesis that implies left-orderable
fundamental groups of small nonzero Dehn fillings.
"""

from .certify import (
    CERTIFIED,
    INVALID_INPUT,
    NOT_APPLICABLE,
    Certificate,
    ConsistencyChecks,
    certify,
)
from .errors import (
    CorpusParseError,
    InternalInconsistencyError,
    KnotCertError,
    NonSquareError,
    NonSymplecticError,
    NormalizationError,
    NotReciprocalError,
    OddSizeError,
    RootAtPlusMinusOneError,
    SampleOnRootError,
    UnknownFormatError,
    ValidationError,
    ZeroPolynomialError,
)
from .inertia import (
    JumpReport,
    SignatureProfile,
    SlopeDiagnostic,
    UnitCirclePoint,
    b_matrix_at,
    det_sign_crosscheck,
    inertia,
    jump_reports,
    signature_profile,
    to_paper_parametrization,
    transversality_diagnostic,
)
from .laurent import (
    SymmetricLaurentPoly,
    UnitRootWitness,
    ZPoly,
    alexander_poly,
    isolate_unit_roots,
    squarefree_decompose,
    to_z_poly,
)
from .seifert import (
    KnotMetadata,
    SeifertMatrix,
    block_sum,
    mirror,
    symmetrized_form,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CERTIFIED",
    "INVALID_INPUT",
    "NOT_APPLICABLE",
    "Certificate",
    "ConsistencyChecks",
    "CorpusParseError",
    "InternalInconsistencyError",
    "JumpReport",
    "KnotCertError",
    "KnotMetadata",
    "NonSquareError",
    "NonSymplecticError",
    "NormalizationError",
    "NotReciprocalError",
    "OddSizeError",
    "RootAtPlusMinusOneError",
    "SampleOnRootError",
    "SeifertMatrix",
    "SignatureProfile",
    "SlopeDiagnostic",
    "SymmetricLaurentPoly",
    "UnitCirclePoint",
    "UnitRootWitness",
    "UnknownFormatError",
    "ValidationError",
    "ZPoly",
    "ZeroPolynomialError",
    "alexander_poly",
    "b_matrix_at",
    "block_sum",
    "certify",
    "det_sign_crosscheck",
    "inertia",
    "isolate_unit_roots",
    "jump_reports",
    "mirror",
    "signature_profile",
    "squarefree_decompose",
    "symmetrized_form",
    "to_paper_parametrization",
    "to_z_poly",
    "transversality_diagnostic",
    "validate",
]
