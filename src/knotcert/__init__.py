"""Exact knot invariants from integer Seifert matrices.

From a 2g x 2g integer Seifert matrix this package computes, all in exact
arithmetic: the Alexander polynomial, its unit-circle roots with
multiplicities (isolated via Sturm sequences in z = t + 1/t), the
equivariant signature step function of the Hermitian form
B(w) = (1-w)V + (1-conj(w))V^T on the unit circle, and a machine-checkable
certificate for the simple-unit-root hypothesis that implies left-orderable
fundamental groups of small nonzero Dehn fillings.

``import knotcert`` loads no layer: each public name is imported from its
home module on first use (PEP 562), so a caller that needs only
``knotcert.validate`` never loads ``knotcert.certify`` or
``knotcert.inertia``.  ``knotcert.certify`` and ``knotcert.inertia`` are
the functions, not the submodules of the same name; fetch those with
``importlib.import_module``.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# public name -> home module (written grouped by module); __all__, __getattr__
# and __dir__ all read this one table
_EXPORTS = {
    name: module
    for module, names in {
        "certify": "CERTIFIED INVALID_INPUT NOT_APPLICABLE Certificate ConsistencyChecks certify",
        "errors": (
            "CorpusParseError InternalInconsistencyError KnotCertError NonSquareError"
            " NonSymplecticError NormalizationError NotReciprocalError OddSizeError"
            " RootAtPlusMinusOneError UnknownFormatError ValidationError"
            " ZeroPolynomialError"
        ),
        "inertia": (
            "JumpReport SignatureProfile SlopeDiagnostic UnitCirclePoint b_matrix_at"
            " det_sign_crosscheck inertia jump_reports signature_profile"
            " to_paper_parametrization transversality_diagnostic"
        ),
        "laurent": (
            "SymmetricLaurentPoly UnitRootWitness ZPoly alexander_poly isolate_unit_roots"
            " to_z_poly"
        ),
        "seifert": "KnotMetadata SeifertMatrix block_sum mirror validate",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


class _Package(types.ModuleType):
    """The package module; a submodule never rebinds a public name.

    Importing ``knotcert.certify`` or ``knotcert.inertia`` sets the package
    attribute of that name to the submodule, which would hide the function.
    """

    def __setattr__(self, name, value):
        if not (isinstance(value, types.ModuleType) and name in _EXPORTS):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
