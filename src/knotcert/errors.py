"""Exception hierarchy shared across the package."""

from __future__ import annotations


class KnotCertError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KnotCertError):
    """The input does not describe a Seifert matrix of a knot."""


class NonSquareError(ValidationError):
    """Input matrix is not square (or has ragged rows)."""


class OddSizeError(ValidationError):
    """Input matrix has odd size; Seifert matrices are 2g x 2g."""


class NonSymplecticError(ValidationError):
    """det(V - V^T) != 1, so V is not the linking matrix of a Seifert surface."""


class RootAtPlusMinusOneError(ValidationError):
    """The polynomial vanishes at t = 1 or t = -1; not a knot Alexander polynomial."""


class NormalizationError(KnotCertError):
    """Alexander polynomial evaluated to something other than 1 at t = 1."""


class NotReciprocalError(KnotCertError):
    """Laurent polynomial is not invariant under t -> 1/t."""


class ZeroPolynomialError(KnotCertError):
    """Operation undefined for the zero polynomial."""


class InternalInconsistencyError(KnotCertError):
    """A mathematically guaranteed cross-check failed; indicates a software bug."""


class UnknownFormatError(KnotCertError):
    """Requested corpus format is not one of json, jsonl, csv."""


class CorpusParseError(KnotCertError):
    """The corpus file is malformed at the top level (not row by row)."""
