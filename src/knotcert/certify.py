"""Certificates tying the computed invariants to the orderability criterion.

A certificate is CERTIFIED exactly when the Alexander polynomial has a
simple root on the unit circle and the user asserts the knot exterior is
irreducible.  The certified conclusion is existential: there is some a > 0
such that every Dehn filling of rational slope in (-a, 0) u (0, a) has
left-orderable fundamental group; no value of a is claimed.  Jump and
odd-multiplicity witnesses are reported even for NOT_APPLICABLE verdicts,
since a nonzero signature jump already certifies a family of irreducible
SU(2) representations limiting to the corresponding abelian one.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalInconsistencyError, ValidationError
from .inertia import (
    JumpReport,
    SignatureProfile,
    det_sign_crosscheck,
    jump_reports,
    signature_profile,
)
from .laurent import (
    MAX_REFINE_BITS,
    SymmetricLaurentPoly,
    UnitRootWitness,
    alexander_poly,
    isolate_unit_roots,
    to_z_poly,
    unproved_claim,
)
from .record import Record
from .seifert import KnotMetadata, SeifertMatrix, validate

CERTIFIED = "CERTIFIED"
NOT_APPLICABLE = "NOT_APPLICABLE"
INVALID_INPUT = "INVALID_INPUT"


class ConsistencyChecks(Record):
    """Cross-checks that must all hold before a certificate is emitted."""

    det_sign_crosscheck: bool
    first_plateau_zero: bool
    parity: bool

    def all_passed(self) -> bool:
        return self.det_sign_crosscheck and self.first_plateau_zero and self.parity


class Certificate(Record, kw_only=True, uncompared=("profile",)):
    """Verdict plus the witnesses that justify it.

    The field order is the certificate JSON's key order: the JSON carries
    the compared fields, so the recomputable ``profile`` is left out.  The
    constructor raises ValueError unless there is an error and no checks or
    jumps, or no error and passed checks; the jumps start at 0 and each
    where the last one ended; and the fields ``_derived`` computes hold its
    values.  Messages name a field, never its value (it may not format).
    """

    name: str | None = None
    verdict: str
    genus: int | None = None
    alexander: SymmetricLaurentPoly | None = None
    signature_at_minus_one: int | None = None
    simple_root_witnesses: tuple[UnitRootWitness, ...]
    jump_witnesses: tuple[JumpReport, ...] = ()
    odd_multiplicity_witnesses: tuple[UnitRootWitness, ...]
    assumptions_echoed: KnotMetadata
    conclusion_text: str
    consistency_checks: ConsistencyChecks | None = None
    error: str | None = None
    profile: SignatureProfile | None = None

    def __post_init__(self):
        checks, jumps = self.consistency_checks, self.jump_witnesses
        if not (
            checks is None and not jumps if self.error is not None
            else checks is not None and checks.all_passed()
        ):
            raise ValueError(
                "a certificate must have an error and no consistency_checks or jump_witnesses,"
                " or no error and passed consistency_checks"
            )
        ends = (0, *(j.right_value for j in jumps))
        if any(j.left_value != end for j, end in zip(jumps, ends)):
            raise ValueError("jump_witnesses must start at 0 and each where the last one ended")
        for name, value in _derived(self.assumptions_echoed, jumps, self.error).items():
            if getattr(self, name) != value:
                raise ValueError(
                    f"{name} is not that derived from assumptions_echoed, jump_witnesses and error"
                )

    @property
    def unit_root_count(self) -> int:
        return len(self.jump_witnesses)

    @property
    def simple_root_count(self) -> int:
        return len(self.simple_root_witnesses)


def _derived(meta: KnotMetadata, jumps: Sequence[JumpReport], error: str | None) -> dict:
    """The certificate fields that its assumptions, jump witnesses and error decide.

    The verdict is INVALID_INPUT with an error, else CERTIFIED exactly when
    a simple root exists and irreducibility is asserted.  The witnesses are
    the jumps' roots of multiplicity 1 and of odd multiplicity, by z
    ascending.  signature_at_minus_one is the last jump's right value, 0
    with no jumps and None with an error.
    """
    roots = [j.root for j in reversed(jumps)]  # jumps run by angle, z down
    simple = tuple(w for w in roots if w.multiplicity == 1)
    if error is not None:
        verdict = INVALID_INPUT
    else:
        verdict = CERTIFIED if simple and meta.assume_irreducible else NOT_APPLICABLE
    return {
        "verdict": verdict,
        "signature_at_minus_one": None if error is not None else jumps[-1].right_value if jumps else 0,
        "simple_root_witnesses": simple,
        "odd_multiplicity_witnesses": tuple(w for w in roots if w.multiplicity % 2 == 1),
        "conclusion_text": _conclusion(verdict, meta, simple, jumps),
    }


def _conclusion(verdict: str, meta: KnotMetadata, simple: tuple, jumps: Sequence[JumpReport]) -> str:
    if verdict == CERTIFIED:
        text = (
            "The Alexander polynomial has a simple root on the unit circle. "
            "Given the asserted irreducibility of the knot exterior, there is "
            "some a > 0 such that every Dehn filling of rational slope in "
            "(-a, 0) u (0, a) has left-orderable fundamental group."
        )
        if meta.assume_m0_prime:
            text += (
                " Since the 0-surgery is asserted prime, the interval "
                "improves to (-a, a)."
            )
        return text
    if verdict == INVALID_INPUT:
        return "Input is not a valid Seifert matrix; nothing is certified."
    reasons = []
    if not simple:
        reasons.append("no simple unit-circle root of the Alexander polynomial")
    if not meta.assume_irreducible:
        reasons.append("irreducibility of the knot exterior was not asserted")
    text = "Hypothesis not established: " + "; ".join(reasons) + "."
    if any(j.jump != 0 for j in jumps):
        text += (
            " A nonzero signature jump is present, which still certifies a "
            "family of irreducible SU(2) representations limiting to the "
            "abelian representation at that root."
        )
    return text


def _invalid_certificate(meta: KnotMetadata, name: str | None, message: str) -> Certificate:
    return Certificate(**_derived(meta, (), message), assumptions_echoed=meta, name=name, error=message)


def certify(
    v,
    meta: KnotMetadata = KnotMetadata(),
    *,
    name: str | None = None,
    refine_bits: int = 32,
    delta: SymmetricLaurentPoly | None = None,
) -> Certificate:
    """Run the full pipeline on a Seifert matrix and emit a certificate.

    ``v`` may be a SeifertMatrix, which checked itself when it was built, or
    a raw matrix; raw inputs failing validation, non-integer entries
    included, yield an INVALID_INPUT certificate rather than raising.  Any
    failed internal consistency check raises InternalInconsistencyError; a
    certificate with failed checks is never emitted.  The first checks, right
    after isolation, are ``laurent.unproved_claim``: they prove that no
    plateau arc holds a root of P and that each witness holds one root of P
    of its multiplicity.  A ``refine_bits`` outside [0, MAX_REFINE_BITS]
    raises ValueError before any work; the bound limits work, not digits,
    since separating close roots can take far more halvings.  Only
    certify_rows and the CLI turn an Alexander coefficient or root interval
    endpoint too long to write into INVALID_INPUT.  ``delta`` is
    alexander_poly(v) when the caller has computed it already.
    """
    if not 0 <= refine_bits <= MAX_REFINE_BITS:
        raise ValueError(f"refine_bits must be in [0, {MAX_REFINE_BITS}], got {refine_bits}")
    if isinstance(v, SeifertMatrix):
        matrix = v
    else:
        try:
            matrix = validate(v, name=name)
        except (ValidationError, TypeError) as exc:
            return _invalid_certificate(meta, name, f"{type(exc).__name__}: {exc}")
    label = name if name is not None else matrix.name

    if delta is None:
        delta = alexander_poly(matrix)
    p_z = to_z_poly(delta)
    witnesses = isolate_unit_roots(p_z, refine_bits=refine_bits)
    why = unproved_claim(p_z, witnesses)
    if why is not None:
        raise InternalInconsistencyError(f"{why} for {label or 'input'}")
    profile = signature_profile(matrix, witnesses)
    jumps = jump_reports(profile)

    checks = ConsistencyChecks(
        det_sign_crosscheck=det_sign_crosscheck(p_z, profile),
        first_plateau_zero=profile.plateau_values[0] == 0,
        parity=int(delta.evaluate(-1)) % 2 != 0,
    )
    if not checks.all_passed():
        raise InternalInconsistencyError(
            f"consistency checks failed for {label or 'input'}: {checks}"
        )

    return Certificate(
        **_derived(meta, jumps, None),
        jump_witnesses=tuple(jumps),
        assumptions_echoed=meta,
        consistency_checks=checks,
        name=label,
        genus=matrix.genus,
        alexander=delta,
        profile=profile,
    )
