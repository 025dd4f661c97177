"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and time budget is pinned here.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

import numpy as np

from knotcert.certify import CERTIFIED, NOT_APPLICABLE, certify
from knotcert.cli import main
from knotcert.corpus import write_corpus
from knotcert.fixtures import (
    FIGURE_EIGHT,
    TORUS_2_5,
    TREFOIL,
    congruent,
    granny_knot,
    random_corpus,
    random_unimodular,
    random_valid_matrix,
    square_knot,
)
from knotcert.inertia import (
    b_matrix_at,
    det_sign_crosscheck,
    inertia,
    jump_reports,
    signature_profile,
)
from knotcert.laurent import (
    SymmetricLaurentPoly,
    ZPoly,
    alexander_poly,
    isolate_unit_roots,
    to_z_poly,
)
from knotcert.seifert import KnotMetadata, mirror

from oracles import distinct_real_roots_float, inertia_float


def _report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_trefoil_end_to_end():
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        cert = certify(TREFOIL, KnotMetadata(assume_irreducible=True))
        elapsed.append(time.perf_counter() - t0)
    ok = (
        cert.alexander == SymmetricLaurentPoly({1: 1, 0: -1, -1: 1})
        and cert.simple_root_count == 1
        and cert.simple_root_witnesses[0].interval[0]
        < 1
        <= cert.simple_root_witnesses[0].interval[1]
        and cert.profile.plateau_values == (0, -2)
        and cert.signature_at_minus_one == -2
        and cert.verdict == CERTIFIED
        and min(elapsed) < 0.1
    )
    _report(f"1 trefoil end-to-end ({min(elapsed) * 1000:.1f} ms)", ok)


def test_criterion_2_figure_eight_end_to_end():
    cert = certify(FIGURE_EIGHT, KnotMetadata(assume_irreducible=True))
    ok = (
        cert.alexander == SymmetricLaurentPoly({1: -1, 0: 3, -1: -1})
        and cert.unit_root_count == 0
        and cert.profile.plateau_values == (0,)
        and cert.signature_at_minus_one == 0
        and cert.verdict == NOT_APPLICABLE
    )
    _report("2 figure-8 end-to-end", ok)


def test_criterion_3_torus_2_5_fixture():
    cert = certify(TORUS_2_5, KnotMetadata(assume_irreducible=True))
    ok = (
        to_z_poly(cert.alexander) == ZPoly([-1, -1, 1])
        and cert.unit_root_count == 2
        and cert.simple_root_count == 2
        and cert.profile.plateau_values == (0, -2, -4)
        and cert.signature_at_minus_one == -4
        and cert.verdict == CERTIFIED
    )
    _report("3 T(2,5) fixture", ok)


def test_criterion_4_multiplicity_discrimination():
    granny = certify(granny_knot())
    square = certify(square_knot())
    trefoil = certify(TREFOIL)
    mirror_trefoil = certify(mirror(TREFOIL))
    granny_ok = (
        granny.verdict == NOT_APPLICABLE
        and len(granny.jump_witnesses) == 1
        and granny.jump_witnesses[0].root.multiplicity == 2
        and granny.jump_witnesses[0].jump == -4
        # additivity: the connected-sum jump is the sum of the summands'
        and granny.jump_witnesses[0].jump == 2 * trefoil.jump_witnesses[0].jump
    )
    square_ok = (
        square.verdict == NOT_APPLICABLE
        and square.jump_witnesses[0].root.multiplicity == 2
        and square.jump_witnesses[0].jump == 0
        # mirror negates the profile, so the summed jump cancels
        and mirror_trefoil.jump_witnesses[0].jump == -trefoil.jump_witnesses[0].jump
    )
    _report("4 multiplicity discrimination (granny/square)", granny_ok and square_ok)


def test_criterion_5_property_suite_200_fixtures():
    rng = random.Random(0xC0FFEE)
    t0 = time.perf_counter()
    failures = []
    for i in range(200):
        base = random_valid_matrix(rng, max_genus=3)
        twisted = congruent(base, random_unimodular(base.size, rng, steps=4))
        try:
            delta = alexander_poly(base)
            if any(delta.coefficient(-k) != c for k, c in delta.coeffs.items()):
                failures.append((i, "reciprocity"))
            if delta.evaluate(1) != 1:
                failures.append((i, "normalization"))
            if int(delta.evaluate(-1)) % 2 == 0:
                failures.append((i, "parity"))
            p_z = to_z_poly(delta)
            witnesses = isolate_unit_roots(p_z)
            profile = signature_profile(base, witnesses)
            if profile.jump_angles != tuple(
                sorted(witnesses, key=lambda w: w.interval, reverse=True)
            ):
                failures.append((i, "jump angles are the witnesses in angle order"))
            if profile.plateau_values[0] != 0:
                failures.append((i, "first plateau"))
            if any(p % 2 for p in profile.plateau_values):
                failures.append((i, "even plateaus"))
            for jr in jump_reports(profile):
                if abs(jr.jump) > 2 * jr.root.multiplicity:
                    failures.append((i, "jump bound"))
                if jr.odd_multiplicity and jr.jump == 0:
                    failures.append((i, "odd multiplicity jump"))
            if not det_sign_crosscheck(p_z, profile):
                failures.append((i, "det-sign crosscheck"))
            cert_base = certify(base)
            cert_twisted = certify(twisted)
            if cert_base.verdict != cert_twisted.verdict:
                failures.append((i, "verdict congruence invariance"))
            if (
                cert_twisted.profile.plateau_values != profile.plateau_values
                or cert_twisted.profile.jump_angles != profile.jump_angles
                or cert_twisted.profile.value_at_minus_one
                != profile.value_at_minus_one
            ):
                failures.append((i, "profile congruence invariance"))
        except Exception as exc:  # any raise is a failure of the suite
            failures.append((i, f"exception {type(exc).__name__}: {exc}"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        f"5 property suite, 200 congruence fixtures, {elapsed:.1f}s"
        + (f", failures: {failures[:5]}" if failures else ""),
        ok,
    )


def test_criterion_6_oracle_equivalence():
    rng = random.Random(271828)

    sturm_checked = 0
    sturm_ok = True
    while sturm_checked < 100:
        degree = rng.randint(1, 8)
        p = ZPoly([rng.randint(-9, 9) for _ in range(degree + 1)])
        if p.degree < 1 or p.evaluate(2) == 0 or p.evaluate(-2) == 0:
            continue
        witnesses = isolate_unit_roots(p)
        floats = distinct_real_roots_float(p.coeffs)
        if len(witnesses) != len(floats):
            sturm_ok = False
        for root in floats:
            inside = [
                w
                for w in witnesses
                if float(w.interval[0]) - 1e-12 < root <= float(w.interval[1]) + 1e-12
            ]
            if len(inside) != 1:
                sturm_ok = False
        sturm_checked += 1

    inertia_checked = 0
    inertia_ok = True
    while inertia_checked < 100:
        v = random_valid_matrix(rng, max_genus=2)
        witnesses = isolate_unit_roots(to_z_poly(alexander_poly(v)))
        profile = signature_profile(v, witnesses)
        for point in profile.arc_samples:
            if inertia_checked >= 100:
                break
            h = b_matrix_at(v, point)
            exact = inertia(h)
            hf = np.array(
                [[complex(float(x.re), float(x.im)) for x in row] for row in h]
            )
            if exact != inertia_float(hf):
                inertia_ok = False
            inertia_checked += 1

    _report("6 oracle equivalence (100 Sturm + 100 inertia samples)", sturm_ok and inertia_ok)


def test_criterion_7_determinism(tmp_path):
    corpus = tmp_path / "corpus.json"
    write_corpus(random_corpus(50, seed=17), corpus, "json")

    def run(tag: str) -> dict[str, bytes]:
        out = tmp_path / tag
        out.mkdir()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(
                [
                    "report",
                    "--input",
                    str(corpus),
                    "--out",
                    str(out / "report.json"),
                    "--plot",
                    str(out / "plots"),
                ]
            )
        assert rc == 0
        files = {"report.json": (out / "report.json").read_bytes()}
        for p in sorted((out / "plots").iterdir()):
            files[p.name] = p.read_bytes()
        return files

    first = run("run1")
    second = run("run2")
    ok = first == second and len(first) == 1 + 2 * 50
    _report(f"7 determinism over 50 entries ({len(first)} artifacts)", ok)
