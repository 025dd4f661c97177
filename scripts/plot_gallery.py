#!/usr/bin/env python3
"""Emit signature step plots for the built-in named fixtures.

Writes one SVG + CSV pair per knot into the output directory, in both the
full-circle and halved-angle parametrizations when --paper-angles is given.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from knotcert.corpus import emit_profile_plot
from knotcert.fixtures import (
    FIGURE_EIGHT,
    KNOT_5_2,
    STEVEDORE,
    TORUS_2_5,
    TORUS_2_7,
    TREFOIL,
    UNKNOT,
    granny_knot,
    square_knot,
)
from knotcert.certify import certify
from knotcert.inertia import to_paper_parametrization


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("plots"))
    parser.add_argument("--paper-angles", action="store_true")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    knots = [
        UNKNOT,
        TREFOIL,
        FIGURE_EIGHT,
        KNOT_5_2,
        STEVEDORE,
        TORUS_2_5,
        TORUS_2_7,
        granny_knot(),
        square_knot(),
    ]
    for v in knots:
        profile = certify(v).profile
        if args.paper_angles:
            profile = to_paper_parametrization(profile)
        stem = v.name.replace("(", "").replace(")", "").replace(",", "_").replace("#", "_sum_").replace("*", "m")
        path = emit_profile_plot(profile, args.out / f"{stem}.svg", title=v.name)
        print(
            f"{v.name}: plateaus {list(profile.plateau_values)}, "
            f"sig(-1) = {profile.value_at_minus_one} -> {path}"
        )


if __name__ == "__main__":
    main()
