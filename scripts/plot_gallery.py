#!/usr/bin/env python3
"""Emit signature step plots for the built-in named fixtures.

Writes the fixtures as a corpus and runs ``knotcert signature --plot`` on it,
so the file names, the SVG + CSV pair per knot and the one line printed per
knot are those of that command; --paper-angles reports halved angles.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import knotcert.fixtures as fx
from knotcert import cli
from knotcert.corpus import CorpusEntry, write_corpus


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("plots"))
    parser.add_argument("--paper-angles", action="store_true")
    args = parser.parse_args()
    knots = [fx.UNKNOT, fx.TREFOIL, fx.FIGURE_EIGHT, fx.KNOT_5_2, fx.STEVEDORE, fx.TORUS_2_5]
    knots += [fx.TORUS_2_7, fx.granny_knot(), fx.square_knot()]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "gallery.json"
        write_corpus([CorpusEntry(name=v.name, seifert=v) for v in knots], corpus)
        return cli.main(
            ["signature", "--input", str(corpus), "--plot", str(args.out)]
            + ["--paper-angles"] * args.paper_angles
        )


if __name__ == "__main__":
    sys.exit(main())
