#!/usr/bin/env python3
"""Generate a deterministic corpus of random valid Seifert matrices.

Example:
    python scripts/make_corpus.py --count 50 --seed 11 --out corpus.json
    knotcert report --input corpus.json
"""

from __future__ import annotations

import argparse
from pathlib import Path

from knotcert.corpus import FORMATS, _format, write_corpus
from knotcert.errors import UnknownFormatError
from knotcert.fixtures import random_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-genus", type=int, default=3)
    parser.add_argument("--format", choices=FORMATS, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    try:
        fmt = _format(args.out, args.format)
    except UnknownFormatError:
        parser.error(f"cannot infer a corpus format from {args.out.name!r}; use --format")
    entries = random_corpus(args.count, seed=args.seed, max_genus=args.max_genus)
    write_corpus(entries, args.out, fmt)
    print(f"wrote {len(entries)} entries to {args.out} ({fmt})")


if __name__ == "__main__":
    main()
