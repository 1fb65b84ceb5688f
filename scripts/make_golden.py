"""Write the golden certificate corpus that tests/test_golden.py checks.

For each (field, n) in the grid below, one seeded random SL_n input is
drawn with ``u2factor.sampling.random_sl`` and factored.  Each case is
written as two files: ``<case>.txt``, the input as a matrix file, and
``<case>.json``, the certificate bytes ``factorization_to_json``
returned.  The test reads the inputs back from the ``.txt`` files, so a
later change to the sampler does not change the corpus.

Regenerate only when a change is meant to alter certificate bytes, and
say so in CHANGES.md.

Usage:
    PYTHONPATH=src python scripts/make_golden.py [--out tests/golden]
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

FIELDS = (
    ("GF4", "GF(4)"), ("GF5", "GF(5)"), ("GF7", "GF(7)"), ("GF8", "GF(8)"),
    ("GF9", "GF(9)"), ("GF16", "GF(16)"), ("GF25", "GF(25)"),
    ("GF27", "GF(27)"), ("GF31", "GF(31)"), ("GF10007", "GF(10007)"),
    ("GF2147483647", "GF(2147483647)"),
    ("GF256m", "GF(256;1,1,0,1,1,0,0,0,1)"),
    ("Q", "Q"),
)
SIZES = (2, 3, 4, 6, 8)


def cases():
    """(case name, field spec, n) over the whole grid."""
    for label, spec in FIELDS:
        for n in SIZES:
            yield f"{label}-n{n}", spec, n


def main(argv=None) -> int:
    from u2factor import (factor, factorization_to_json, matrix_to_text,
                          parse_field_spec)
    from u2factor.sampling import random_sl

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "tests" / "golden"))
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, spec, n in cases():
        A = random_sl(parse_field_spec(spec), n, random.Random(name))
        (out / f"{name}.txt").write_text(matrix_to_text(A), encoding="utf-8")
        (out / f"{name}.json").write_text(factorization_to_json(factor(A)),
                                          encoding="utf-8")
        print(name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
