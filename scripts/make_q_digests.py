"""Write the Q certificate digests that tests/test_q_digests.py checks.

The corpus is every case ``cases()`` yields, all over Q:

- ``random``: five seeded ``random_sl(Q, n)`` inputs for each n in
  2..10;
- ``wide``: a seeded ``random_sl(Q, n)`` input conjugated by a unit
  upper triangular P whose entries above the diagonal have unrelated
  64-bit (n 3..6) or 500-bit (n 3..5) denominators, so every row of the
  input has a denominator as wide as the lcm of many unrelated ones;
- ``structured``: the Q inputs of ``structured_corpus``, n 3..7.

``wide_conjugator`` and ``structured_corpus`` live in
``tests/corpora.py``, which this script loads by path and
``tests/test_sourour.py`` imports.

For each case it records the SHA-256 of the input as a matrix file
(``matrix_to_text``) and of the certificate bytes
``factorization_to_json`` returns for it, as one line ``<case> <input
digest> <certificate digest>`` of ``tests/golden/Q-digests.sha256`` (not
``.json`` or ``.txt``, which name the golden certificates and inputs).
The input digest tells a change of the inputs (a sampler change) apart
from a change of the certificates.

Regenerate only when a change is meant to alter Q certificate bytes,
and say so in CHANGES.md.

Usage:
    PYTHONPATH=src python scripts/make_q_digests.py [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "golden" / "Q-digests.sha256"

RANDOM_SIZES = range(2, 11)
RANDOM_PER_SIZE = 5
WIDE = ((64, (3, 4, 5, 6)), (500, (3, 4, 5)))
STRUCTURED_SIZES = range(3, 8)


def _corpora():
    spec = importlib.util.spec_from_file_location(
        "corpora", ROOT / "tests" / "corpora.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases():
    """(case name, input matrix) over the whole corpus, in order."""
    from u2factor.field import rationals
    from u2factor.sampling import random_sl

    corpora = _corpora()
    F = rationals()
    for n in RANDOM_SIZES:
        for i in range(RANDOM_PER_SIZE):
            yield f"random-n{n}-{i}", random_sl(
                F, n, random.Random(f"q-digests:{n}:{i}"))
    for bits, sizes in WIDE:
        for n in sizes:
            rng = random.Random(f"q-digests:wide:{bits}:{n}")
            A = random_sl(F, n, rng)
            P = corpora.wide_conjugator(F, n, bits, rng)
            yield f"wide{bits}-n{n}", P @ A @ P.inverse()
    for n in STRUCTURED_SIZES:
        for i, A in enumerate(corpora.structured_corpus(F, n)):
            yield f"structured-n{n}-{i}", A


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    from u2factor import factor, factorization_to_json, matrix_to_text

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(DIGESTS))
    args = ap.parse_args(argv)
    lines = [f"{name} {sha256(matrix_to_text(A))} "
             f"{sha256(factorization_to_json(factor(A)))}\n"
             for name, A in cases()]
    Path(args.out).write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} cases")
    return 0


def read_digests(path=DIGESTS) -> dict:
    """{case: (input digest, certificate digest)} from a digest file."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, given, cert = line.split()
        out[name] = (given, cert)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
