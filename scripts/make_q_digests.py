"""Write the certificate digests that tests/test_q_digests.py checks.

There are three corpora, one digest file each, and every case is made
over one field of the corpus's list:

- ``Q`` (``tests/golden/Q-digests.sha256``), over Q alone:
  - ``random``: five seeded ``random_sl(Q, n)`` inputs for each n in
    2..10;
  - ``wide``: a seeded ``random_sl(Q, n)`` input conjugated by a unit
    upper triangular P whose entries above the diagonal have unrelated
    64-bit (n 3..6) or 500-bit (n 3..5) denominators, so every row of
    the input has a denominator as wide as the lcm of many unrelated
    ones;
  - ``structured``: the inputs of ``structured_corpus``, n 3..7.
- ``ext`` (``tests/golden/ext-digests.sha256``), over every GF(p^k) of
  ``EXT_FIELDS``, the built-in moduli and user moduli of degree 3, 5
  and 8:
  - ``random``: three seeded ``random_sl(F, n)`` inputs for each n in
    2..7;
  - ``scalar``: lambda I_n for every lambda with lambda^n = 1, n in
    2..7;
  - ``structured``: the inputs of ``structured_corpus``, n 3..7, over
    the fields of ``STRUCTURED`` (its diagonal scan tries every
    pair of nonzero elements, so the 243- and 256-element fields are
    left out).
- ``prime`` (``tests/golden/prime-digests.sha256``), over every GF(p) of
  ``PRIME_FIELDS``: GF(5), GF(7), GF(31), GF(10007) and GF(2^31 - 1):
  - ``random``: three seeded ``random_sl(F, n)`` inputs for each n in
    2..8;
  - ``scalar``: lambda I_n for every lambda with lambda^n = 1, n in
    2..8, over GF(5), GF(7) and GF(31) (over GF(5), 2 I_n and 3 I_n
    with 4 | n take the similarity of ``similarity_to_diagonal``);
  - ``structured``: the inputs of ``structured_corpus``, n 3..7, over
    GF(5), GF(7) and GF(31).

``wide_conjugator`` and ``structured_corpus`` live in
``tests/corpora.py``, which this script loads by path and
``tests/test_sourour.py`` imports.

For each case it records the SHA-256 of the input as a matrix file
(``matrix_to_text``) and of the certificate bytes
``factorization_to_json`` returns for it, as one line ``<case> <input
digest> <certificate digest>`` of the corpus's file (not ``.json`` or
``.txt``, which name the golden certificates and inputs).  A case of a
corpus with several fields is named after its field too.  The input
digest tells a change of the inputs (a sampler change) apart from a
change of the certificates.

Regenerate only when a change is meant to alter certificate bytes, and
say so in CHANGES.md.

Usage:
    PYTHONPATH=src python scripts/make_q_digests.py [--corpus Q|ext|prime]
        [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

EXT_FIELDS = ("GF(4)", "GF(8)", "GF(9)", "GF(16)", "GF(25)", "GF(27)",
              "GF(8;1,0,1,1)", "GF(243;1,0,0,0,2,1)",
              "GF(256;1,1,0,1,1,0,0,0,1)")
PRIME_FIELDS = ("GF(5)", "GF(7)", "GF(31)", "GF(10007)", "GF(2147483647)")
# (digest file, fields) of each corpus
CORPORA = {"Q": (GOLDEN / "Q-digests.sha256", ("Q",)),
           "ext": (GOLDEN / "ext-digests.sha256", EXT_FIELDS),
           "prime": (GOLDEN / "prime-digests.sha256", PRIME_FIELDS)}

# (sizes, inputs per size) of the random cases
RANDOM = {"Q": (range(2, 11), 5), "ext": (range(2, 8), 3),
          "prime": (range(2, 9), 3)}
# (sizes, fields) of the scalar cases
SCALAR = {"Q": (range(0), ()), "ext": (range(2, 8), EXT_FIELDS),
          "prime": (range(2, 9), PRIME_FIELDS[:3])}
# the fields of the structured cases
STRUCTURED = {"Q": ("Q",), "ext": EXT_FIELDS[:6], "prime": PRIME_FIELDS[:3]}
WIDE = ((64, (3, 4, 5, 6)), (500, (3, 4, 5)))
STRUCTURED_SIZES = range(3, 8)


def _corpora():
    spec = importlib.util.spec_from_file_location(
        "corpora", ROOT / "tests" / "corpora.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases(corpus: str = "Q"):
    """(case name, input matrix) over the whole corpus, in order."""
    from u2factor.field import parse_field_spec
    from u2factor.linalg import diagonal
    from u2factor.sampling import random_sl

    corpora = _corpora()
    fields = CORPORA[corpus][1]
    sizes, per_size = RANDOM[corpus]
    scalar_sizes, scalar_fields = SCALAR[corpus]
    for spec in fields:
        F = parse_field_spec(spec)
        # the Q corpus keeps the names and seeds it had as the only one
        tag = "" if len(fields) == 1 else f"{spec}/"
        for n in sizes:
            for i in range(per_size):
                yield f"{tag}random-n{n}-{i}", random_sl(
                    F, n, random.Random(f"q-digests:{tag}{n}:{i}"))
        if spec == "Q":
            for bits, wide_sizes in WIDE:
                for n in wide_sizes:
                    rng = random.Random(f"q-digests:wide:{bits}:{n}")
                    A = random_sl(F, n, rng)
                    P = corpora.wide_conjugator(F, n, bits, rng)
                    yield f"wide{bits}-n{n}", P @ A @ P.inverse()
        if spec in scalar_fields:
            for n in scalar_sizes:
                for i, lam in enumerate(F.nonzero_elements()):
                    if lam ** n == F.one():
                        yield f"{tag}scalar-n{n}-{i}", diagonal(F, [lam] * n)
        if spec in STRUCTURED[corpus]:
            for n in STRUCTURED_SIZES:
                for i, A in enumerate(corpora.structured_corpus(F, n)):
                    yield f"{tag}structured-n{n}-{i}", A


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    from u2factor import factor, factorization_to_json, matrix_to_text

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", choices=sorted(CORPORA), default="Q")
    ap.add_argument("--out", help="the digest file to write (default: the "
                    "corpus's file under tests/golden)")
    args = ap.parse_args(argv)
    lines = [f"{name} {sha256(matrix_to_text(A))} "
             f"{sha256(factorization_to_json(factor(A)))}\n"
             for name, A in cases(args.corpus)]
    out = Path(args.out) if args.out else CORPORA[args.corpus][0]
    out.write_text("".join(lines), encoding="utf-8")
    print(f"{len(lines)} cases")
    return 0


def read_digests(path) -> dict:
    """{case: (input digest, certificate digest)} from a digest file."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, given, cert = line.split()
        out[name] = (given, cert)
    return out


if __name__ == "__main__":
    raise SystemExit(main())
