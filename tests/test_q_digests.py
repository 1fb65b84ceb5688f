"""``factor`` reproduces every certificate of the digest corpora byte for
byte.

``scripts/make_q_digests.py`` lists the cases of two corpora and wrote
one digest file for each: the SHA-256 of each input as a matrix file and
of its certificate JSON.

- ``Q`` (``tests/golden/Q-digests.sha256``): seeded ``random_sl(Q, n)``
  inputs for n 2..10, inputs conjugated by a P with unrelated 64- and
  500-bit denominators, and the Q inputs of the structured corpus;
- ``ext`` (``tests/golden/ext-digests.sha256``): over GF(4), GF(8),
  GF(9), GF(16), GF(25), GF(27) and user moduli of GF(8), GF(243) and
  GF(256), seeded ``random_sl`` inputs for n 2..7, every lambda I_n with
  lambda^n = 1, and the structured corpus over the built-in fields.

The checks are plain ``if`` statements, not ``assert``, so the test
still checks under ``python -O``.
"""

import importlib.util
from pathlib import Path

import pytest

from u2factor import factor, factorization_to_json, matrix_to_text

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location(
        "make_q_digests", ROOT / "scripts" / "make_q_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_corpus(corpus: str, least: int):
    """Fail unless every case of the corpus has its recorded input and
    certificate digests, and the corpus has at least ``least`` cases."""
    script = _script()
    path = script.CORPORA[corpus][0]
    want = script.read_digests(path)
    if len(want) < least:
        pytest.fail(f"the corpus has only {len(want)} cases")
    seen, changed = [], []
    for name, A in script.cases(corpus):
        seen.append(name)
        if name not in want:
            pytest.fail(f"{name} is not in {path.name}")
        given, cert = want[name]
        if script.sha256(matrix_to_text(A)) != given:
            pytest.fail(f"{name}: the input differs from the recorded one")
        if script.sha256(factorization_to_json(factor(A))) != cert:
            changed.append(name)
    if changed:
        pytest.fail(f"certificate bytes differ on {len(changed)} cases: "
                    f"{changed}")
    if sorted(seen) != sorted(want):
        pytest.fail(f"recorded cases {sorted(set(want) - set(seen))} are "
                    f"not generated")


def test_q_certificate_digests():
    check_corpus("Q", 40)


def test_ext_certificate_digests():
    check_corpus("ext", 900)
