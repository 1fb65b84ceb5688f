"""``factor`` reproduces every certificate of the Q digest corpus byte for
byte.

``scripts/make_q_digests.py`` lists the cases (seeded ``random_sl(Q, n)``
inputs for n 2..10, inputs conjugated by a P with unrelated 64- and
500-bit denominators, and the Q inputs of the structured corpus) and
wrote ``tests/golden/Q-digests.sha256``: the SHA-256 of each input as a
matrix file and of its certificate JSON.  The checks are plain ``if``
statements, not ``assert``, so the test still checks under
``python -O``.
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


def test_q_certificate_digests():
    script = _script()
    want = script.read_digests()
    if len(want) < 40:
        pytest.fail(f"the corpus has only {len(want)} cases")
    seen, changed = [], []
    for name, A in script.cases():
        seen.append(name)
        if name not in want:
            pytest.fail(f"{name} is not in {script.DIGESTS.name}")
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
