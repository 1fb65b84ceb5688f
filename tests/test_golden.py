"""``factor`` reproduces every certificate of the golden corpus byte for
byte.

The corpus in ``tests/golden/`` was written by ``scripts/make_golden.py``:
one seeded SL_n input per (field, n), as ``<case>.txt``, and the bytes
``factorization_to_json`` returned for it, as ``<case>.json``.  The
checks are plain ``if`` statements, not ``assert``, so the test still
checks under ``python -O``.  The corpus is also factored once with every
memo cold and once warm, so a cached block cannot change a byte.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from u2factor import factor, factorization_to_json, parse_matrix_text
from u2factor.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _grid():
    spec = importlib.util.spec_from_file_location(
        "make_golden", ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [name for name, _, _ in module.cases()]


CASES = _grid()


def test_corpus_matches_grid():
    on_disk = sorted(p.stem for p in GOLDEN.glob("*.txt"))
    if on_disk != sorted(CASES):
        pytest.fail(f"golden inputs {on_disk} differ from the grid {CASES}")
    missing = [c for c in CASES if not (GOLDEN / f"{c}.json").exists()]
    if missing:
        pytest.fail(f"no certificate for {missing}")


@pytest.mark.parametrize("case", CASES)
def test_certificate_bytes(case):
    A = parse_matrix_text((GOLDEN / f"{case}.txt").read_text(encoding="utf-8"))
    got = factorization_to_json(factor(A))
    want = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    if got != want:
        diff = next(i for i, (a, b) in enumerate(
            zip(got.splitlines() + [""], want.splitlines() + [""])) if a != b)
        pytest.fail(f"{case}: certificate differs from the golden one at "
                    f"line {diff + 1}: {got.splitlines()[diff:diff + 1]} vs "
                    f"{want.splitlines()[diff:diff + 1]}")


def test_cold_and_warm_memos_agree(memos):
    inputs = {case: parse_matrix_text(
        (GOLDEN / f"{case}.txt").read_text(encoding="utf-8"))
        for case in CASES}
    cold = {}
    for case, A in inputs.items():
        for memo in memos.values():
            memo.cache_clear()
        cold[case] = factorization_to_json(factor(A))
    warm = {case: factorization_to_json(factor(A))
            for case, A in inputs.items()}
    for case in CASES:
        want = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
        if cold[case] != want:
            pytest.fail(f"{case}: cold certificate differs from the golden one")
        if warm[case] != want:
            pytest.fail(f"{case}: warm certificate differs from the golden one")
    if not any(memo.cache_info().hits for memo in memos.values()):
        pytest.fail("the warm pass hit no memo")


@pytest.mark.parametrize("case", CASES)
def test_indented_certificate_verifies(case, tmp_path, capsys):
    """A certificate written with the indented layout of earlier versions
    still loads and verifies from the command line."""
    cert = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert, indent=2) + "\n", encoding="utf-8")
    code = main(["verify", "--cert", str(path)])
    out = capsys.readouterr().out
    if code != 0 or not out.endswith("PASS\n"):
        pytest.fail(f"{case}: the indented certificate did not verify "
                    f"(exit {code})")
