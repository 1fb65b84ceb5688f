"""``factor`` checks every certificate once, at the end, with plain ``if``
checks; these tests run it under ``python -O``, where ``assert`` is gone,
and feed it broken certificates from a patched route.  One more test
parses every library module and finds no ``assert`` statement, so no
check of the library goes away under ``-O``."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = textwrap.dedent("""
    import json, sys
    assert False, "asserts must be stripped"
    from u2factor import cli, factor_sln
    from u2factor.field import GF
    from u2factor.linalg import Matrix
    from u2factor.unipotent import (CommutatorPair, Factorization,
                                    VerificationFailed, invert_factorization,
                                    verify)

    F = GF(7)
    A = Matrix.from_ints(F, [[0, 6], [1, 3]])
    route = factor_sln.factor_sl2

    def wrong_pair(M):
        f = route(M)
        x = f.pairs[0].x
        return Factorization(f.target, (CommutatorPair(x, x),) + f.pairs[1:],
                             f.route)

    def wrong_target(M):
        return invert_factorization(route(M))

    def too_many_pairs(M):
        f = route(M)
        p = f.pairs[0]
        extra = (p, CommutatorPair(p.y, p.x))  # [X, Y][Y, X] = I
        return Factorization(f.target, f.pairs + extra, f.route)

    def outcome(M):
        try:
            f = factor_sln.factor(M)
        except VerificationFailed as exc:
            return {"raised": True, "failures": [n for n, _ in
                                                 exc.report.failures()]}
        return {"raised": False, "passed": verify(f).passed}
""")


def run_optimized(body: str, *args: str) -> dict:
    """Run PRELUDE + body under ``python -O``; the body prints one JSON
    object as its last line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PRELUDE + textwrap.dedent(body), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("patch, failure", [
    ("wrong_pair", "product equals target"),
    ("wrong_target", "target equals input"),
    ("too_many_pairs", "pair count <= 2"),
])
def test_factor_raises_under_O(patch, failure):
    got = run_optimized(f"""
        factor_sln.factor_sl2 = {patch}
        print(json.dumps(outcome(A)))
    """)
    assert got["raised"]
    assert got["failures"] == [failure]


def test_cli_factor_exit_1_under_O(tmp_path):
    src = tmp_path / "a.txt"
    src.write_text("GF(7)\n2\n0 6\n1 3\n")
    got = run_optimized("""
        import io
        from contextlib import redirect_stdout
        factor_sln.factor_sl2 = wrong_pair
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["factor", "--input", sys.argv[1]])
        print(json.dumps({"code": code, "out": out.getvalue()}))
    """, str(src))
    assert got["code"] == 1
    lines = got["out"].splitlines()
    assert "FAIL product equals target (recomposition mismatch)" in lines
    assert lines[-1] == "FAIL"
    assert "pairs:" not in got["out"]


def test_clean_inputs_factor_under_O():
    got = run_optimized("""
        import random
        from u2factor.field import rationals
        from u2factor.sampling import random_sl
        rng = random.Random(3)
        results = [outcome(A)]
        for field, n in ((GF(5), 2), (GF(4), 4), (GF(7), 5), (GF(31), 6),
                         (rationals(), 3)):
            results.append(outcome(random_sl(field, n, rng)))
        print(json.dumps(results))
    """)
    assert got == [{"raised": False, "passed": True}] * 6


def test_wrong_handed_over_inverse_caught_under_O():
    """A similarity helper's inverse is used as given; the final check
    catches a wrong one."""
    got = run_optimized("""
        import importlib
        factor_sl2 = importlib.import_module("u2factor.factor_sl2")
        helper = factor_sl2.companion_similarity_2x2
        calls = []

        def wrong_inverse(M):
            calls.append(M)
            P, P_inv = helper(M)
            return P, P_inv.scalar_mul(F.element(2))

        factor_sl2.companion_similarity_2x2 = wrong_inverse
        print(json.dumps(dict(outcome(A), calls=len(calls))))
    """)
    assert got["calls"] > 0
    assert got["raised"]
    assert "product equals target" in got["failures"]


@pytest.mark.parametrize("memo, field, n, seed", [
    ("diag_commutator", 31, 3, 0),
    ("jn1_factor", 5, 3, 1),
])
def test_wrong_memoised_block_caught_under_O(memo, field, n, seed):
    """A memoised block is shared as it is; the final check catches a
    wrong one."""
    got = run_optimized(f"""
        import random
        from u2factor.sampling import random_sl
        block = factor_sln.{memo}
        calls = []

        def wrong_block(*args):
            calls.append(args)
            f = block(*args)
            x = f.pairs[0].x
            return Factorization(f.target, (CommutatorPair(x, x),) + f.pairs[1:],
                                 f.route)

        factor_sln.{memo} = wrong_block
        M = random_sl(GF({field}), {n}, random.Random({seed}))
        print(json.dumps(dict(outcome(M), calls=len(calls))))
    """)
    assert got["calls"] > 0
    assert got["raised"]
    assert got["failures"] == ["product equals target"]


def test_no_assert_in_the_library():
    paths = sorted((SRC / "u2factor").rglob("*.py"))
    if not paths:
        pytest.fail(f"no module found under {SRC / 'u2factor'}")
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    if found:
        pytest.fail(f"assert statements in the library: {found}")
