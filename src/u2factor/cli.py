"""Command-line surface: factor, verify, bounds, oracle reports, selftest.

Exit codes: 0 success, 1 verification/check failure, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import lru_cache

from . import oracle
from .field import FieldError, parse_field_spec, parse_int, GF, rationals
from .linalg import LinalgError, Matrix, diagonal, jordan_block, \
    parse_matrix_text
from .unipotent import (CertificateError, CommutatorPair, Factorization,
                        VerificationFailed, verify, factorization_to_json,
                        unchecked_factorization_from_json)
from .sourour import SourourError
from .factor_sl2 import FactorError
from .factor_sln import factor, promised_max_pairs
from .sampling import random_sl


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _cmd_factor(args) -> int:
    field = parse_field_spec(args.field) if args.field else None
    A = parse_matrix_text(_read_text(args.input), field)
    try:
        f = factor(A)
    except VerificationFailed as exc:
        print(exc.report.text())
        return 1
    payload = factorization_to_json(f)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"certificate written to {args.json}")
    else:
        sys.stdout.write(payload)
    print(f"pairs: {f.pair_count()}")
    print("route: " + " | ".join(f.route))
    return 0


def _cmd_verify(args) -> int:
    # A well-formed certificate whose pairs are not U2 is a failed check
    # (exit 1), so the loader checks the shape only and verify reports.
    f = unchecked_factorization_from_json(_read_text(args.cert))
    report = verify(f)
    print(report.text())
    return 0 if report.passed else 1


def _cmd_bounds(args) -> int:
    field = parse_field_spec(args.field)
    bound = promised_max_pairs(field, args.n)
    print(f"field: {field.spec_string()}")
    print(f"n: {args.n}")
    print(f"max_pairs: {bound}")
    return 0


def _build_table(args):
    field = parse_field_spec(args.field)
    return oracle.enumerate_group(field, args.n, budget=args.budget)


def _cmd_oracle_lengths(args) -> int:
    table = _build_table(args)
    sys.stdout.write(oracle.table_to_csv(table))
    return 0


def _cmd_oracle_derived(args) -> int:
    table = _build_table(args)
    members = oracle.derived_subgroup(table)
    lines = ["id,matrix,in_derived"]
    for eid, A in enumerate(table.elements):
        tokens = ";".join(" ".join(row) for row in A.tokens())
        lines.append(f"{eid},{tokens},{1 if eid in members else 0}")
    sys.stdout.write("\n".join(lines) + "\n")
    print(f"# derived subgroup order: {len(members)}", file=sys.stderr)
    return 0


def _cmd_oracle_check_trace(args) -> int:
    table = _build_table(args)
    report = oracle.check_trace_characterization(table)
    print(report.text())
    return 0 if report.passed else 1


def _selftest_cases():
    """(name, matrix) factor-verify round trips with known answers."""
    f7 = GF(7)
    f5 = GF(5)
    f4 = GF(4)
    f3 = GF(3)
    q = rationals()
    yield ("GF(7) companion, 1 pair",
           Matrix.from_ints(f7, [[0, 6], [1, 3]]), 1)
    yield ("GF(5) -I, 3 pairs",
           Matrix.from_ints(f5, [[-1, 0], [0, -1]]), 3)
    yield ("GF(3) derived element", Matrix.from_ints(f3, [[1, 1], [1, 2]]), 1)
    yield ("GF(4) J_3(1)", jordan_block(f4, 3, f4.one()), None)
    yield ("Q diag(4, 1/4)",
           diagonal(q, [q.element(4), q.element(4).inverse()]), 1)
    yield ("GF(7) 3x3 Jordan block", jordan_block(f7, 3, f7.one()), None)
    # its unipotent split meets a scalar residual and fixes its basis
    yield ("GF(5) diag(1, 4, 4)",
           Matrix.from_ints(f5, [[1, 0, 0], [0, 4, 0], [0, 0, 4]]), 4)


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + name
              + (f" ({detail})" if detail else ""))
        if not ok:
            failures += 1

    for name, A, expect_pairs in _selftest_cases():
        f = factor(A)
        rep = verify(f)
        ok = rep.passed and (expect_pairs is None
                             or f.pair_count() == expect_pairs)
        check(f"factor/verify {name}", ok,
              f"pairs={f.pair_count()}" if ok else rep.text())
    # X = 2I is not U2, so verify takes the det of this pair's value,
    # which is 0: both checks must fail.
    f5 = GF(5)
    two_i = diagonal(f5, [f5.element(2)] * 2)
    j2 = jordan_block(f5, 2, f5.one())
    tampered = Factorization(j2, (CommutatorPair.unchecked(two_i, j2),), ())
    failed = [name for name, _ in verify(tampered).failures()]
    check("GF(5) certificate with X = 2I fails 'is U2' and 'det=1'",
          "pair[0].X is U2" in failed and "pair[0] value det=1" in failed,
          f"failed: {failed}")
    # A valid certificate with one target entry off by one: only the
    # final product check fails, on its packed (GF) or cleared-integer (Q)
    # zero test.
    for field in (GF(7), GF(9), rationals()):
        f = factor(jordan_block(field, 3, field.one()))
        arith, rows = field.arith, f.target.reps()
        rows[0][2] = arith.add(rows[0][2], arith.one)
        wrong = Factorization(Matrix.from_reps(field, rows), f.pairs, f.route)
        failed = [name for name, _ in verify(wrong).failures()]
        check(f"{field.spec_string()} certificate with a wrong target "
              f"fails only 'product equals target'",
              failed == ["product equals target"], f"failed: {failed}")
    for q, want in ((2, 3), (3, 8)):
        table = oracle.enumerate_group(GF(q), 2)
        got = len(oracle.derived_subgroup(table))
        check(f"derived subgroup order SL_2(F_{q})", got == want,
              f"{got} vs {want}")
    for q in (2, 3, 4, 5):
        table = oracle.enumerate_group(GF(q), 2)
        rep = oracle.check_trace_characterization(table)
        check(f"trace characterization q={q}", rep.passed)
    rng = random.Random(args.seed)
    for field in (GF(4), GF(7), GF(9), rationals()):
        for _ in range(5):
            A = random_sl(field, 3, rng)
            f = factor(A)
            rep = verify(f)
            check(f"random SL_3({field.spec_string()})", rep.passed,
                  f"pairs={f.pair_count()}")
    print("PASS" if failures == 0 else f"FAIL ({failures})")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="u2factor")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, field_required=True):
        sp.add_argument("--field", required=field_required,
                        help="field spec: GF(7), GF(9;1,0,1), or Q")

    sp = sub.add_parser("factor", help="factor a matrix, emit a certificate")
    sp.add_argument("--field", help="field spec (optional if in the file)")
    sp.add_argument("--input", required=True, help="matrix file or -")
    sp.add_argument("--json", help="certificate output path (default stdout)")
    sp.set_defaults(fn=_cmd_factor)

    sp = sub.add_parser("verify", help="re-check a certificate")
    sp.add_argument("--cert", required=True, help="certificate JSON or -")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("bounds", help="promised pair-count bound")
    common(sp)
    sp.add_argument("--n", required=True)
    sp.set_defaults(fn=_cmd_bounds)

    for name, fn in (("oracle-lengths", _cmd_oracle_lengths),
                     ("oracle-derived", _cmd_oracle_derived),
                     ("oracle-check-trace", _cmd_oracle_check_trace)):
        sp = sub.add_parser(name)
        common(sp)
        sp.add_argument("--n", default="2")
        sp.add_argument("--budget", default=str(oracle.DEFAULT_BUDGET))
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("selftest", help="run the embedded example suite")
    sp.add_argument("--seed", default="0")
    sp.set_defaults(fn=_cmd_selftest)
    return p


_INT_OPTIONS = ("n", "budget", "seed")


def _read_int_options(args):
    """Replace the integer options' text by its value, read by the token
    grammar, so that a malformed one is a one-line error, as a matrix
    entry is."""
    for name in _INT_OPTIONS:
        if name in vars(args):
            try:
                setattr(args, name, parse_int(getattr(args, name)))
            except FieldError as exc:
                raise UsageError(f"--{name}: {exc}")


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _read_int_options(args)
        return args.fn(args)
    except (UsageError, FieldError, LinalgError, CertificateError,
            SourourError, FactorError, oracle.OracleError,
            ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
