import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from u2factor.cli import main
from u2factor.factor_sln import factor
from u2factor.field import GF
from u2factor.linalg import Matrix
from u2factor.unipotent import factorization_to_dict


MATRIX_GF7 = "GF(7)\n2\n0 6\n1 3\n"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_factor_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        path.write_text(MATRIX_GF7)
        code, out, _ = run(capsys, "factor", "--input", str(path))
        assert code == 0
        assert "pairs: 1" in out
        assert "thm3.2(alpha=1)" in out

    def test_factor_verify_round_trip(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text(MATRIX_GF7)
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "factor", "--input", str(src),
                           "--json", str(cert))
        assert code == 0 and cert.exists()
        code, out, _ = run(capsys, "verify", "--cert", str(cert))
        assert code == 0
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize("text", [
        "GF(5)\n3\n1 0 0\n0 4 0\n0 0 4\n",
        "GF(5)\n3\n4 0 0\n0 0 1\n0 1 0\n",
    ], ids=["diag-1-4-4", "4-and-a-swap"])
    def test_scalar_residual_round_trip(self, tmp_path, capsys, text):
        # the unipotent split of these meets a scalar residual that no
        # pairing splits, and fixes its basis
        src = tmp_path / "a.txt"
        src.write_text(text)
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "factor", "--input", str(src),
                           "--json", str(cert))
        assert code == 0 and "pairs: 4" in out
        assert "backtracks=1" in out
        code, out, _ = run(capsys, "verify", "--cert", str(cert))
        assert code == 0 and out.strip().endswith("PASS")

    def test_field_flag_overrides(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text("2\n1 1\n0 1\n")  # no field line
        code, out, _ = run(capsys, "factor", "--field", "GF(9)",
                           "--input", str(src))
        assert code == 0

    def test_deterministic_output(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text(MATRIX_GF7)
        outputs = []
        for name in ("c1.json", "c2.json"):
            cert = tmp_path / name
            run(capsys, "factor", "--input", str(src), "--json", str(cert))
            outputs.append(cert.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_matrix_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("GF(7)\n2\n1 2 3\n")
        code, _, err = run(capsys, "factor", "--input", str(src))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "factor", "--input", "/nonexistent")
        assert code == 2

    def test_non_sl_input_exit_2(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text("GF(7)\n2\n2 0\n0 2\n")  # det = 4
        code, _, err = run(capsys, "factor", "--input", str(src))
        assert code == 2

    def test_q_entries_beyond_int_str_limit(self, tmp_path, capsys):
        # diag(N, 1/N) with a 4400-digit N: longer than the default
        # sys.get_int_max_str_digits() of 4300 in both directions.
        N = "1" + "0" * 4398 + "7"
        src, cert = tmp_path / "big.txt", tmp_path / "cert.json"
        src.write_text(f"Q\n2\n{N} 0\n0 1/{N}\n")
        code, _, err = run(capsys, "factor", "--input", str(src),
                           "--json", str(cert))
        assert code == 0 and err == ""
        assert N in cert.read_text()
        code, out, err = run(capsys, "verify", "--cert", str(cert))
        assert code == 0 and "PASS" in out and err == ""

    @pytest.mark.parametrize("token", ["1e5", "0.5", "1_0"])
    def test_q_token_outside_grammar_exit_2(self, tmp_path, capsys, token):
        src = tmp_path / "bad.txt"
        src.write_text(f"Q\n2\n1 {token}\n0 1\n")  # in SL_2 if parsed
        code, out, err = run(capsys, "factor", "--input", str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(token) in err

    @pytest.mark.parametrize("text", [
        "GF(7)\n2\n1 1_0\n0 1\n",        # underscore in a GF(p) entry
        "GF(7)\n2\n1 \u0663\n0 1\n",      # non-ASCII digit, GF(p)
        "GF(9)\n2\n1 \u0663\n0 1\n",      # ... bare GF(p^k) integer
        "GF(9)\n2\n1 (\u0663,1)\n0 1\n",  # ... GF(p^k) coefficient
        "GF(\u0667)\n2\n1 1\n0 1\n",       # ... field spec
    ])
    def test_integer_token_outside_grammar_exit_2(self, tmp_path, capsys,
                                                  text):
        # each matrix is in SL_2 if its tokens are read through int()
        src = tmp_path / "bad.txt"
        src.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "factor", "--input", str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_dimension_outside_grammar_exit_2(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_text("GF(7)\n\u00b2\n1 0\n0 1\n", encoding="utf-8")
        code, out, err = run(capsys, "factor", "--input", str(src))
        assert code == 2 and out == ""
        assert err.startswith("error: bad integer token") \
            and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "GF(7)\n0\n",                    # n = 0
        "GF(7)\n3\n1 0 0\n0 1 0\n",     # truncated row list
        "GF(7)\n2\n1 0\n0 1\n1 1\n",   # extra trailing row
        "Q\n1\n1/0\n",                  # zero denominator
    ])
    def test_malformed_matrix_one_line_exit_2(self, tmp_path, capsys, text):
        src = tmp_path / "bad.txt"
        src.write_text(text)
        code, out, err = run(capsys, "factor", "--input", str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestVerify:
    @pytest.mark.parametrize("payload", [[], [1, 2], "cert", 3, None])
    def test_non_object_cert_exit_2(self, tmp_path, capsys, payload):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "--cert", str(cert))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_tampered_cert_exit_1(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text(MATRIX_GF7)
        cert = tmp_path / "cert.json"
        run(capsys, "factor", "--input", str(src), "--json", str(cert))
        payload = json.loads(cert.read_text())
        payload["target"][0][0] = "5"  # product no longer matches
        cert.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", "--cert", str(cert))
        assert code == 1
        assert "FAIL" in out


    def test_non_u2_member_exit_1(self, tmp_path, capsys):
        """A well-formed certificate whose pair member is not U2 fails
        verification (exit 1) instead of being refused as input."""
        src = tmp_path / "a.txt"
        src.write_text(MATRIX_GF7)
        cert = tmp_path / "cert.json"
        run(capsys, "factor", "--input", str(src), "--json", str(cert))
        payload = json.loads(cert.read_text())
        payload["pairs"][0]["x"][0][0] = "3"  # no longer U2
        cert.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "--cert", str(cert))
        assert code == 1 and err == ""
        assert "FAIL pair[0].X is U2" in out
        assert out.strip().endswith("FAIL")


class TestBounds:
    def test_bounds_output(self, capsys):
        code, out, _ = run(capsys, "bounds", "--field", "GF(5)", "--n", "2")
        assert code == 0
        assert "max_pairs: 3" in out
        code, out, _ = run(capsys, "bounds", "--field", "GF(8)", "--n", "6")
        assert "max_pairs: 2" in out

    def test_unsupported_exit_2(self, capsys):
        code, _, err = run(capsys, "bounds", "--field", "GF(3)", "--n", "4")
        assert code == 2


class TestFieldSizeBound:
    @pytest.mark.parametrize("argv", [
        ("bounds", "--field", "GF(361;2,1,1)", "--n", "2"),
        ("factor", "--field", "GF(361;2,1,1)", "--input", "{src}"),
    ])
    def test_large_extension_refused_fast(self, tmp_path, capsys, argv):
        src = tmp_path / "a.txt"
        src.write_text("2\n1 1\n0 1\n")
        start = time.perf_counter()
        code, out, err = run(capsys, *(a.format(src=src) for a in argv))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", ["GF(7;1,2)", "GF(7;5)"])
    def test_prime_field_with_modulus_refused(self, capsys, spec):
        code, out, err = run(capsys, "bounds", "--field", spec, "--n", "3")
        assert code == 2 and out == ""
        assert err == "error: GF(7) is a prime field and takes no modulus\n"

    def test_degree_8_modulus_factors(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text("GF(256;1,1,0,1,1,0,0,0,1)\n2\n1 1\n0 1\n")
        code, out, _ = run(capsys, "factor", "--input", str(src))
        assert code == 0
        assert "pairs: 2" in out

    def test_degree_8_modulus_factors_fast(self, tmp_path, capsys):
        # The field is parsed afresh, so this pays for its tables too.
        src = tmp_path / "a.txt"
        src.write_text("GF(256;1,1,0,1,1,0,0,0,1)\n2\n"
                       "(0,0,1,1,0,1,0,0) (0,1,0,0,1,1,1,1)\n"
                       "(1,0,1,0,1,0,0,1) (1,0,1,1,0,1,0,0)\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "factor", "--input", str(src))
        assert time.perf_counter() - start < 0.3
        assert code == 0 and "pairs: " in out


class TestOracleCommands:
    def test_lengths_csv_gf5(self, capsys):
        code, out, _ = run(capsys, "oracle-lengths", "--field", "GF(5)",
                           "--n", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "id,matrix,trace,is_u2,bfs_length"
        assert len(lines) == 121
        row = next(l for l in lines[1:] if l.split(",")[1] == "4 0;0 4")
        assert row.rsplit(",", 1)[1] == "3"  # length(-I) = 3 over GF(5)

    def test_derived_csv(self, capsys):
        code, out, err = run(capsys, "oracle-derived", "--field", "GF(3)",
                             "--n", "2")
        assert code == 0
        assert "derived subgroup order: 8" in err
        members = [l for l in out.strip().split("\n")[1:]
                   if l.endswith(",1")]
        assert len(members) == 8

    def test_check_trace(self, capsys):
        code, out, _ = run(capsys, "oracle-check-trace", "--field", "GF(4)",
                           "--n", "2")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_budget_exit_2(self, capsys):
        code, _, err = run(capsys, "oracle-lengths", "--field", "GF(7)",
                           "--n", "3", "--budget", "100")
        assert code == 2


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "7")
        assert code == 0
        assert out.strip().endswith("PASS")

    def test_selftest_checks_wrong_targets(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "1")
        lines = [line for line in out.splitlines() if "wrong target" in line]
        assert code == 0 and len(lines) == 3
        assert all(line.startswith("ok ") for line in lines)
        assert [line.split()[1] for line in lines] == \
            ["GF(7)", "GF(9;1,0,1)", "Q"]


class TestIntegerOptions:
    """--n, --budget and --seed are integer tokens, as a matrix file's
    dimension line is: an optional sign and ASCII digits."""

    def test_signed_ascii_values(self, capsys):
        code, out, _ = run(capsys, "bounds", "--field", "GF(7)", "--n", "+3")
        assert code == 0 and "n: 3\n" in out

    @pytest.mark.parametrize("argv", [
        ("bounds", "--field", "GF(7)", "--n", "\u0663"),
        ("bounds", "--field", "GF(7)", "--n", "1_0"),
        ("bounds", "--field", "GF(7)", "--n", "x"),
        ("oracle-lengths", "--field", "GF(2)", "--n", "\u0662"),
        ("oracle-lengths", "--field", "GF(2)", "--budget", "1_000"),
        ("oracle-derived", "--field", "GF(2)", "--budget", "1e3"),
        ("selftest", "--seed", "\u0663"),
        ("selftest", "--seed", "1_0"),
    ])
    def test_malformed_value_one_line_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {argv[-2]}: bad integer token")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("oracle-lengths", "--field", "GF(2)", "--n", "0"),
        ("oracle-derived", "--field", "GF(3)", "--n", "-1"),
        ("oracle-check-trace", "--field", "GF(2)", "--n", "0"),
        ("bounds", "--field", "Q", "--n", "0"),
        ("bounds", "--field", "GF(7)", "--n", "-2"),
    ])
    def test_nonpositive_n_one_line_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: need n >= 1, got {argv[-1]}\n"


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        code = main([])
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys):
        code = main(["bounds", "--field", "GF(5)"])  # missing --n
        assert code == 2

    def test_consecutive_calls_match_fresh_processes(self, tmp_path, capsys):
        """main builds its parser once per process; calls that share it
        give the codes and output of one fresh process per call."""
        src = tmp_path / "a.txt"
        src.write_text(MATRIX_GF7)
        calls = [["bounds", "--field", "GF(5)", "--n", "2"],
                 ["factor", "--input", str(src)],
                 ["bounds", "--field", "GF(5)", "--nn", "2"],
                 ["bounds", "--field", "GF(9)", "--n", "4"]]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        fresh = []
        for argv in calls:
            done = subprocess.run(
                [sys.executable, "-m", "u2factor.cli", *argv], env=env,
                capture_output=True, text=True, timeout=120)
            fresh.append((done.returncode, done.stdout, done.stderr))
        shared = [run(capsys, *argv) for argv in calls]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0]


# -- fuzzing the two parsers through main ---------------------------------

def _main_on_file(text, *argv):
    """Exit code and stderr of main with ``text`` as the file argument."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv) + [str(path)])
    return code, err.getvalue()


TOKENS = st.one_of(st.integers(-3, 9).map(str),
                   st.sampled_from(["1/2", "1/0", "-2/3", "(1,0)", "(1,2,3)",
                                    "(0,1)", "x", "-", "1.5", "()"]))
MATRIX_TEXT = st.one_of(
    st.builds(lambda head, n, rows: head + n + "\n" + "\n".join(rows),
              st.sampled_from(["", "GF(2)\n", "GF(3)\n", "GF(7)\n",
                               "GF(9)\n", "Q\n", "GF(6)\n", "GF(x)\n"]),
              st.one_of(st.integers(-2, 4).map(str),
                        st.sampled_from(["", "x", "2 2", "1/2"])),
              st.lists(st.lists(TOKENS, max_size=4).map(" ".join),
                       max_size=5)),
    st.text(max_size=40))

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=10)

GOOD_CERT = factorization_to_dict(
    factor(Matrix.from_ints(GF(7), [[0, 6], [1, 3]])))
CERT_KEYS = st.sampled_from(sorted(GOOD_CERT))


@st.composite
def certificates(draw):
    """Arbitrary JSON, or a good certificate with one key replaced or
    dropped, or one matrix entry replaced."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(JSON)
    cert = json.loads(json.dumps(GOOD_CERT))
    if kind == 1:
        key = draw(CERT_KEYS)
        if draw(st.booleans()):
            del cert[key]
        else:
            cert[key] = draw(JSON)
        return cert
    block = draw(st.sampled_from([cert["target"], cert["pairs"][0]["x"],
                                  cert["pairs"][0]["y"]]))
    row = draw(st.integers(0, 1))
    block[row][draw(st.integers(0, 1))] = draw(JSON | TOKENS)
    return cert


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestParserFuzz:
    @FUZZ
    @given(MATRIX_TEXT)
    def test_matrix_text(self, text):
        code, err = _main_on_file(text, "factor", "--input")
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @FUZZ
    @given(certificates())
    def test_certificate_json(self, cert):
        code, err = _main_on_file(json.dumps(cert), "verify", "--cert")
        assert code in (0, 1, 2)
        assert "Traceback" not in err
