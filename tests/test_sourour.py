import importlib
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from u2factor import linalg, sourour, unipotent, verify
from u2factor.factor_sln import factor
from u2factor.field import GF, rationals, parse_field_spec
from u2factor.linalg import (Matrix, identity, diagonal, charpoly,
                             diagonalize_triangular, similarity_to_diagonal,
                             single_block_jordan, unipotent_jordan,
                             ScalarInput, SpectrumMismatch, NotUnipotent,
                             IndependentSet)
from u2factor.poly import Poly
from u2factor.sampling import random_sl
from u2factor.sourour import (sourour_factor, SourourError,
                              DeterminantMismatch, ConstructionFailed,
                              _BACKTRACK_BUDGET, _Basis, _Dead,
                              _candidate_supports, _match_scalar)

# the module, which the package's factor_sl2 function shadows
sl2_routes = importlib.import_module("u2factor.factor_sl2")


def random_prescription(F, n, det, rng):
    """Random nonzero (betas, gammas) with prod * prod == det."""
    nonzero = F.nonzero_elements() if F.is_finite else \
        tuple(F.element(v) for v in (-3, -2, -1, 1, 2, 3))
    vals = [rng.choice(nonzero) for _ in range(2 * n - 1)]
    prod = F.one()
    for v in vals:
        prod = prod * v
    vals.append(det * prod.inverse())
    return tuple(vals[:n]), tuple(vals[n:])


def check_split(A, betas, gammas):
    split = sourour_factor(A, betas, gammas)
    assert split.b @ split.c == A
    assert charpoly(split.b) == Poly.from_roots(A.field, betas)
    assert charpoly(split.c) == Poly.from_roots(A.field, gammas)
    return split


class TestRandomPrescriptions:
    @pytest.mark.parametrize("q", [5, 7, 9])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_splits(self, q, n):
        F = GF(q)
        rng = random.Random(1000 * q + n)
        for _ in range(30):
            A = random_sl(F, n, rng)
            while A.is_scalar():
                A = random_sl(F, n, rng)
            betas, gammas = random_prescription(F, n, A.det(), rng)
            check_split(A, betas, gammas)

    def test_rational_splits(self):
        F = rationals()
        rng = random.Random(99)
        for n in (2, 3):
            for _ in range(10):
                A = random_sl(F, n, rng)
                while A.is_scalar():
                    A = random_sl(F, n, rng)
                betas, gammas = random_prescription(F, n, A.det(), rng)
                check_split(A, betas, gammas)

    def test_repeated_eigenvalues(self):
        # all-ones prescription on a nonscalar SL matrix: unipotent split
        F = GF(7)
        A = Matrix.from_ints(F, [[2, 1, 0], [0, 4, 1], [0, 0, 1]])
        ones = (F.one(),) * 3
        split = check_split(A, ones, ones)
        n = A.n
        assert ((split.b - identity(F, n)) ** n).is_zero()


class TestValidation:
    def test_determinant_mismatch(self):
        F = GF(5)
        A = Matrix.from_ints(F, [[1, 1], [0, 1]])
        two = F.element(2)
        with pytest.raises(DeterminantMismatch):
            sourour_factor(A, (two, F.one()), (F.one(), F.one()))

    def test_scalar_rejected(self):
        F = GF(5)
        two = F.element(2)
        with pytest.raises(ScalarInput):
            sourour_factor(diagonal(F, [two, two]),
                           (two, two), (F.one(), F.one()))

    def test_zero_eigenvalue_rejected(self):
        F = GF(5)
        A = Matrix.from_ints(F, [[1, 1], [0, 1]])
        with pytest.raises(SourourError):
            sourour_factor(A, (F.zero(), F.one()), (F.one(), F.one()))

    def test_length_mismatch(self):
        F = GF(5)
        A = Matrix.from_ints(F, [[1, 1], [0, 1]])
        with pytest.raises(SourourError):
            sourour_factor(A, (F.one(),), (F.one(), F.one()))

    def test_route_tag(self):
        F = GF(7)
        A = Matrix.from_ints(F, [[0, 6], [1, 3]])
        two = F.element(2)
        spec = (two, two.inverse())
        split = sourour_factor(A, spec, spec)
        tag = split.route_tag(spec, spec)
        assert tag.startswith("sourour(betas=2,4;gammas=2,4;backtracks=")


def _diagonal_plus_corner(F, entries):
    """diag(entries) + E_1n."""
    rows = [[e if i == j else 0 for j in range(len(entries))]
            for i, e in enumerate(entries)]
    rows[0][-1] = 1
    return Matrix.from_ints(F, rows)


def _gf4_diag_www1():
    F = GF(4)
    w = F.generator()
    return diagonal(F, [w, w, w, F.one()])


def _gf31_minus_ones(n=16):
    F = GF(31)
    return Matrix.from_ints(F, [[(-1 if i < 2 else 1) if i == j else 0
                                 for j in range(n)] for i in range(n)])


# Valid inputs in SL_n(F), |F| >= 4, on the unipotent split route, for
# which the Sourour search exhausts its candidates and factor raises
# ConstructionFailed, though Sourour's theorem splits each of them.
# Strict: a search that stops failing on one of them turns its case into
# a failure, to be unpinned.
SOUROUR_FAILURES = {
    "GF5-diag-1-4-4": lambda: Matrix.from_ints(
        GF(5), [[1, 0, 0], [0, 4, 0], [0, 0, 4]]),
    "GF5-4-and-a-swap": lambda: Matrix.from_ints(
        GF(5), [[4, 0, 0], [0, 0, 1], [0, 1, 0]]),
    "GF4-diag-w-w-w-1": _gf4_diag_www1,
    "GF5-diag-4-4-1-1-1-plus-E15": lambda: _diagonal_plus_corner(
        GF(5), [4, 4, 1, 1, 1]),
    "GF31-n16-diag-minus-1-minus-1": _gf31_minus_ones,
}


@pytest.mark.xfail(raises=ConstructionFailed, strict=True)
@pytest.mark.parametrize("name", sorted(SOUROUR_FAILURES))
def test_valid_inputs_the_search_fails_on(name):
    A = SOUROUR_FAILURES[name]()
    assert A.det() == A.field.one() and not A.is_scalar()
    f = factor(A)
    assert verify(f).passed and f.target == A


# -- the dense split this module replaced, kept as a reference -------------
# Each level builds Q = [x, y, e_i, ...] as a dense matrix, inverts it by
# RREF and forms Q^-1 A Q, Q Bt Q^-1 and Q Ct Q^-1 with dense products.
# The structured split must give exactly the same B, C and backtracks.

def _old_candidate_vectors(field, m):
    one, zero = field.one(), field.zero()
    for i in range(m):
        vec = [zero] * m
        vec[i] = one
        yield tuple(vec)
    for i in range(m):
        for j in range(i + 1, m):
            vec = [zero] * m
            vec[i] = one
            vec[j] = one
            yield tuple(vec)


def _reps(vec):
    """A vector of FieldElements as the reps IndependentSet takes."""
    return [e.rep for e in vec]


def _old_match_scalar(lam, betas, gammas):
    """The matching as it was: every equal-valued gamma is retried."""
    if not betas:
        return []
    b = betas[0]
    for j, g in enumerate(gammas):
        if b * g == lam:
            rest = _old_match_scalar(lam, betas[1:],
                                     gammas[:j] + gammas[j + 1:])
            if rest is not None:
                return [g] + rest
    return None


class _DenseSearch:
    def __init__(self, budget=_BACKTRACK_BUDGET):
        self.budget = budget
        self.backtracks = 0

    def spend(self):
        self.backtracks += 1
        if self.backtracks > self.budget:
            raise ConstructionFailed("backtracking budget exhausted")

    def factor(self, A, betas, gammas):
        field, m = A.field, A.n
        if m == 1:
            if A[0, 0] != betas[0] * gammas[0]:
                raise _Dead
            return (Matrix(field, [[betas[0]]]),
                    Matrix(field, [[gammas[0]]]))
        if A.is_scalar():
            matched = _old_match_scalar(A[0, 0], list(betas), list(gammas))
            if matched is None:
                raise _Dead
            return (diagonal(field, betas), diagonal(field, matched))
        head_orders = [(0, 0)]
        head_orders += [(i, j) for i in range(len(betas))
                        for j in range(len(gammas)) if (i, j) != (0, 0)]
        tried_heads = set()
        for (hi, hj) in head_orders:
            b1, g1 = betas[hi], gammas[hj]
            if (b1, g1) in tried_heads:
                continue
            tried_heads.add((b1, g1))
            rest_b = betas[:hi] + betas[hi + 1:]
            rest_g = gammas[:hj] + gammas[hj + 1:]
            try:
                return self._step(A, b1, g1, rest_b, rest_g)
            except _Dead:
                self.spend()
        raise _Dead

    def _step(self, A, b1, g1, rest_b, rest_g):
        field, m = A.field, A.n
        mu = b1 * g1
        shifted = A - identity(field, m).scalar_mul(mu)
        one, zero = field.one(), field.zero()
        for x in _old_candidate_vectors(field, m):
            y = shifted.apply(x)
            span = IndependentSet(field, m)
            span.add(_reps(x))
            if not span.add(_reps(y)):
                continue
            cols = [x, y]
            for i in range(m):
                if len(cols) == m:
                    break
                e = tuple(one if t == i else zero for t in range(m))
                if span.add(_reps(e)):
                    cols.append(e)
            Q = Matrix(field, zip(*cols))
            Qinv = Q.inverse()
            At = Qinv @ A @ Q
            u = At.rows[0][1:]
            corrected = [list(r[1:]) for r in At.rows[1:]]
            corrected[0] = [a - ui * mu.inverse()
                            for a, ui in zip(corrected[0], u)]
            try:
                B1, C1 = self.factor(Matrix(field, corrected), rest_b, rest_g)
            except _Dead:
                self.spend()
                continue
            Bt = [[b1] + [zero] * (m - 1)]
            Bt += [[g1.inverse() if i == 0 else zero] + list(B1.rows[i])
                   for i in range(m - 1)]
            Ct = [[g1] + [ui * b1.inverse() for ui in u]]
            Ct += [[zero] + list(C1.rows[i]) for i in range(m - 1)]
            return (Q @ Matrix(field, Bt) @ Qinv,
                    Q @ Matrix(field, Ct) @ Qinv)
        raise _Dead


def distinct_prescription(F, n, det, rng):
    """(betas, gammas), each with n distinct entries, prod * prod == det."""
    pool = (F.nonzero_elements() if F.is_finite else
            tuple(F.element(Fraction(a, b)) for a in range(-9, 10) if a
                  for b in (1, 2, 3)))
    while True:
        betas = rng.sample(pool, n)
        gammas = rng.sample(pool, n - 1)
        prod = F.one()
        for v in betas + gammas:
            prod = prod * v
        gammas.append(det * prod.inverse())
        if len(set(gammas)) == n:
            return tuple(betas), tuple(gammas)


def repeated_prescription(F, n, det, rng):
    """Entries drawn from two values, the last fixing the determinant."""
    pool = (F.nonzero_elements() if F.is_finite else
            tuple(F.element(v) for v in (-1, 1, 2)))
    two = rng.sample(pool, 2)
    vals = [rng.choice(two) for _ in range(2 * n - 1)]
    prod = F.one()
    for v in vals:
        prod = prod * v
    vals.append(det * prod.inverse())
    return tuple(vals[:n]), tuple(vals[n:])


def prescriptions(F, n, A, rng):
    kinds = [("ones", ((F.one(),) * n,) * 2),
             ("repeated", repeated_prescription(F, n, A.det(), rng))]
    if not F.is_finite or n < F.size:
        kinds.append(("distinct", distinct_prescription(F, n, A.det(), rng)))
    return kinds


def nonscalar_sl(F, n, rng):
    A = random_sl(F, n, rng)
    while A.is_scalar():
        A = random_sl(F, n, rng)
    return A


def assert_same_as_dense(A, betas, gammas):
    ref = _DenseSearch()
    B, C = ref.factor(A, tuple(betas), tuple(gammas))
    split = sourour_factor(A, betas, gammas)
    assert (split.b, split.c, split.backtracks) == (B, C, ref.backtracks)
    assert_triangularized(split, betas, gammas)
    return split


def assert_triangularized(split, betas, gammas):
    """T T^-1 = I, and L lower and U upper triangular with the betas and
    the gammas on their diagonals.  The split's B and C are T L T^-1 and
    T U T^-1, which ``assert_same_as_dense`` checks against the dense
    split."""
    T, T_inv, L, U = split.T, split.T_inv, split.L, split.U
    F, n = T.field, T.n
    assert T @ T_inv == identity(F, n)
    for i in range(n):
        for j in range(i + 1, n):
            assert L[i, j].is_zero() and U[j, i].is_zero()
    assert Counter(L.diagonal()) == Counter(betas)
    assert Counter(U.diagonal()) == Counter(gammas)
    return T, T_inv, L, U


class TestAgainstDenseSplit:
    @pytest.mark.parametrize("spec,n", [
        ("GF(4)", 2), ("GF(4)", 3), ("GF(4)", 8),
        ("GF(7)", 3), ("GF(7)", 6), ("GF(7)", 10),
        ("GF(9)", 4), ("GF(9)", 8),
        ("GF(31)", 6), ("GF(31)", 12), ("GF(31)", 16),
        ("GF(10007)", 9), ("GF(10007)", 16),
        ("Q", 3), ("Q", 5), ("Q", 7),
    ])
    def test_same_split(self, spec, n):
        F = parse_field_spec(spec)
        rng = random.Random(f"{spec}-{n}")
        for _ in range(2):
            A = nonscalar_sl(F, n, rng)
            for _, (betas, gammas) in prescriptions(F, n, A, rng):
                assert_same_as_dense(A, betas, gammas)

    def test_backtracking_splits(self):
        # about one repeated prescription in a hundred backtracks at
        # these sizes; these seeds include several
        backtracked = 0
        for spec, n in (("GF(4)", 3), ("GF(4)", 4), ("GF(4)", 5),
                        ("GF(7)", 4)):
            F = parse_field_spec(spec)
            for seed in range(100):
                rng = random.Random(seed)
                A = nonscalar_sl(F, n, rng)
                betas, gammas = repeated_prescription(F, n, A.det(), rng)
                split = assert_same_as_dense(A, betas, gammas)
                backtracked += split.backtracks > 0
        assert backtracked > 0


class TestTriangularize:
    """The triangularizing basis of a split, and the diagonalizations
    taken from it by substitution, against the kernel eliminations of
    ``similarity_to_diagonal``."""

    @pytest.mark.parametrize("spec,n", [
        ("GF(4)", 2), ("GF(4)", 3), ("GF(4)", 9), ("GF(4)", 16),
        ("GF(7)", 2), ("GF(7)", 5), ("GF(7)", 6), ("GF(7)", 16),
        ("GF(9)", 4), ("GF(9)", 8), ("GF(9)", 16),
        ("GF(31)", 7), ("GF(31)", 16),
        ("GF(10007)", 2), ("GF(10007)", 11), ("GF(10007)", 16),
        ("GF(256;1,1,0,1,1,0,0,0,1)", 5), ("GF(256;1,1,0,1,1,0,0,0,1)", 16),
        ("Q", 2), ("Q", 4), ("Q", 7),
    ])
    def test_factors_and_diagonalization(self, spec, n):
        F = parse_field_spec(spec)
        rng = random.Random(f"triangular-{spec}-{n}")
        A = nonscalar_sl(F, n, rng)
        for kind, (betas, gammas) in prescriptions(F, n, A, rng):
            split = sourour_factor(A, betas, gammas)
            T, T_inv, L, U = assert_triangularized(split, betas, gammas)
            if kind != "distinct":
                continue
            for part, R, spectrum in ((split.b, L, betas),
                                      (split.c, U, gammas)):
                assert diagonalize_triangular(T, T_inv, R, spectrum) == \
                    similarity_to_diagonal(part, spectrum)

    def test_spectrum_must_be_distinct_and_on_the_diagonal(self):
        F = GF(7)
        A = Matrix.from_ints(F, [[0, 6], [1, 3]])
        two, four = F.element(2), F.element(4)
        split = sourour_factor(A, (two, four), (two, four))
        T, T_inv, L, U = split.T, split.T_inv, split.L, split.U
        for spectrum in ((two, two), (two, F.element(3)), (two,)):
            with pytest.raises(SpectrumMismatch):
                diagonalize_triangular(T, T_inv, L, spectrum)


class TestSingleBlockJordan:
    """Jordan data of a unipotent split's part that is one Jordan block,
    by substitution in the triangularizing basis, against
    ``unipotent_jordan`` on the part itself."""

    def test_same_as_unipotent_jordan(self):
        # B has more than one block in a few percent of the splits, at
        # small n, so those sizes are drawn more often
        seen = Counter()
        for spec in ("GF(4)", "GF(5)", "GF(7)", "GF(8)", "GF(9)"):
            F = parse_field_spec(spec)
            rng = random.Random(f"single-block-{spec}")
            sizes = (2, 5, 6, 9, 12) + (3, 4) * 10
            for n in sizes:
                A = nonscalar_sl(F, n, rng)
                ones = (F.one(),) * n
                split = sourour_factor(A, ones, ones)
                for side, R, part in (("L", split.L, split.b),
                                      ("U", split.U, split.c)):
                    ref = unipotent_jordan(part)
                    jd = single_block_jordan(split.T, split.T_inv, R)
                    one_block = len(ref.partition) == 1
                    seen[side, one_block] += 1
                    if not one_block:
                        assert jd is None
                        continue
                    assert (jd.partition, jd.transform, jd.transform_inverse,
                            jd.form) == (ref.partition, ref.transform,
                                         ref.transform_inverse, ref.form)
        # both sides, with one block and with more
        assert len(seen) == 4, seen

    def test_single_block_runs_no_elimination(self, monkeypatch):
        calls = Counter()

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(linalg, "_rref", spy("rref", linalg._rref))
        monkeypatch.setattr(Matrix, "inverse", spy("inverse", Matrix.inverse))
        found = 0
        for spec, n in (("GF(7)", 12), ("GF(9)", 6), ("GF(4)", 5)):
            F = parse_field_spec(spec)
            rng = random.Random(f"no-elimination-{spec}")
            for _ in range(4):
                A = nonscalar_sl(F, n, rng)
                ones = (F.one(),) * n
                split = sourour_factor(A, ones, ones)
                for R in (split.L, split.U):
                    jd = single_block_jordan(split.T, split.T_inv, R)
                    found += jd is not None
                    assert calls == Counter()
        assert found > 0
        # the spies do see these calls
        unipotent_jordan(split.b)
        assert set(calls) == {"rref", "inverse"}

    def test_needs_a_unipotent_part(self):
        F = GF(7)
        A = Matrix.from_ints(F, [[0, 6, 1], [1, 3, 0], [0, 2, 1]])
        rng = random.Random(7)
        betas, gammas = distinct_prescription(F, 3, A.det(), rng)
        split = sourour_factor(A, betas, gammas)
        with pytest.raises(NotUnipotent):
            single_block_jordan(split.T, split.T_inv, split.L)


class TestBasis:
    """``_Basis`` against the dense Q = [x, y, e_t, ...] that the greedy
    canonical extension builds, for every candidate x and for random,
    partly sparse y, so that each case of the 2x2 solve is reached."""

    @pytest.mark.parametrize("spec", ["GF(7)", "GF(9)", "Q"])
    def test_matches_dense_basis(self, spec):
        F = parse_field_spec(spec)
        rng = random.Random(spec)
        elems = (F.elements() if F.is_finite else
                 tuple(F.element(v) for v in range(-3, 4)))
        one, zero = F.one(), F.zero()
        cases = set()
        for m in (2, 3, 5):
            for _ in range(15):
                y = tuple(rng.choice(elems) if rng.random() < 0.6 else zero
                          for _ in range(m))
                W = Matrix(F, [[rng.choice(elems) for _ in range(m)]
                               for _ in range(m)])
                X = Matrix(F, [[rng.choice(elems) for _ in range(m)]
                               for _ in range(m)])
                for support in _candidate_supports(m):
                    x = tuple(one if t in support else zero for t in range(m))
                    basis = _Basis.extend(F.arith, support,
                                          [v.rep for v in y])
                    span = IndependentSet(F, m)
                    span.add(_reps(x))
                    if not span.add(_reps(y)):
                        assert basis is None
                        continue
                    units = [tuple(one if t == i else zero for t in range(m))
                             for i in range(m)]
                    added = [i for i in range(m) if span.add(_reps(units[i]))]
                    assert basis.kept == added
                    Q = Matrix(F, zip(x, y, *(units[i] for i in added)))
                    Qinv = Q.inverse()
                    assert basis.solve_rows(W.reps()) == (Qinv @ W).reps()
                    assert basis.left_mul(X.reps()) == (Q @ X).reps()
                    assert basis.right_div(X.reps()) == (X @ Qinv).reps()
                    cases.add((len(support), basis.xp, basis.xt is not None))
        assert cases == {(1, False, False), (2, True, False), (2, False, True)}


class TestMatchScalar:
    def test_repeated_gammas_fail_fast(self):
        F = GF(7)
        lam, mu = F.element(3), F.element(5)
        m = 12
        betas = (F.one().rep,) * m
        gammas = (lam.rep,) * (m - 1) + (mu.rep,)
        start = time.perf_counter()
        assert _match_scalar(F.arith.mul, lam.rep, betas, gammas) is None
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("q", [4, 5, 7])
    def test_same_as_old_recursion(self, q):
        F = GF(q)
        rng = random.Random(q)
        pool = F.nonzero_elements()[:3]
        found = 0
        for _ in range(300):
            m = rng.randint(1, 6)
            betas = [rng.choice(pool) for _ in range(m)]
            gammas = [rng.choice(pool) for _ in range(m)]
            lam = betas[0] * rng.choice(gammas)
            old = _old_match_scalar(lam, betas, gammas)
            new = _match_scalar(F.arith.mul, lam.rep,
                                tuple(b.rep for b in betas),
                                tuple(g.rep for g in gammas))
            assert new == (None if old is None else [g.rep for g in old])
            found += old is not None
        assert 0 < found < 300


class TestStructure:
    def test_no_elimination_or_dense_product(self, monkeypatch):
        calls = Counter()

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(linalg, "_rref", spy("rref", linalg._rref))
        monkeypatch.setattr(Matrix, "inverse", spy("inverse", Matrix.inverse))
        monkeypatch.setattr(Matrix, "__matmul__",
                            spy("matmul", Matrix.__matmul__))
        for spec, n in (("GF(10007)", 16), ("GF(9)", 8)):
            F = parse_field_spec(spec)
            rng = random.Random(n)
            A = nonscalar_sl(F, n, rng)
            betas, gammas = distinct_prescription(F, n, A.det(), rng)
            split = sourour_factor(A, betas, gammas)
            assert calls == Counter()
            # the spies do see these calls
            assert split.b @ split.c == A
            split.b.inverse()
            assert set(calls) == {"rref", "inverse", "matmul"}
            calls.clear()
        assert not hasattr(sourour, "IndependentSet")

    def test_two_commutator_route_builds_no_part(self, monkeypatch):
        # the route reads only the split's triangularization, so neither
        # B nor C is built, and det(A) is taken once, by factor's check
        splits, dets = [], []
        det_reps = linalg.det_reps

        def split(*args, **kwargs):
            splits.append(sourour_factor(*args, **kwargs))
            return splits[-1]

        def spy_det(arith, rows):
            dets.append(tuple(map(tuple, rows)))
            return det_reps(arith, rows)

        monkeypatch.setattr(sl2_routes, "sourour_factor", split)
        monkeypatch.setattr(linalg, "det_reps", spy_det)
        monkeypatch.setattr(unipotent, "det_reps", spy_det)
        for spec, n in (("GF(10007)", 16), ("GF(31)", 8), ("Q", 7)):
            F = parse_field_spec(spec)
            A = nonscalar_sl(F, n, random.Random(f"no-parts-{spec}"))
            f = factor(A)
            assert f"prop5.2(n={n})" in f.route
            (sp,) = splits
            assert "b" not in vars(sp) and "c" not in vars(sp)
            assert dets.count(tuple(map(tuple, A.reps()))) == 1
            # the checks do see a part that is read
            assert sp.b.det() == F.one()
            assert "b" in vars(sp) and dets[-1] != dets[0]
            splits.clear()
            dets.clear()

    def test_two_commutator_route_runs_no_elimination(self, monkeypatch):
        # once the split is made, the parts are diagonalized by
        # substitution in its triangularizing basis; the first call of
        # each input fills the memos of the 2x2 diagonal blocks, whose
        # companion similarities invert, so the second one is counted
        calls = Counter()
        split_made = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                if split_made:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def split(*args, **kwargs):
            out = sourour_factor(*args, **kwargs)
            split_made.append(out)
            return out

        monkeypatch.setattr(sl2_routes, "sourour_factor", split)
        monkeypatch.setattr(linalg, "_rref", spy("rref", linalg._rref))
        monkeypatch.setattr(linalg, "_kernel_reps",
                            spy("kernel", linalg._kernel_reps))
        monkeypatch.setattr(Matrix, "inverse", spy("inverse", Matrix.inverse))
        for spec, n in (("GF(10007)", 16), ("Q", 7)):
            F = parse_field_spec(spec)
            A = nonscalar_sl(F, n, random.Random(spec))
            first = factor(A)
            split_made.clear()
            calls.clear()
            f = factor(A)
            assert f == first and f"prop5.2(n={n})" in f.route
            assert len(split_made) == 1 and calls == Counter()
            # the spies do see these calls
            linalg.kernel_basis(split_made[0].b)
            split_made[0].b.inverse()
            assert set(calls) == {"rref", "kernel", "inverse"}
            calls.clear()
            split_made.clear()
