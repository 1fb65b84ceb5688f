import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from u2factor import factor, linalg, verify
from u2factor.field import GF, rationals, FieldMismatch, FieldElement, \
    parse_field_spec
from u2factor.linalg import (Matrix, identity, diagonal, jordan_block,
                             direct_sum, kernel_basis,
                             charpoly,
                             unipotent_jordan, companion_similarity_2x2,
                             similarity_to_diagonal, find_diagonal_permutation,
                             parse_matrix_text, matrix_to_text,
                             Singular, SizeMismatch, NotUnipotent,
                             ScalarInput, SpectrumMismatch, LinalgError,
                             IndependentSet)
from u2factor.poly import Poly
from u2factor.sampling import random_sl


def mats(q, n):
    f = GF(q)
    elems = st.integers(0, q - 1)
    return st.lists(st.lists(elems, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: Matrix.from_ints(f, rows))


class TestArithmetic:
    def test_matmul_and_inverse(self):
        f = GF(7)
        A = Matrix.from_ints(f, [[1, 2], [3, 4]])
        assert A.det() == f.element(1 * 4 - 2 * 3)
        assert A @ A.inverse() == identity(f, 2)

    def test_singular_inverse(self):
        f = GF(5)
        with pytest.raises(Singular):
            Matrix.from_ints(f, [[1, 2], [2, 4]]).inverse()

    def test_non_square_rejected(self):
        with pytest.raises(SizeMismatch):
            Matrix.from_ints(GF(5), [[1, 2, 3], [4, 5, 6]])

    def test_pow(self):
        f = GF(5)
        A = Matrix.from_ints(f, [[1, 1], [0, 1]])
        assert (A ** 3)[0, 1] == f.element(3)
        assert A ** -1 == A.inverse()

    def test_rank_nullity(self):
        f = GF(3)
        A = Matrix.from_ints(f, [[1, 2, 0], [0, 1, 0], [0, 0, 0]])
        basis = kernel_basis(A)
        assert len(basis) == 1
        assert all(e.is_zero() for e in A.apply(basis[0]))

    @given(mats(5, 3), mats(5, 3))
    @settings(max_examples=50)
    def test_det_multiplicative(self, A, B):
        assert (A @ B).det() == A.det() * B.det()

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            identity(GF(5), 2) @ identity(GF(7), 2)


class TestDirectSum:
    def test_blocks_on_the_diagonal(self):
        f = GF(7)
        S = direct_sum(Matrix.from_ints(f, [[3]]),
                       Matrix.from_ints(f, [[1, 2], [3, 4]]),
                       Matrix.from_ints(f, [[5]]),
                       Matrix.from_ints(f, [[6]]))
        assert S == Matrix.from_ints(f, [[3, 0, 0, 0, 0],
                                         [0, 1, 2, 0, 0],
                                         [0, 3, 4, 0, 0],
                                         [0, 0, 0, 5, 0],
                                         [0, 0, 0, 0, 6]])

    def test_same_as_pairwise(self):
        f = GF(4)
        a, b, c = (jordan_block(f, k, f.one()) for k in (1, 2, 3))
        assert direct_sum(a, b, c) == direct_sum(direct_sum(a, b), c) \
            == direct_sum(a, direct_sum(b, c))
        assert direct_sum(b) == b
        assert direct_sum(a, a, a) == identity(f, 3)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            direct_sum(identity(GF(5), 2), identity(GF(5), 1),
                       identity(GF(7), 2))


class TestPolynomials:
    @given(mats(7, 3))
    @settings(max_examples=40)
    def test_cayley_hamilton(self, A):
        assert charpoly(A)(A).is_zero()

    def test_charpoly_char2(self):
        # division-free: valid over GF(2)
        f = GF(2)
        A = Matrix.from_ints(f, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        cp = charpoly(A)
        # companion of x^3 + x + 1 (signs collapse mod 2)
        assert list(c.rep for c in cp.coeffs) == [1, 1, 0, 1]

    @pytest.mark.parametrize("field,sizes", [
        (GF(4), range(1, 17, 3)), (GF(9), range(1, 17, 3)),
        (GF(10007), range(1, 17, 3)), (rationals(), range(1, 9))])
    def test_charpoly_matches_determinants(self, field, sizes):
        """charpoly(A)(c) == det(cI - A) at n + 1 distinct points c;
        where the field has fewer points, the Bareiss determinant of
        xI - A over F[x] is the reference instead."""
        rng = random.Random(f"charpoly:{field.spec_string()}")
        for n in sizes:
            for A in (random_sl(field, n, rng), _sparse(field, n, rng)):
                cp = charpoly(A)
                assert cp.degree == n and cp.is_monic()
                points = (field.elements()[:n + 1] if field.is_finite
                          else [field.element(c) for c in range(n + 1)])
                for c in points:
                    cI = identity(field, n).scalar_mul(c)
                    assert cp(c) == (cI - A).det()
                if len(points) < n + 1:
                    assert cp == _bareiss_charpoly(A)

    def test_poly_from_roots(self):
        f = GF(7)
        roots = [f.element(2), f.element(3)]
        p = Poly.from_roots(f, roots)
        assert all(p(r).is_zero() for r in roots)


def _sparse(field, n, rng):
    """Mostly zero entries, so Hessenberg pivots must be searched for."""
    vals = [field.zero()] * 3 + [field.one(), field.element(2)]
    return Matrix(field, [[rng.choice(vals) for _ in range(n)]
                          for _ in range(n)])


def _bareiss_charpoly(A):
    """det(xI - A) by fraction-free elimination over F[x]; no pivoting is
    needed because every leading minor is a monic characteristic
    polynomial."""
    field, n = A.field, A.n
    x = Poly.x(field)
    M = [[(x if i == j else Poly.zero(field)) - Poly.constant(A[i, j])
          for j in range(n)] for i in range(n)]
    prev = Poly.one(field)
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = (M[i][j] * M[k][k] - M[i][k] * M[k][j]).divmod(prev)
                assert r.is_zero()
                M[i][j] = q
        prev = M[k][k]
    return M[n - 1][n - 1]


class TestJordan:
    def test_unipotent_jordan_recovers_partition(self, rng):
        f = GF(5)
        one = f.one()
        form = direct_sum(jordan_block(f, 3, one), jordan_block(f, 2, one),
                          jordan_block(f, 1, one))
        P = random_sl(f, 6, rng)
        jd = unipotent_jordan(P @ form @ P.inverse())
        assert jd.partition == (3, 2, 1)
        assert jd.form == form

    def test_identity_case(self):
        jd = unipotent_jordan(identity(GF(7), 4))
        assert jd.partition == (1, 1, 1, 1)

    def test_not_unipotent(self):
        f = GF(5)
        with pytest.raises(NotUnipotent):
            unipotent_jordan(diagonal(f, [f.element(2), f.element(3)]))

    def test_transform_exact(self, rng):
        f = GF(4)
        A = jordan_block(f, 4, f.one())
        jd = unipotent_jordan(A)
        assert jd.transform @ A @ jd.transform.inverse() == jd.form
        assert jd.transform @ jd.transform_inverse == identity(f, 4)
        for f in (GF(7), GF(9), rationals()):
            one = f.one()
            form = direct_sum(jordan_block(f, 3, one),
                              jordan_block(f, 1, one))
            P0 = random_sl(f, 4, rng)
            A = P0 @ form @ P0.inverse()
            jd = unipotent_jordan(A)
            assert jd.transform @ jd.transform_inverse == identity(f, 4)
            assert jd.transform @ A @ jd.transform_inverse == jd.form

    def test_deterministic(self, rng):
        f = GF(7)
        A = random_sl(f, 4, rng)
        B = A @ jordan_block(f, 4, f.one()) @ A.inverse()
        assert unipotent_jordan(B).transform == unipotent_jordan(B).transform

    @pytest.mark.parametrize("partition", [(3, 3), (3, 2, 1), (2, 2, 2),
                                           (4, 1, 1)])
    @pytest.mark.parametrize("spec", ["GF(4)", "GF(7)", "Q"])
    def test_tops_as_chosen_level_by_level(self, spec, partition, rng):
        """Tops picked against one set of chain bottoms are the tops the
        per-level complement scan picks, so the transforms are equal."""
        f = parse_field_spec(spec)
        form = direct_sum(*(jordan_block(f, h, f.one()) for h in partition))
        for _ in range(3):
            P0 = random_sl(f, form.n, rng)
            A = P0 @ form @ P0.inverse()
            jd = unipotent_jordan(A)
            assert jd.partition == partition and jd.form == form
            assert (jd.transform, jd.transform_inverse) == \
                _level_by_level_jordan(A)

    @pytest.mark.parametrize("partition", [(4, 4), (5, 2, 1), (3, 3, 1, 1),
                                           (2, 2, 2), (6, 1), (7,)])
    @pytest.mark.parametrize("spec", ["GF(4)", "GF(7)", "Q"])
    def test_skipped_levels_start_no_chain(self, spec, partition, rng):
        """Levels above the blocks left uncovered are skipped; the tops,
        and so the partition and both transforms, are those of the scan
        over every level."""
        f = parse_field_spec(spec)
        form = direct_sum(*(jordan_block(f, h, f.one()) for h in partition))
        P0 = random_sl(f, form.n, rng)
        A = P0 @ form @ P0.inverse()
        jd = unipotent_jordan(A)
        assert jd.partition == partition
        assert jd == _every_level_jordan(A)


def _every_level_jordan(A):
    """unipotent_jordan without the skip rule: one kernel of N^j at
    every level j from the index down."""
    field, n = A.field, A.n
    arith = field.arith
    N = linalg.shift_reps(arith, A.reps(), arith.one)
    npowers = [linalg.diagonal_reps(arith, [arith.one] * n), N]
    while not all(map(arith.is_zero, chain.from_iterable(npowers[-1]))):
        npowers.append(arith.product_reps(npowers[-1], N))
    index = len(npowers) - 1
    bottoms = IndependentSet(field, n)
    tops = []
    for j in range(index, 0, -1):
        kernel = linalg._kernel_reps(arith, npowers[j])
        images = zip(*arith.product_reps(npowers[j - 1],
                                         list(zip(*kernel))))
        for v, bottom in zip(kernel, images):
            if bottoms.add(bottom):
                tops.append((v, j))
    cols = [linalg.apply_reps(arith, npowers[h - 1 - i], v)
            for v, h in tops for i in range(h)]
    Q = Matrix.from_reps(field, list(zip(*cols)))
    return linalg.JordanData(tuple(h for _, h in tops), Q.inverse(), Q)


def _level_by_level_jordan(A):
    """unipotent_jordan's (P, P^-1) as its tops were once chosen: at each
    level j a fresh span of ker N^(j-1) and of the level-j vectors of
    the chains chosen so far, and a vector of ker N^j tops a new chain
    when it is independent of that span."""
    field, n = A.field, A.n
    arith = field.arith
    N = [[a - b for a, b in zip(r, e)]
         for r, e in zip(A.rows, identity(field, n).rows)]
    powers = [identity(field, n), Matrix(field, N)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] @ powers[1])
    index = len(powers) - 1
    kernels = [[]] + [[[x.rep for x in v] for v in kernel_basis(powers[j])]
                      for j in range(1, index + 1)]
    tops = []
    for j in range(index, 0, -1):
        span = IndependentSet(field, n)
        for v in kernels[j - 1]:
            span.add(v)
        for u, h in tops:
            span.add(linalg.apply_reps(arith, powers[h - j].reps(), u))
        for v in kernels[j]:
            if span.add(v):
                tops.append((v, j))
    cols = [linalg.apply_reps(arith, powers[h - 1 - i].reps(), v)
            for v, h in tops for i in range(h)]
    Q = Matrix.from_reps(field, list(zip(*cols)))
    return Q.inverse(), Q


def _kernel_vector_similarity(A, entries):
    """similarity_to_diagonal as it was before Q eigenvectors were
    scaled: column i of P^-1 is the kernel_basis vector as it is, for
    every field."""
    field, n = A.field, A.n
    pools = {}
    cols = []
    for lam in entries:
        if lam not in pools:
            pools[lam] = list(kernel_basis(A - diagonal(field, [lam] * n)))
        cols.append(pools[lam].pop(0))
    Q = Matrix(field, zip(*cols))
    return Q.inverse(), Q


class TestSimilarity:
    def test_companion_2x2(self):
        f = GF(7)
        A = Matrix.from_ints(f, [[2, 3], [1, 5]])
        P, P_inv = companion_similarity_2x2(A)
        C = P @ A @ P.inverse()
        assert C[0, 0].is_zero() and C[1, 0] == f.one()
        assert C[1, 1] == A.trace() and C[0, 1] == -A.det()
        # the returned inverse, also where e_1 is an eigenvector
        for f in (GF(7), GF(9), rationals()):
            for rows in ([[2, 3], [1, 5]], [[2, 1], [0, 5]]):
                A = Matrix.from_ints(f, rows)
                P, P_inv = companion_similarity_2x2(A)
                assert P @ P_inv == identity(f, 2)
                C = P @ A @ P_inv
                assert C[0, 0].is_zero() and C[1, 0] == f.one()
                assert C[1, 1] == A.trace() and C[0, 1] == -A.det()

    def test_companion_scalar_rejected(self):
        with pytest.raises(ScalarInput):
            companion_similarity_2x2(identity(GF(5), 2))

    def test_similarity_to_diagonal_with_repeats(self, rng):
        f = GF(7)
        entries = [f.element(2), f.element(4), f.element(2)]
        P0 = random_sl(f, 3, rng)
        A = P0 @ diagonal(f, entries) @ P0.inverse()
        P, P_inv = similarity_to_diagonal(A, entries)
        assert P @ A @ P.inverse() == diagonal(f, entries)
        for f in (GF(7), GF(9), rationals()):
            entries = [f.element(2), f.element(4), f.element(2)]
            P0 = random_sl(f, 3, rng)
            A = P0 @ diagonal(f, entries) @ P0.inverse()
            P, P_inv = similarity_to_diagonal(A, entries)
            assert P @ P_inv == identity(f, 3)
            assert P @ A @ P_inv == diagonal(f, entries)

    SPECTRA = ((2, 4, 5), (2, 4, 2), (3, 3, 3, 5), (1, 2, 3, 4, 6))

    def test_similarity_over_q_gives_primitive_integer_columns(self, rng):
        f = rationals()
        spectra = [[f.element(Fraction(v)) for v in spec] for spec in
                   ((2, Fraction(1, 3), -5, Fraction(7, 2)),
                    (2, 2, Fraction(-1, 3), Fraction(-1, 3), 5),
                    (Fraction(-4, 9),) * 3 + (6,))]
        for entries in spectra:
            for _ in range(3):
                n = len(entries)
                P0 = random_sl(f, n, rng)
                A = P0 @ diagonal(f, entries) @ P0.inverse()
                P, P_inv = similarity_to_diagonal(A, entries)
                assert P @ P_inv == identity(f, n)
                assert P @ A @ P_inv == diagonal(f, entries)
                for col in zip(*P_inv.rows):
                    reps = [e.rep for e in col]
                    assert all(x.denominator == 1 for x in reps)
                    assert math.gcd(*(x.numerator for x in reps)) == 1
                    assert next(x for x in reversed(reps) if x) > 0

    @pytest.mark.parametrize("q", [7, 9])
    def test_similarity_over_finite_fields_unchanged(self, q, rng):
        f = GF(q)
        for spec in self.SPECTRA:
            entries = [f.element(v) for v in spec]
            P0 = random_sl(f, len(entries), rng)
            A = P0 @ diagonal(f, entries) @ P0.inverse()
            assert similarity_to_diagonal(A, entries) == \
                _kernel_vector_similarity(A, entries)

    def test_similarity_spectrum_mismatch(self):
        f = GF(7)
        with pytest.raises(SpectrumMismatch):
            similarity_to_diagonal(identity(f, 2), [f.element(2), f.element(4)])

    def test_find_diagonal_permutation(self):
        f = GF(11)
        src = diagonal(f, [f.element(v) for v in (2, 6, 2, 3)])
        tgt = diagonal(f, [f.element(v) for v in (3, 2, 6, 2)])
        P = find_diagonal_permutation(src, tgt)
        assert P @ src @ P.inverse() == tgt

    def test_find_diagonal_permutation_mismatch(self):
        f = GF(5)
        with pytest.raises(LinalgError):
            find_diagonal_permutation(diagonal(f, [f.one(), f.element(2)]),
                                      diagonal(f, [f.one(), f.element(3)]))


class TestMatrixText:
    def test_round_trip(self):
        f = GF(9)
        A = Matrix(f, [[f.element((1, 2)), f.element((0, 1))],
                       [f.zero(), f.element((2, 2))]])
        assert parse_matrix_text(matrix_to_text(A)) == A

    def test_comments_and_inline_field(self):
        text = """# demo matrix
        GF(7)
        2
        0 6   # first row
        1 3
        """
        A = parse_matrix_text(text)
        assert A.field == GF(7)
        assert A[0, 1] == GF(7).element(6)

    def test_field_argument_mismatch(self):
        text = "GF(7)\n2\n1 0\n0 1\n"
        with pytest.raises(FieldMismatch):
            parse_matrix_text(text, GF(5))

    def test_field_from_argument_only(self):
        A = parse_matrix_text("2\n1 1/2\n0 1\n", rationals())
        assert A[0, 1].token() == "1/2"

    def test_empty_rejected(self):
        with pytest.raises(LinalgError):
            parse_matrix_text("# nothing here\n")


class TestSampling:
    @pytest.mark.parametrize("q", [7, 101])
    def test_prime_stream_matches_element_choice(self, q):
        """Prime fields draw residues without the element table; the
        seeded stream is the one rng.choice(F.elements()) gave."""
        F = GF(q)
        new, old = random.Random(q), random.Random(q)
        for n in (1, 2, 3, 5):
            for _ in range(5):
                A = random_sl(F, n, new)
                while True:
                    B = Matrix(F, [[old.choice(F.elements()) for _ in range(n)]
                                   for _ in range(n)])
                    if not B.det().is_zero():
                        break
                inv = B.det().inverse()
                rows = [list(r) for r in B.rows]
                rows[0] = [e * inv for e in rows[0]]
                assert A == Matrix(F, rows)


# -- the element-level eliminations, as they were before Matrix held reps ---

def _ref_rref(work, limit=None):
    if not work:
        return work, []
    nrows = len(work)
    ncols = len(work[0]) if limit is None else limit
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = next((r for r in range(row, nrows)
                      if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = work[row][col].inverse()
        work[row] = [a * inv for a in work[row]]
        for r in range(nrows):
            if r != row and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [a - factor * b
                           for a, b in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
    return work, pivots


def _ref_kernel_basis(A):
    field, n = A.field, A.n
    work, pivots = _ref_rref([list(r) for r in A.rows])
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    one, zero = field.one(), field.zero()
    for f in free:
        vec = [zero] * n
        vec[f] = one
        for rowi, pj in enumerate(pivots):
            vec[pj] = -work[rowi][f]
        basis.append(tuple(vec))
    return basis


def _ref_inverse(A):
    field, n = A.field, A.n
    work = [list(r) + [field.one() if i == j else field.zero()
                       for j in range(n)]
            for i, r in enumerate(A.rows)]
    work, pivots = _ref_rref(work, limit=n)
    if len(pivots) != n:
        raise Singular("matrix is not invertible")
    return Matrix(field, [r[n:] for r in work])


def _ref_det(A):
    """det A by element-level Gaussian elimination, pivoting on the first
    nonzero entry of each column."""
    work = [list(r) for r in A.rows]
    n = len(work)
    det = A.field.one()
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if not work[r][col].is_zero()), None)
        if pivot is None:
            return A.field.zero()
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col].inverse()
        for r in range(col + 1, n):
            factor = work[r][col] * inv
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


class _RefIndependentSet:
    def __init__(self, field, dim):
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = vec[p]
            if not c.is_zero():
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec) -> bool:
        red = self.reduce(vec)
        pivot = next((i for i, c in enumerate(red) if not c.is_zero()), None)
        if pivot is None:
            return False
        inv = red[pivot].inverse()
        self.rows.append([c * inv for c in red])
        self.pivots.append(pivot)
        return True


def _reps(rows):
    return [[e.rep for e in r] for r in rows]


def _entry_pool(F, rng):
    """A function that draws one entry: any element of a finite field,
    or over Q a fraction with a 500-bit numerator and denominator."""
    if F.is_finite:
        elems = F.elements()
        return lambda: rng.choice(elems)
    return lambda: F.element(Fraction(rng.getrandbits(500) - (1 << 499),
                                      rng.getrandbits(500) | 1))


def _elimination_inputs(F, rng):
    """Random square matrices, and singular ones: sparse, with a row that
    is a combination of two others, and of rank 1."""
    entry = _entry_pool(F, rng)
    zero = F.zero()
    for n in (1, 2, 3, 5, 8) if F.is_finite else (1, 2, 3, 4):
        for _ in range(3):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            yield Matrix(F, rows)
            yield Matrix(F, [[e if rng.random() < 0.3 else zero for e in r]
                             for r in rows])
            if n >= 3:
                a, b = entry(), entry()
                dep = [x * a + y * b for x, y in zip(rows[0], rows[1])]
                yield Matrix(F, rows[:-1] + [dep])
            col = [entry() for _ in range(n)]
            yield Matrix(F, [[c * e for e in rows[0]] for c in col])


class TestEliminationReference:
    """``_rref``, ``kernel_basis``, ``inverse`` and ``IndependentSet`` on
    reps give what the element-level versions gave, pivot order
    included."""

    @pytest.mark.parametrize("spec", ["GF(2)", "GF(4)", "GF(9)", "GF(31)",
                                      "GF(256;1,1,0,1,1,0,0,0,1)", "Q"])
    def test_same_as_element_level(self, spec):
        F = parse_field_spec(spec)
        rng = random.Random(f"elimination:{spec}")
        singular = 0
        for A in _elimination_inputs(F, rng):
            n = A.n
            # square, a column limit, and two extra columns as in inverse
            for rows, limit in ((A.rows, None), (A.rows, n - 1),
                                ([r + r[:2] for r in A.rows], n)):
                want, want_pivots = _ref_rref([list(r) for r in rows], limit)
                got, got_pivots = linalg._rref(F.arith, _reps(rows), limit)
                assert got_pivots == want_pivots
                assert got == _reps(want)
            assert kernel_basis(A) == _ref_kernel_basis(A)
            try:
                want_inv = _ref_inverse(A)
            except Singular:
                singular += 1
                with pytest.raises(Singular):
                    A.inverse()
            else:
                assert A.inverse() == want_inv
            vecs = list(A.rows) + list(zip(*A.rows)) + _ref_kernel_basis(A)
            ref, span = _RefIndependentSet(F, n), IndependentSet(F, n)
            for v in vecs:
                assert span.add(_reps([v])[0]) == ref.add(v)
            assert span.pivots == ref.pivots
            assert span.rows == _reps(ref.rows)
        assert singular > 0

    @pytest.mark.parametrize("spec", ["GF(2)", "GF(4)", "GF(9)", "GF(31)",
                                      "GF(256;1,1,0,1,1,0,0,0,1)", "Q"])
    def test_det_and_row_operations(self, spec):
        F = parse_field_spec(spec)
        arith = F.arith
        rng = random.Random(f"det:{spec}")
        entry = _entry_pool(F, rng)
        singular = 0
        for A in _elimination_inputs(F, rng):
            want = _ref_det(A)
            got = linalg.det_reps(arith, A._reps)
            assert got == want.rep and type(got) is type(want.rep)
            assert A.det() == want
            singular += want.is_zero()
            rows = A.rows
            for x, y in zip(rows, rows[1:] + rows[:1]):
                for c in (entry(), F.zero(), F.one()):
                    want_row = [a - c * b for a, b in zip(x, y)]
                    got_row = arith.sub_scaled(_reps([x])[0], c.rep,
                                               _reps([y])[0])
                    assert got_row == _reps([want_row])[0]
                    assert arith.scale(_reps([y])[0], c.rep) == \
                        _reps([[c * b for b in y]])[0]
            row = _reps([rows[0]])[0]
            assert arith.sub_scaled(row, arith.zero, row) is row
        assert singular > 0

    @pytest.mark.parametrize("spec", ["GF(2)", "GF(9)", "GF(31)", "Q"])
    def test_det_sign_after_row_swaps(self, spec):
        F = parse_field_spec(spec)
        half = F.element(Fraction(1, 2)) if F.p != 2 else F.one()
        zero, one = F.zero(), F.one()
        cases = (
            # one swap at column 0: det -1
            ([[zero, one], [one, zero]], -one),
            ([[zero, zero, one], [zero, one, zero], [one, zero, zero]], -one),
            # a 3-cycle of rows, two swaps: det +1
            ([[zero, one, zero], [zero, zero, one], [one, zero, zero]], one),
            # a swap needed at column 1 only, after column 0 is cleared
            ([[one, one, one], [one, one, half], [one, half, one]], None),
        )
        for rows, expected in cases:
            A = Matrix(F, rows)
            want = _ref_det(A)
            if expected is not None:
                assert want == expected
            assert A.det() == want
            assert linalg.det_reps(F.arith, A._reps) == want.rep


class TestNoElementOps:
    """While ``factor`` runs, the eliminations and the algorithms on them
    make no FieldElement arithmetic and no ``_check``."""

    WATCHED = ("_rref", "Matrix.inverse", "kernel_basis",
               "IndependentSet.reduce", "IndependentSet.add", "Matrix.apply",
               "unipotent_jordan", "single_block_jordan",
               "similarity_to_diagonal", "diagonalize_triangular")

    def test_factor(self, monkeypatch, memos):
        # memos: the J_k(1) blocks are built afresh, which is where the
        # eliminations run when the Sourour parts are single blocks
        codes = {}
        for name in self.WATCHED:
            obj = linalg
            for part in name.split("."):
                obj = getattr(obj, part)
            codes[obj.__code__] = name
        reached, outside = Counter(), Counter()

        def spy(op, fn):
            def wrapped(*args, **kwargs):
                frame = sys._getframe(1)
                while frame is not None and frame.f_code not in codes:
                    frame = frame.f_back
                if frame is None:
                    outside[op] += 1
                else:
                    reached[codes[frame.f_code], op] += 1
                return fn(*args, **kwargs)
            return wrapped

        for op in ("__add__", "__sub__", "__mul__", "inverse", "_check"):
            monkeypatch.setattr(FieldElement, op,
                                spy(op, getattr(FieldElement, op)))
        entered = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                entered.add(codes[frame.f_code])

        for spec, n in (("GF(10007)", 12), ("GF(9)", 6)):
            F = parse_field_spec(spec)
            A = random_sl(F, n, random.Random(spec))
            sys.setprofile(profile)
            try:
                f = factor(A)
            finally:
                sys.setprofile(None)
            assert f.target == A and verify(f).passed
        assert reached == Counter()
        # the spies are installed, and the watched functions did run
        assert outside["__mul__"] > 0 and outside["_check"] > 0
        assert entered >= {"_rref", "Matrix.inverse", "IndependentSet.add",
                           "unipotent_jordan", "single_block_jordan",
                           "diagonalize_triangular"}
