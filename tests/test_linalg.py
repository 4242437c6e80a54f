"""Exact linear algebra core: frozen examples plus seeded property checks."""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from corings import algebra, galois, linalg, morita
from corings.algebra import Bimodule, product_field_algebra, validate_bimodule
from corings.dualring import dual_ring
from corings.fixtures import fixture, fixture_file_text
from corings.hopf import (
    cofree_hopf,
    coring_from_comodule_algebra,
    regular_comodule_algebra,
)
from corings.linalg import (
    LinearSystem,
    Mat,
    QuotientSpace,
    balanced_quotient,
    block_matrix,
    combine,
    deinterleave,
    hsplit,
    hstack,
    interleave,
    inverse,
    kernel,
    kron_after,
    quotient_by,
    rank,
    regroup,
    row_space,
    rowspace_coords,
    rref,
    rref_pivots,
    sandwich_operator,
    solve,
    tensor_k,
    tensor_slice_operator,
    tensor_vec,
    triple_balanced_quotient,
    unit_vec,
    unvec_rows,
    vec_rows,
    vstack,
)
from corings.morita import _ring_as_module, graded_hom
from corings.scalars import GF, QQ, DimensionMismatch, Field, FieldMismatch
from corings.structfile import main_structure, parse
from corings.suites import run_suite
from helpers import (
    Dense,
    coords_in,
    cyclic_group,
    dense_block_matrix,
    dense_hstack,
    dense_inverse,
    dense_kernel,
    dense_quotient,
    dense_quotient_by,
    dense_rref_pivots,
    dense_solve,
    dense_tensor,
    dense_triple_quotient,
    dense_vec_rows,
    dense_vstack,
    entry,
    field_add,
    field_mul,
    field_sub,
    from_cols,
    group_hopf_algebra,
    mixed_mat,
    reference_balanced_quotient,
    reference_per_element,
    reference_solve,
)

C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"


def M(rows, field=QQ):
    return Mat.from_rows(field, rows)


# -- rref ---------------------------------------------------------------------

def test_rref_identity_is_fixed():
    m = Mat.identity(QQ, 2)
    assert rref(m) == m


def test_rref_zero_is_fixed():
    m = Mat.zeros(QQ, 2, 2)
    assert rref(m) == m


def test_rref_rank_one():
    # hand Gaussian elimination: [[2,4],[1,2]] -> r2 := r2 - (1/2)r1, scale r1
    assert rref(M([[2, 4], [1, 2]])) == M([[1, 2], [0, 0]])


def test_rref_idempotent_on_random_samples():
    rng = random.Random(0)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Mat(QQ, rows, cols, tuple(QQ.of(rng.randrange(-3, 4)) for _ in range(rows * cols)))
        r = rref(m)
        assert rref(r) == r


def test_rref_mod_p():
    m = Mat.from_rows(GF(5), [[2, 4], [1, 2]])
    assert rref(m) == Mat.from_rows(GF(5), [[1, 2], [0, 0]])


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        M([[1]]) @ Mat.from_rows(GF(3), [[1]])


# -- kernel ---------------------------------------------------------------------

def test_kernel_of_identity_is_empty():
    assert kernel(Mat.identity(QQ, 3)).rows == 0


def test_kernel_of_zero_is_standard_basis():
    assert kernel(Mat.zeros(QQ, 2, 3)) == Mat.identity(QQ, 3)


def test_kernel_one_relation():
    # solving x + y = 0 by hand gives the line through (1, -1)
    k = kernel(M([[1, 1]]))
    assert k.rows == 1
    assert row_space(k) == row_space(M([[1, -1]]))


def test_kernel_rank_nullity_on_random_samples():
    rng = random.Random(1)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Mat(QQ, rows, cols, tuple(QQ.of(rng.randrange(-2, 3)) for _ in range(rows * cols)))
        k = kernel(m)
        assert rank(m) + k.rows == cols
        for i in range(k.rows):
            assert all(x == 0 for x in m.apply(k.row(i)))


# -- solve ---------------------------------------------------------------------

def test_solve_identity():
    assert solve(Mat.identity(QQ, 3), (1, 2, 3)) == (1, 2, 3)


def test_solve_inconsistent_returns_none():
    assert solve(Mat.zeros(QQ, 2, 2), (1, 0)) is None


def test_solve_underdetermined_sets_free_vars_to_zero():
    assert solve(M([[1, 1]]), (2,)) == (2, 0)


def test_solve_shape_check():
    with pytest.raises(DimensionMismatch):
        solve(M([[1, 1]]), (1, 2))


def test_solve_brings_the_right_hand_side_into_the_field():
    f7 = GF(7)
    assert solve(Mat.identity(f7, 2), (8, -1)) == (1, 6) == reference_solve(Mat.identity(f7, 2), (8, -1))
    assert solve(Mat.identity(f7, 2), (7, 14)) == (0, 0)
    got = solve(M([[2]]), (Fraction(4, 2),))
    assert got == (1,) and type(got[0]) is int
    assert solve(M([[2]]), ("1/2",)) == (Fraction(1, 4),)
    assert solve(Mat.identity(f7, 1), ("9",)) == (2,)


def test_inverse_roundtrip():
    m = M([[1, 2], [3, 5]])
    assert m @ inverse(m) == Mat.identity(QQ, 2)


# -- quotients -------------------------------------------------------------------

def check_quotient_invariants(q: QuotientSpace):
    assert q.proj @ q.sect == Mat.identity(q.field, q.dim)
    if q.relations.rows:
        assert (q.proj @ q.relations.transpose()).is_zero()
    assert q.dim == q.ambient_dim - q.relations.rows


def test_quotient_no_relations():
    q = quotient_by(QQ, 3, None)
    assert q.dim == 3
    assert q.proj == Mat.identity(QQ, 3)
    assert q.sect == Mat.identity(QQ, 3)


def test_quotient_full_relations():
    q = quotient_by(QQ, 2, Mat.identity(QQ, 2))
    assert q.dim == 0


def test_quotient_diagonal_line():
    # relation e0 - e1: both basis vectors land in the same class
    q = quotient_by(QQ, 2, M([[1, -1]]))
    assert q.dim == 1
    assert q.project((1, 0)) == q.project((0, 1))
    check_quotient_invariants(q)


def test_quotient_invariants_on_random_samples():
    rng = random.Random(2)
    for _ in range(25):
        amb = rng.randrange(1, 6)
        nrel = rng.randrange(0, 4)
        rel = Mat(QQ, nrel, amb, tuple(QQ.of(rng.randrange(-2, 3)) for _ in range(nrel * amb)))
        check_quotient_invariants(quotient_by(QQ, amb, row_space(rel)))


# -- kronecker --------------------------------------------------------------------

def test_tensor_of_identities():
    assert tensor_k(Mat.identity(QQ, 2), Mat.identity(QQ, 3)) == Mat.identity(QQ, 6)


def test_tensor_with_zero():
    f = M([[1, 2], [3, 4]])
    assert tensor_k(f, Mat.zeros(QQ, 2, 2)).is_zero()


def test_tensor_scalars():
    assert tensor_k(M([[2]]), M([[3]])) == M([[6]])


def test_tensor_is_functorial_on_random_samples():
    rng = random.Random(3)
    for _ in range(15):
        def r(n, m):
            return Mat(QQ, n, m, tuple(QQ.of(rng.randrange(-2, 3)) for _ in range(n * m)))
        f, f2 = r(2, 3), r(3, 2)
        g, g2 = r(2, 2), r(2, 3)
        assert tensor_k(f @ f2, g @ g2) == tensor_k(f, g) @ tensor_k(f2, g2)


def test_tensor_is_bilinear_on_random_samples():
    rng = random.Random(4)
    for _ in range(15):
        def r():
            return Mat(QQ, 2, 2, tuple(QQ.of(rng.randrange(-2, 3)) for _ in range(4)))
        f, f2, g = r(), r(), r()
        assert tensor_k(f + f2, g) == tensor_k(f, g) + tensor_k(f2, g)
        assert tensor_k(f, g + f2) == tensor_k(f, g) + tensor_k(f, f2)


# -- misc helpers ------------------------------------------------------------------

def test_stacking():
    a, b = M([[1, 2]]), M([[3, 4]])
    assert vstack([a, b]) == M([[1, 2], [3, 4]])
    assert hstack([a, b]) == M([[1, 2, 3, 4]])


def test_coords_in_rowspace():
    basis = M([[1, 0, 1], [0, 1, 1]])
    assert coords_in(basis, (2, 3, 5)) == (2, 3)
    assert coords_in(basis, (0, 0, 1)) is None


def test_balanced_quotient_trivial_middle():
    # middle ring acting by zero on both sides: no relations survive except 0
    z = [Mat.zeros(QQ, 2, 2)]
    q = balanced_quotient(QQ, 2, 2, z, z)
    assert q.dim == 4


# -- the linear system builder -----------------------------------------------------

def random_mat(field, rows, cols, rng):
    return Mat(field, rows, cols, tuple(field.random(rng) for _ in range(rows * cols)))


def system_matrix(sys: LinearSystem) -> Mat:
    """The equations a system holds as a dense matrix: its kept rows, then
    the unit row e_c of each zeroed column c in ascending order."""
    F = sys.field
    rows = sys.rows + [{c: F.one} for c in sorted(sys.zeroed)]
    data = []
    for row in rows:
        data.extend(row.get(j, F.zero) for j in range(sys.width))
    return Mat(F, len(rows), sys.width, tuple(data))


def stored(equations) -> tuple[list, set]:
    """The kept rows and the zeroed columns of a system to which the dense
    equations (one matrix over the system's columns each) were added in
    order: each row without the columns zeroed before its equation, its
    column zeroed when one entry is left, and otherwise kept unless it is
    zero or repeats a kept row."""
    rows, zeroed = [], set()
    for eq in equations:
        new = set()
        for i in range(eq.rows):
            row = {j: x for j, x in enumerate(eq.row(i)) if x and j not in zeroed}
            if len(row) == 1:
                new |= row.keys()
            elif row and row not in rows:
                rows.append(row)
        zeroed |= new
    return rows, zeroed


def one_entry_columns(m: Mat) -> set:
    return {j for i in range(m.rows) for j, x in enumerate(m.row(i))
            if x and sum(map(bool, m.row(i))) == 1}


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_one_term_system_is_the_reference_operator(field):
    rng = random.Random(5)
    for _ in range(12):
        fn, fm, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        P = random_mat(field, rng.randint(1, 3), fn * c, rng)
        S = random_mat(field, fm * c, rng.randint(1, 3), rng)
        sys = LinearSystem(field, {"x": (fn, fm)})
        sys.add((1, "x", P, S, c))
        if c == 1:
            ref = sandwich_operator(P, S, fn, fm)
        else:
            ref = tensor_slice_operator(P, S, c, fn, fm)
        assert (sys.rows, sys.zeroed) == stored([ref])
        assert sys.zeroed == one_entry_columns(ref)
        assert sys.kernel() == kernel(ref)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_unknowns_sit_at_their_offsets(field):
    rng = random.Random(6)
    P1, S1 = random_mat(field, 2, 2, rng), random_mat(field, 3, 2, rng)
    P2, S2 = random_mat(field, 2, 1, rng), random_mat(field, 2, 2, rng)
    sys = LinearSystem(field, {"a": (2, 3), "b": (1, 2)})
    sys.add((1, "a", P1, S1), (-1, "b", P2, S2))
    op1 = sandwich_operator(P1, S1, 2, 3)
    op2 = sandwich_operator(P2, S2, 1, 2).scale(-1)
    assert (sys.rows, sys.zeroed) == stored([hstack([op1, op2])])
    for a, b in sys.basis():
        assert (a.rows, a.cols, b.rows, b.cols) == (2, 3, 1, 2)
        assert P1 @ a @ S1 == P2 @ b @ S2


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_terms_on_one_unknown_sum(field):
    rng = random.Random(7)
    P1, S1 = random_mat(field, 3, 2, rng), random_mat(field, 2, 2, rng)
    P2, S2 = random_mat(field, 3, 2, rng), random_mat(field, 2, 2, rng)
    sys = LinearSystem(field, {"x": (2, 2)})
    sys.add((1, "x", P1, S1), (-1, "x", P2, S2))
    ref = sandwich_operator(P1, S1, 2, 2) - sandwich_operator(P2, S2, 2, 2)
    assert (sys.rows, sys.zeroed) == stored([ref])
    # terms that cancel leave no equation at all
    sys = LinearSystem(field, {"x": (2, 2)})
    sys.add((1, "x", P1, S1), (-1, "x", P1, S1))
    assert (sys.rows, sys.zeroed) == ([], set())


def test_dropped_zero_rows_leave_the_kernel():
    P = M([[1, 0], [0, 0], [2, 0]])
    S = M([[1, 1]])
    sys = LinearSystem(QQ, {"x": (2, 1)})
    sys.add((1, "x", P, S))
    ref = sandwich_operator(P, S, 2, 1)
    # two zero rows, and each nonzero row twice, with one entry at column 0
    assert ref.rows == 6 and (sys.rows, sys.zeroed) == ([], {0})
    assert (sys.rows, sys.zeroed) == stored([ref])
    assert sys.kernel() == kernel(ref)


def test_only_the_rows_a_term_touches_are_made(monkeypatch):
    made, real_add_term = [], linalg._add_term

    def add_term(rows, *args):
        real_add_term(rows, *args)
        made.append(sorted(rows))

    monkeypatch.setattr(linalg, "_add_term", add_term)
    # rows (p, s) at 2p + s; the zero row p = 1 of P is never touched
    sys = LinearSystem(QQ, {"x": (2, 1)})
    sys.add((1, "x", M([[1, 0], [0, 0], [2, 0]]), M([[1, 1]])))
    assert made == [[0, 1, 4, 5]]


def equation_operator(field, shapes: dict, terms) -> Mat:
    """The dense rows of one equation over the unknowns of shapes, one
    reference operator per term, summed on each unknown."""
    ops = {}
    for sign, name, P, S, c in terms:
        fn, fm = shapes[name]
        op = tensor_slice_operator(P, S, c, fn, fm).scale(sign)
        ops[name] = ops[name] + op if name in ops else op
    height = next(iter(ops.values())).rows
    return hstack([ops.get(name, Mat.zeros(field, height, fn * fm)) for name, (fn, fm) in shapes.items()])


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_repeated_equations_are_kept_once(field):
    rng = random.Random(31)
    repeats = 0
    for _ in range(40):
        fn, fm, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        shapes = {"x": (fn, fm), "y": (fn, fm)}
        P = mixed_mat(field, rng.randint(1, 3), fn * c, rng)
        S = mixed_mat(field, fm * c, rng.randint(1, 3), rng)
        Q = mixed_mat(field, P.rows, fn * c, rng)
        # a term whose rows repeat: P and S stacked twice
        twice = ((1, "x", vstack([P, P]), hstack([S, S]), c),)
        pair = ((1, "x", P, S, c), (field.of(-2), "y", Q, S, c))
        sys = LinearSystem(field, shapes)
        for terms in (twice, pair, twice, pair):
            sys.add(*terms)
        equations = [equation_operator(field, shapes, terms) for terms in (twice, pair, twice, pair)]
        ref = vstack(equations)
        assert (sys.rows, sys.zeroed) == stored(equations)
        assert len({frozenset(row.items()) for row in sys.rows}) == len(sys.rows)
        assert_canonical(field, [x for row in sys.rows for x in row.values()])
        assert sys.kernel() == kernel(ref) == dense_kernel(ref)
        long_rows = [r for r in map(ref.row, range(ref.rows)) if sum(map(bool, r)) > 1]
        repeats += len(long_rows) - len(set(long_rows))
    assert repeats > 0


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_repeated_generators_leave_the_balanced_quotient(field):
    rng = random.Random(32)
    for _ in range(40):
        dm, dn, t = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        right = [mixed_mat(field, dm, dm, rng) for _ in range(t)]
        left = [mixed_mat(field, dn, dn, rng) for _ in range(t)]
        q = balanced_quotient(field, dm, dn, right, left)
        # every generator again, and a middle element acting by zero
        q2 = balanced_quotient(field, dm, dn, right + right + [Mat.zeros(field, dm, dm)],
                               left + left + [Mat.zeros(field, dn, dn)])
        assert same_quotient(q2, q)


def action_mat(field, n, rng, pool):
    """An n x n action matrix whose columns are empty, one-entry, mixed (see
    `mixed_mat`) or a repeat of a column in pool, which collects them."""
    cols = []
    for _ in range(n):
        kind = rng.choice(("empty", "one", "mixed", "repeat"))
        if kind == "repeat" and pool:
            col = rng.choice(pool)
        elif kind == "empty":
            col = [field.zero] * n
        elif kind == "one":
            col = [field.zero] * n
            col[rng.randrange(n)] = field.of(rng.choice((1, -1, 2, 5)))
        else:
            col = list(mixed_mat(field, n, 1, rng).col(0))
        pool.append(col)
        cols.append(col)
    return Mat._from_cols(field, cols, n)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_balanced_quotient_matches_the_reference_loop(field, monkeypatch):
    eliminated = []
    real = linalg._eliminate_zeroed

    def eliminate_zeroed(field, rows, zeroed):
        eliminated.append(([dict(row) for row in rows], set(zeroed)))
        return real(field, rows, zeroed)

    monkeypatch.setattr(linalg, "_eliminate_zeroed", eliminate_zeroed)
    one, two = field.one, field.of(2)
    # column 0 of R is empty and column 0 of L has one entry, at 1, so
    # column 0 * 2 + 1 is zeroed; the two-sided relation of (i, k) = (1, 1)
    # holds it, from the entry of R at (0, 1)
    R = Mat.from_rows(field, [[0, one], [0, two]])
    L = Mat.from_rows(field, [[0, two], [one, one]])
    cases = [(2, 2, [R], [L])]
    rng = random.Random(33)
    for _ in range(60):
        dm, dn, t = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
        mpool, npool = [], []
        cases.append((dm, dn, [action_mat(field, dm, rng, mpool) for _ in range(t)],
                      [action_mat(field, dn, rng, npool) for _ in range(t)]))
    for dm, dn, right, left in cases:
        q = balanced_quotient(field, dm, dn, right, left)
        assert q == reference_balanced_quotient(field, dm, dn, right, left)
        assert_canonical(field, [x for m in (q.proj, q.sect) for row in m._entries for _, x in row])
    assert len(eliminated) == len(cases)
    rows, zeroed = eliminated[0]
    assert zeroed == {1} and any(1 in row for row in rows)
    assert all(len(row) > 1 for rows, _ in eliminated for row in rows)
    assert sum(bool(zeroed) for _, zeroed in eliminated) > 20


def test_no_one_entry_or_repeated_relation_row_reaches_the_eliminator(monkeypatch):
    in_quotient, rows_eliminated = [], []
    real_quotient, real_eliminate = linalg.balanced_quotient, linalg._eliminate

    def eliminate(field, rows):
        if in_quotient:
            rows_eliminated.append([dict(row) for row in rows if row])
        return real_eliminate(field, rows)

    def quotient(*args):
        in_quotient.append(args)
        try:
            return real_quotient(*args)
        finally:
            in_quotient.pop()

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    for module in (linalg, algebra, galois, morita):
        monkeypatch.setattr(module, "balanced_quotient", quotient)
    run_suite(main_structure(parse(C3.read_bytes())), "graded-morita", 0)
    # the relation rows of c3 were 1728, 972 of them one-entry and 864 repeats
    assert 0 < sum(map(len, rows_eliminated)) <= 756
    for rows in rows_eliminated:
        assert all(len(row) > 1 for row in rows)
        assert len({frozenset(row.items()) for row in rows}) == len(rows)
    rows_eliminated.clear()
    for name in FIXTURES:
        run_suite(load(name), "all", 0)
    # 680 rows, 304 of them one-entry; sweedler repeats four two-sided ones
    assert 0 < sum(map(len, rows_eliminated)) <= 372
    assert all(len(row) > 1 for rows in rows_eliminated for row in rows)


def test_no_repeated_system_row_reaches_the_eliminator_on_c3(monkeypatch):
    in_kernel, rows_eliminated = [], []
    real_eliminate, real_kernel = linalg._eliminate, LinearSystem.kernel

    def eliminate(field, rows):
        if in_kernel:
            assert len({frozenset(row.items()) for row in rows}) == len(rows)
            rows_eliminated.append(len(rows))
        return real_eliminate(field, rows)

    def kernel(self):
        in_kernel.append(self)
        try:
            return real_kernel(self)
        finally:
            in_kernel.pop()

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(LinearSystem, "kernel", kernel)
    run_suite(main_structure(parse(C3.read_bytes())), "graded-morita", 0)
    # 1518 distinct rows of 6630 stored with their repeats, less the 552
    # one-entry rows, which are kept as zeroed columns
    assert 0 < sum(rows_eliminated) <= 1518 - 552


def test_graded_hom_eliminates_no_one_entry_row_and_no_zeroed_column_on_c3(monkeypatch):
    systems, eliminated = [], []
    real_graded_hom, real_kernel, real_eliminate = morita.graded_hom, LinearSystem.kernel, linalg._eliminate

    def graded_hom(m, n, sigma):
        monkeypatch.setattr(LinearSystem, "kernel", kernel)
        try:
            return real_graded_hom(m, n, sigma)
        finally:
            monkeypatch.setattr(LinearSystem, "kernel", real_kernel)

    def kernel(self):
        systems.append(self)
        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        try:
            return real_kernel(self)
        finally:
            monkeypatch.setattr(linalg, "_eliminate", real_eliminate)

    def eliminate(field, rows):
        eliminated.append((systems[-1], [dict(row) for row in rows]))
        return real_eliminate(field, rows)

    monkeypatch.setattr(morita, "graded_hom", graded_hom)
    run_suite(main_structure(parse(C3.read_bytes())), "graded-morita", 0)
    assert len(eliminated) == len(systems) > 0
    for sys, rows in eliminated:
        assert all(len(row) > 1 and sys.zeroed.isdisjoint(row) for row in rows)
    # one-entry rows zero columns in every degree-sigma hom system
    assert all(sys.zeroed for sys in systems)


def scalar(field, x: Fraction):
    """x in field: x itself over QQ, its numerator over its denominator mod p."""
    return field.of(x) if field.p is None else x.numerator * pow(x.denominator, -1, field.p) % field.p


def rows_terms(field, R: Mat, shapes: dict) -> tuple:
    """Terms whose equation rows are the rows of R, over unknowns of shapes
    (1, w) laid side by side: one term x @ I @ R_x^T per unknown x, R_x
    the columns of R at x."""
    terms, off = [], 0
    for name, (_, w) in shapes.items():
        part = Mat.from_rows(field, [R.row(i)[off:off + w] for i in range(R.rows)])
        terms.append((1, name, Mat.identity(field, 1), part.transpose()))
        off += w
    return tuple(terms)


def assert_solves_like_the_dense_reference(sys: LinearSystem, equations: list):
    F = sys.field
    assert (sys.rows, sys.zeroed) == stored(equations)
    ref = vstack(equations)
    want = dense_kernel(ref)
    assert sys.kernel() == want == kernel(ref)
    assert row_space(system_matrix(sys)) == row_space(ref)
    layout, off = [], 0
    for fn, fm in sys.shapes.values():
        layout.append((off, fn, fm))
        off += fn * fm
    assert sys.basis() == [tuple(Mat(F, fn, fm, want.row(i)[o:o + fn * fm]) for o, fn, fm in layout)
                           for i in range(want.rows)]


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_zeroed_columns_solve_like_the_dense_reference(field):
    def R(*rows):
        return Mat.from_rows(field, [[scalar(field, Fraction(x)) for x in row] for row in rows])

    shapes = {"x": (1, 3), "y": (1, 3)}
    sys, equations = LinearSystem(field, shapes), []

    def add(eq):
        sys.add(*rows_terms(field, eq, shapes))
        equations.append(eq)
        assert_solves_like_the_dense_reference(sys, equations)

    # two kept rows with fractions; column 4 zeroed twice in one equation,
    # after the first kept row already holds it
    add(R(["1/2", "-2/3", 0, 0, "3/5", 0],
          [0, "3/4", 0, 5, 0, "1/2"],
          [0, 0, 0, 0, "7/3", 0],
          [0, 0, 0, 0, -2, 0]))
    assert sys.zeroed == {4} and 4 in sys.rows[0]
    # an equation on zeroed columns only leaves the system as it was
    before = ([dict(row) for row in sys.rows], set(sys.zeroed))
    add(R([0, 0, 0, 0, 1, 0], [0, 0, 0, 0, "-5/2", 0]))
    assert (sys.rows, sys.zeroed) == before
    # a new column zeroed, and a row that has one entry left once the
    # zeroed column 4 is skipped
    add(R([0, 0, "4/3", 0, 0, 0], [1, 0, 0, 0, 6, 0]))
    assert sys.zeroed == {0, 2, 4} and len(sys.rows) == 2
    assert sys.kernel().rows == 1


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_random_zeroed_columns_solve_like_the_dense_reference(field):
    rng = random.Random(33)
    seen = set()
    for _ in range(60):
        shapes = {"x": (1, rng.randint(1, 4)), "y": (1, rng.randint(0, 3))}
        width = sum(w for _, w in shapes.values())
        sys, equations = LinearSystem(field, shapes), []
        for _ in range(rng.randint(1, 4)):
            rows = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.5:
                    row = [field.zero] * width
                    row[rng.randrange(width)] = mixed_mat(field, 1, 1, rng).row(0)[0] or field.one
                else:
                    row = list(mixed_mat(field, 1, width, rng).row(0))
                rows.append(row)
                if rng.random() < 0.2:
                    rows.append(row)
            eq = Mat.from_rows(field, rows)
            zeroed = set(sys.zeroed)
            sys.add(*rows_terms(field, eq, shapes))
            equations.append(eq)
            assert_solves_like_the_dense_reference(sys, equations)
            one_entry = [next(j for j, x in enumerate(r) if x) for r in rows if sum(map(bool, r)) == 1]
            if len(one_entry) > len(set(one_entry)) or set(one_entry) & zeroed:
                seen.add("zeroed twice")
            if any(sys.zeroed.intersection(row) for row in sys.rows):
                seen.add("zeroed after a kept row holds it")
            if all(j in zeroed for r in rows for j, x in enumerate(r) if x) and zeroed:
                seen.add("every entry zeroed")
            if field.p is None and any(type(x) is Fraction and not sys.zeroed.isdisjoint(row)
                                       for row in sys.rows for x in row.values()):
                seen.add("fractions meet a zeroed column")
    fractions = {"fractions meet a zeroed column"} if field.p is None else set()
    assert seen == {"zeroed twice", "zeroed after a kept row holds it", "every entry zeroed"} | fractions


def test_identities_are_shared_and_keep_their_rows():
    for field in (QQ, GF(101)):
        for n in range(4):
            assert Mat.identity(field, n) is Mat.identity(field, n)
            # an equal field object gets an identity that holds it
            other = Field(field.p)
            assert Mat.identity(other, n).field is other
            assert Mat.identity(other, n) == Mat.identity(field, n)
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        run_suite(fixture(name), "all", 0)
    assert max(n for _, n in linalg._IDENTITIES) > 3
    for (p, n), m in linalg._IDENTITIES.items():
        assert (m.field.p, m.rows, m.cols) == (p, n, n)
        assert m._entries == [[(i, 1)] for i in range(n)]
        assert m._is_identity


def test_empty_system_gives_the_identity_basis():
    sys = LinearSystem(QQ, {"a": (1, 2), "b": (2, 1)})
    assert sys.kernel() == Mat.identity(QQ, 4)
    basis = sys.basis()
    assert len(basis) == 4
    assert basis[0] == (M([[1, 0]]), M([[0], [0]]))
    assert basis[3] == (M([[0, 0]]), M([[0], [1]]))


def test_terms_on_an_empty_unknown_are_skipped():
    sys = LinearSystem(QQ, {"a": (0, 2), "b": (1, 1)})
    sys.add((1, "a", Mat.zeros(QQ, 1, 0), Mat.zeros(QQ, 2, 1)), (1, "b", M([[2]]), M([[1]])))
    assert sys.basis() == []


# -- the field-specialised loops against plain Field-method loops ------------------
#
# The references below are the straightforward loops the library used before
# its products and elimination accumulated with plain operators; every result
# must be equal and in canonical form (see corings.scalars).

def ref_matmul(a: Mat, b: Mat) -> Mat:
    F = a.field
    data = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = F.zero
            for t in range(a.cols):
                s = field_add(F, s, field_mul(F, entry(a, i, t), entry(b, t, j)))
            data.append(s)
    return Mat(F, a.rows, b.cols, tuple(data))


def ref_rref(m: Mat) -> Mat:
    F = m.field
    rows = [list(m.row(i)) for i in range(m.rows)]
    r = 0
    for c in range(m.cols):
        sel = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [field_mul(F, inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field_sub(F, x, field_mul(F, f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return Mat(F, m.rows, m.cols, tuple(x for row in rows for x in row))


def ref_tensor_slice(P: Mat, S: Mat, c: int, fn: int, fm: int) -> Mat:
    """Column (n, u) is the flattened P[:, n-th slice] @ S[u-th slice, :]."""
    F = P.field
    cols = []
    for n in range(fn):
        pslice = from_cols(F, [P.col(n * c + k) for k in range(c)])
        for u in range(fm):
            sslice = Mat(F, c, S.cols, S.data[u * c * S.cols:(u * c + c) * S.cols])
            cols.append(ref_matmul(pslice, sslice).data)
    return from_cols(F, cols)


def assert_canonical(field, values):
    for x in values:
        if field.p is None:
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1), x
        else:
            assert type(x) is int and 0 <= x < field.p, x


@pytest.mark.parametrize("field", [QQ, GF(101), GF(1000003)])
def test_specialised_loops_match_the_plain_loops(field):
    rng = random.Random(8)
    for _ in range(40):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, a2, b = mixed_mat(field, n, k, rng), mixed_mat(field, n, k, rng), mixed_mat(field, k, m, rng)
        v = mixed_mat(field, k, 1, rng).data
        s = field.of(3 if field.p else Fraction(-3, 2))
        results = [
            (a @ b, ref_matmul(a, b)),
            (Mat(field, n, 1, a.apply(v)), ref_matmul(a, Mat(field, k, 1, v))),
            (tensor_k(a, b), dense_tensor(a, b).mat()),
            (Mat(field, 1, k * n, tensor_vec(field, v, a.col(0))),
             dense_tensor(Mat(field, 1, k, v), Mat(field, 1, n, a.col(0))).mat()),
            (rref(vstack([a, a2, a + a2])), ref_rref(vstack([a, a2, a + a2]))),
            (a + a2, Mat(field, n, k, tuple(field_add(field, x, y) for x, y in zip(a.data, a2.data)))),
            (a - a2, Mat(field, n, k, tuple(field_sub(field, x, y) for x, y in zip(a.data, a2.data)))),
            (a.scale(s), Mat(field, n, k, tuple(field_mul(field, s, x) for x in a.data))),
            (a.transpose(), Mat.from_rows(field, [a.col(j) for j in range(k)])),
        ]
        c, fn, fm = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        P, S = mixed_mat(field, rng.randint(1, 3), fn * c, rng), mixed_mat(field, fm * c, rng.randint(1, 3), rng)
        results.append((tensor_slice_operator(P, S, c, fn, fm), ref_tensor_slice(P, S, c, fn, fm)))
        P = mixed_mat(field, rng.randint(1, 3), fn, rng)
        S = mixed_mat(field, fm, rng.randint(1, 3), rng)
        results.append((sandwich_operator(P, S, fn, fm), ref_tensor_slice(P, S, 1, fn, fm)))
        for got, want in results:
            assert got == want
            assert_canonical(field, got.data)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(1000003)])
def test_kron_after_is_the_product_with_the_kronecker_product(field):
    rng = random.Random(11)
    for _ in range(150):
        xr, xc, yr, yc, rows = (rng.randint(0, 4) for _ in range(5))
        m, x, y = (mixed_mat(field, rows, xr * yr, rng), mixed_mat(field, xr, xc, rng),
                   mixed_mat(field, yr, yc, rng))
        got = kron_after(m, x, y)
        assert got == m @ tensor_k(x, y), (m, x, y)
        assert_canonical(field, got.data)
    ident = Mat.identity(field, 3)
    m = mixed_mat(field, 2, 9, rng)
    assert kron_after(m, ident, ident) == m
    with pytest.raises(DimensionMismatch):
        kron_after(m, ident, Mat.identity(field, 2))
    with pytest.raises(FieldMismatch):
        kron_after(m, ident, Mat.identity(GF(7), 3))


@pytest.mark.parametrize("field", [QQ, GF(101), GF(1000003)])
def test_tensor_slice_operator_matches_the_per_slice_products(field):
    rng = random.Random(12)
    for _ in range(150):
        c, fn, fm = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
        P = mixed_mat(field, rng.randint(0, 4), fn * c, rng)
        S = mixed_mat(field, fm * c, rng.randint(0, 4), rng)
        got = tensor_slice_operator(P, S, c, fn, fm)
        assert got == ref_tensor_slice(P, S, c, fn, fm)
        assert_canonical(field, got.data)


# -- degree blocks and linear combinations --------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_block_matrix_matches_the_entrywise_reference(field):
    rng = random.Random(11)
    for _ in range(40):
        row_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        col_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
        blocks = {(i, j): mixed_mat(field, row_dims[i], col_dims[j], rng)
                  for i in range(len(row_dims)) for j in range(len(col_dims))
                  if rng.random() < 0.5}
        got = block_matrix(field, row_dims, col_dims, blocks)
        assert got == dense_block_matrix(field, row_dims, col_dims, blocks).mat()
        assert_canonical(field, got.data)


def test_block_matrix_without_blocks_is_zero():
    assert block_matrix(QQ, [2, 1], [1, 3], {}) == Mat.zeros(QQ, 3, 4)
    assert block_matrix(QQ, [], [], {}) == Mat(QQ, 0, 0, ())


def test_block_matrix_rejects_a_misshaped_block():
    with pytest.raises(DimensionMismatch):
        block_matrix(QQ, [2, 1], [1, 3], {(0, 1): Mat.zeros(QQ, 2, 2)})
    with pytest.raises(FieldMismatch):
        block_matrix(QQ, [1], [1], {(0, 0): Mat.identity(GF(101), 1)})


@pytest.mark.parametrize("field", [QQ, GF(101), GF(1000003)])
def test_combine_matches_the_field_reference_loop(field):
    rng = random.Random(12)
    for _ in range(40):
        rows, cols, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
        mats = [mixed_mat(field, rows, cols, rng) for _ in range(k)]
        coeffs = mixed_mat(field, 1, k, rng).data
        want = [field.zero] * (rows * cols)
        for m, c in zip(mats, coeffs):
            want = [field_add(field, x, field_mul(field, c, y)) for x, y in zip(want, m.data)]
        got = combine(field, rows, cols, mats, coeffs)
        assert got == Mat(field, rows, cols, tuple(want))
        assert_canonical(field, got.data)


def test_combine_rejects_mismatched_terms():
    with pytest.raises(DimensionMismatch):
        combine(QQ, 2, 2, [Mat.identity(QQ, 2)], [1, 2])
    with pytest.raises(DimensionMismatch):
        combine(QQ, 2, 2, [Mat.identity(QQ, 3)], [1])


# -- the factored row-space solver ---------------------------------------------------

def random_basis(field, rng):
    """Rows of mixed entries, some of them zero and some combinations of
    earlier rows; now and then no rows or no columns at all."""
    rows, cols = rng.choice([0, 1, 2, 3, 4, 5]), rng.choice([0, 1, 2, 3, 4, 6])
    data = []
    for i in range(rows):
        kind = rng.random()
        if kind < 0.15 or not data:
            row = mixed_mat(field, 1, cols, rng).data if kind >= 0.15 else (field.zero,) * cols
        elif kind < 0.4:
            a, b = rng.choice(data), rng.choice(data)
            c = mixed_mat(field, 1, 1, rng).data[0]
            row = tuple(field_add(field, x, field_mul(field, c, y)) for x, y in zip(a, b))
        else:
            row = mixed_mat(field, 1, cols, rng).data
        data.append(row)
    return Mat(field, rows, cols, tuple(x for r in data for x in r))


@pytest.mark.parametrize("field", [QQ, GF(101), GF(1000003)])
def test_coords_in_rowspace_matches_the_transposed_solve(field):
    rng = random.Random(13)
    outside = 0
    for _ in range(150):
        basis = random_basis(field, rng)
        copy = Mat(basis.field, basis.rows, basis.cols, basis.data)
        vecs = [mixed_mat(field, 1, basis.cols, rng).data for _ in range(3)]
        coeffs = mixed_mat(field, 1, basis.rows, rng).data
        vecs.append(tuple(basis.transpose().apply(coeffs)))  # inside the span
        for v in vecs + vecs:  # each vector twice on one factored basis
            got = coords_in(basis, v)
            want = reference_solve(basis.transpose(), v)
            assert got == want == solve(basis.transpose(), v)
            if got is None:
                outside += 1
            else:
                assert type(got) is tuple
                assert_canonical(field, got)
                assert tuple(basis.transpose().apply(got)) == v
        assert basis == copy and hash(basis) == hash(copy) and repr(basis) == repr(copy)
    assert outside > 0


def test_coords_in_rowspace_on_empty_bases():
    assert coords_in(Mat(QQ, 0, 3, ()), (0, 0, 0)) == ()
    assert coords_in(Mat(QQ, 0, 3, ()), (0, 1, 0)) is None
    assert coords_in(Mat(QQ, 2, 0, ()), ()) == (0, 0)
    assert coords_in(Mat(QQ, 0, 0, ()), ()) == ()
    with pytest.raises(DimensionMismatch):
        coords_in(Mat(QQ, 2, 0, ()), (1,))
    # the same cases through solve, on the transposed bases
    assert solve(Mat(QQ, 3, 0, ()), (0, 0, 0)) == ()
    assert solve(Mat(QQ, 3, 0, ()), (0, 1, 0)) is None
    assert solve(Mat(QQ, 0, 2, ()), ()) == (0, 0)
    assert solve(Mat(QQ, 0, 0, ()), ()) == ()
    with pytest.raises(DimensionMismatch):
        solve(Mat(QQ, 0, 2, ()), (1,))


def test_coords_in_rowspace_gives_dependent_rows_zero():
    basis = M([[0, 0, 0], [1, 2, 0], [2, 4, 0], [0, Fraction(1, 2), 1]])
    assert coords_in(basis, (1, 3, 2)) == (0, 1, 0, 2)
    assert coords_in(basis, (1, 3, 2)) == reference_solve(basis.transpose(), (1, 3, 2))
    assert solve(basis.transpose(), (1, 3, 2)) == (0, 1, 0, 2)
    assert coords_in(basis, (0, 0, 1)) is None


@pytest.mark.parametrize("field", [QQ, GF(1000003)])
def test_rowspace_coords_matches_the_row_by_row_solves(field):
    # one batched solve against the transposed solve and its reference, an
    # elimination with an augmented column, row by row, in value and
    # canonical form: bases with dependent and zero rows, and among the rows
    # solved for zero rows, rows in the span and rows outside it
    rng = random.Random(21)
    counts = {"zero": 0, "inside": 0, "outside": 0}
    for _ in range(150):
        basis = random_basis(field, rng)
        vecs = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if kind < 0.2:
                vecs.append((field.zero,) * basis.cols)
            elif kind < 0.6:
                coeffs = mixed_mat(field, 1, basis.rows, rng).data
                vecs.append(tuple(basis.transpose().apply(coeffs)))
            else:
                vecs.append(mixed_mat(field, 1, basis.cols, rng).data)
        rows = Mat(field, len(vecs), basis.cols, tuple(x for v in vecs for x in v))
        coords, outside = rowspace_coords(basis, rows)
        assert (coords.rows, coords.cols) == (len(vecs), basis.rows)
        want = [reference_solve(basis.transpose(), v) for v in vecs]
        assert outside == [i for i, w in enumerate(want) if w is None]
        for i, (v, w) in enumerate(zip(vecs, want)):
            assert solve(basis.transpose(), v) == w
            got = coords.row(i)
            assert_canonical(field, got)
            if w is None:
                counts["outside"] += 1
                assert got == (field.zero,) * basis.rows
            else:
                counts["zero" if not any(v) else "inside"] += 1
                assert_canonical(field, w)
                assert got == w
    assert min(counts.values()) > 0


def test_rowspace_coords_checks_its_operands():
    basis = M([[1, 2, 0], [0, 0, 1]])
    with pytest.raises(DimensionMismatch):
        rowspace_coords(basis, M([[1, 2]]))
    with pytest.raises(FieldMismatch):
        rowspace_coords(basis, Mat(GF(7), 1, 3, (1, 2, 0)))
    coords, outside = rowspace_coords(basis, Mat(QQ, 0, 3, ()))
    assert (coords.rows, coords.cols, outside) == (0, 2, [])


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_regroup_applies_every_basis_element_at_once(field):
    # block i of regroup(m, s, d) is the transpose of w -> m(e_i (x) w), so
    # one kron_after applies every e_i to every stacked matrix
    rng = random.Random(17)
    for _ in range(40):
        s, d, out, k, c = (rng.randint(1, 4) for _ in range(5))
        m = mixed_mat(field, out, s * d, rng)
        blocks = [kron_after(m, Mat.col_vector(field, unit_vec(field, s, i)), Mat.identity(field, d))
                  for i in range(s)]
        grouped = regroup(m, s, d)
        assert grouped == hstack([b.transpose() for b in blocks])
        xs = [mixed_mat(field, d, c, rng) for _ in range(k)]
        applied = kron_after(vec_rows(field, d * c, xs), grouped, Mat.identity(field, c))
        assert applied.reshape(k * s, out * c) == vec_rows(field, out * c,
                                                           [b @ x for x in xs for b in blocks])
    with pytest.raises(DimensionMismatch):
        regroup(Mat.zeros(field, 2, 5), 2, 3)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_interleave_is_the_flattened_right_action(field):
    # column k * n + j of interleave(field, rows, mats) is column k of
    # mats[j], so that it applied to e_k (x) e_j is mats[j] applied to e_k;
    # empty families and matrices keep their shapes
    rng = random.Random(18)
    for _ in range(60):
        rows, cols, n = (rng.randint(0, 3) for _ in range(3))
        mats = [mixed_mat(field, rows, cols, rng) for _ in range(n)]
        got = interleave(field, rows, mats)
        want = Mat(field, rows, cols * n, tuple(entry(mats[t % n], i, t // n)
                                                for i in range(rows) for t in range(cols * n)))
        assert got == want and (got.rows, got.cols) == (rows, cols * n)
        assert_canonical(field, [x for row in got._entries for _, x in row])
        for k in range(cols):
            for j in range(n):
                e = Mat.col_vector(field, unit_vec(field, cols * n, k * n + j))
                assert got @ e == mats[j] @ Mat.col_vector(field, unit_vec(field, cols, k))
    with pytest.raises(DimensionMismatch):
        interleave(field, 2, [Mat.zeros(field, 2, 2), Mat.zeros(field, 2, 3)])
    with pytest.raises(DimensionMismatch):
        interleave(field, 3, [Mat.zeros(field, 2, 2)])
    with pytest.raises(FieldMismatch):
        interleave(field, 1, [Mat.zeros(GF(7), 1, 1)])


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_hsplit_and_deinterleave_invert_hstack_and_interleave(field):
    rng = random.Random(34)
    for _ in range(60):
        rows, width, n = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 4)
        m = mixed_mat(field, rows, width * n, rng)
        parts = hsplit(m, [width] * n)
        assert len(parts) == n and all((p.rows, p.cols) == (rows, width) for p in parts)
        assert hstack(parts) == m
        assert parts == tuple(Mat(field, rows, width, tuple(entry(m, i, k * width + j)
                                                             for i in range(rows) for j in range(width)))
                              for k in range(n))
        mats = deinterleave(m, n)
        assert len(mats) == n and all((p.rows, p.cols) == (rows, width) for p in mats)
        assert interleave(field, rows, mats) == m
        assert mats == tuple(Mat(field, rows, width, tuple(entry(m, i, k * n + j)
                                                            for i in range(rows) for k in range(width)))
                             for j in range(n))
    assert hsplit(Mat.zeros(field, 2, 0), []) == ()
    assert deinterleave(Mat.zeros(field, 2, 0), 0) == ()
    with pytest.raises(DimensionMismatch):
        hsplit(Mat.zeros(field, 2, 5), [2, 2])
    with pytest.raises(DimensionMismatch):
        deinterleave(Mat.zeros(field, 2, 5), 2)
    with pytest.raises(DimensionMismatch):
        hsplit(Mat.zeros(field, 2, 3), [])
    with pytest.raises(DimensionMismatch):
        deinterleave(Mat.zeros(field, 2, 3), 0)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_hsplit_inverts_hstack_for_any_widths(field):
    # unequal widths, zero widths among them, and rows with mixed
    # denominators over QQ
    rng = random.Random(35)
    for _ in range(60):
        rows = rng.randint(0, 4)
        widths = [rng.choice([0, 0, 1, 2, 3, 5]) for _ in range(rng.randint(1, 5))]
        m = mixed_mat(field, rows, sum(widths), rng)
        parts = hsplit(m, widths)
        assert [(p.rows, p.cols) for p in parts] == [(rows, w) for w in widths]
        assert hstack(parts) == m
        start = 0
        for p, w in zip(parts, widths):
            assert p == Mat(field, rows, w, tuple(entry(m, i, start + j)
                                                  for i in range(rows) for j in range(w)))
            start += w
    m = mixed_mat(field, 3, 4, rng)
    for widths in ([1, 2], [2, 3], [0], [4, 1], [5]):
        with pytest.raises(DimensionMismatch):
            hsplit(m, widths)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_deinterleave_reads_the_per_element_blocks_of_the_reshape_reference(field):
    # the per-element blocks of coordinates with rows (j, i), j < k major,
    # are the deinterleaved transpose, with no reshape round trip
    rng = random.Random(36)
    for _ in range(40):
        k, size, h = rng.randint(0, 3), rng.randint(1, 4), rng.randint(0, 3)
        coords = mixed_mat(field, k * size, h, rng)
        assert deinterleave(coords.transpose(), size) == reference_per_element(coords, k, size)


def test_cached_properties_compute_once_into_the_instance_dict():
    calls = []

    class Box:
        @linalg.cached_property
        def value(self):
            """The value."""
            calls.append(self)
            return 7

    class Slotted:
        __slots__ = ()
        value = linalg.cached_property(lambda self: 7)

    box = Box()
    assert isinstance(Box.value, linalg.cached_property) and Box.value.__doc__ == "The value."
    assert "value" not in box.__dict__
    assert (box.value, box.value, calls, box.__dict__["value"]) == (7, 7, [box], 7)
    with pytest.raises(TypeError, match="Slotted"):
        Slotted().value
    m = Mat.from_rows(QQ, [[1, Fraction(1, 2)], [0, 3]])
    assert isinstance(Mat.__dict__["_denominator"], linalg.cached_property)
    assert "_denominator" not in m.__dict__
    assert m._denominator == 2 and m.__dict__["_denominator"] == 2


def test_short_product_rows_keep_their_values_and_order():
    rows = [{}, {3: 0}, {2: 5}, {4: -1, 0: 0, 1: 7}, {1: 0, 0: 0}]
    m = linalg._from_numerators(QQ, rows, 5, 1)
    assert m._entries == [[], [], [(2, 5)], [(1, 7), (4, -1)], []]
    assert m == linalg._from_entries(QQ, rows, 5) and m.__dict__["_denominator"] == 1


# -- triple quotients against the dense reference ----------------------------------
# -- triple quotients against the dense reference ----------------------------------

FIXTURES = ("trivial", "regular", "nongalois", "sweedler")
FIELD_LINES = ("field Q", "field Fp 1000003")


def same_quotient(q: QuotientSpace, ref: QuotientSpace) -> bool:
    return (q.dim, q.proj, q.sect, q.relations) == (ref.dim, ref.proj, ref.sect, ref.relations)


def triple_args(m: Bimodule, n: Bimodule, p: Bimodule) -> tuple:
    return (m.base.field, m.dim, n.dim, p.dim, (m.right, n.left), (n.right, p.left))


def load(name: str, field_line: str = "field Q"):
    text = fixture_file_text(name)
    assert "\nfield Q\n" in text
    return main_structure(parse(text.replace("\nfield Q\n", f"\n{field_line}\n")))


def assert_triples_match_the_reference(mods):
    for m in mods:
        assert validate_bimodule(m).ok
    for m, n, p in itertools.product(mods, repeat=3):
        args = triple_args(m, n, p)
        assert same_quotient(triple_balanced_quotient(*args), dense_triple_quotient(*args))


@pytest.mark.parametrize("field_line", FIELD_LINES)
@pytest.mark.parametrize("name", FIXTURES)
def test_triple_quotient_of_fixture_bimodules_matches_the_dense_reference(name, field_line):
    cor = load(name, field_line).coring
    A = cor.base
    empty = tuple(Mat.zeros(A.field, 0, 0) for _ in range(A.dim))
    zero = Bimodule(A, 0, empty, empty)
    assert_triples_match_the_reference(list(cor.comps) + [Bimodule.regular(A), zero])


@pytest.mark.parametrize("field", [QQ, GF(1000003)])
def test_triple_quotient_of_simple_bimodules_matches_the_dense_reference(field):
    # Over k x k the simple bimodule S_i has both idempotents acting by
    # delta_ik, so S_0 (x) S_1 vanishes and S_0 (x) S_0 is one-dimensional.
    A = product_field_algebra(field, 2)
    s0, s1 = (Bimodule(A, 1, acts, acts)
              for acts in (tuple(Mat.from_rows(field, [[int(k == i)]]) for k in range(2))
                           for i in range(2)))
    assert_triples_match_the_reference([s0, s1, Bimodule.regular(A)])
    assert triple_balanced_quotient(*triple_args(s0, s1, s1)).dim == 0
    assert triple_balanced_quotient(*triple_args(s1, s1, s1)).dim == 1


@pytest.mark.parametrize("name", FIXTURES)
def test_every_triple_of_a_full_run_matches_the_dense_reference(name):
    # each recorded triple is a projection onto (M (x)_A N) (x)_A P, built
    # from two pair quotients; it has the kernel of the quotient by the
    # relations of both junctions exactly when the row spaces agree
    for field_line in FIELD_LINES:
        ms = load(name, field_line)
        run_suite(ms, "all", seed=0)
        F = ms.coring.base.field
        memo = ms.coring.base.memo
        triples = {key[1:]: proj for key, proj in memo.items() if key[0] == "triple"}
        assert triples
        for (d1, d2, d3, r1, l2, r2, l3), proj in triples.items():
            q = dense_triple_quotient(F, d1, d2, d3, (r1, l2), (r2, l3))
            assert (proj.rows, proj.cols) == (q.dim, q.ambient_dim)
            assert row_space(proj) == row_space(q.proj)


@lru_cache(maxsize=None)
def c3_components() -> tuple:
    """The three 9-dimensional components of the coring of regular k[C_3]."""
    g = cyclic_group(3)
    ha = group_hopf_algebra(QQ, g)
    cor, _ = coring_from_comodule_algebra(regular_comodule_algebra(cofree_hopf(ha, g), ha))
    return cor.comps


def test_triple_quotient_of_c3_components_matches_the_dense_reference():
    args = triple_args(*c3_components())
    assert same_quotient(triple_balanced_quotient(*args), dense_triple_quotient(*args))


def test_triple_quotient_eliminates_nothing_over_the_flat_space(monkeypatch):
    shapes = []
    real = linalg._eliminate

    def recording(field, rows):
        # (row count, 1 + the largest column any row touches)
        shapes.append((len(rows), max((max(row) + 1 for row in rows if row), default=0)))
        return real(field, rows)

    monkeypatch.setattr(linalg, "_eliminate", recording)
    m, n, p = c3_components()
    q = triple_balanced_quotient(*triple_args(m, n, p))
    flat = m.dim * n.dim * p.dim
    assert (flat, q.dim) == (729, 81)
    # the widest space of the two balanced quotients and the inverse
    q12 = balanced_quotient(QQ, m.dim, n.dim, m.right, n.left)
    narrow = max(m.dim * n.dim, q12.dim * p.dim, 2 * q.dim)
    assert any(cols > narrow for _, cols in shapes)
    assert shapes and all(rows <= q.dim for rows, cols in shapes if cols > narrow)


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_derived_relations_are_the_row_space_of_the_input(field):
    rng = random.Random(9)
    for _ in range(40):
        amb, nrel, inner = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        rel = mixed_mat(field, nrel, inner, rng) @ mixed_mat(field, inner, amb, rng)
        assert quotient_by(field, amb, rel).relations == row_space(rel)


# -- the sparse eliminator against the dense reference -------------------------------

def random_system(field, rng):
    """A matrix of mixed entries that is now and then all zero, without rows
    or without columns, and often rank-deficient."""
    rows, cols = rng.choice([0, 1, 2, 3, 5, 8]), rng.choice([0, 1, 2, 3, 5, 8])
    kind = rng.random()
    if kind < 0.1:
        return Mat.zeros(field, rows, cols)
    if kind < 0.5:
        inner = rng.randint(0, 3)
        return mixed_mat(field, rows, inner, rng) @ mixed_mat(field, inner, cols, rng)
    return mixed_mat(field, rows, cols, rng)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(1000003)])
def test_sparse_elimination_matches_the_dense_reference(field):
    rng = random.Random(21)
    seen = set()
    for _ in range(300):
        m = random_system(field, rng)
        seen |= {"no rows"} if m.rows == 0 else {"no columns"} if m.cols == 0 else set()
        seen |= {"all zero"} if m.rows and m.cols and m.is_zero() else set()
        r, pivots = rref_pivots(m)
        assert (r, pivots) == dense_rref_pivots(m)
        assert_canonical(field, r.data)
        assert kernel(m) == dense_kernel(m)
        q, ref = quotient_by(field, m.cols, m), dense_quotient_by(field, m.cols, m)
        assert (q.dim, q.proj, q.sect) == (ref.dim, ref.proj, ref.sect)
        assert q.relations == Mat(field, len(pivots), m.cols, r.data[:len(pivots) * m.cols])
        x = mixed_mat(field, m.cols, 1, rng).data
        for b in (mixed_mat(field, m.rows, 1, rng).data, m.apply(x)):
            assert solve(m, b) == reference_solve(m, b) == dense_solve(m, b)
        t = m.transpose()
        for v in (mixed_mat(field, 1, m.cols, rng).data, t.apply(mixed_mat(field, 1, m.rows, rng).data)):
            assert coords_in(m, v) == dense_solve(t, v)
        square = m @ t if rng.random() < 0.5 else mixed_mat(field, m.rows, m.rows, rng)
        try:
            want = dense_inverse(square)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                inverse(square)
        else:
            assert inverse(square) == want
            seen.add("invertible")
        fn, fm = rng.randint(0, 3), rng.randint(0, 3)
        sys = LinearSystem(field, {"x": (fn, fm), "y": (1, fm)})
        P, S = mixed_mat(field, rng.randint(0, 5), fn, rng), mixed_mat(field, fm, rng.randint(0, 3), rng)
        sys.add((1, "x", P, S), (-1, "y", mixed_mat(field, P.rows, 1, rng), S))
        assert sys.kernel() == dense_kernel(system_matrix(sys))
    assert seen == {"no rows", "no columns", "all zero", "invertible"}


def fresh_scan(m: Mat) -> list:
    return [[(j, entry(m, i, j)) for j in range(m.cols) if entry(m, i, j)] for i in range(m.rows)]


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_cached_rows_are_a_fresh_scan_outside_eq_hash_and_repr(field):
    rng = random.Random(22)
    for _ in range(80):
        n, k, w = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = mixed_mat(field, n, k, rng), mixed_mat(field, k, w, rng)
        x, y = mixed_mat(field, rng.randint(0, 3), w, rng), mixed_mat(field, rng.randint(0, 3), n, rng)
        m = mixed_mat(field, k, x.rows * y.rows, rng)
        seeded = [a @ b, kron_after(m, x, y), rref(a)]
        assert all("_entries" in got.__dict__ for got in seeded)
        for got in seeded + [a, Mat.zeros(field, n, k), Mat(field, n, 0, ()), Mat(field, 0, k, ())]:
            plain = Mat(field, got.rows, got.cols, got.data)
            before = (hash(plain), repr(plain))
            assert got._entries == fresh_scan(got) == plain._entries
            assert got == plain and (hash(got), repr(got)) == before
            assert (hash(plain), repr(plain)) == before


def test_hom_system_rows_reach_the_eliminator_sparse(monkeypatch):
    r = dual_ring(fixture("sweedler").coring)
    rm = _ring_as_module(r)
    systems, eliminated, widths = [], [], []
    real_kernel, real_eliminate, real_of_rows = LinearSystem.kernel, linalg._eliminate, Mat._of_rows

    def eliminate(field, rows):
        eliminated.append([dict(row) for row in rows])
        return real_eliminate(field, rows)

    def of_rows(cls, field, rows, cols, entries):
        widths.append((rows, cols))
        return real_of_rows(field, rows, cols, entries)

    def kernel_of(self):
        systems.append(self)
        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        monkeypatch.setattr(Mat, "_of_rows", classmethod(of_rows))
        try:
            out = real_kernel(self)
        finally:
            monkeypatch.setattr(linalg, "_eliminate", real_eliminate)
            monkeypatch.setattr(Mat, "_of_rows", real_of_rows)
        # the solution basis is the one matrix of the system's width built
        assert [shape for shape in widths if shape[1] == self.width] == [(out.rows, self.width)]
        widths.clear()
        return out

    monkeypatch.setattr(LinearSystem, "kernel", kernel_of)
    monkeypatch.setattr(linalg, "kernel", None)  # the dense-matrix path is not taken
    graded_hom(rm, rm, 0)
    sys, = systems
    assert len(sys.rows) > sys.width > 0
    # the kept rows without the zeroed columns
    assert eliminated == [[{j: x for j, x in row.items() if j not in sys.zeroed} for row in sys.rows]]


# -- identity operands, identity row caches and hashes --------------------------------

def identities(field, n: int) -> list:
    """The n x n identity from `Mat.identity`, which sets its row cache and
    flag as it builds, and as plain data through `Mat(...)` and `from_rows`."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    return [Mat.identity(field, n),
            Mat(field, n, n, tuple(field.of(x) for row in rows for x in row)),
            Mat.from_rows(field, rows)]


def assert_plain_result(got: Mat, want: Mat):
    """got equals want, stores its rows as a fresh scan of its entries and
    hashes as the plain matrix of its data, which is the hash of the
    nonzero entries of each row as the scan reads them."""
    assert got == want
    assert_canonical(got.field, got.data)
    assert "_entries" in got.__dict__ and got._entries == fresh_scan(got)
    plain = Mat(got.field, got.rows, got.cols, got.data)
    scanned = tuple(map(tuple, fresh_scan(got)))
    assert hash(got) == hash(plain) == hash((got.field, got.rows, got.cols, scanned))


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_identity_operands_give_the_plain_products(field):
    rng = random.Random(31)
    seen = set()
    for _ in range(60):
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        a = mixed_mat(field, n, k, rng)
        for ident in identities(field, k):
            assert_plain_result(a @ ident, ref_matmul(a, ident))
        for ident in identities(field, n):
            assert_plain_result(ident @ a, ref_matmul(ident, a))
        xr, xc, yr, yc, r = (rng.randint(0, 4) for _ in range(5))
        x, y = mixed_mat(field, xr, xc, rng), mixed_mat(field, yr, yc, rng)
        cases = ([(ix, y) for ix in identities(field, xr)]
                 + [(x, iy) for iy in identities(field, yr)]
                 + [(ix, iy) for ix, iy in zip(identities(field, xr), identities(field, yr))])
        for f, g in cases:
            m = mixed_mat(field, r, f.rows * g.rows, rng)
            got = kron_after(m, f, g)
            assert_plain_result(got, ref_matmul(m, dense_tensor(f, g).mat()))
            assert got == m @ tensor_k(f, g)
            seen.add((f._is_identity, g._is_identity))
    assert seen >= {(True, False), (False, True), (True, True)}


@pytest.mark.parametrize("field", [QQ, GF(101)])
def test_identity_flags_and_rows_set_at_build_time_are_a_fresh_scan(field):
    for n in range(5):
        built, *plain = identities(field, n)
        assert built.__dict__["_is_identity"] is True
        assert built.__dict__["_entries"] == fresh_scan(built)
        for m in plain:
            assert m == built and hash(m) == hash(built)
            assert m._is_identity and m._entries == built._entries
    one, two = field.one, field.of(2)
    for m in (Mat.zeros(field, 2, 2), Mat.zeros(field, 0, 3), Mat.zeros(field, 3, 0),
              Mat.from_rows(field, [[one, 0], [0, two]]), Mat.from_rows(field, [[0, one], [one, 0]]),
              Mat.from_rows(field, [[one, 0, 0], [0, one, 0]]), Mat.from_rows(field, [[one, one], [0, one]])):
        assert not m._is_identity


def test_a_second_hash_reads_no_entry():
    hashed = []

    class Counted(int):
        def __hash__(self):
            hashed.append(int(self))
            return int.__hash__(self)

    m = Mat(QQ, 2, 2, tuple(map(Counted, (1, 2, 0, 3))))
    first = hash(m)
    assert sorted(hashed) == [1, 2, 3]
    assert hash(m) == first and {m: None}.keys() == {m}
    assert len(hashed) == 3
    assert first == hash(Mat(QQ, 2, 2, (1, 2, 0, 3)))


def test_elimination_never_inverts_a_unit_pivot(monkeypatch):
    inverted = []
    real = Field.inv

    def inv(self, a):
        inverted.append(a)
        return real(self, a)

    monkeypatch.setattr(Field, "inv", inv)
    for name in FIXTURES:
        run_suite(main_structure(parse(fixture_file_text(name))), "all", seed=0)
    assert inverted and 1 not in inverted


# -- sparse rows against the dense storage ----------------------------------------------

def random_dense(field, rows, cols, rng) -> Dense:
    """About half the entries zero; over QQ, fractions with mixed
    denominators and integers."""
    def entry():
        if rng.random() < 0.5:
            return field.zero
        if field.p is not None:
            return field.of(rng.randint(-9, 9))
        return field.of(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7, 9))))
    return Dense(field, rows, cols, tuple(entry() for _ in range(rows * cols)))


def assert_stores(got: Mat, want: Dense):
    """got is the matrix of want's entries: the same dense view, entry
    reads, rows, equality and hash as the matrix built from want's data,
    and as its rows it stores exactly the nonzero entries, ascending."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.data == want.data
    assert_canonical(got.field, got.data)
    assert got._entries == want.nonzero_rows()
    plain = want.mat()
    assert got == plain and hash(got) == hash(plain) and repr(got) == repr(plain)


@pytest.mark.parametrize("field", [QQ, GF(101), GF(2)])
def test_row_storage_matches_the_dense_reference(field):
    rng = random.Random(210)
    shapes = set()
    for _ in range(120):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        shapes.add((r == 0, c == 0))
        a, a2 = random_dense(field, r, c, rng), random_dense(field, r, c, rng)
        m, m2 = a.mat(), a2.mat()
        # built from dense entries, from rows and from columns: one matrix
        from_rows = Mat._of_rows(field, r, c, a.nonzero_rows())
        by_cols = Mat._from_cols(field, [a.col(j) for j in range(c)], r)
        listed = [Mat.from_rows(field, [a.row(i) for i in range(r)])] if r else []
        for built in [m, from_rows, by_cols] + listed:
            assert_stores(built, a)
        assert [[entry(m, i, j) for j in range(c)] for i in range(r)] == \
            [[entry(a, i, j) for j in range(c)] for i in range(r)]
        assert [m.row(i) for i in range(r)] == [a.row(i) for i in range(r)]
        assert [m.col(j) for j in range(c)] == [a.col(j) for j in range(c)]
        assert m.is_zero() == a.is_zero() and Mat.zeros(field, r, c).is_zero()
        s = rng.choice((0, 1, -2) + ((Fraction(3, 4), Fraction(-5, 6)) if field.p is None else ()))
        assert_stores(m.transpose(), a.transpose())
        assert_stores(m + m2, a + a2)
        assert_stores(m - m2, a - a2)
        assert_stores(m - m, a - a)
        assert_stores(m.scale(s), a.scale(s))
        flat = r * c
        for rr in [d for d in range(1, flat + 1) if flat % d == 0] or [0]:
            cc = flat // rr if rr else rng.randint(0, 3)
            assert_stores(m.reshape(rr, cc), a.reshape(rr, cc))
        assert_stores(m.reshape(1, flat), a.reshape(1, flat))
        widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        pieces = [random_dense(field, r, w, rng) for w in widths]
        assert_stores(hstack([p.mat() for p in pieces]), dense_hstack(pieces))
        heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        pieces = [random_dense(field, h, c, rng) for h in heights]
        assert_stores(vstack([p.mat() for p in pieces]), dense_vstack(pieces))
        family = [random_dense(field, r, c, rng) for _ in range(rng.randint(0, 3))]
        assert_stores(vec_rows(field, flat, [f.mat() for f in family]),
                      dense_vec_rows(field, flat, family))
        for got, f in zip(unvec_rows(dense_vec_rows(field, flat, family).mat(), r, c), family,
                          strict=True):
            assert_stores(got, f)
        row_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        col_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        keys = [(i, j) for i in range(len(row_dims)) for j in range(len(col_dims))]
        rng.shuffle(keys)  # blocks given in any order
        blocks = {(i, j): random_dense(field, row_dims[i], col_dims[j], rng)
                  for i, j in keys if rng.random() < 0.6}
        assert_stores(block_matrix(field, row_dims, col_dims, {k: b.mat() for k, b in blocks.items()}),
                      dense_block_matrix(field, row_dims, col_dims, blocks))
        g = random_dense(field, rng.randint(0, 3), rng.randint(0, 3), rng)
        assert_stores(tensor_k(m, g.mat()), dense_tensor(a, g))
        stacked = vstack([m, m2, m + m2])
        ref = dense_vstack([a, a2, a + a2])
        assert_stores(row_space(stacked), ref.row_space())
        assert_stores(kernel(stacked), ref.kernel())
        q = quotient_by(field, c, stacked)
        proj, sect = dense_quotient(field, c, ref)
        assert_stores(q.proj, proj)
        assert_stores(q.sect, sect)
    assert shapes == {(False, False), (True, False), (False, True), (True, True)}


def test_dense_view_is_built_only_when_read():
    m = quotient_by(QQ, 4, Mat.from_rows(QQ, [[1, 1, 0, 0]])).proj
    for got in (m, m.transpose(), m @ m.transpose(), tensor_k(m, m), m.reshape(1, 12)):
        assert "data" not in got.__dict__
        assert got.data == tuple(x for i in range(got.rows) for x in got.row(i))
        assert "data" in got.__dict__


# -- products over QQ in integers: one denominator per matrix --------------------------

def scanned_denominator(m: Mat) -> int:
    """The lcm of the denominators of the entries of m, read off its rows."""
    return math.lcm(*(Fraction(x).denominator for i in range(m.rows) for x in m.row(i)))


def assert_scaled(m: Mat):
    """The denominator D of m is the lcm of the denominators of its
    entries, and the scaled rows of a matrix with D > 1 are its rows times
    D as ints."""
    d = m._denominator
    assert d == scanned_denominator(m)
    if d > 1:
        rows = m._scaled_rows
        assert rows == [[(j, x * d) for j, x in row] for row in fresh_scan(m)]
        assert all(type(x) is int for row in rows for _, x in row)


def fractional_mat(rows, cols, rng):
    """A sparse QQ matrix with zero rows, integers and fractions of mixed
    and negative denominators."""
    def entry_():
        if rng.random() < 0.4:
            return 0
        if rng.random() < 0.3:
            return rng.randint(-3, 3)
        return QQ.of(Fraction(rng.randint(-9, 9), rng.choice((-6, -4, -3, -2, 2, 3, 4, 5, 7))))
    data = [entry_() if rng.random() < 0.8 else 0 for _ in range(rows * cols)]
    for i in range(rows):
        if rng.random() < 0.15:
            data[i * cols:(i + 1) * cols] = [0] * cols
    return Mat(QQ, rows, cols, tuple(data))


def test_integer_products_match_the_dense_references_over_the_rationals():
    rng = random.Random(28)
    seen = set()
    for _ in range(150):
        n, k, w = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = fractional_mat(n, k, rng), fractional_mat(k, w, rng)
        got = a @ b
        assert_plain_result(got, ref_matmul(a, b))
        for m in (a, b, got):
            assert_scaled(m)
        seen.add(got._denominator > 1)
        xr, xc, yr, yc, r = (rng.randint(0, 3) for _ in range(5))
        x, y = fractional_mat(xr, xc, rng), fractional_mat(yr, yc, rng)
        factors = [(x, y), (Mat.identity(QQ, xr), y), (x, Mat.identity(QQ, yr)),
                   (Mat.identity(QQ, xr), Mat.identity(QQ, yr))]
        for f, g in factors:
            m = fractional_mat(r, f.rows * g.rows, rng)
            got = kron_after(m, f, g)
            assert_plain_result(got, ref_matmul(m, dense_tensor(f, g).mat()))
            assert_scaled(got)
    assert seen == {False, True}


def test_denominators_are_read_off_the_rows():
    rng = random.Random(29)
    for _ in range(60):
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        a, b = fractional_mat(n, k, rng), fractional_mat(n, k, rng)
        v = Mat(QQ, k, 1, tuple(fractional_mat(1, k, rng).data))
        built = [a, a + b, a - b, combine(QQ, n, k, [a, b], [Fraction(1, 3), -2]), rref(a),
                 a.reshape(1, n * k), a.transpose(), vstack([a, b]), hstack([a, b]),
                 vec_rows(QQ, n * k, [a, b]), tensor_k(a, b), interleave(QQ, n, [a, b]),
                 Mat._from_cols(QQ, [a.col(j) for j in range(k)], n),
                 Mat.col_vector(QQ, v.data), Mat.from_rows(QQ, [a.row(i) for i in range(n)])]
        if n == k and rank(a) == n:
            built.append(inverse(a))
        for m in built:
            assert_scaled(m)


def test_only_an_integral_product_over_the_rationals_records_its_denominator():
    rng = random.Random(32)
    F = GF(1000003)
    for _ in range(40):
        n, k, w = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, b = fractional_mat(n, k, rng), fractional_mat(k, w, rng)
        # even entries, so that no product returns an identity's other operand
        ints = [Mat(QQ, r, c, tuple(2 * rng.randint(-2, 2) for _ in range(r * c)))
                for r, c in ((n, k), (k, w))]
        mods = mixed_mat(F, n, k, rng), mixed_mat(F, k, w, rng)
        x, y = Mat(QQ, 2, 3, (Fraction(1, 2), 0, 1, 0, Fraction(-2, 3), 0)), Mat(QQ, 2, 2, (1, 2, 0, -1))
        m = Mat(QQ, n, 4, tuple(rng.randint(-2, 2) for _ in range(n * 4)))
        unread = [a, b, *ints, *mods, a + a, a.transpose(), vstack(ints[:1] * 2),
                  hstack([a, a]), tensor_k(*ints), rref(a), kernel(a), ints[0].reshape(1, n * k),
                  block_matrix(QQ, [n], [k], {(0, 0): ints[0]}), Mat.zeros(QQ, n, k),
                  quotient_by(QQ, k, ints[0]).proj]
        assert [got for got in unread if "_denominator" in got.__dict__] == []
        # a product reads the denominators of its operands, and records its
        # own only when it is integral and over QQ
        products = [mods[0] @ mods[1], kron_after(m, x, y)]
        assert [got for got in products if "_denominator" in got.__dict__] == []
        integral = ints[0] @ ints[1], kron_after(m, Mat(QQ, 2, 2, (0, 1, 1, 3)), y)
        assert all(got.__dict__["_denominator"] == 1 for got in integral)
        for got in unread + products + list(integral):
            assert_scaled(got)


def test_prime_field_products_are_unchanged():
    F = GF(1000003)
    rng = random.Random(30)
    for _ in range(80):
        n, k, w = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = mixed_mat(F, n, k, rng), mixed_mat(F, k, w, rng)
        assert_plain_result(a @ b, ref_matmul(a, b))
        assert a._denominator == (a @ b)._denominator == 1
        xr, xc, yr, yc, r = (rng.randint(0, 3) for _ in range(5))
        x, y = mixed_mat(F, xr, xc, rng), mixed_mat(F, yr, yc, rng)
        for f, g in ((x, y), (Mat.identity(F, xr), y), (x, Mat.identity(F, yr))):
            m = mixed_mat(F, r, f.rows * g.rows, rng)
            assert_plain_result(kron_after(m, f, g), ref_matmul(m, dense_tensor(f, g).mat()))


def test_products_of_fractional_matrices_multiply_and_add_no_fraction(monkeypatch):
    rng = random.Random(31)
    a, b = fractional_mat(4, 5, rng), fractional_mat(5, 3, rng)
    x, y = fractional_mat(2, 3, rng), fractional_mat(2, 2, rng)
    m = fractional_mat(3, 4, rng)
    want = ref_matmul(a, b), ref_matmul(m, dense_tensor(x, y).mat())
    called = []

    def spy(name):
        real = getattr(Fraction, name)

        def wrapped(self, other):
            called.append(name)
            return real(self, other)
        return wrapped

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Fraction, name, spy(name))
    got = a @ b, kron_after(m, x, y)
    monkeypatch.undo()
    assert called == []
    assert got == want
    assert any(type(v) is Fraction for v in got[0].data + got[1].data)
