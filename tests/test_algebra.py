"""Algebras, bimodules, tensor-over-algebra quotients, duals, dual bases."""

import dataclasses
import random
from pathlib import Path

import pytest

from corings import algebra
from corings.algebra import (
    Algebra,
    BimoduleMap,
    Bimodule,
    collapse_left,
    collapse_right,
    field_algebra,
    find_dual_basis,
    is_bimodule_iso,
    left_dual,
    left_module_predicates,
    product_field_algebra,
    subalgebra,
    tensor_algebra,
    tensor_over_algebra,
    validate_algebra,
    validate_bimodule,
    validate_bimodule_map,
    BaseMismatch,
)
from corings.dualring import GradedAlgebra
from corings.fixtures import FIXTURES, fixture
from corings.linalg import Mat, inverse, random_invertible, row_space, span_coords, tensor_k, tensor_vec
from corings.scalars import GF, QQ
from corings.structfile import main_structure, parse
from helpers import (
    check_dual_basis,
    coords_in,
    cyclic_group,
    field_add,
    field_mul,
    induced_map,
    left_mult,
    multiply,
    reference_from_products,
    reference_intertwining_failures,
    reference_subalgebra,
    reference_tensor_algebra,
    reference_trace_generator,
    right_mult,
)


QQ1 = field_algebra(QQ)
QQ2 = product_field_algebra(QQ, 2)
C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"


# -- algebra validation ----------------------------------------------------------

def test_base_field_is_valid_algebra():
    assert validate_algebra(QQ1).ok


def test_split_product_is_valid():
    assert validate_algebra(QQ2).ok


def test_nonassociative_table_is_reported():
    # e1*e1 = e2, e1*e2 = e1, everything else zero:
    # (e1 e1) e1 = e2 e1 = 0 but e1 (e1 e1) = e1 e2 = e1, so (0,0,0) fails.
    bad = Algebra.from_tables(QQ, [[[0, 1], [1, 0]], [[0, 0], [0, 0]]], [1, 0])
    rep = validate_algebra(bad)
    assert not rep.ok
    fails = rep.failures()
    assert any("associativity" in it.law and "(0, 0, 0)" in it.witness for it in fails)


def test_an_algebra_is_stored_as_its_multiplication_matrix():
    assert [f.name for f in dataclasses.fields(Algebra)] == ["field", "dim", "mul_mat", "unit"]


# -- the builders against structure-constant references ----------------------------
#
# Factors of unequal dimensions, both above one, tell the order (i, j, k, l)
# of a product in A (x)k B from (i, k, j, l); equal ones do not.

DIM_PAIRS = ((2, 3), (3, 2), (1, 3))
FIELDS = (QQ, GF(7))
UNITAL = {1: ([[[1]]], [1]),
          2: ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0]),  # 1, x with x^2 = 0
          3: ([[[1, 0, 0], [0, 1, 0], [0, 0, 0]],  # e11, e12, e22 in 2x2 matrices
               [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
               [[0, 0, 0], [0, 0, 0], [0, 0, 1]]], [1, 0, 1])}


def random_algebra(field, dim: int, rng) -> Algebra:
    """Random structure constants and unit, so that no entry of a product
    is zero by a law."""
    return Algebra.from_tables(
        field, [[[field.random(rng) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)],
        [field.random(rng) for _ in range(dim)])


def random_unital(field, dim: int, rng) -> Algebra:
    """The field, the dual numbers or the upper triangular 2x2 matrices (by
    dim), in a random basis."""
    a = Algebra.from_tables(field, *UNITAL[dim])
    p = random_invertible(field, dim, rng)
    p_inv = inverse(p)
    return Algebra(field, dim, p_inv @ a.mul_mat @ tensor_k(p, p), p_inv.apply(a.unit))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("dims", DIM_PAIRS, ids=str)
def test_tensor_algebra_matches_the_structure_constant_reference(field, dims):
    rng = random.Random(repr(dims))
    for make in (random_algebra, random_unital):
        for _ in range(3):
            a, b = (make(field, d, rng) for d in dims)
            assert tensor_algebra(a, b) == reference_tensor_algebra(a, b)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("dims", DIM_PAIRS, ids=str)
def test_subalgebra_matches_the_structure_constant_reference(field, dims):
    rng = random.Random(repr(dims))
    a, b = (random_unital(field, d, rng) for d in dims)
    ambient = reference_tensor_algebra(a, b)
    # A (x) 1 and 1 (x) B: in the basis of the factor, and in a random one
    for factor, rows in ((a, [tensor_vec(field, a.basis_vec(i), b.unit) for i in range(a.dim)]),
                         (b, [tensor_vec(field, a.unit, b.basis_vec(j)) for j in range(b.dim)])):
        basis = Mat.from_rows(field, rows)
        sub, incl = subalgebra(ambient, basis)
        assert sub == factor == reference_subalgebra(ambient, basis)
        assert incl == basis.transpose()
        mixed = random_invertible(field, basis.rows, rng) @ basis
        assert subalgebra(ambient, mixed)[0] == reference_subalgebra(ambient, mixed)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("dims", DIM_PAIRS, ids=str)
def test_graded_products_match_the_structure_constant_reference(field, dims):
    rng = random.Random(repr(dims))
    for g, degree_dims in ((cyclic_group(2), dims), (cyclic_group(3), dims + (2,))):
        products = {(x, y): Mat(field, degree_dims[g.mul(x, y)], degree_dims[x] * degree_dims[y],
                                tuple(field.random(rng) for _ in range(
                                    degree_dims[g.mul(x, y)] * degree_dims[x] * degree_dims[y])))
                    for x in g.elements() for y in g.elements()}
        unit = tuple(field.random(rng) for _ in range(degree_dims[g.identity]))
        got = GradedAlgebra.from_products(field, g, degree_dims,
                                          lambda x, y: products[(x, y)], unit)
        assert got.algebra == reference_from_products(field, g, degree_dims,
                                                       lambda x, y: products[(x, y)], unit)


# -- bimodules ---------------------------------------------------------------------

def test_regular_bimodule_is_valid():
    assert validate_bimodule(Bimodule.regular(QQ2)).ok


def test_broken_unit_action_is_reported():
    zero = Mat.zeros(QQ, 2, 2)
    m = Bimodule(QQ2, 2, None, (zero, zero))
    rep = validate_bimodule(m)
    assert not rep.ok
    assert any("unit" in it.law for it in rep.failures())


def outer_bimodule(a: Algebra) -> Bimodule:
    """A (x)_k A with a'(x (x) y)a'' = a'x (x) ya''."""
    from corings.linalg import tensor_k
    ident = Mat.identity(a.field, a.dim)
    left = tuple(tensor_k(L, ident) for L in a.left_mats)
    right = tuple(tensor_k(ident, R) for R in a.right_mats)
    return Bimodule(a, a.dim * a.dim, left, right)


def test_outer_bimodule_is_valid():
    assert validate_bimodule(outer_bimodule(QQ2)).ok


# -- tensor over the algebra ----------------------------------------------------------

def test_tensor_a_over_a_collapses_to_a():
    t = tensor_over_algebra(Bimodule.regular(QQ2), Bimodule.regular(QQ2))
    assert t.space.dim == QQ2.dim
    # class of a (x) b equals class of ab (x) 1
    a, b = (1, 2), (3, 5)
    ab = multiply(QQ2, a, b)
    assert t.pure(a, b) == t.pure(ab, QQ2.unit)


def test_tensor_m_with_a_keeps_dimension():
    m = outer_bimodule(QQ2)
    t = tensor_over_algebra(m, Bimodule.regular(QQ2))
    assert t.space.dim == m.dim


def test_tensor_quotient_dimension_hand_count():
    # A = QQ x QQ: A (x)_k A has dim 4; A (x)_A (A (x)_k A) has dim 4
    # (hand count: relations e_i.e_a (x) e_jk - e_i (x) e_a.e_jk kill the 4
    # mixed basis vectors with i != j, leaving 8 - 4 = 4).
    n = outer_bimodule(QQ2)
    assert n.dim == 4
    t = tensor_over_algebra(Bimodule.regular(QQ2), n)
    assert t.space.dim == 4


def test_tensor_base_mismatch():
    with pytest.raises(BaseMismatch):
        tensor_over_algebra(Bimodule.regular(QQ2), Bimodule.regular(QQ1))


def test_induced_map_functorial_on_random_samples():
    # induced maps compose when the factors are genuine module maps; for the
    # regular bimodule those are left multiplications (right-module maps on
    # the left leg) and right multiplications (left-module maps on the right
    # leg).
    rng = random.Random(5)
    reg = Bimodule.regular(QQ2)
    t = tensor_over_algebra(reg, reg)
    for _ in range(10):
        def rvec():
            return tuple(QQ.of(rng.randrange(-2, 3)) for _ in range(2))
        f, f2 = left_mult(QQ2, rvec()), left_mult(QQ2, rvec())
        g, g2 = right_mult(QQ2, rvec()), right_mult(QQ2, rvec())
        lhs = induced_map(t, t, f, g) @ induced_map(t, t, f2, g2)
        rhs = induced_map(t, t, f @ f2, g @ g2)
        assert lhs == rhs


def test_collapse_helpers_agree_with_actions():
    reg = Bimodule.regular(QQ2)
    cr = collapse_right(reg)
    cl = collapse_left(reg)
    from corings.linalg import tensor_vec
    for i in range(2):
        for j in range(2):
            v = tensor_vec(QQ, QQ2.basis_vec(i), QQ2.basis_vec(j))
            assert cr.apply(v) == multiply(QQ2, QQ2.basis_vec(i), QQ2.basis_vec(j))
            assert cl.apply(v) == multiply(QQ2, QQ2.basis_vec(i), QQ2.basis_vec(j))


# -- left duals ---------------------------------------------------------------------

def test_dual_of_regular_module_has_same_dimension():
    dual, _, _ = left_dual(Bimodule.regular(QQ2))
    assert dual.dim == QQ2.dim
    assert validate_bimodule(dual).ok


def test_dual_is_additive_over_direct_sums():
    # *(A (+) A) built by block actions has dim 2 * dim *A
    from corings.linalg import tensor_k
    a = QQ2
    two = Mat.identity(QQ, 2)
    left = tuple(tensor_k(two, L) for L in a.left_mats)
    right = tuple(tensor_k(two, R) for R in a.right_mats)
    m2 = Bimodule(a, 2 * a.dim, left, right)
    dual, _, _ = left_dual(m2)
    dual1, _, _ = left_dual(Bimodule.regular(a))
    assert dual.dim == 2 * dual1.dim


def test_dual_of_outer_square_dimension_hand_count():
    # functionals f on A (x) A with f(e_a x) = e_a f(x): forces f(e_ij) in
    # the e_i component, one free scalar per basis vector: dim 4.
    dual, _, _ = left_dual(outer_bimodule(QQ2))
    assert dual.dim == 4


# -- dual bases ---------------------------------------------------------------------

def test_free_module_has_dual_basis():
    db = find_dual_basis(Bimodule.regular(QQ2))
    assert db is not None
    assert check_dual_basis(db)


def test_zero_module_has_empty_dual_basis():
    z = Bimodule(QQ2, 0, (Mat.zeros(QQ, 0, 0),) * 2, (Mat.zeros(QQ, 0, 0),) * 2)
    db = find_dual_basis(z)
    assert db is not None and db.pairs == ()


def test_direct_summand_has_dual_basis():
    # e.A^2 for the idempotent e = (1, 0) in QQ x QQ: the left module
    # spanned by the first coordinate of each of the two copies.
    a = QQ2
    # module = span{e1-copy1, e1-copy2} with left action a.(x, y) = (a1 x, a1 y)
    left = []
    for t in range(2):
        e = a.basis_vec(t)
        # action of e_t on the summand: multiplies both coordinates by first
        # component of e_t
        c = e[0]
        left.append(Mat.from_rows(QQ, [[c, 0], [0, c]]))
    m = Bimodule(a, 2, tuple(left), None)
    db = find_dual_basis(m)
    assert db is not None
    assert check_dual_basis(db)


def test_non_projective_module_has_no_dual_basis():
    # k[x]/(x^2): the one-dimensional module with x acting by 0 is not
    # projective, so no dual basis exists.
    kx = Algebra.from_tables(QQ, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    assert validate_algebra(kx).ok
    m = Bimodule(kx, 1, (Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)), None)
    assert validate_bimodule(Bimodule(kx, 1, m.left, None)).ok
    assert find_dual_basis(m) is None


def test_dual_basis_exchange_identity_on_random_elements():
    # For fgp M: an element of *M (x)_A M is determined by its evaluation
    # map, and can be rebuilt through the dual basis as
    # sum_i f^(i) (x) phi(m^(i)).  Check rebuild(class) == class on random
    # elements.
    from corings.linalg import tensor_vec

    rng = random.Random(6)
    m = Bimodule.regular(QQ2)
    db = find_dual_basis(m)
    dual, functionals, _ = left_dual(m)
    nd = len(functionals)
    basis_mat = Mat(QQ, nd, 2 * m.dim, tuple(x for fm in functionals for x in fm.data))
    t = tensor_over_algebra(dual, m)

    def unit_vec(n, i):
        return tuple(QQ.one if k == i else QQ.zero for k in range(n))

    for _ in range(8):
        coeffs = [QQ.of(rng.randrange(-2, 3)) for _ in range(nd * m.dim)]
        vec = [QQ.zero] * t.space.ambient_dim
        for u in range(nd):
            for c in range(m.dim):
                if coeffs[u * m.dim + c]:
                    pure = tensor_vec(QQ, tuple(field_mul(QQ, coeffs[u * m.dim + c], x)
                                                for x in unit_vec(nd, u)), unit_vec(m.dim, c))
                    vec = [field_add(QQ, a, b) for a, b in zip(vec, pure)]
        cls = t.space.project(vec)

        def evaluate(x):  # phi(x) = sum_(u,c) coeff f_u(x).e_c
            acc = [QQ.zero] * m.dim
            for u in range(nd):
                a = functionals[u].apply(x)
                for c in range(m.dim):
                    coeff = coeffs[u * m.dim + c]
                    if coeff:
                        img = m.left_act(tuple(field_mul(QQ, coeff, y) for y in a)).apply(unit_vec(m.dim, c))
                        acc = [field_add(QQ, p, q) for p, q in zip(acc, img)]
            return tuple(acc)

        vec2 = [QQ.zero] * t.space.ambient_dim
        for f, mvec in db.pairs:
            fc = coords_in(basis_mat, f.data)
            pure = tensor_vec(QQ, fc, evaluate(mvec))
            vec2 = [field_add(QQ, a, b) for a, b in zip(vec2, pure)]
        assert t.space.project(vec2) == cls


# -- bimodule maps -----------------------------------------------------------------

def test_identity_map_is_iso():
    reg = Bimodule.regular(QQ2)
    f = BimoduleMap(reg, reg, Mat.identity(QQ, 2))
    assert validate_bimodule_map(f).ok
    assert is_bimodule_iso(f)


def test_zero_map_is_not_iso():
    reg = Bimodule.regular(QQ2)
    f = BimoduleMap(reg, reg, Mat.zeros(QQ, 2, 2))
    assert validate_bimodule_map(f).ok
    assert not is_bimodule_iso(f)


def test_collapse_of_a_tensor_a_is_iso():
    t = tensor_over_algebra(Bimodule.regular(QQ2), Bimodule.regular(QQ2))
    f = BimoduleMap(t.module, Bimodule.regular(QQ2), collapse_right(Bimodule.regular(QQ2)) @ t.space.sect)
    assert validate_bimodule_map(f).ok
    assert is_bimodule_iso(f)


# -- subalgebras and predicates ------------------------------------------------------

def test_subalgebra_extraction():
    basis = Mat.from_rows(QQ, [[1, 1]])  # the diagonal copy of QQ in QQ x QQ
    sub, incl = subalgebra(QQ2, basis)
    assert sub.dim == 1
    assert validate_algebra(sub).ok
    assert incl.apply((1,)) == (1, 1)


def test_predicates_free_module():
    p = left_module_predicates(Bimodule.regular(QQ2))
    assert p.flat_projective and p.generator and p.faithfully_flat and p.progenerator


def test_predicates_zero_module():
    z = Bimodule(QQ2, 0, (Mat.zeros(QQ, 0, 0),) * 2, None)
    p = left_module_predicates(z)
    assert p.flat_projective and not p.generator and not p.faithfully_flat


def test_predicates_proper_summand():
    # first factor of QQ x QQ: projective but trace ideal = span{e1} != B
    a = QQ2
    left = (Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1))
    m = Bimodule(a, 1, left, None)
    p = left_module_predicates(m)
    assert p.flat_projective and not p.generator


def left_ideal(a: Algebra, v) -> Bimodule:
    """The left ideal A v as a left module over a."""
    basis = row_space(right_mult(a, v).transpose())
    left = tuple(span_coords(basis, (L @ basis.transpose()).transpose(), "no left ideal").transpose()
                 for L in a.left_mats)
    return Bimodule(a, basis.rows, left, None)


def test_the_trace_values_span_the_trace_ideal():
    # the generator verdict, read off the span of the trace values, is the
    # one the saturation of that span under products with the base gives
    modules = []
    for fx in [fixture(name) for name in FIXTURES] + [main_structure(parse(C3.read_text()))]:
        c, b = fx.coring, fx.base
        modules += [Bimodule(c.base, c.comps[g].dim, c.comps[g].left, None) for g in c.group.elements()]
        modules.append(Bimodule(b.src, b.dst.dim,
                                tuple(left_mult(b.dst, b.mat.col(i)) for i in range(b.src.dim)), None))
    rng = random.Random(37)
    for field in FIELDS:
        for dim in UNITAL:
            for a in (random_unital(field, dim, rng),
                      tensor_algebra(product_field_algebra(field, 2), random_unital(field, dim, rng))):
                modules.append(Bimodule.regular(a))
                vectors = [a.basis_vec(i) for i in range(a.dim)] + [
                    tuple(field.random(rng) for _ in range(a.dim)) for _ in range(3)]
                modules += [left_ideal(a, v) for v in vectors]
    verdicts = [left_module_predicates(m).generator for m in modules]
    assert verdicts == [reference_trace_generator(m) for m in modules]
    assert set(verdicts) == {False, True}


def test_quotient_actions_annihilate_relations():
    # inherited actions on a tensor quotient kill the relation subspace
    reg = Bimodule.regular(QQ2)
    t = tensor_over_algebra(outer_bimodule(QQ2), reg)
    rel_t = t.space.relations.transpose()
    from corings.linalg import tensor_k
    ident = Mat.identity(QQ, reg.dim)
    for L in outer_bimodule(QQ2).left:
        assert (t.space.proj @ tensor_k(L, ident) @ rel_t).is_zero()
    for R in reg.right:
        assert (t.space.proj @ tensor_k(Mat.identity(QQ, 4), R) @ rel_t).is_zero()


def test_multiply_and_collapse_agree_with_field_method_loops():
    # the reference multiply accumulates with plain operators and reduces once
    # per entry; compare with Field.add/Field.mul on random structure constants
    # (fractions over QQ, residues over GF(p)) and check canonical form
    from fractions import Fraction

    from corings.scalars import GF

    rng = random.Random(11)
    for F in (QQ, GF(101), GF(1000003)):
        n = 3

        def scalar():
            if rng.random() < 0.4:
                return F.zero
            if F.p is None:
                return F.of(Fraction(rng.randrange(-7, 8), rng.randrange(1, 5)))
            return F.of(rng.randrange(F.p))

        mul = [[[scalar() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        a = Algebra.from_tables(F, mul, [scalar() for _ in range(n)])
        for _ in range(20):
            x = tuple(scalar() for _ in range(n))
            y = tuple(scalar() for _ in range(n))
            ref = [F.zero] * n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        ref[k] = field_add(F, ref[k], field_mul(F, field_mul(F, x[i], y[j]), mul[i][j][k]))
            got = multiply(a, x, y)
            assert got == tuple(ref)
            for v in got:
                if F.p is None:
                    assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
                else:
                    assert type(v) is int and 0 <= v < F.p
        reg = Bimodule.regular(a)
        cr, cl = collapse_right(reg), collapse_left(reg)
        assert cr.data == tuple(F.of(v) for v in cr.data)
        for i in range(n):
            for k in range(n):
                assert cr.col(i * n + k) == reg.right[k].col(i)
                assert cl.col(k * n + i) == reg.left[k].col(i)


def test_equal_matrices_are_compared_without_a_scan(monkeypatch):
    reads = []
    col = Mat.col
    monkeypatch.setattr(Mat, "col", lambda self, j: reads.append(j) or col(self, j))
    rng = random.Random(3)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = Mat.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)])
        b = Mat.from_rows(QQ, [[rng.choice((x, x, x + 1)) for x in a.row(i)] for i in range(n)])
        reads.clear()
        assert algebra.differing_columns(a, Mat(QQ, n, m, a.data)) == []
        assert reads == []
        assert algebra.differing_columns(a, b) == [t for t in range(m) if col(a, t) != col(b, t)]
        assert (reads != []) == (a != b)


def test_intertwining_failures_match_the_loop_reference():
    # scalar actions on both sides commute with every f; random ones do not
    rng = random.Random(5)

    def rand(r, c):
        return Mat.from_rows(QQ, [[rng.randint(-1, 1) for _ in range(c)] for _ in range(r)])

    passing = failing = 0
    for _ in range(30):
        n, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 4)
        f = rand(n, m)
        scalars = [rng.randint(-2, 2) if rng.random() < 0.5 else None for _ in range(k)]
        src = [Mat.identity(QQ, m).scale(c) if c is not None else rand(m, m) for c in scalars]
        dst = [Mat.identity(QQ, n).scale(c) if c is not None else rand(n, n) for c in scalars]
        for ring_map in (Mat.identity(QQ, k), rand(k, k)):
            bad = algebra.intertwining_failures(f, src, dst, ring_map)
            assert bad == reference_intertwining_failures(f, src, dst, ring_map)
            passing += k - len(bad)
            failing += len(bad)
    assert passing and failing
