"""The algebra laws stated as matrix identities over `Algebra.mul_mat`,
compared with the loops over basis elements that they replaced
(`tests/helpers.py`), on the four fixtures, on regular k[C_3] over QQ and on
the triangular family over GF(7), and on seeded mutations of each where the
checks fail."""

import random
from functools import lru_cache
from pathlib import Path

import pytest

from corings import morita
from corings.algebra import (
    Algebra,
    Bimodule,
    algebra_map_failures,
    product_field_algebra,
    validate_algebra,
    validate_bimodule,
)
from corings.dualring import dual_ring
from corings.fixtures import fixture_file_text
from corings.galois import (
    GrouplikeFamily,
    RingMorphism,
    coinvariant_ring,
    inclusion_morphism,
    validate_ring_morphism,
)
from corings.linalg import Mat, inverse, random_invertible, unit_vec
from corings.morita import check_standard_context_match, grouplike_character
from corings.scalars import GF, QQ
from corings.structfile import Derived, main_structure, parse
from corings.suites import run_suite
from helpers import (
    cyclic_group,
    from_cols,
    group_hopf_algebra,
    left_mult,
    mixed_mat,
    multiply,
    reference_grouplike_character,
    reference_multiplicative_failures,
    reference_validate_algebra,
    reference_validate_bimodule,
    reference_validate_ring_morphism,
    right_mult,
    triangular_family,
)

C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"
NAMES = ("trivial", "regular", "nongalois", "sweedler", "c3", "triangular")


def _text(name: str) -> str:
    return C3.read_text() if name == "c3" else fixture_file_text(name)


@lru_cache(maxsize=None)
def structure(name: str) -> tuple:
    """(coring, grouplike family, base ring morphism) of a named input."""
    if name == "triangular":
        x = triangular_family()
        return x.coring, x, inclusion_morphism(coinvariant_ring(x), x.coring.base)
    ms = main_structure(parse(_text(name)))
    return ms.coring, ms.grouplike, ms.base


def triangular_algebra(field) -> Algebra:
    """Upper triangular 2x2 matrices, basis e11, e12, e22."""
    return Algebra.from_tables(field, [[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
                                       [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
                                       [[0, 0, 0], [0, 0, 0], [0, 0, 1]]], [1, 0, 1])


def algebra_of(mul: Mat) -> Algebra:
    """The algebra with multiplication matrix mul (its unit is not read)."""
    return Algebra(mul.field, mul.rows, mul, (mul.field.zero,) * mul.rows)


def bumped(m: Mat, rng) -> Mat:
    k = rng.randrange(len(m.data))
    return Mat(m.field, m.rows, m.cols,
               m.data[:k] + (m.field.reduce(m.data[k] + 1),) + m.data[k + 1:])


def bumped_algebra(a: Algebra, rng) -> Algebra:
    """a with one structure constant raised by one: coordinate k of e_i e_j,
    in column i * dim + j of its multiplication matrix."""
    i, j, k = (rng.randrange(a.dim) for _ in range(3))
    cols = [list(a.mul_mat.col(t)) for t in range(a.mul_mat.cols)]
    cols[i * a.dim + j][k] = a.field.reduce(cols[i * a.dim + j][k] + 1)
    return Algebra(a.field, a.dim, Mat._from_cols(a.field, cols, a.dim), a.unit)


# -- the multiplication matrix ----------------------------------------------------------

@pytest.mark.parametrize("field", (QQ, GF(101)), ids=repr)
def test_mul_mat_and_multiplication_maps_are_their_multiply_definitions(field):
    rng = random.Random(14)
    for a in (group_hopf_algebra(field, cyclic_group(3)).algebra,
              triangular_algebra(field), product_field_algebra(field, 2)):
        basis = [unit_vec(field, a.dim, i) for i in range(a.dim)]
        assert a.mul_mat == from_cols(field, [multiply(a, x, y) for x in basis for y in basis])
        for _ in range(3):
            v = tuple(field.random(rng) for _ in range(a.dim))
            assert left_mult(a, v) == from_cols(field, [multiply(a, v, y) for y in basis])
            assert right_mult(a, v) == from_cols(field, [multiply(a, y, v) for y in basis])
        assert a.left_mats == tuple(left_mult(a, x) for x in basis)
        assert a.right_mats == tuple(right_mult(a, x) for x in basis)


@pytest.mark.parametrize("field", (QQ, GF(101)), ids=repr)
def test_multiplications_by_a_family_are_the_per_element_products(field):
    # left_mults and right_mults read one kron_after over mul_mat; the
    # references make one per element.  Families of none to six columns,
    # over QQ with mixed denominators
    rng = random.Random(36)
    for a in (group_hopf_algebra(field, cyclic_group(3)).algebra,
              triangular_algebra(field), product_field_algebra(field, 2)):
        basis = [unit_vec(field, a.dim, i) for i in range(a.dim)]
        for k in range(7):
            m = mixed_mat(field, a.dim, k, rng)
            assert a.left_mults(m) == tuple(left_mult(a, m.col(j)) for j in range(k))
            assert a.right_mults(m) == tuple(right_mult(a, m.col(j)) for j in range(k))
        ident = Mat.identity(field, a.dim)
        assert a.left_mults(ident) == a.left_mats == tuple(left_mult(a, x) for x in basis)
        assert a.right_mults(ident) == a.right_mats == tuple(right_mult(a, x) for x in basis)


# -- the laws against their loop references ------------------------------------------------

def algebras(name: str) -> list:
    coring, x, b = structure(name)
    return [coring.base, b.src, b.dst, dual_ring(coring).packed().algebra]


@pytest.mark.parametrize("name", NAMES)
def test_algebra_laws_match_the_loop_references(name):
    coring, x, b = structure(name)
    for a in algebras(name):
        assert validate_algebra(a).items == reference_validate_algebra(a).items
    for comp in coring.comps:
        assert validate_bimodule(comp).items == reference_validate_bimodule(comp).items
    assert validate_ring_morphism(b).items == reference_validate_ring_morphism(b).items
    r = dual_ring(coring)
    chi, rep = grouplike_character(x, r)
    ref_chi, ref_rep = reference_grouplike_character(x, r)
    assert chi == ref_chi and rep.items == ref_rep.items and rep.ok


@pytest.mark.parametrize("name", NAMES)
def test_algebra_laws_report_the_failures_of_the_loop_references(name):
    rng = random.Random(14)
    coring, x, b = structure(name)
    r = dual_ring(coring)
    failed, rows = set(), set()

    def compare(kind, got, ref):
        assert got.items == ref.items
        if not got.ok:
            failed.add(kind)
        rows.update(it.check_id for it in got.items if not it.passed)

    for a in algebras(name):
        for _ in range(3):
            broken = bumped_algebra(a, rng)
            compare("algebra", validate_algebra(broken), reference_validate_algebra(broken))
    zero = Mat.zeros(coring.base.field, 0, 0)
    zero_module = Bimodule(coring.base, 0, (zero,) * coring.base.dim, (zero,) * coring.base.dim)
    compare("zero module", validate_bimodule(zero_module), reference_validate_bimodule(zero_module))
    for comp in coring.comps:
        for _ in range(3):
            m = Bimodule(bumped_algebra(comp.base, rng), comp.dim, comp.left, comp.right)
            compare("bimodule", validate_bimodule(m), reference_validate_bimodule(m))
        if not comp.dim:
            continue
        # a bumped left action; left actions conjugated by an invertible
        # matrix, which stay an action of the base and need not commute
        # with the right ones
        k = rng.randrange(len(comp.left))
        u = random_invertible(comp.base.field, comp.dim, rng)
        uinv = inverse(u)
        for left in (comp.left[:k] + (bumped(comp.left[k], rng),) + comp.left[k + 1:],
                     tuple(u @ L @ uinv for L in comp.left)):
            m = Bimodule(comp.base, comp.dim, left, comp.right)
            compare("bimodule", validate_bimodule(m), reference_validate_bimodule(m))
    for _ in range(3):
        for m in (RingMorphism(b.src, b.dst, bumped(b.mat, rng)),
                  RingMorphism(bumped_algebra(b.src, rng), b.dst, b.mat),
                  RingMorphism(b.src, bumped_algebra(b.dst, rng), b.mat)):
            compare("morphism", validate_ring_morphism(m), reference_validate_ring_morphism(m))
    for _ in range(3):
        a = rng.randrange(coring.group.order)
        vectors = list(x.vectors)
        vectors[a] = bumped(Mat.col_vector(r.base.field, vectors[a]), rng).data
        broken = GrouplikeFamily(coring, tuple(vectors))
        chi, rep = grouplike_character(broken, r)
        ref_chi, ref_rep = reference_grouplike_character(broken, r)
        assert chi == ref_chi
        compare("character", rep, ref_rep)
    assert failed == {"algebra", "bimodule", "morphism", "character"}
    assert "bimodule.left.associative" in rows
    # a one-dimensional base acts by scalars, conjugated or not
    assert "bimodule.commuting" in rows or coring.base.dim == 1


# -- the comparison maps of the graded Morita checks ----------------------------------------

@lru_cache(maxsize=None)
def comparison_maps(name: str) -> tuple:
    """The (f, source multiplication, target multiplication) of every
    `algebra_map_failures` call of `morita` in a `--suite graded-morita`
    run, or in the standard context comparison of the triangular family."""
    calls = []

    def recording(f, src_mul, dst_mul):
        calls.append((f, src_mul, dst_mul))
        return algebra_map_failures(f, src_mul, dst_mul)

    real = morita.algebra_map_failures
    morita.algebra_map_failures = recording
    try:
        if name == "triangular":
            check_standard_context_match(Derived(*structure(name)))
        else:
            run_suite(main_structure(parse(_text(name))), "graded-morita", seed=0)
    finally:
        morita.algebra_map_failures = real
    return tuple(calls)


@pytest.mark.parametrize("name", NAMES)
def test_comparison_maps_report_the_pairs_of_the_loop_reference(name):
    rng = random.Random(14)
    calls = comparison_maps(name)
    # end_to_twisted_iso, and theta and phi47 where there is a cofree witness
    assert len(calls) == (1 if name in ("triangular", "nongalois") else 3)
    failing = 0
    for f, src_mul, dst_mul in calls:
        src, dst = algebra_of(src_mul), algebra_of(dst_mul)
        for g in (f, bumped(f, rng), bumped(f, rng)):
            got = algebra_map_failures(g, src_mul, dst_mul)
            assert got == reference_multiplicative_failures(g, src, dst)
            failing += bool(got)
    assert failing
