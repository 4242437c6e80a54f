"""The dual graded ring, its functors and the cofree group-ring form."""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from corings import dualring, suites
from corings.algebra import field_algebra
from corings.comodules import (
    coring_as_gcomodule,
    gcomodules_equal,
    pack_gcomodule,
    replicate_comodule,
)
from corings.coring import GroupCoringMorphism
from corings.dualring import (
    GradedAlgebra,
    GradedModule,
    check_component_bidual,
    check_dual_basis_comultiplication,
    check_functor_square,
    cofree_dual_group_ring_iso,
    comodule_to_module,
    dual_morphism,
    dual_ring,
    forget_grading,
    gcomodule_to_graded,
    graded_modules_equal,
    graded_to_gcomodule,
    group_ring,
    induce_grading,
    is_graded_ring_iso,
    rmodules_equal,
    validate_graded_ring,
    validate_graded_ring_morphism,
    validate_graded_module,
    validate_rmodule,
)
from corings.fixtures import fixture, fixture_file_text
from corings.galois import (
    canonical_morphism,
    coinvariant_ring,
    comodule_from_grouplike,
    inclusion_morphism,
    random_comodule,
)
from corings.linalg import Mat, unit_vec
from corings.scalars import QQ
from corings.structfile import main_structure, parse
from corings.suites import run_suite
from helpers import (
    cyclic_group,
    derived,
    dual_coords,
    from_cols,
    mixed_mat,
    over_prime_field,
    reference_comodule_to_module,
    reference_dual_basis_comultiplication,
    reference_dual_mul,
    reference_dual_ring_compat,
    reference_graded_module_balance,
    reference_gcomodule_to_graded,
    reference_graded_to_gcomodule,
    reference_precomposed,
    trivial_coring,
    validate_graded_algebra,
)

C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"
STRUCTURES = ("trivial", "regular", "nongalois", "sweedler", "c3-qq")


def structure(name):
    """A fixture, or the main structure of regular k[C_3] over QQ: either
    way an object with a `coring` and a `grouplike`."""
    return main_structure(parse(C3.read_bytes())) if name == "c3-qq" else fixture(name)


def witness_of(name):
    fx = fixture(name)
    return derived(fx).witness


def test_dual_of_trivial_coring_is_the_group_ring():
    c, _ = trivial_coring(field_algebra(QQ), cyclic_group(2))
    r = dual_ring(c)
    assert validate_graded_ring(r).ok
    gr = group_ring(field_algebra(QQ), c.group)
    packed = r.packed()
    assert packed.algebra.mul_mat == gr.algebra.mul_mat
    assert packed.algebra.unit == gr.algebra.unit
    assert validate_graded_algebra(packed).ok


def test_a_graded_algebra_is_an_algebra_and_its_degree_dims():
    # its degree blocks are placed and read by `linalg` alone, so the
    # packed dual ring keeps no layout of its own
    assert [f.name for f in dataclasses.fields(GradedAlgebra)] == ["group", "algebra", "dims"]
    assert not any(hasattr(GradedAlgebra, name) for name in ("inject", "block", "offsets", "build"))
    packed = dual_ring(fixture("regular").coring).packed()
    assert packed.dims == (4, 4) and packed.algebra.dim == 8


def test_dual_dimensions_of_twisted_fixture():
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    assert [r.dim(a) for a in fx.coring.group.elements()] == [4, 4]
    assert validate_graded_ring(r).ok


def test_dual_ring_valid_on_all_fixtures():
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        fx = fixture(name)
        r = dual_ring(fx.coring)
        assert validate_graded_ring(r).ok, name
        assert check_component_bidual(fx.coring, r).ok, name
        assert check_dual_basis_comultiplication(fx.coring, r).ok, name


def test_dual_of_identity_morphism_is_identity():
    fx = fixture("regular")
    ident = GroupCoringMorphism(fx.coring, fx.coring,
                                [Mat.identity(QQ, m.dim) for m in fx.coring.comps])
    dm = dual_morphism(ident, dual_ring(fx.coring))
    assert validate_graded_ring_morphism(dm).ok
    for a in fx.coring.group.elements():
        assert dm.maps[a] == Mat.identity(QQ, dm.src.dim(a))


def test_dual_of_canonical_morphism_is_graded_iso_when_galois():
    fx = fixture("regular")
    t = coinvariant_ring(fx.grouplike)
    can = canonical_morphism(fx.grouplike, inclusion_morphism(t, fx.coring.base))
    dm = dual_morphism(can.morphism, dual_ring(fx.coring))
    assert validate_graded_ring_morphism(dm).ok
    assert is_graded_ring_iso(dm)


def test_dual_of_component_zeroed_morphism_fails_unit():
    fx = fixture("regular")
    maps = [Mat.identity(QQ, m.dim) for m in fx.coring.comps]
    maps[0] = Mat.zeros(QQ, maps[0].rows, maps[0].cols)
    bad = GroupCoringMorphism(fx.coring, fx.coring, maps)
    dm = dual_morphism(bad, dual_ring(fx.coring))
    rep = validate_graded_ring_morphism(dm)
    assert any(it.check_id == "morphism.unit" and not it.passed for it in rep.items)


def test_graded_module_roundtrips():
    for name in ("trivial", "regular", "sweedler"):
        fx = fixture(name)
        r = dual_ring(fx.coring)
        cg = coring_as_gcomodule(fx.coring)
        gm = gcomodule_to_graded(cg, r)
        assert validate_graded_module(gm).ok, name
        assert gcomodules_equal(graded_to_gcomodule(gm, fx.coring), cg), name
        acom = comodule_from_grouplike(fx.grouplike)
        repl = replicate_comodule(acom)
        gm2 = gcomodule_to_graded(repl, r)
        assert gcomodules_equal(graded_to_gcomodule(gm2, fx.coring), repl), name


def test_zero_family_dualizes_to_zero_module():
    from corings.algebra import Bimodule
    from corings.comodules import GComodule

    fx = fixture("trivial")
    r = dual_ring(fx.coring)
    g = fx.coring.group
    zero = Bimodule(fx.coring.base, 0, None, tuple(Mat.zeros(QQ, 0, 0) for _ in range(1)))
    comps = tuple(zero for _ in g.elements())
    rho = {}
    gm = GComodule(fx.coring, comps, rho)
    for a in g.elements():
        for b in g.elements():
            t = gm.tensor(a, b)
            rho[(a, b)] = Mat.zeros(QQ, t.space.dim, 0)
    gm.rho = rho
    graded = gcomodule_to_graded(gm, r)
    assert all(c.dim == 0 for c in graded.comps)
    back = graded_to_gcomodule(graded, fx.coring)
    assert gcomodules_equal(back, gm)


def test_module_of_base_comodule_validates():
    for name in ("trivial", "regular"):
        fx = fixture(name)
        r = dual_ring(fx.coring)
        rm = comodule_to_module(comodule_from_grouplike(fx.grouplike), r)
        assert validate_rmodule(rm).ok, name


def test_forget_then_regrade_dimensions():
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    gm = gcomodule_to_graded(coring_as_gcomodule(fx.coring), r)
    rm = forget_grading(gm)
    assert validate_rmodule(rm).ok
    regraded = induce_grading(rm)
    assert validate_graded_module(regraded).ok
    total = sum(c.dim for c in gm.comps)
    assert all(c.dim == total for c in regraded.comps)


def test_functor_square_commutes():
    rng = random.Random(3)
    for name in ("trivial", "regular", "nongalois"):
        fx = fixture(name)
        r = dual_ring(fx.coring)
        cg = coring_as_gcomodule(fx.coring)
        acom = comodule_from_grouplike(fx.grouplike)
        rnd = random_comodule(fx.grouplike, rng, coinvariant_ring(fx.grouplike))
        rnd_family = replicate_comodule(rnd)
        rnd_graded = gcomodule_to_graded(rnd_family, r)
        families = [(cg, gcomodule_to_graded(cg, r)), (rnd_family, rnd_graded)]
        singles = [(acom, gcomodule_to_graded(replicate_comodule(acom), r)), (rnd, rnd_graded)]
        rep = check_functor_square(families, singles, r)
        assert rep.ok, name


def test_pack_equals_forget_on_the_nose():
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    cg = coring_as_gcomodule(fx.coring)
    lhs = comodule_to_module(pack_gcomodule(cg)[0], r)
    rhs = forget_grading(gcomodule_to_graded(cg, r))
    assert rmodules_equal(lhs, rhs)


def test_cofree_dual_iso_identity_on_trivial():
    c, wit = trivial_coring(field_algebra(QQ), cyclic_group(2))
    r = dual_ring(c)
    sigmas, rep = cofree_dual_group_ring_iso(c, wit, r)
    assert rep.ok
    for s in sigmas:
        assert s == Mat.identity(QQ, 1)


def test_cofree_dual_iso_on_sweedler():
    fx = fixture("sweedler")
    r = dual_ring(fx.coring)
    sigmas, rep = cofree_dual_group_ring_iso(fx.coring, fx.witness, r)
    assert rep.ok
    assert all(s.rows == 4 for s in sigmas)


def test_cofree_dual_iso_on_galois_witness():
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    wit = witness_of("regular")
    _, rep = cofree_dual_group_ring_iso(fx.coring, wit, r)
    assert rep.ok


@pytest.mark.parametrize("name", STRUCTURES)
def test_dual_ring_functors_equal_the_reference_loops(name):
    s = structure(name)
    c = s.coring
    r = dual_ring(c)
    acom = comodule_from_grouplike(s.grouplike)
    for family in (coring_as_gcomodule(c), replicate_comodule(acom)):
        gm = gcomodule_to_graded(family, r)
        assert graded_modules_equal(gm, reference_gcomodule_to_graded(family, r))
        back = graded_to_gcomodule(gm, c)
        assert gcomodules_equal(back, reference_graded_to_gcomodule(gm, c))
        assert gcomodules_equal(back, family)
    assert rmodules_equal(comodule_to_module(acom, r), reference_comodule_to_module(acom, r))
    assert check_dual_basis_comultiplication(c, r).ok
    assert reference_dual_basis_comultiplication(c, r) == []


@pytest.mark.parametrize("name", STRUCTURES)
def test_dual_ring_product_matches_the_pairwise_reference(name):
    # one product per leg and one solve per degree pair give the product of
    # one product and one solve per pair of functionals, on the dual ring
    # and on the dual of the degree-e slice; the base map, solved in one go,
    # is the coordinates of e_j . counit
    c = structure(name).coring
    for ring in (dual_ring(c), dual_ring(c.e_slice())):
        for a, b in ring.mul:
            assert ring.mul[(a, b)] == reference_dual_mul(ring, a, b)
        e = ring.group.identity
        assert ring.base_map == from_cols(c.base.field, [
            dual_coords(ring, e, right @ ring.coring.counit) for right in c.base.right_mats])


@pytest.mark.parametrize("p", (None, 101), ids=("QQ", "GF(101)"))
@pytest.mark.parametrize("name", STRUCTURES)
def test_precomposed_is_the_reshape_reference_without_a_reshape(name, p, monkeypatch):
    # one kron_after pass over the rows vec(f), on random maps (mixed
    # denominators over QQ, none to fourteen columns) and on the first legs
    # the product precomposes with
    text = C3.read_text() if name == "c3-qq" else fixture_file_text(name)
    r = dual_ring(main_structure(parse(text if p is None else over_prime_field(text, p))).coring)
    F, g, rng = r.base.field, r.group, random.Random(35)
    reshaped, real = [], Mat.reshape

    def reshape(self, rows, cols):
        reshaped.append((rows, cols))
        return real(self, rows, cols)

    for a in g.elements():
        rows = r.coring.comps[g.inv(a)].dim
        maps = [mixed_mat(F, rows, cols, rng) for cols in (0, 1, rows, rows + 5)]
        maps += [leg for b in g.elements() for leg in r.legs[(b, a)]]
        for m in maps:
            monkeypatch.setattr(Mat, "reshape", reshape)
            got = r.precomposed(a, m)
            monkeypatch.setattr(Mat, "reshape", real)
            assert got == reference_precomposed(r, a, m)
            assert (got.rows, got.cols) == (r.dim(a), r.base.dim * m.cols)
    assert reshaped == []


@pytest.mark.parametrize("name", STRUCTURES)
def test_graded_module_balance_matches_the_reference(name):
    # the balanced row reads two identities per degree pair; the reference
    # checks each base basis element on its own.  Same verdict and witness
    # on the coring's graded module, the regraded base module, and the
    # coring's module with entry (0, 1) of its first action raised by one,
    # which fails unless the base is the ground field
    s = structure(name)
    r = dual_ring(s.coring)
    F = r.base.field
    gm = gcomodule_to_graded(coring_as_gcomodule(s.coring), r)
    regraded = induce_grading(comodule_to_module(comodule_from_grouplike(s.grouplike), r))
    act = gm.act[(0, 0)]
    bump = [[(min(1, act.cols - 1), F.one)]] + [[] for _ in range(act.rows - 1)]
    perturbed = GradedModule(r, gm.comps, {**gm.act, (0, 0): act + Mat._of_rows(F, act.rows, act.cols, bump)})
    for m, fails in ((gm, False), (regraded, False), (perturbed, r.base.dim > 1)):
        want = reference_graded_module_balance(m)
        assert bool(want) == fails
        row, = [item for item in validate_graded_module(m).items
                if item.check_id == "graded-module.balanced"]
        assert (row.passed, row.witness) == (not want, f"failing: {want[:5]}" if want else "")


@pytest.mark.parametrize("name", STRUCTURES)
def test_dual_ring_compat_matches_the_reference(name):
    # the bimodule-compat row reads two identities per degree; the
    # reference checks each base basis element on its own.  Same verdict
    # and witness on the dual ring, and with entry (0, 1) of its base map
    # raised by one, which fails in every degree
    r = dual_ring(structure(name).coring)
    F = r.base.field

    def compat_row() -> tuple:
        row, = [item for item in validate_graded_ring(r).items
                if item.check_id == "dual-ring.bimodule-compat"]
        return row.passed, row.witness

    assert compat_row() == (True, "") and reference_dual_ring_compat(r) == []
    bm = r.base_map
    bump = [[(min(1, bm.cols - 1), F.one)]] + [[] for _ in range(bm.rows - 1)]
    r.base_map = bm + Mat._of_rows(F, bm.rows, bm.cols, bump)
    want = reference_dual_ring_compat(r)
    assert [a for a, _ in want] == list(r.group.elements())
    assert compat_row() == (False, f"failing: {want[:5]}")


def _swap(field, m: int, n: int) -> Mat:
    """The flip k^m (x) k^n -> k^n (x) k^m."""
    return from_cols(field, [unit_vec(field, m * n, j * m + i)
                                 for i in range(m) for j in range(n)])


@pytest.mark.parametrize("name, detected", [("trivial", False), ("regular", True),
                                            ("nongalois", False), ("sweedler", True),
                                            ("c3-qq", True)])
def test_dual_basis_comultiplication_detects_the_opposite_product(name, detected):
    # x * y := y x, defined degreewise because the group is abelian; the
    # dual rings of trivial and nongalois are commutative, so there the
    # opposite product is the product and nothing can be detected
    c = structure(name).coring
    g = c.group
    assert all(g.mul(x, y) == g.mul(y, x) for x in g.elements() for y in g.elements())
    r = dual_ring(c)
    r.mul = {(x, y): r.mul[(y, x)] @ _swap(QQ, r.dim(x), r.dim(y)) for x, y in r.mul}
    rep = check_dual_basis_comultiplication(c, r)
    assert rep.ok is not detected
    assert (reference_dual_basis_comultiplication(c, r) != []) is detected


@pytest.mark.parametrize("name", ["trivial", "regular", "nongalois", "sweedler"])
def test_the_dual_basis_comultiplication_check_calls_no_reshape(monkeypatch, name):
    # each degree pair is one kron_after identity on the columns vec(D_x)
    # of the dual basis tensors, so no `Mat.reshape` is called from the body
    code = dualring.check_dual_basis_comultiplication.__code__
    calls, inside = [], []
    real_reshape, real_check = Mat.reshape, dualring.check_dual_basis_comultiplication

    def reshape(self, rows, cols):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        inside.append(frame.f_code is code)
        return real_reshape(self, rows, cols)

    def counted(c, r):
        calls.append(name)
        return real_check(c, r)

    monkeypatch.setattr(suites, "check_dual_basis_comultiplication", counted)
    monkeypatch.setattr(Mat, "reshape", reshape)
    run_suite(main_structure(parse(fixture_file_text(name))), "dual-ring", 0)
    assert calls == [name]
    assert not any(inside)
