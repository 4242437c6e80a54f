"""End-to-end checks over an order-three index group.

The bundled fixtures all use the order-two group, where every element is
its own inverse, so a misplaced group inverse anywhere in the formulas
would be invisible to them.  These runs repeat the main batteries over a
cyclic group of order three, once with rank-one components (Galois) and
once with three-dimensional components under the trivial coaction (not
Galois).
"""

from functools import lru_cache

from corings.algebra import field_algebra
from corings.comodules import (
    check_cofree_equivalence,
    check_pack_replicate,
    coring_as_gcomodule,
    gcomodules_equal,
    pack_gcomodule,
    replicate_comodule,
    validate_comodule,
)
from corings.coring import (
    group_corings_equal,
    validate_group_coring,
    verify_cofree,
)
from corings.dualring import (
    check_component_bidual,
    check_dual_basis_comultiplication,
    check_functor_square,
    cofree_dual_group_ring_iso,
    dual_ring,
    gcomodule_to_graded,
    graded_to_gcomodule,
    group_ring,
    validate_graded_ring,
)
from corings.galois import (
    GrouplikeFamily,
    RingMorphism,
    comodule_from_grouplike,
    structure_theorem_battery,
    validate_grouplike,
)
from corings.hopf import (
    cofree_hopf,
    coring_from_comodule_algebra,
    smash_dual,
    trivial_comodule_algebra,
    validate_comodule_algebra,
    validate_hopf_g_coalgebra,
    validate_smash_product,
)
from corings.linalg import Mat
from corings.morita import (
    check_group_ring_context_match,
    check_standard_context_match,
    galois_equivalence_battery,
    is_strict,
)
from corings.scalars import QQ
from corings.structfile import Derived, MainStructure
from helpers import (
    cyclic_group,
    derived,
    group_hopf_algebra,
    pack_graded_coring,
    trivial_coring,
    unpack_graded_coring,
)


@lru_cache(maxsize=None)
def order_three_trivial():
    g = cyclic_group(3)
    cor, wit = trivial_coring(field_algebra(QQ), g)
    x = GrouplikeFamily(cor, tuple((QQ.one,) for _ in g.elements()))
    b = RingMorphism(field_algebra(QQ), field_algebra(QQ), Mat.identity(QQ, 1))
    return MainStructure(cor, x, b, None, wit)


@lru_cache(maxsize=None)
def order_three_nongalois():
    g = cyclic_group(3)
    h = cofree_hopf(group_hopf_algebra(QQ, g), g)
    a = field_algebra(QQ)
    ca = trivial_comodule_algebra(a, h)
    cor, x = coring_from_comodule_algebra(ca)
    b = RingMorphism(field_algebra(QQ), a, Mat.identity(QQ, 1))
    return MainStructure(cor, x, b, ca, None)


def test_trivial_order_three_coring_and_galois():
    fx = order_three_trivial()
    assert validate_group_coring(fx.coring).ok
    assert verify_cofree(fx.coring, fx.witness).ok
    assert group_corings_equal(
        unpack_graded_coring(pack_graded_coring(fx.coring)), fx.coring)
    assert validate_grouplike(fx.grouplike).ok
    assert derived(fx).galois[0]


def test_trivial_order_three_comodules_and_dual():
    fx = order_three_trivial()
    wit, drep = derived(fx).decomposition
    assert drep.ok
    acom = comodule_from_grouplike(fx.grouplike)
    cg = coring_as_gcomodule(fx.coring)
    packed, _, _ = pack_gcomodule(cg)
    pairs = [(replicate_comodule(acom), acom), (cg, packed)]
    assert check_pack_replicate(pairs).ok
    assert check_cofree_equivalence(fx.coring, wit, [cg]).ok
    r = dual_ring(fx.coring)
    assert validate_graded_ring(r).ok
    assert r.packed().algebra.mul_mat == group_ring(field_algebra(QQ), fx.coring.group).algebra.mul_mat
    gm = gcomodule_to_graded(cg, r)
    assert gcomodules_equal(graded_to_gcomodule(gm, fx.coring), cg)
    replicated = gcomodule_to_graded(replicate_comodule(acom), r)
    assert check_functor_square([(cg, gm)], [(acom, replicated)], r).ok
    _, srep = cofree_dual_group_ring_iso(fx.coring, wit, r)
    assert srep.ok


def test_trivial_order_three_contexts_and_batteries():
    fx = order_three_trivial()
    wit, _ = derived(fx).decomposition
    d = Derived(fx.coring, fx.grouplike, fx.base, wit)
    gctx, brep = d.graded_morita
    assert brep.ok
    assert is_strict(gctx.ctx)[0]
    assert check_standard_context_match(d).ok
    assert check_group_ring_context_match(d).ok
    assert structure_theorem_battery(d).ok
    rep = galois_equivalence_battery(d)
    agree = next(it for it in rep.items if it.check_id == "battery.agreement")
    assert agree.passed and "(True, True, True, True)" in agree.witness


def test_nongalois_order_three_structures():
    fx = order_three_nongalois()
    assert [m.dim for m in fx.coring.comps] == [3, 3, 3]
    assert validate_hopf_g_coalgebra(fx.comodule_algebra.hopf).ok
    assert validate_comodule_algebra(fx.comodule_algebra).ok
    assert validate_group_coring(fx.coring).ok
    assert validate_grouplike(fx.grouplike).ok
    assert not derived(fx).galois[0]
    r = dual_ring(fx.coring)
    assert validate_graded_ring(r).ok
    assert check_component_bidual(fx.coring, r).ok
    assert check_dual_basis_comultiplication(fx.coring, r).ok
    cg = coring_as_gcomodule(fx.coring)
    gm = gcomodule_to_graded(cg, r)
    assert gcomodules_equal(graded_to_gcomodule(gm, fx.coring), cg)


def test_nongalois_order_three_batteries():
    fx = order_three_nongalois()
    r = dual_ring(fx.coring)
    acom = comodule_from_grouplike(fx.grouplike)
    cg = coring_as_gcomodule(fx.coring)
    packed, _, _ = pack_gcomodule(cg)
    assert validate_comodule(packed).ok
    pairs = [(replicate_comodule(acom), acom)]
    assert check_pack_replicate(pairs).ok
    d = derived(fx)
    gctx, brep = d.graded_morita
    assert brep.ok
    assert not is_strict(gctx.ctx)[0]
    assert check_standard_context_match(d).ok
    assert structure_theorem_battery(d).ok
    rep = galois_equivalence_battery(d)
    agree = next(it for it in rep.items if it.check_id == "battery.agreement")
    assert agree.passed and "(False, False, False, False)" in agree.witness
    sp, _, srep = smash_dual(fx.comodule_algebra, r)
    assert srep.ok
    assert validate_smash_product(sp).ok
