"""Hopf structures, induced corings, Hopf-Galois detection, relative
modules and the smash-product form of the dual ring."""

import pytest

from corings.algebra import (
    Bimodule,
    field_algebra,
    tensor_algebra,
    validate_algebra,
    validate_bimodule,
)
from corings.coring import validate_group_coring
from corings.dualring import dual_ring
from corings.fixtures import fixture
from corings.galois import (
    coinvariant_ring,
    structure_theorem_battery,
    validate_grouplike,
)
from corings.hopf import (
    RelativeHopfModule,
    SmashProduct,
    cofree_hopf,
    coring_from_comodule_algebra,
    coring_comodule_to_relative,
    hopf_galois_check,
    hopf_galois_decomposition_check,
    invariant_subalgebra,
    relative_hopf_module_check,
    relative_to_coring_comodule,
    regular_comodule_algebra,
    smash_dual,
    trivial_comodule_algebra,
    validate_comodule_algebra,
    validate_hopf_g_coalgebra,
    validate_smash_product,
)
from corings.linalg import Mat, row_space, tensor_vec
from corings.scalars import GF, QQ
from helpers import (
    bad_antipode_hopf,
    cube,
    cyclic_group,
    derived,
    group_hopf_algebra,
    multiply,
    reference_induced_delta,
    reference_induced_right,
    reference_smash_mul,
    trivial_hopf,
    validate_hopf_algebra,
)


def test_group_hopf_algebras_validate():
    for n in (2, 3):
        assert validate_hopf_algebra(group_hopf_algebra(QQ, cyclic_group(n))).ok


def test_trivial_hopf_family_validates():
    assert validate_hopf_g_coalgebra(trivial_hopf(QQ, cyclic_group(2))).ok


def test_cofree_families_validate():
    g2 = cyclic_group(2)
    for n in (2, 3):
        ha = group_hopf_algebra(QQ, cyclic_group(n))
        assert validate_hopf_g_coalgebra(cofree_hopf(ha, g2)).ok


def test_bad_antipode_fails_exactly_the_antipode_law():
    rep = validate_hopf_g_coalgebra(bad_antipode_hopf())
    fails = [it.check_id for it in rep.items if not it.passed]
    assert fails == ["hopf-g.antipode"]


def test_identity_antipode_is_fine_on_order_two():
    # on the order-two group algebra the inversion IS the identity, so the
    # corrupted witness needs order three to bite
    g2 = cyclic_group(2)
    ha = group_hopf_algebra(QQ, g2)
    from corings.hopf import HopfAlgebra

    tweaked = HopfAlgebra(ha.algebra, ha.delta, ha.counit, Mat.identity(QQ, 2))
    assert validate_hopf_g_coalgebra(cofree_hopf(tweaked, g2)).ok


def test_comodule_algebras_validate():
    for name in ("trivial", "regular", "nongalois"):
        assert validate_comodule_algebra(fixture(name).comodule_algebra).ok, name


def test_induced_coring_and_grouplike_validate():
    for name in ("trivial", "regular", "nongalois"):
        ca = fixture(name).comodule_algebra
        cor, x = coring_from_comodule_algebra(ca)
        assert validate_group_coring(cor).ok, name
        assert validate_grouplike(x).ok, name
        for comp in cor.comps:
            assert validate_bimodule(comp).ok


def test_trivial_inputs_give_rank_one_coring():
    a = field_algebra(QQ)
    ca = trivial_comodule_algebra(a, trivial_hopf(QQ, cyclic_group(2)))
    cor, x = coring_from_comodule_algebra(ca)
    assert [m.dim for m in cor.comps] == [1, 1]


def test_invariants_equal_coinvariants():
    for name in ("trivial", "regular", "nongalois"):
        fx = fixture(name)
        ca = fx.comodule_algebra
        inv = invariant_subalgebra(ca)
        t = coinvariant_ring(fx.grouplike)
        assert row_space(inv) == row_space(t.basis), name


def test_hopf_galois_verdicts():
    fx = fixture("regular")
    verdict, rep = hopf_galois_check(fx.comodule_algebra, derived(fx))
    assert verdict and rep.ok
    fx = fixture("nongalois")
    verdict, rep = hopf_galois_check(fx.comodule_algebra, derived(fx))
    assert not verdict


def test_hopf_galois_split_biconditional():
    # Galois holds exactly when a carrying cofree witness exists and the
    # slice is Galois: both sides true on the regular fixture, both false on
    # the trivial coaction
    assert hopf_galois_decomposition_check(derived(fixture("regular"))).ok
    assert hopf_galois_decomposition_check(derived(fixture("nongalois"))).ok
    wit, _ = derived(fixture("nongalois")).decomposition
    assert wit is None


def test_relative_module_on_the_algebra_itself():
    for name in ("regular", "nongalois"):
        fx = fixture(name)
        ca = fx.comodule_algebra
        m = RelativeHopfModule(ca, Bimodule.right_regular(ca.algebra), ca.rho)
        rep = relative_hopf_module_check(ca, [m], fx.coring)
        rep.extend(structure_theorem_battery(derived(fx)), prefix="relative.")
        if name == "regular":
            assert rep.ok
        else:
            # the structure battery inside still agrees (false == false)
            agreement = [it for it in rep.items if it.check_id.endswith("structure.agreement")]
            assert agreement and agreement[0].passed


def test_zero_relative_module_passes():
    fx = fixture("regular")
    ca = fx.comodule_algebra
    zero_space = Bimodule(ca.algebra, 0, None, (Mat.zeros(QQ, 0, 0),) * ca.algebra.dim)
    rho = tuple(Mat.zeros(QQ, 0, 0) for _ in ca.hopf.group.elements())
    m = RelativeHopfModule(ca, zero_space, rho)
    rep = relative_hopf_module_check(ca, [m], fx.coring)
    assert rep.ok


def test_relative_reindexing_roundtrip():
    fx = fixture("regular")
    ca = fx.comodule_algebra
    m = RelativeHopfModule(ca, Bimodule.right_regular(ca.algebra), ca.rho)
    cor, _ = coring_from_comodule_algebra(ca)
    com = relative_to_coring_comodule(m, cor)
    from corings.comodules import validate_comodule

    assert validate_comodule(com).ok
    back = coring_comodule_to_relative(com, ca)
    assert back.rho == m.rho


def test_incompatible_relative_module_fails_coring_axioms():
    # scaling one coaction breaks compatibility; the reindexed coaction then
    # fails the comodule laws
    fx = fixture("regular")
    ca = fx.comodule_algebra
    rho = list(ca.rho)
    rho[1] = rho[1].scale(2)
    m = RelativeHopfModule(ca, Bimodule.right_regular(ca.algebra), rho)
    from corings.hopf import validate_relative_hopf_module

    assert not validate_relative_hopf_module(m).ok
    cor, _ = coring_from_comodule_algebra(ca)
    com = relative_to_coring_comodule(m, cor)
    from corings.comodules import validate_comodule

    assert not validate_comodule(com).ok


def test_smash_dual_on_trivial_hopf():
    fx = fixture("trivial")
    sp, lambdas, rep = smash_dual(fx.comodule_algebra, dual_ring(fx.coring))
    assert rep.ok
    assert validate_smash_product(sp).ok
    assert list(sp.dims) == [1, 1]


def test_smash_dual_on_regular_fixture():
    fx = fixture("regular")
    sp, lambdas, rep = smash_dual(fx.comodule_algebra, dual_ring(fx.coring))
    assert rep.ok
    assert validate_smash_product(sp).ok
    r = dual_ring(fx.coring)
    assert list(sp.dims) == [r.dim(a) for a in fx.coring.group.elements()] == [4, 4]


def test_smash_dual_on_nongalois_fixture():
    # the comparison is an iso regardless of the Galois property
    fx = fixture("nongalois")
    sp, lambdas, rep = smash_dual(fx.comodule_algebra, dual_ring(fx.coring))
    assert rep.ok


def test_smash_associativity_on_order_three_components():
    g2 = cyclic_group(2)
    ha = group_hopf_algebra(QQ, cyclic_group(3))
    h = cofree_hopf(ha, g2)
    ca = trivial_comodule_algebra(field_algebra(QQ), h)
    sp, _, rep = smash_dual(ca, dual_ring(coring_from_comodule_algebra(ca)[0]))
    assert validate_smash_product(sp).ok
    assert rep.ok


def test_cofree_family_transports_the_antipode():
    # tagged copies share the base antipode matrix on every degree
    g2 = cyclic_group(2)
    ha = group_hopf_algebra(QQ, cyclic_group(3))
    h = cofree_hopf(ha, g2)
    for a in g2.elements():
        assert h.antipode[a] == ha.antipode
        assert h.comps[a].mul_mat == ha.algebra.mul_mat


def test_tensor_algebra_multiplies_componentwise():
    a = group_hopf_algebra(QQ, cyclic_group(3)).algebra
    b = fixture("regular").comodule_algebra.algebra
    ab = tensor_algebra(a, b)
    assert validate_algebra(ab).ok
    assert ab.unit == tensor_vec(QQ, a.unit, b.unit)
    mul_a, mul_b = cube(a), cube(b)
    for i in range(a.dim):
        for j in range(b.dim):
            for k in range(a.dim):
                for l in range(b.dim):
                    assert multiply(ab, tensor_vec(QQ, a.basis_vec(i), b.basis_vec(j)),
                                    tensor_vec(QQ, a.basis_vec(k), b.basis_vec(l))) \
                        == tensor_vec(QQ, mul_a[i][k], mul_b[j][l])


def _c3_comodule_algebras(field):
    """Comodule algebras over cofree families of the order-three group
    algebra, indexed by groups of order two and three: the algebra itself
    with the regular and with the trivial coaction, and the ground field."""
    ha = group_hopf_algebra(field, cyclic_group(3))
    out = []
    for n in (2, 3):
        h = cofree_hopf(ha, cyclic_group(n))
        out += [regular_comodule_algebra(h, ha), trivial_comodule_algebra(ha.algebra, h),
                trivial_comodule_algebra(field_algebra(field), h)]
    return out


REFERENCE_CASES = {
    "fixtures": lambda: [fixture(name).comodule_algebra
                         for name in ("trivial", "regular", "nongalois")],
    "c3-qq": lambda: _c3_comodule_algebras(QQ),
    "c3-gf101": lambda: _c3_comodule_algebras(GF(101)),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_structure_maps_equal_their_index_loop_references(case):
    for ca in REFERENCE_CASES[case]():
        cor, _ = coring_from_comodule_algebra(ca)
        sp = SmashProduct(ca)
        g = ca.hopf.group
        for p in g.elements():
            assert cor.comps[p].right == reference_induced_right(ca, p)
            for q in g.elements():
                assert cor.delta[(p, q)] == reference_induced_delta(ca, cor, p, q)
                assert sp.mul[(p, q)] == reference_smash_mul(sp, p, q)
