"""Group coring axioms, morphisms, cofree structure and graded packing."""

from corings.algebra import field_algebra, product_field_algebra
from corings.coring import (
    CofreeWitness,
    GroupCoringMorphism,
    check_cofree_counit_identities,
    cofree_coring,
    group_corings_equal,
    validate_coring_morphism,
    validate_group_coring,
    verify_cofree,
)
from corings.fixtures import fixture
from corings.linalg import Mat
from corings.scalars import QQ
from helpers import (
    cyclic_group,
    is_coring_iso,
    pack_graded_coring,
    trivial_coring,
    unpack_graded_coring,
)


def test_trivial_coring_is_valid():
    c, wit = trivial_coring(field_algebra(QQ), cyclic_group(2))
    assert validate_group_coring(c).ok
    assert verify_cofree(c, wit).ok


def test_trivial_coring_over_product_algebra():
    c, _ = trivial_coring(product_field_algebra(QQ, 2), cyclic_group(2))
    assert validate_group_coring(c).ok


def test_fixture_corings_validate():
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        assert validate_group_coring(fixture(name).coring).ok, name


def test_doubled_counit_fails_everywhere():
    c, _ = trivial_coring(field_algebra(QQ), cyclic_group(2))
    c.counit = c.counit.scale(2)
    rep = validate_group_coring(c)
    fails = [it for it in rep.items if not it.passed]
    assert any("counit laws" in it.law for it in fails)
    # both degrees listed in the witness
    witness = next(it.witness for it in fails if "counit laws" in it.law)
    assert "0" in witness and "1" in witness


def test_sweedler_cofree_components_have_dim_four():
    fx = fixture("sweedler")
    assert [m.dim for m in fx.coring.comps] == [4, 4]
    assert verify_cofree(fx.coring, fx.witness).ok


def test_cofree_counit_identities_hold():
    fx = fixture("sweedler")
    assert check_cofree_counit_identities(fx.coring, fx.witness).ok


def test_cofree_requires_single_component():
    import pytest

    fx = fixture("sweedler")
    with pytest.raises(ValueError):
        cofree_coring(fx.coring, cyclic_group(2))


def test_witness_with_zeroed_map_fails_iso():
    fx = fixture("sweedler")
    gammas = list(fx.witness.gammas)
    gammas[1] = Mat.zeros(QQ, 4, 4)
    rep = verify_cofree(fx.coring, CofreeWitness(fx.coring, gammas))
    fails = [it for it in rep.items if not it.passed]
    assert any("isomorphism" in it.law and "1" in it.witness for it in fails)


def test_witness_scaled_at_one_degree_fails_compatibility():
    fx = fixture("sweedler")
    gammas = list(fx.witness.gammas)
    gammas[1] = gammas[1].scale(2)
    rep = verify_cofree(fx.coring, CofreeWitness(fx.coring, gammas))
    fails = {it.check_id for it in rep.items if not it.passed}
    assert "cofree.compatible" in fails


def test_identity_morphism_is_valid():
    fx = fixture("regular")
    ident = GroupCoringMorphism(fx.coring, fx.coring, [
        Mat.identity(QQ, m.dim) for m in fx.coring.comps
    ])
    assert validate_coring_morphism(ident).ok
    assert is_coring_iso(ident)


def test_zero_morphism_fails_counit():
    fx = fixture("regular")
    zero = GroupCoringMorphism(fx.coring, fx.coring, [
        Mat.zeros(QQ, m.dim, m.dim) for m in fx.coring.comps
    ])
    rep = validate_coring_morphism(zero)
    assert not rep.ok
    assert any(it.check_id == "morphism.counit" and not it.passed for it in rep.items)


def test_pack_unpack_roundtrip():
    for name in ("trivial", "regular", "sweedler"):
        fx = fixture(name)
        packed = pack_graded_coring(fx.coring)
        back = unpack_graded_coring(packed)
        assert group_corings_equal(back, fx.coring), name


def test_packed_trivial_coring_has_total_dim_two():
    c, _ = trivial_coring(field_algebra(QQ), cyclic_group(2))
    packed = pack_graded_coring(c)
    assert packed.total.dim == 2


def test_packed_counit_kills_nonidentity_degrees():
    fx = fixture("regular")
    packed = pack_graded_coring(fx.coring)
    g = fx.coring.group
    for a in g.elements():
        if a == g.identity:
            continue
        block = packed.counit @ packed.block_injection(a)
        assert block.is_zero()


def test_packed_coring_satisfies_single_coring_axioms():
    c, _ = trivial_coring(field_algebra(QQ), cyclic_group(2))
    packed = pack_graded_coring(c)
    assert validate_group_coring(packed.as_group_coring()).ok


def test_prime_field_trivial_coring():
    # the whole stack is field generic: run the rank-one coring over a
    # prime field end to end
    from corings.scalars import GF
    from corings.galois import GrouplikeFamily, RingMorphism
    from corings.structfile import Derived

    f5 = GF(5)
    c, wit = trivial_coring(field_algebra(f5), cyclic_group(2))
    assert validate_group_coring(c).ok
    x = GrouplikeFamily(c, ((f5.one,), (f5.one,)))
    b = RingMorphism(c.base, c.base, Mat.identity(f5, 1))
    verdict, _ = Derived(c, x, b).galois
    assert verdict
