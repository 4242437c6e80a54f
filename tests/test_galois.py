"""Grouplike families, coinvariants, the canonical morphism and the
structure equivalence battery."""

import pytest

from corings.algebra import field_algebra, left_module_predicates, Bimodule
from corings.comodules import (
    comodules_equal,
    coring_as_gcomodule,
    gcomodules_equal,
    cofree_extend,
    replicate_comodule,
    validate_comodule,
)
from corings.fixtures import fixture, fixture_file_text
from corings.galois import (
    GrouplikeFamily,
    ImageNotInCoinvariants,
    RingMorphism,
    canonical_morphism,
    check_coinvariants_cofree,
    coinvariant_ring,
    comodule_from_grouplike,
    free_right_module,
    g_coinvariants,
    grouplike_from_comodule,
    induce_comodule,
    induce_gcomodule,
    induction_counits,
    induction_unit,
    inclusion_morphism,
    predicates_of_extension,
    structure_theorem_battery,
    validate_grouplike,
    validate_ring_morphism,
)
from corings.linalg import Mat, rank, row_space, unit_vec
from corings.scalars import QQ
from corings.structfile import main_structure, parse
from corings.suites import run_suite
from helpers import (coinvariants, coords_in, cyclic_group, derived, field_add, field_mul, from_cols,
                     trivial_coring)


def test_grouplike_families_validate():
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        assert validate_grouplike(fixture(name).grouplike).ok, name


def test_scaled_identity_element_fails_counit():
    fx = fixture("regular")
    vectors = list(fx.grouplike.vectors)
    vectors[0] = tuple(field_mul(QQ, 2, v) for v in vectors[0])
    bad = GrouplikeFamily(fx.coring, tuple(vectors))
    rep = validate_grouplike(bad)
    assert any(it.check_id == "grouplike.counit" and not it.passed for it in rep.items)


def test_grouplike_comodule_correspondence_roundtrips():
    for name in ("trivial", "regular", "sweedler"):
        fx = fixture(name)
        m = comodule_from_grouplike(fx.grouplike)
        assert validate_comodule(m).ok
        back = grouplike_from_comodule(m)
        assert back.vectors == fx.grouplike.vectors, name


def test_coinvariant_ring_dimensions():
    # regular fixture: only scalars commute with the family
    assert coinvariant_ring(fixture("regular").grouplike).basis.rows == 1
    # trivial fixture over the rationals: everything commutes
    assert coinvariant_ring(fixture("trivial").grouplike).basis.rows == 1
    assert coinvariant_ring(fixture("sweedler").grouplike).basis.rows == 1


def test_family_coinvariants_of_replicated_base():
    # constant diagonal families only: dimension one on the regular fixture
    fx = fixture("regular")
    repl = replicate_comodule(comodule_from_grouplike(fx.grouplike))
    w = g_coinvariants(repl, fx.grouplike)
    assert w.rows == 1


def test_comodule_coinvariants_match_ring_for_base():
    for name in ("regular", "nongalois"):
        fx = fixture(name)
        m = comodule_from_grouplike(fx.grouplike)
        w = coinvariants(m, fx.grouplike)
        t = coinvariant_ring(fx.grouplike)
        assert row_space(w) == row_space(t.basis), name


def test_ring_morphism_validation():
    fx = fixture("regular")
    assert validate_ring_morphism(fx.base).ok
    bad = RingMorphism(fx.base.src, fx.base.dst, fx.base.mat.scale(2))
    assert not validate_ring_morphism(bad).ok


def test_induced_comodule_of_base_ring_is_base_comodule():
    # inducing the rank-one free module over the coinvariants recovers the
    # base with its grouplike coaction (base = coinvariants on this fixture)
    fx = fixture("regular")
    ind = induce_comodule(free_right_module(fx.base.src, 1), fx.base, fx.grouplike)
    acom = comodule_from_grouplike(fx.grouplike)
    assert ind.comodule.space.dim == acom.space.dim
    assert comodules_equal(ind.comodule, acom)


def test_induction_needs_image_in_coinvariants():
    fx = fixture("regular")
    a = fx.coring.base
    # send the base generator to a non-coinvariant element
    bad_col = [0] * a.dim
    bad_col[1] = 1
    bad = RingMorphism(field_algebra(QQ), a, from_cols(QQ, [bad_col]))
    with pytest.raises(ImageNotInCoinvariants):
        induce_comodule(free_right_module(bad.src, 1), bad, fx.grouplike)


def test_induced_family_validates():
    from corings.comodules import validate_g_comodule

    fx = fixture("regular")
    fam = induce_gcomodule(free_right_module(fx.base.src, 2), fx.base, fx.grouplike)
    assert validate_g_comodule(fam).ok


def test_canonical_morphism_shapes_and_validity():
    fx = fixture("regular")
    t = coinvariant_ring(fx.grouplike)
    can = canonical_morphism(fx.grouplike, inclusion_morphism(t, fx.coring.base))
    from corings.coring import validate_coring_morphism, validate_group_coring

    assert validate_group_coring(can.domain).ok
    assert validate_coring_morphism(can.morphism).ok
    for m in can.morphism.maps:
        assert m.rows == m.cols == 4
        assert rank(m) == 4


def test_canonical_morphism_drops_rank_on_nongalois():
    fx = fixture("nongalois")
    t = coinvariant_ring(fx.grouplike)
    can = canonical_morphism(fx.grouplike, inclusion_morphism(t, fx.coring.base))
    for m in can.morphism.maps:
        assert m.cols == 1 and m.rows == 2


def test_trivial_coring_canonical_morphism_is_iso():
    fx = fixture("trivial")
    t = coinvariant_ring(fx.grouplike)
    can = canonical_morphism(fx.grouplike, inclusion_morphism(t, fx.coring.base))
    for m in can.morphism.maps:
        assert m.rows == m.cols == 1 and rank(m) == 1


def test_galois_verdicts():
    assert derived(fixture("trivial")).galois[0]
    assert derived(fixture("regular")).galois[0]
    assert derived(fixture("sweedler")).galois[0]
    verdict, rep = derived(fixture("nongalois")).galois
    assert not verdict
    bij = next(it for it in rep.items if it.check_id == "galois.bijective")
    assert "1 -> 2" in bij.witness


def test_galois_decomposition_produces_carrying_witness():
    for name in ("trivial", "regular", "sweedler"):
        fx = fixture(name)
        wit, rep = derived(fx).decomposition
        assert wit is not None and rep.ok, name
        e = fx.coring.group.identity
        for a in fx.coring.group.elements():
            assert wit.gammas[a].apply(fx.grouplike.vec(e)) == fx.grouplike.vec(a)


def test_galois_decomposition_refuses_nongalois():
    wit, rep = derived(fixture("nongalois")).decomposition
    assert wit is None
    assert not rep.ok


def test_cofree_coinvariants_lemma():
    for name in ("regular", "sweedler"):
        fx = fixture(name)
        wit = derived(fx).witness
        assert check_coinvariants_cofree(fx.grouplike, wit, coinvariant_ring(fx.grouplike)).ok, name


def test_extension_factors_through_slice_extension():
    # inducing over the base equals extending the slice induction along the
    # witness, for witnesses carrying the grouplike family
    for name in ("regular", "sweedler"):
        fx = fixture(name)
        wit = derived(fx).witness
        n = free_right_module(fx.base.src, 1)
        fam = induce_gcomodule(n, fx.base, fx.grouplike)
        e_coring = fx.coring.e_slice()
        x_e = GrouplikeFamily(e_coring, (fx.grouplike.vec(0),))
        slice_ind = induce_comodule(n, fx.base, x_e).comodule
        ext = cofree_extend(slice_ind, fx.coring, wit)
        assert gcomodules_equal(fam, ext), name


def test_module_predicates_of_extensions():
    fx = fixture("regular")
    p = predicates_of_extension(fx.base)
    assert p.flat_projective and p.generator and p.faithfully_flat and p.progenerator
    # predicates are stable under replacing the source by an isomorphic copy
    twisted_mat = fx.base.mat.scale(1)
    iso_src = fx.base.src
    p2 = predicates_of_extension(RingMorphism(iso_src, fx.base.dst, twisted_mat))
    assert p == p2


def test_zero_module_predicates():
    b = field_algebra(QQ)
    zero = Bimodule(b, 0, (Mat.zeros(QQ, 0, 0),), None)
    p = left_module_predicates(zero)
    assert p.flat_projective and not p.generator and not p.faithfully_flat


def test_structure_battery_agreement():
    expected = {"trivial": True, "regular": True, "nongalois": False, "sweedler": True}
    for name, value in expected.items():
        fx = fixture(name)
        rep = structure_theorem_battery(derived(fx))
        assert rep.ok, name
        side1 = next(it for it in rep.items if it.check_id == "structure.side1")
        assert f"value={value}" in side1.witness, name


def test_unit_counit_direction_implications():
    # if the unit comparisons are isos on the test family then the base maps
    # onto the coinvariants; if the counit comparisons are isos then the
    # canonical morphism is bijective
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        fx = fixture(name)
        t = coinvariant_ring(fx.grouplike)
        units_ok = all(
            induction_unit(free_right_module(fx.base.src, r), fx.base, fx.grouplike)[1]
            for r in (1, 2))
        objs = [coring_as_gcomodule(fx.coring),
                replicate_comodule(comodule_from_grouplike(fx.grouplike))]
        counits_ok = all(induction_counits(gm, fx.base, fx.grouplike)[1] for gm in objs)
        b_is_t = (rank(fx.base.mat) == fx.base.src.dim
                  and row_space(fx.base.mat.transpose()) == row_space(t.basis))
        galois_verdict, _ = derived(fx).galois
        if units_ok:
            assert b_is_t, name
        if counits_ok:
            assert galois_verdict, name


# `nongalois` with a coproduct whose coring over itself has no nonzero
# family coinvariants
NONGALOIS_SIX = fixture_file_text("nongalois").replace(
    "  delta [[1, 0], [0, 0], [0, 0], [0, 1]]", "  delta [[1, 0], [0, 0], [6, 0], [0, 1]]")


def test_counits_on_zero_dimensional_coinvariants_have_the_shape_of_their_degree():
    d = main_structure(parse(NONGALOIS_SIX)).derived
    gm = coring_as_gcomodule(d.coring)
    assert g_coinvariants(gm, d.grouplike).rows == 0
    mats, ok = induction_counits(gm, d.base, d.grouplike)
    # the induced family on 0 is 0, which is not the coring: each counit is
    # a comp.dim x 0 map, and none is bijective
    assert [(m.rows, m.cols) for m in mats] == [(comp.dim, 0) for comp in gm.comps]
    assert all(comp.dim for comp in gm.comps) and not ok


def test_zero_dimensional_coinvariants_fail_the_counit_side_of_the_structure_theorem():
    items = {it.check_id: it for it in run_suite(main_structure(parse(NONGALOIS_SIX)),
                                                 "structure-theorem", 0).items}
    side2 = items["structure-theorem.structure.side2"].witness
    assert side2.startswith("value=False") and side2.endswith(
        "counits=False); counit comparison fails on family object 0")
    agreement = items["structure-theorem.structure.agreement"]
    assert agreement.passed
    assert agreement.witness == "side1=False, side2=False"


def test_induction_adjunction_hom_bijection():
    # morphisms from an induced family correspond to module maps into the
    # family coinvariants: transpose both ways on solved bases
    from corings.comodules import gcomodule_homs
    from corings.linalg import kernel, sandwich_operator, vstack, tensor_vec

    fx = fixture("regular")
    b = fx.base
    x = fx.grouplike
    g = fx.coring.group
    n = free_right_module(b.src, 1)
    ind = induce_comodule(n, b, x)
    fam = replicate_comodule(ind.comodule)
    target = coring_as_gcomodule(fx.coring)
    homs = gcomodule_homs(fam, target).basis()
    w = g_coinvariants(target, x)
    # module maps N -> coinvariants commuting with the right action of the base
    t = coinvariant_ring(x)
    right_on_w = []
    dims = [mm.dim for mm in target.comps]
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    for i in range(b.src.dim):
        img = b.mat.col(i)
        cols = []
        for u in range(w.rows):
            moved = []
            for a in g.elements():
                blk = w.row(u)[offsets[a]: offsets[a] + dims[a]]
                moved.extend(target.comps[a].right_act(img).apply(blk))
            cols.append(coords_in(w, tuple(moved)))
        right_on_w.append(from_cols(QQ, cols))
    rows = []
    for i in range(b.src.dim):
        rows.append(sandwich_operator(Mat.identity(QQ, w.rows), n.right[i], w.rows, n.dim)
                    - sandwich_operator(right_on_w[i], Mat.identity(QQ, n.dim), w.rows, n.dim))
    b_homs = kernel(vstack(rows))
    assert len(homs) == b_homs.rows

    def transpose_down(fams):
        # f |-> (n |-> family of values at the class of n (x) 1)
        cols = []
        for k in range(n.dim):
            cls = ind.space.project(tensor_vec(QQ, unit_vec(QQ, n.dim, k), fx.coring.base.unit))
            vec = []
            for a in g.elements():
                vec.extend(fams[a].apply(cls))
            cols.append(coords_in(w, tuple(vec)))
        return from_cols(QQ, cols)

    def transpose_up(gmat):
        # g |-> the family (class of n (x) a |-> g(n)_a . a)
        fams = []
        for a in g.elements():
            cols = []
            for k in range(n.dim):
                val = gmat.col(k)
                blk_val = [QQ.zero] * dims[a]
                for u, c in enumerate(val):
                    if c:
                        piece = w.row(u)[offsets[a]: offsets[a] + dims[a]]
                        blk_val = [field_add(QQ, p, field_mul(QQ, c, q)) for p, q in zip(blk_val, piece)]
                for j in range(fx.coring.base.dim):
                    cols.append(target.comps[a].right[j].apply(blk_val))
            k_level = from_cols(QQ, cols)
            fams.append(k_level @ ind.space.sect)
        return tuple(fams)

    for fams in homs:
        down = transpose_down(fams)
        back = transpose_up(down)
        assert tuple(back) == tuple(fams)
    for i in range(b_homs.rows):
        gmat = Mat(QQ, w.rows, n.dim, b_homs.row(i))
        fams = transpose_up(gmat)
        assert transpose_down(fams) == gmat


def test_trivial_coring_coinvariants_are_everything():
    # with every family member the unit, all of the base commutes
    from corings.algebra import product_field_algebra

    a = product_field_algebra(QQ, 2)
    cor, _ = trivial_coring(a, cyclic_group(2))
    x = GrouplikeFamily(cor, (a.unit, a.unit))
    t = coinvariant_ring(x)
    assert t.basis.rows == a.dim


def test_sweedler_square_over_the_full_base_collapses():
    # tensoring the base with itself over itself gives the base back, and
    # the canonical comparison to the trivial coring is an isomorphism
    from corings.algebra import product_field_algebra
    from corings.galois import sweedler_coring

    a = product_field_algebra(QQ, 2)
    b = RingMorphism(a, a, Mat.identity(QQ, 2))
    dom, wit, q, gl = sweedler_coring(b, cyclic_group(2))
    assert q.dim == a.dim
    cor, _ = trivial_coring(a, cyclic_group(2))
    x = GrouplikeFamily(cor, (a.unit, a.unit))
    can = canonical_morphism(x, b)
    for m in can.morphism.maps:
        assert m.rows == m.cols == a.dim and rank(m) == a.dim
