"""Acceptance criteria: the exit checklist of the build.

One test per criterion; every comparison is exact (tolerance zero).  Each
test prints a single [PASS]/[FAIL] line naming the criterion (visible with
``pytest -s`` or in the captured output of a failing run).
"""

import io
import contextlib

from corings.comodules import (
    check_cofree_equivalence,
    check_pack_replicate,
    coring_as_gcomodule,
    pack_gcomodule,
    replicate_comodule,
    validate_comodule,
    validate_g_comodule,
)
from corings.coring import validate_group_coring
from corings.dualring import (
    check_dual_basis_comultiplication,
    check_functor_square,
    cofree_dual_group_ring_iso,
    dual_ring,
    gcomodule_to_graded,
    graded_to_gcomodule,
    group_ring,
    validate_graded_ring,
)
from corings.comodules import gcomodules_equal
from corings.fixtures import fixture, fixture_file_text
from corings.galois import (
    coinvariant_ring,
    comodule_from_grouplike,
    structure_theorem_battery,
    validate_grouplike,
)
from corings.hopf import (
    hopf_galois_check,
    smash_dual,
    validate_hopf_g_coalgebra,
)
from corings.linalg import row_space
from corings.morita import (
    check_group_ring_context_match,
    check_shift_fixed_points,
    check_standard_context_match,
    coefficient_ring,
    coefficient_spaces,
    connecting_spaces,
    galois_equivalence_battery,
    is_strict,
    weak_coinvariant_ring,
)
from helpers import bad_antipode_hopf, derived

ALL_FIXTURES = ("trivial", "regular", "nongalois", "sweedler")


def criterion(name):
    import functools

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] acceptance: {name}")
                raise
            print(f"[PASS] acceptance: {name}")
        return wrapper
    return deco


def witness_of(name):
    return derived(fixture(name)).witness


@criterion("axiom batteries on every fixture")
def test_axiom_batteries():
    for name in ALL_FIXTURES:
        fx = fixture(name)
        assert validate_group_coring(fx.coring).ok, name
        assert validate_grouplike(fx.grouplike).ok, name
        assert validate_comodule(comodule_from_grouplike(fx.grouplike)).ok, name
        assert validate_g_comodule(coring_as_gcomodule(fx.coring)).ok, name


@criterion("pack/replicate adjunction and Frobenius pair on hom bases")
def test_adjunction_and_frobenius():
    for name in ("regular", "trivial"):
        fx = fixture(name)
        acom = comodule_from_grouplike(fx.grouplike)
        cg = coring_as_gcomodule(fx.coring)
        packed, _, _ = pack_gcomodule(cg)
        pairs = [(replicate_comodule(acom), acom), (cg, packed)]
        assert check_pack_replicate(pairs).ok, name


@criterion("cofree equivalence comparison maps are mutually inverse")
def test_cofree_equivalence_matrices():
    for name in ("regular", "sweedler"):
        fx = fixture(name)
        wit = witness_of(name)
        objs = [coring_as_gcomodule(fx.coring),
                replicate_comodule(comodule_from_grouplike(fx.grouplike))]
        rep = check_cofree_equivalence(fx.coring, wit, objs)
        assert rep.ok, name
        assert any("inverse" in it.check_id for it in rep.items)


@criterion("dual ring laws, dual-basis identity, functor roundtrips and square")
def test_dual_ring_package():
    for name in ALL_FIXTURES:
        fx = fixture(name)
        r = dual_ring(fx.coring)
        assert validate_graded_ring(r).ok, name           # includes # associativity
        assert check_dual_basis_comultiplication(fx.coring, r).ok, name
        cg = coring_as_gcomodule(fx.coring)
        gm = gcomodule_to_graded(cg, r)
        assert gcomodules_equal(graded_to_gcomodule(gm, fx.coring), cg), name
        acom = comodule_from_grouplike(fx.grouplike)
        replicated = gcomodule_to_graded(replicate_comodule(acom), r)
        assert check_functor_square([(cg, gm)], [(acom, replicated)], r).ok, name
    # group-ring form: structure constants literally those of the group ring
    fx = fixture("trivial")
    r = dual_ring(fx.coring)
    gr = group_ring(fx.coring.base, fx.coring.group)
    assert r.packed().algebra.mul_mat == gr.algebra.mul_mat
    _, rep = cofree_dual_group_ring_iso(fx.coring, witness_of("trivial"), r)
    assert rep.ok
    fx = fixture("sweedler")
    _, rep = cofree_dual_group_ring_iso(fx.coring, fx.witness, dual_ring(fx.coring))
    assert rep.ok


@criterion("Galois verdicts with the dimension witness on the negative fixture")
def test_galois_verdicts():
    assert derived(fixture("regular")).galois[0]
    assert derived(fixture("trivial")).galois[0]
    verdict, rep = derived(fixture("nongalois")).galois
    assert not verdict
    bij = next(it for it in rep.items if it.check_id == "galois.bijective")
    assert "1 -> 2" in bij.witness


@criterion("structure equivalence battery agrees on both sides")
def test_structure_battery():
    for name, value in (("regular", True), ("nongalois", False)):
        fx = fixture(name)
        rep = structure_theorem_battery(derived(fx))
        assert rep.ok, name
        for side in ("structure.side1", "structure.side2"):
            it = next(i for i in rep.items if i.check_id == side)
            assert f"value={value}" in it.witness, name


@criterion("coefficient and connecting spaces coincide; graded contexts behave")
def test_morita_spaces_and_contexts():
    for name in ALL_FIXTURES:
        fx = fixture(name)
        r = dual_ring(fx.coring)
        t = coinvariant_ring(fx.grouplike)
        # strict and weak coinvariants coincide
        assert row_space(t.basis) == row_space(weak_coinvariant_ring(fx.grouplike, r)), name
        # strict and weak connecting spaces coincide
        o1, o2 = connecting_spaces(fx.grouplike, r)
        assert row_space(o1) == row_space(o2), name
        # fixed points of the shift action equal the (weak) coinvariants
        basis, basis_w = coefficient_spaces(fx.grouplike, r)
        s = coefficient_ring(fx.grouplike, basis, t)
        s_w = coefficient_ring(fx.grouplike, basis_w, t)
        assert row_space(s.basis) == row_space(s_w.basis), name
        assert check_shift_fixed_points(s).ok, name
        assert check_shift_fixed_points(s_w).ok, name
    # strictness of the graded context
    for name, value in (("regular", True), ("nongalois", False)):
        gctx, _ = derived(fixture(name)).graded_morita
        verdict, _ = is_strict(gctx.ctx)
        assert verdict == value, name
    # evaluation squares of the standard context comparison
    for name in ("regular", "trivial"):
        fx = fixture(name)
        assert check_standard_context_match(derived(fx)).ok, name
    # graded context matches the group-ring extension of the slice context
    for name in ("regular", "sweedler"):
        fx = fixture(name)
        assert check_group_ring_context_match(derived(fx)).ok, name


@criterion("four equivalent Galois characterizations agree")
def test_equivalence_battery():
    expected = {"regular": "(True, True, True, True)",
                "trivial": "(True, True, True, True)",
                "nongalois": "(False, False, False, False)"}
    for name, want in expected.items():
        fx = fixture(name)
        rep = galois_equivalence_battery(derived(fx))
        agree = next(it for it in rep.items if it.check_id == "battery.agreement")
        assert agree.passed, name
        assert want in agree.witness, name


@criterion("smash-product dual comparison and the antipode negative witness")
def test_hopf_package():
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    sp, lambdas, rep = smash_dual(fx.comodule_algebra, r)
    assert rep.ok
    assert list(sp.dims) == [r.dim(a) for a in fx.coring.group.elements()]
    # the split biconditional: Galois <-> carrying witness + slice Galois
    verdict, _ = hopf_galois_check(fx.comodule_algebra, derived(fx))
    wit, drep = derived(fx).decomposition
    carried = wit is not None and all(
        wit.gammas[a].apply(fx.grouplike.vec(0)) == fx.grouplike.vec(a)
        for a in fx.coring.group.elements())
    assert verdict == carried
    nfx = fixture("nongalois")
    nverdict, _ = hopf_galois_check(nfx.comodule_algebra, derived(nfx))
    nwit, _ = derived(nfx).decomposition
    assert nverdict == (nwit is not None) == False  # noqa: E712
    bad = validate_hopf_g_coalgebra(bad_antipode_hopf())
    assert [it.check_id for it in bad.items if not it.passed] == ["hopf-g.antipode"]


@criterion("machine reports are byte-identical across runs")
def test_cli_determinism(tmp_path):
    from corings.cli import main

    path = tmp_path / "regular.coring"
    path.write_text(fixture_file_text("regular"))
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["check", str(path), "--suite", "all", "--seed", "0",
                       "--format", "machine"])
        assert rc == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert outputs[0].rstrip().endswith("verdict pass")
