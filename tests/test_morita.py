"""Classical and graded Morita contexts, comparison isomorphisms and the
battery of equivalent Galois characterizations."""

import dataclasses
import random
from functools import lru_cache
from pathlib import Path

import pytest

from corings import morita

from corings.algebra import field_algebra
from corings.dualring import GradedRing, dual_ring
from corings.fixtures import fixture, fixture_file_text
from corings.galois import coinvariant_ring, inclusion_morphism
from corings.linalg import Mat, inverse, random_invertible, rank, row_space, tensor_vec
from corings.morita import (
    MoritaContext,
    RingBimodule,
    canonical_graded_module,
    check_canonical_graded_action,
    check_group_ring_context_match,
    check_shift_fixed_points,
    check_standard_context_match,
    coefficient_ring,
    coefficient_spaces,
    connecting_spaces,
    context_from_graded_module,
    galois_equivalence_battery,
    graded_end,
    graded_hom,
    group_ring_context,
    grouplike_character,
    is_strict,
    validate_graded_morita_context,
    validate_morita_context,
    validate_ring_bimodule,
    weak_coinvariant_ring,
    HypothesisFailed,
    _ring_as_module,
)
from corings.scalars import QQ
from corings.structfile import Derived, main_structure, parse
from corings.suites import run_suite
from helpers import (
    cyclic_group,
    derived,
    field_add,
    from_cols,
    reference_coefficient_ring,
    reference_intertwining_failures,
    reference_standard_context,
    reference_validate_morita_context,
    reference_validate_ring_bimodule,
    triangular_family,
    validate_graded_algebra,
)

C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"


# -- grouplike character -----------------------------------------------------------

def test_character_laws_hold_on_all_fixtures():
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        fx = fixture(name)
        r = dual_ring(fx.coring)
        chi, rep = grouplike_character(fx.grouplike, r)
        assert rep.ok, name


def test_character_of_trivial_coring_sums_evaluations():
    fx = fixture("trivial")
    r = dual_ring(fx.coring)
    chi, _ = grouplike_character(fx.grouplike, r)
    # every degree contributes the evaluation at 1
    assert chi == Mat.from_rows(QQ, [[1, 1]])


def test_character_unit_value():
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    chi, _ = grouplike_character(fx.grouplike, r)
    packed = r.packed()
    unit_packed = packed.inject(0, r.unit_vec)
    assert chi.apply(unit_packed) == fx.coring.base.unit


# -- the coinvariant/connecting solution spaces ---------------------------------------

def test_strict_and_weak_spaces_agree():
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        fx = fixture(name)
        r = dual_ring(fx.coring)
        t = coinvariant_ring(fx.grouplike)
        assert row_space(t.basis) == row_space(weak_coinvariant_ring(fx.grouplike, r)), name
        o1, o2 = connecting_spaces(fx.grouplike, r)
        assert row_space(o1) == row_space(o2), name


def test_connecting_space_dimensions():
    # hand count on the regular fixture: the slice space has dimension two
    # and the family space matches it through the shifts
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    assert connecting_spaces(fx.grouplike, r)[0].rows == 2
    assert derived(fx).slice.connecting_spaces[0].rows == 2


def test_classical_context_validates_but_is_not_strict():
    # the two connecting images cannot fill the packed dual ring once the
    # group has more than one element: the second map lands in a subspace of
    # dimension at most dim(connecting) * dim(base)
    for name, tau_surj in (("trivial", True), ("regular", True), ("nongalois", True)):
        ctx, brep = derived(fixture(name)).morita
        assert brep.ok, name
        assert validate_morita_context(ctx).ok, name
        verdict, rep = is_strict(ctx)
        assert not verdict, name
        mu_rank = rank(ctx.mu)
        assert mu_rank <= ctx.q.dim * ctx.p.dim < ctx.ring2.dim, name
        tau_item = next(it for it in rep.items if it.check_id == "strict.tau-surjective")
        assert f"value={tau_surj}" in tau_item.witness, name


def test_slice_context_is_strict_on_galois_fixtures():
    for name in ("trivial", "regular", "sweedler"):
        ctx_e, _ = derived(fixture(name)).slice.morita
        assert validate_morita_context(ctx_e).ok, name
        verdict, _ = is_strict(ctx_e)
        assert verdict, name


def test_slice_context_not_strict_on_nongalois():
    ctx_e, _ = derived(fixture("nongalois")).slice.morita
    verdict, _ = is_strict(ctx_e)
    assert not verdict


# -- coefficient rings -------------------------------------------------------------------

def test_coefficient_ring_fixed_points_and_agreement():
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        fx = fixture(name)
        r = dual_ring(fx.coring)
        t = coinvariant_ring(fx.grouplike)
        basis, basis_w = coefficient_spaces(fx.grouplike, r)
        s = coefficient_ring(fx.grouplike, basis, t)
        s_w = coefficient_ring(fx.grouplike, basis_w, t)
        assert row_space(s.basis) == row_space(s_w.basis), name
        assert check_shift_fixed_points(s).ok, name
        assert validate_graded_algebra(s.twisted).ok, name


def test_trivial_coefficient_ring_is_constant_families():
    s = derived(fixture("trivial")).coefficients
    assert s.algebra.dim == 1
    assert row_space(s.basis) == row_space(Mat.from_rows(QQ, [[1, 1]]))


def test_diagonal_map_is_iso_on_cofree_fixtures():
    for name in ("trivial", "regular", "sweedler"):
        s = derived(fixture(name)).coefficients
        assert s.diag.rows == s.diag.cols and rank(s.diag) == s.diag.cols, name


# -- graded contexts -----------------------------------------------------------------------

def test_graded_context_strictness_matches_galois():
    expected = {"trivial": True, "regular": True, "nongalois": False, "sweedler": True}
    for name, value in expected.items():
        gctx, brep = derived(fixture(name)).graded_morita
        assert brep.ok, name
        assert validate_graded_morita_context(gctx).ok, name
        verdict, _ = is_strict(gctx.ctx)
        assert verdict == value, name


def test_weak_graded_context_equals_strict_one():
    d = derived(fixture("regular"))
    (g1, _), (g2, _) = d.graded_morita, d.weak_graded_morita
    assert d.connecting_spaces[0] == d.connecting_spaces[1]
    assert g1.ctx.tau == g2.ctx.tau and g1.ctx.mu == g2.ctx.mu


def test_canonical_graded_module_action_formula():
    for name in ("trivial", "regular", "nongalois"):
        fx = fixture(name)
        r = dual_ring(fx.coring)
        agm = canonical_graded_module(fx.grouplike, r)
        assert check_canonical_graded_action(agm, fx.grouplike, r).ok, name


def test_identity_functional_fixes_canonical_module():
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    agm = canonical_graded_module(fx.grouplike, r)
    g = fx.coring.group
    for a in g.elements():
        act = agm.act[(a, g.identity)]
        for i in range(fx.coring.base.dim):
            vec = act.apply(tensor_vec(QQ, tuple(
                QQ.one if k == i else QQ.zero for k in range(fx.coring.base.dim)), r.unit_vec))
            assert vec == tuple(QQ.one if k == i else QQ.zero
                                for k in range(fx.coring.base.dim))


# -- graded hom / end --------------------------------------------------------------------

def test_end_of_ring_over_itself_has_component_dims():
    fx = fixture("regular")
    r = dual_ring(fx.coring)
    rm = _ring_as_module(r)
    end = graded_end(rm)
    # degree-e endomorphisms of the ring over itself = left multiplications
    assert len(end.bases[0]) == r.dim(0)
    assert validate_graded_algebra(end.graded).ok


def test_hom_into_zero_module_is_zero():
    from corings.algebra import Bimodule
    from corings.dualring import GradedModule

    fx = fixture("regular")
    r = dual_ring(fx.coring)
    g = fx.coring.group
    zero = Bimodule(fx.coring.base, 0, None, (Mat.zeros(QQ, 0, 0),) * 2)
    comps = tuple(zero for _ in g.elements())
    act = {(a, b): Mat.zeros(QQ, 0, 0 * r.dim(b)) for a in g.elements() for b in g.elements()}
    zmod = GradedModule(r, comps, act)
    rm = _ring_as_module(r)
    for sigma in g.elements():
        assert graded_hom(rm, zmod, sigma) == []


def test_standard_context_of_ring_is_strict():
    fx = fixture("trivial")
    r = dual_ring(fx.coring)
    std, end, homs = context_from_graded_module(_ring_as_module(r))
    assert validate_graded_morita_context(std).ok
    verdict, _ = is_strict(std.ctx)
    assert verdict


def test_standard_context_matches_weak_graded_context():
    for name in ("trivial", "regular", "sweedler"):
        fx = fixture(name)
        assert check_standard_context_match(derived(fx)).ok, name


def test_graded_context_with_nontrivial_shifts():
    # over C_3 a degree is not its own inverse, and a family that does not
    # commute with the base shifts the coefficient families; a context that
    # shifts a block by a degree instead of its inverse fails both checks
    x = triangular_family()
    d = Derived(x.coring, x, inclusion_morphism(coinvariant_ring(x), x.coring.base))
    assert d.coefficients.algebra.dim == 3
    gctx, brep = d.graded_morita
    assert brep.ok
    assert validate_graded_morita_context(gctx).ok
    assert check_standard_context_match(d).ok


# -- group-ring contexts ---------------------------------------------------------------------

def test_group_ring_extension_of_standard_context_is_strict():
    # the context of the base field over itself, extended over the group
    b = field_algebra(QQ)
    one = Mat.identity(QQ, 1)
    p = RingBimodule(b, b, 1, (one,), (one,))
    ctx = MoritaContext(b, b, p, p, one, one)
    assert validate_morita_context(ctx).ok
    gctx = group_ring_context(ctx, cyclic_group(2))
    assert validate_graded_morita_context(gctx).ok
    verdict, _ = is_strict(gctx.ctx)
    assert verdict


def test_zero_context_extends_to_zero_context():
    b = field_algebra(QQ)
    p = RingBimodule(b, b, 0, (Mat.zeros(QQ, 0, 0),), (Mat.zeros(QQ, 0, 0),))
    ctx = MoritaContext(b, b, p, p, Mat.zeros(QQ, 1, 0), Mat.zeros(QQ, 1, 0))
    gctx = group_ring_context(ctx, cyclic_group(2))
    assert gctx.ctx.p.dim == 0 and gctx.ctx.q.dim == 0


def test_graded_context_matches_group_ring_context_on_cofree_fixtures():
    for name in ("trivial", "regular", "sweedler"):
        fx = fixture(name)
        assert check_group_ring_context_match(derived(fx)).ok, name


# -- the equivalence battery -------------------------------------------------------------------

def test_battery_agreement_on_fixtures():
    expected = {"trivial": "(True, True, True, True)",
                "regular": "(True, True, True, True)",
                "nongalois": "(False, False, False, False)"}
    for name, want in expected.items():
        fx = fixture(name)
        rep = galois_equivalence_battery(derived(fx))
        agree = next(it for it in rep.items if it.check_id == "battery.agreement")
        assert agree.passed and want in agree.witness, name


def test_battery_hypothesis_check():
    # a coring with a non-projective component must be rejected; build one
    # by hand over the two-dimensional nilpotent algebra
    from corings.algebra import Algebra, Bimodule
    from corings.coring import GroupCoring
    from corings.galois import GrouplikeFamily, RingMorphism
    from corings.groups import TRIVIAL_GROUP

    kx = Algebra.from_tables(QQ, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    # the rank-one module with the nilpotent acting by zero on both sides
    comp = Bimodule(kx, 1, (Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)),
                    (Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1)))
    cor = GroupCoring(TRIVIAL_GROUP, kx, (comp,), {}, from_cols(QQ, [kx.unit]))
    t = cor.tensor(0, 0)
    cor.delta[(0, 0)] = from_cols(QQ, [t.pure((QQ.one,), (QQ.one,))])
    x = GrouplikeFamily(cor, ((QQ.one,),))
    b = RingMorphism(kx, kx, Mat.identity(QQ, 2))
    with pytest.raises(HypothesisFailed):
        galois_equivalence_battery(Derived(cor, x, b))


def test_battery_lets_induction_errors_propagate(monkeypatch):
    import corings.galois as galois_mod

    def broken(*args):
        raise RuntimeError("induction failed")

    monkeypatch.setattr(galois_mod, "induction_unit", broken)
    fx = fixture("trivial")
    with pytest.raises(RuntimeError, match="induction failed"):
        galois_equivalence_battery(derived(fx))


# -- the batched law checks against the loop references ---------------------------------

# the suites of `all` that build a Morita context; the others build none
CONTEXT_SUITES = ("morita", "graded-morita", "section9")


@lru_cache(maxsize=None)
def contexts_of_a_full_run(name: str) -> tuple:
    """Every `MoritaContext` that `--suite all` builds on a fixture, or on
    regular k[C_3] over QQ, in the order they are built."""
    if name == "c3":
        text, suites = C3.read_text(), CONTEXT_SUITES
    else:
        text, suites = fixture_file_text(name), ("all",)
    built = []
    real = morita.MoritaContext

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    morita.MoritaContext = recording
    try:
        ms = main_structure(parse(text))
        for suite in suites:
            run_suite(ms, suite, seed=0)
    finally:
        morita.MoritaContext = real
    return tuple(built)


def bumped(m: Mat, rng) -> Mat:
    """m with one entry, drawn by rng, raised by one."""
    F = m.field
    k = rng.randrange(len(m.data))
    return Mat(F, m.rows, m.cols, m.data[:k] + (field_add(F, m.data[k], F.one),) + m.data[k + 1:])


def mutations(ctx: MoritaContext, rng) -> list:
    """ctx with one entry changed in each action family of p and q, in tau
    and in mu."""

    def in_family(mats, k):
        return mats[:k] + (bumped(mats[k], rng),) + mats[k + 1:]

    out = []
    for side in ("p", "q"):
        module = getattr(ctx, side)
        for family in ("left", "right") if module.dim else ():
            mats = getattr(module, family)
            changed = in_family(mats, rng.randrange(len(mats)))
            out.append(dataclasses.replace(
                ctx, **{side: dataclasses.replace(module, **{family: changed})}))
    if ctx.tau.data:
        out.append(dataclasses.replace(ctx, tau=bumped(ctx.tau, rng)))
    if ctx.mu.data:
        out.append(dataclasses.replace(ctx, mu=bumped(ctx.mu, rng)))
    return out


@pytest.mark.parametrize("name", ("trivial", "regular", "nongalois", "sweedler", "c3"))
def test_batched_morita_laws_match_the_loop_reference(name):
    contexts = contexts_of_a_full_run(name)
    assert contexts
    for ctx in contexts:
        assert validate_morita_context(ctx).items == reference_validate_morita_context(ctx).items


@pytest.mark.parametrize("name", ("trivial", "regular", "nongalois", "sweedler", "c3"))
def test_batched_morita_laws_report_the_failures_of_the_loop_reference(name):
    rng = random.Random(10)
    contexts = contexts_of_a_full_run(name)
    # on k[C_3] the classical and the graded context stand for the rest
    for ctx in (contexts[0], contexts[2]) if name == "c3" else contexts:
        for broken in mutations(ctx, rng):
            got = validate_morita_context(broken).items
            assert got == reference_validate_morita_context(broken).items
            assert not all(it.passed for it in got)


def conjugated(mats, rng) -> tuple:
    """mats conjugated by one random invertible matrix: an action of the
    same ring, which need not commute with the actions of another."""
    u = random_invertible(mats[0].field, mats[0].rows, rng)
    uinv = inverse(u)
    return tuple(u @ m @ uinv for m in mats)


@pytest.mark.parametrize("name", ("trivial", "regular", "nongalois", "sweedler", "c3"))
def test_ring_bimodule_laws_report_the_failures_of_the_loop_reference(name):
    # a bumped left action fails the left action law; conjugated left
    # actions stay an action and may stop commuting with the right ones
    rng = random.Random(12)
    contexts = contexts_of_a_full_run(name)
    failing = set()
    for ctx in (contexts[0], contexts[2]) if name == "c3" else contexts:
        for m in (ctx.p, ctx.q):
            if not m.dim:
                continue
            k = rng.randrange(len(m.left))
            for left in (m.left[:k] + (bumped(m.left[k], rng),) + m.left[k + 1:],
                         conjugated(m.left, rng)):
                broken = dataclasses.replace(m, left=left)
                got = validate_ring_bimodule(broken).items
                assert got == reference_validate_ring_bimodule(broken).items
                failing.update((it.check_id, it.witness.startswith("failing: [('left'"))
                               for it in got if not it.passed)
    assert ("bimodule.actions", True) in failing
    assert ("bimodule.commuting", False) in failing


def test_the_ring_bimodule_laws_hold_on_the_zero_module():
    ctx = contexts_of_a_full_run("regular")[0]
    zero = Mat.zeros(QQ, 0, 0)
    m = RingBimodule(ctx.ring1, ctx.ring2, 0, (zero,) * ctx.ring1.dim, (zero,) * ctx.ring2.dim)
    assert (m.left_map.rows, m.left_map.cols, m.right_map.rows, m.right_map.cols) == (0, 0, 0, 0)
    got = validate_ring_bimodule(m)
    assert got.ok and got.items == reference_validate_ring_bimodule(m).items


# -- the coefficient ring and the context comparisons against their references --------------

STRUCTURES = ("trivial", "regular", "nongalois", "sweedler", "c3", "triangular")


def derived_of(name: str) -> Derived:
    """The derived objects of a fixture, of regular k[C_3] over QQ, or of
    the triangular family over the inclusion of its coinvariants."""
    if name == "c3":
        return main_structure(parse(C3.read_text())).derived
    if name == "triangular":
        x = triangular_family()
        return Derived(x.coring, x, inclusion_morphism(coinvariant_ring(x), x.coring.base))
    return derived(fixture(name))


@pytest.mark.parametrize("name", STRUCTURES)
def test_coefficient_ring_matches_the_block_reference(name):
    d = derived_of(name)
    strict, weak = d.coefficient_spaces
    assert d.coefficients == reference_coefficient_ring(d.grouplike, strict, d.coinvariants)
    assert d.weak_coefficients == reference_coefficient_ring(d.grouplike, weak,
                                                             d.weak_coinvariants)
    if name == "triangular":  # shifts that move the families
        ident = Mat.identity(d.coring.base.field, d.coefficients.algebra.dim)
        assert any(sig != ident for sig in d.coefficients.sigma)


@pytest.mark.parametrize("name", STRUCTURES)
def test_stacked_context_matches_the_column_reference(name):
    # each degree's maps are stacked and each degree's coordinates solved at
    # once; the endomorphism product, both bimodules and both pairings equal
    # those of the loops that applied and solved one basis map at a time
    d = derived_of(name)
    for m in (d.canonical_module, _ring_as_module(d.dual_ring)):
        gctx, end, _ = context_from_graded_module(m)
        ctx = gctx.ctx
        assert ((end.graded.algebra.mul_mat, ctx.p.left, ctx.p.right, ctx.q.left, ctx.q.right,
                 ctx.tau, ctx.mu) == reference_standard_context(m))


def test_graded_morita_pass_builds_the_context_and_the_product_in_few_products(monkeypatch):
    # one graded-morita pass on regular k[C_3] over QQ: while the standard
    # context or a dual-ring product is built, solves included, fewer than
    # 200 matrix products run (1,863 when each basis map was applied alone)
    inside, count = [0], [0]
    real_matmul = Mat.__matmul__

    def counting(self, other):
        count[0] += inside[0] > 0
        return real_matmul(self, other)

    def within(fn):
        def wrapped(*args):
            inside[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1
        return wrapped

    monkeypatch.setattr(Mat, "__matmul__", counting)
    monkeypatch.setattr(morita, "context_from_graded_module",
                        within(morita.context_from_graded_module))
    monkeypatch.setattr(GradedRing, "_build_mul", within(GradedRing._build_mul))
    run_suite(main_structure(parse(C3.read_text())), "graded-morita", 0)
    assert 0 < count[0] < 200


EQUIVARIANCE_ROWS = ("standard.hom-equivariant", "ring-match.base-equivariant",
                     "ring-match.connecting-equivariant")


@pytest.mark.parametrize("name", STRUCTURES)
@pytest.mark.parametrize("position", (0, 3), ids=("comparison", "ring-map"))
def test_equivariance_rows_report_the_failures_of_the_loop_reference(monkeypatch, name,
                                                                      position):
    # one entry of each comparison map (position 0) or ring map (position 3)
    # that the rows read is raised by one; the rows then report what the
    # loop reference finds on the same maps
    d = derived_of(name)
    rng = random.Random(position)
    real = morita.intertwining_failures
    perturbed, calls = {}, []

    def perturbing(*args):
        args = list(args)
        m = args[position]
        if id(m) not in perturbed:  # the same map keeps its perturbation
            perturbed[id(m)] = (m, bumped(m, rng))
        args[position] = perturbed[id(m)][1]
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(morita, "intertwining_failures", perturbing)
    rep = check_standard_context_match(d)
    if d.witness is not None:
        rep.extend(check_group_ring_context_match(d))
    rows = [it for it in rep.items if it.check_id in EQUIVARIANCE_ROWS]
    assert rows and len(calls) == 2 * len(rows)
    for row, left, right in zip(rows, calls[::2], calls[1::2]):
        bad = ([("left", k) for k in reference_intertwining_failures(*left)]
               + [("right", k) for k in reference_intertwining_failures(*right)])
        assert not row.passed and row.witness == f"failing: {bad[:5]}", row.check_id
