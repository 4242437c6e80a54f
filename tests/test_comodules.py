"""Comodule categories, the pack/replicate adjoint pair and the cofree
equivalence."""

import collections
import random
import sys
from pathlib import Path

import pytest

from corings import comodules, dualring, linalg, suites
from corings.comodules import (
    Comodule,
    check_cofree_equivalence,
    check_pack_replicate,
    cofree_extend,
    comodules_equal,
    comodule_homs,
    coring_as_gcomodule,
    e_component,
    gcomodule_homs,
    gcomodules_equal,
    is_gcomodule_map,
    pack_gcomodule,
    replicate_comodule,
    validate_comodule,
    validate_g_comodule,
)
from corings.fixtures import fixture, fixture_file_text
from corings.galois import (
    RANDOM_COMODULE_RANK,
    coinvariant_ring,
    comodule_from_grouplike,
    inclusion_morphism,
    induce_comodule,
    induce_gcomodule,
    free_right_module,
    random_comodule,
)
from corings.linalg import LinearSystem, Mat
from corings.scalars import QQ, DimensionMismatch
from corings.structfile import main_structure, parse
from corings.suites import run_suite
from helpers import derived, reference_is_gcomodule_hom, reference_pack_gcomodule

C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"


def witness_of(name):
    return derived(fixture(name)).witness


def test_base_comodule_validates_on_all_fixtures():
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        fx = fixture(name)
        assert validate_comodule(comodule_from_grouplike(fx.grouplike)).ok, name


def test_coring_as_family_validates():
    for name in ("trivial", "regular", "nongalois"):
        fx = fixture(name)
        assert validate_g_comodule(coring_as_gcomodule(fx.coring)).ok, name


def test_zeroed_identity_coaction_fails_counit():
    fx = fixture("regular")
    m = comodule_from_grouplike(fx.grouplike)
    rho = list(m.rho)
    rho[0] = Mat.zeros(QQ, rho[0].rows, rho[0].cols)
    broken = Comodule(fx.coring, m.space, rho)
    rep = validate_comodule(broken)
    assert any(it.check_id == "comodule.counit" and not it.passed for it in rep.items)


def test_replicated_base_comodule_matches_induced_family():
    # the family induced from the base ring itself is (tagged copies of the
    # base with coactions through the family): same data as replication
    fx = fixture("regular")
    acom = comodule_from_grouplike(fx.grouplike)
    repl = replicate_comodule(acom)
    ind = induce_gcomodule(free_right_module(fx.base.src, 1), fx.base, fx.grouplike)
    assert gcomodules_equal(repl, ind)


def test_pack_of_replicated_object_has_group_times_dim():
    fx = fixture("regular")
    acom = comodule_from_grouplike(fx.grouplike)
    packed, _, _ = pack_gcomodule(replicate_comodule(acom))
    assert packed.space.dim == fx.coring.group.order * acom.space.dim


def test_pack_of_coring_family_is_packed_coring_coaction():
    # the packed family of the coring acting on itself is the direct-sum
    # comodule whose coactions assemble the comultiplications
    fx = fixture("regular")
    cg = coring_as_gcomodule(fx.coring)
    packed, inj, proj = pack_gcomodule(cg)
    assert validate_comodule(packed).ok
    g = fx.coring.group
    for a in g.elements():
        for b in g.elements():
            src = g.mul(b, g.inv(a))
            t_tot = packed.tensor(a)
            t_src = cg.tensor(src, a)
            from corings.linalg import tensor_k

            incl = t_tot.space.proj @ tensor_k(inj[src], Mat.identity(QQ, fx.coring.comps[a].dim)) \
                @ t_src.space.sect
            assert packed.rho[a] @ inj[b] == incl @ fx.coring.delta[(src, a)]


def test_adjunction_and_frobenius_on_fixture_pairs():
    for name in ("trivial", "regular"):
        fx = fixture(name)
        acom = comodule_from_grouplike(fx.grouplike)
        cg = coring_as_gcomodule(fx.coring)
        packed, _, _ = pack_gcomodule(cg)
        pairs = [(replicate_comodule(acom), acom), (cg, packed)]
        assert check_pack_replicate(pairs).ok, name


def test_corrupted_coaction_is_detected():
    # scaling one coaction breaks the comodule laws and the hom-space
    # bijection battery dimension count between the two sides
    fx = fixture("regular")
    acom = comodule_from_grouplike(fx.grouplike)
    rho = list(acom.rho)
    rho[1] = rho[1].scale(2)
    broken = Comodule(fx.coring, acom.space, rho)
    assert not validate_comodule(broken).ok
    cg = coring_as_gcomodule(fx.coring)
    packed, _, _ = pack_gcomodule(cg)
    rep_ok = all(item.passed for item in check_pack_replicate([(cg, broken)]).items
                 if item.check_id.startswith("adjunction["))
    hom_dim = len(comodule_homs(packed, broken).basis())
    hom_dim_good = len(comodule_homs(packed, acom).basis())
    # either the battery flags it or the corrupt hom space collapses
    assert (not rep_ok) or hom_dim != hom_dim_good or hom_dim == 0


def test_cofree_equivalence_on_cofree_fixtures():
    rng = random.Random(0)
    for name in ("regular", "sweedler"):
        fx = fixture(name)
        wit = witness_of(name)
        objs = [coring_as_gcomodule(fx.coring),
                replicate_comodule(comodule_from_grouplike(fx.grouplike)),
                replicate_comodule(random_comodule(fx.grouplike, rng,
                                                   coinvariant_ring(fx.grouplike)))]
        assert check_cofree_equivalence(fx.coring, wit, objs).ok, name


def test_extend_then_restrict_is_identity():
    fx = fixture("sweedler")
    acom = comodule_from_grouplike(fx.grouplike)
    n = e_component(replicate_comodule(acom))
    back = e_component(cofree_extend(n, fx.coring, fx.witness))
    assert comodules_equal(back, n)


def test_extension_of_base_slice_is_replicated_base():
    # extending the degree-e slice of the base comodule along a witness that
    # carries the grouplike family reproduces the replicated family
    fx = fixture("regular")
    wit = witness_of("regular")
    acom = comodule_from_grouplike(fx.grouplike)
    repl = replicate_comodule(acom)
    ext = cofree_extend(e_component(repl), fx.coring, wit)
    assert gcomodules_equal(ext, repl)


def test_random_comodule_is_valid_and_seeded():
    fx = fixture("regular")
    t = coinvariant_ring(fx.grouplike)
    m1 = random_comodule(fx.grouplike, random.Random(7), t)
    m2 = random_comodule(fx.grouplike, random.Random(7), t)
    assert validate_comodule(m1).ok
    assert comodules_equal(m1, m2)


def test_random_comodule_size_does_not_depend_on_the_seed():
    # the seed draws the change of basis only: every seed checks the
    # induced module of one fixed rank, so a suite's cost is the same
    fx = fixture("regular")
    t = coinvariant_ring(fx.grouplike)
    ind = induce_comodule(free_right_module(t.algebra, RANDOM_COMODULE_RANK),
                          inclusion_morphism(t, fx.coring.base), fx.grouplike).comodule
    dims = {random_comodule(fx.grouplike, random.Random(seed), t).space.dim for seed in range(8)}
    assert dims == {ind.space.dim}
    assert not comodules_equal(random_comodule(fx.grouplike, random.Random(0), t),
                               random_comodule(fx.grouplike, random.Random(1), t))


def test_hom_transposition_is_natural():
    # naturality of the transposition on solved hom bases: transposing after
    # precomposition with a family morphism equals postcomposing the
    # transpose, for every pair of basis morphisms
    from corings.comodules import gcomodule_homs

    fx = fixture("regular")
    acom = comodule_from_grouplike(fx.grouplike)
    gm = replicate_comodule(acom)
    packed, inj, proj = pack_gcomodule(gm)
    g = fx.coring.group
    endos = gcomodule_homs(gm, gm).basis()
    homs = [f for (f,) in comodule_homs(packed, acom).basis()]

    def pack_map(fams):
        # direct sum of a family morphism
        from corings.linalg import hstack, vstack
        rows = []
        for a in g.elements():
            row = [fams[a] if b == a else Mat.zeros(QQ, fams[a].rows, gm.comps[b].dim)
                   for b in g.elements()]
            rows.append(hstack(row))
        return vstack(rows)

    def psi(f):
        return tuple(f @ inj[a] for a in g.elements())

    for f in homs:
        for fams in endos:
            lhs = psi(f @ pack_map(fams))
            rhs = tuple(psi(f)[a] @ fams[a] for a in g.elements())
            assert lhs == rhs


@pytest.mark.parametrize("name", ("trivial", "regular", "nongalois", "sweedler", "c3-qq"))
def test_pack_equals_the_reference_over_the_whole_sum(name):
    s = main_structure(parse(C3.read_bytes())) if name == "c3-qq" else fixture(name)
    acom = comodule_from_grouplike(s.grouplike)
    for family in (coring_as_gcomodule(s.coring), replicate_comodule(acom)):
        packed, _, _ = pack_gcomodule(family)
        assert comodules_equal(packed, reference_pack_gcomodule(family))
        assert validate_comodule(packed).ok


def _perturbed(fams, k: int) -> tuple:
    """fams with one added to one entry of one nonempty degree, chosen by k."""
    degrees = [a for a, f in enumerate(fams) if f.rows * f.cols]
    a = degrees[k % len(degrees)]
    f = fams[a]
    i = k % (f.rows * f.cols)
    bump = Mat(f.field, f.rows, f.cols, tuple(int(j == i) for j in range(f.rows * f.cols)))
    return fams[:a] + (f + bump,) + fams[a + 1:]


@pytest.mark.parametrize("name", ("trivial", "regular", "nongalois", "sweedler"))
def test_hom_system_check_matches_the_reference(name):
    # the batteries test transposed maps against the family-map law, all the
    # maps of one pair and direction in one call; on the pairs the comodules
    # suite checks, in both directions, the stacked law names exactly the
    # families the map-by-map reference rejects, among the solved basis
    # families, their sums and perturbations of both, alone and interleaved
    fx = fixture(name)
    acom = comodule_from_grouplike(fx.grouplike)
    cg = coring_as_gcomodule(fx.coring)
    verdicts = []
    for gm, n in ((replicate_comodule(acom), acom), (cg, pack_gcomodule(cg)[0])):
        repl = replicate_comodule(n)
        for src, dst in ((gm, repl), (repl, gm)):
            basis = gcomodule_homs(src, dst).basis()
            sums = [tuple(f + h for f, h in zip(p, q)) for p, q in zip(basis, basis[1:] + basis[:1])]
            assert is_gcomodule_map(src, dst, basis + sums) == []
            assert all(reference_is_gcomodule_hom(src, dst, fams) for fams in basis + sums)
            for fams in basis:
                assert is_gcomodule_map(src, dst, [fams]) == []
            perturbed = [_perturbed(fams, k) for k, fams in enumerate(basis + sums)]
            failing = [k for k, fams in enumerate(perturbed)
                       if not reference_is_gcomodule_hom(src, dst, fams)]
            assert is_gcomodule_map(src, dst, perturbed) == failing
            for k, fams in enumerate(perturbed):
                assert is_gcomodule_map(src, dst, [fams]) == ([0] if k in failing else [])
            mixed = [fams for pair in zip(basis + sums, perturbed) for fams in pair]
            assert is_gcomodule_map(src, dst, mixed) == [2 * k + 1 for k in failing]
            verdicts += [k not in failing for k in range(len(perturbed))]
            assert is_gcomodule_map(src, dst, []) == []
            f = basis[0][0]
            wrong = (Mat.zeros(f.field, f.rows + 1, f.cols),) + basis[0][1:]
            with pytest.raises(DimensionMismatch):
                is_gcomodule_map(src, dst, basis + [wrong])
            with pytest.raises(DimensionMismatch):
                is_gcomodule_map(src, dst, [basis[0][1:]])
    assert False in verdicts


def test_the_family_map_law_reshapes_no_map(monkeypatch):
    # the coaction law keeps map i in column block i of both sides, so no
    # map is read into rows through `Mat.reshape` during --suite comodules
    calls = collections.Counter()
    real_law, real_reshape = comodules.is_gcomodule_map, Mat.reshape

    def law(m, n, families):
        calls["law"] += 1
        return real_law(m, n, families)

    def reshape(self, rows, cols):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not real_law.__code__:
            frame = frame.f_back
        calls["reshape in the law"] += frame is not None
        return real_reshape(self, rows, cols)

    monkeypatch.setattr(comodules, "is_gcomodule_map", law)
    monkeypatch.setattr(Mat, "reshape", reshape)
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        assert run_suite(main_structure(parse(fixture_file_text(name))), "comodules", 0).items
    assert calls["law"] and calls["reshape in the law"] == 0


def test_each_battery_checks_a_pair_and_direction_in_one_call(monkeypatch):
    # one --suite all pass over the four fixtures: per pair and direction,
    # the adjunction and Frobenius batteries check all the transposed basis
    # maps in one call of the family-map law (52 maps, which had a call
    # each), then one map per triangle row; the cofree battery makes one
    # call per object
    sizes = collections.defaultdict(list)
    real = comodules.is_gcomodule_map

    def counting(m, n, families):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in ("_adjunction_battery", "check_cofree_equivalence"):
            frame = frame.f_back
        sizes[frame.f_code.co_name].append(len(families))
        return real(m, n, families)

    monkeypatch.setattr(comodules, "is_gcomodule_map", counting)
    for name in ("trivial", "regular", "nongalois", "sweedler"):
        assert run_suite(fixture(name), "all", 0).items
    assert sorted(sizes) == ["_adjunction_battery", "check_cofree_equivalence"]
    battery = sizes["_adjunction_battery"]
    assert len(battery) == 3 * 16 and sum(battery[::3]) == 52
    assert battery[1::3] == battery[2::3] == [1] * 16
    assert sizes["check_cofree_equivalence"] == [1] * 9


@pytest.mark.parametrize("name", ("trivial", "regular", "nongalois", "sweedler"))
def test_both_batteries_share_each_pairs_packs(monkeypatch, name):
    # the adjunction and Frobenius rows read the same pack of each pair's
    # family and of its replicated comodule: with the suite's own pack of
    # the coring family that is 5 packs under comodules (9 when each
    # battery packed its pairs again) and 8 under all (12)
    calls = []
    real = comodules.pack_gcomodule

    def counting(m):
        calls.append(m)
        return real(m)

    for module in (comodules, dualring, suites):
        monkeypatch.setattr(module, "pack_gcomodule", counting)
    for suite, count in (("comodules", 5), ("all", 8)):
        calls.clear()
        assert run_suite(fixture(name), suite, 0).items
        assert len(calls) == count, suite


@pytest.mark.parametrize("battery", ("adjunction", "frobenius"))
@pytest.mark.parametrize("name", ("trivial", "regular", "nongalois", "sweedler"))
def test_a_packed_coaction_that_drops_a_block_fails_a_triangle_row(monkeypatch, battery, name):
    # the triangle rows check a unit or counit as a map of comodules: when
    # the coaction at the identity that pack_gcomodule builds loses its block
    # of the identity degree, a triangle row fails; on the true pack every
    # triangle row passes
    fx = fixture(name)
    acom = comodule_from_grouplike(fx.grouplike)
    cg = coring_as_gcomodule(fx.coring)
    pairs = [(replicate_comodule(acom), acom), (cg, pack_gcomodule(cg)[0])]

    def triangle_rows(rep) -> dict:
        return {item.check_id: item.passed for item in rep.items
                if item.check_id.startswith(battery + "[") and ".triangle-" in item.check_id}

    assert all(triangle_rows(check_pack_replicate(pairs)).values())
    real = comodules.pack_gcomodule

    def dropping(m):
        packed, inj, proj = real(m)
        e = m.coring.group.identity
        rho = list(packed.rho)
        rho[e] = rho[e] - rho[e] @ inj[e] @ proj[e]
        return Comodule(packed.coring, packed.space, rho), inj, proj

    monkeypatch.setattr(comodules, "pack_gcomodule", dropping)
    rows = triangle_rows(check_pack_replicate(pairs))
    assert len(rows) == 4 and not all(rows.values())


@pytest.mark.parametrize("name", ("regular", "sweedler", "c3-qq"))
def test_cofree_battery_solves_no_hom_system(monkeypatch, name):
    # the comparison maps are checked against the family-map law: the
    # battery builds no linear system, on the objects the comodules suite
    # gives it
    s = main_structure(parse(C3.read_bytes())) if name == "c3-qq" else fixture(name)
    d = derived(s)
    acom = comodule_from_grouplike(s.grouplike)
    cg = coring_as_gcomodule(s.coring)
    objs = [cg, replicate_comodule(acom), replicate_comodule(d.seeded_comodule(0))]
    built = []
    real = LinearSystem.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(LinearSystem, "__init__", counted)
    assert check_cofree_equivalence(s.coring, d.witness, objs).ok
    assert built == []
    gcomodule_homs(cg, cg)  # the wrapper sees the systems that are built
    assert len(built) == 1


def test_coaction_law_terms_skip_the_columns_right_linearity_zeroed(monkeypatch):
    s = fixture("sweedler")
    systems, active = [], []
    real_homs, real_add_term = comodules.comodule_homs, linalg._add_term

    def homs(m, n):
        active.append([])
        try:
            return real_homs(m, n)
        finally:
            systems.append(active.pop())

    def add_term(rows, sign, off, P, S, c, fm, zeroed):
        if active:
            whole, kept = collections.defaultdict(dict), collections.defaultdict(dict)
            real_add_term(whole, sign, off, P, S, c, fm, frozenset())
            real_add_term(kept, sign, off, P, S, c, fm, zeroed)
            active[-1].append((set(zeroed), whole, kept))
        real_add_term(rows, sign, off, P, S, c, fm, zeroed)

    monkeypatch.setattr(comodules, "comodule_homs", homs)
    monkeypatch.setattr(linalg, "_add_term", add_term)
    run_suite(s, "comodules", 0)
    assert systems
    skipped = 0
    for terms in systems:
        # two right-linearity terms per base basis element, then the coaction law
        law = terms[2 * s.coring.base.dim:]
        by_right_linearity = law[0][0]
        for zeroed, whole, kept in law:
            assert by_right_linearity <= zeroed
            left = {i: {j: x for j, x in row.items() if j not in zeroed} for i, row in whole.items()}
            assert kept == {i: row for i, row in left.items() if row}
            skipped += sum(j in by_right_linearity for row in whole.values() for j in row)
    assert skipped > 0
