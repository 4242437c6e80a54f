"""The degree-indexed laws stated once (`coring.coaction_failures`,
`coring.comultiplicative_failures`, `dualring.graded_action_failures` and
`dualring.graded_map_failures`), compared with the loops over degree pairs
and triples that they replaced (`tests/helpers.py`): on the four fixtures,
on regular k[C_3] over QQ and on a cofree coring over C_3, and on seeded
mutations of each where the laws fail.  Last, the machine report of
`--suite all` on k[C_3], whose validate, comodule, dual-ring and Hopf rows
these laws write, is pinned to its recorded hash."""

import contextlib
import copy
import hashlib
import io
import random
from functools import lru_cache
from pathlib import Path

import pytest

from corings.cli import main
from corings.comodules import (
    Comodule,
    GComodule,
    coring_as_gcomodule,
    pack_gcomodule,
    validate_comodule,
    validate_g_comodule,
)
from corings.coring import (
    CofreeWitness,
    GroupCoring,
    GroupCoringMorphism,
    validate_coring_morphism,
    validate_group_coring,
    verify_cofree,
)
from corings.dualring import (
    GradedModule,
    RModule,
    comodule_to_module,
    dual_ring,
    gcomodule_to_graded,
    graded_map_failures,
    induce_grading,
    validate_graded_module,
    validate_graded_ring,
    validate_rmodule,
)
from corings.fixtures import fixture_file_text
from corings.galois import comodule_from_grouplike
from corings.hopf import SmashProduct, validate_smash_product
from corings.linalg import Mat
from corings.structfile import main_structure, parse
from helpers import (
    reference_cofree_compatible_row,
    reference_comultiplicative_row,
    reference_coring_laws,
    reference_graded_map_failures,
    reference_graded_module_laws,
    reference_graded_ring_laws,
    reference_validate_comodule,
    reference_validate_g_comodule,
    reference_validate_rmodule,
    reference_validate_smash_product,
    triangular_family,
)

ROOT = Path(__file__).resolve().parent.parent
C3 = ROOT / "bench" / "inputs" / "c3-qq.coring"
NAMES = ("trivial", "regular", "nongalois", "sweedler", "c3", "cofree-c3")


@lru_cache(maxsize=None)
def structure(name: str) -> tuple:
    """(coring, cofree witness or None, comodule algebra or None, plain
    comodule) of a named input."""
    if name == "cofree-c3":
        x = triangular_family()  # on a trivial, so cofree, coring over C_3
        c = x.coring
        e = c.group.identity
        wit = CofreeWitness(c, [Mat.identity(c.base.field, c.comps[e].dim)] * c.group.order)
        return c, wit, None, comodule_from_grouplike(x)
    ms = main_structure(parse(C3.read_text() if name == "c3" else fixture_file_text(name)))
    return ms.coring, ms.witness, ms.comodule_algebra, comodule_from_grouplike(ms.grouplike)


def bumped(m: Mat, rng) -> Mat:
    """m with one entry, drawn by rng, raised by one."""
    k = rng.randrange(m.rows * m.cols)
    vals = list(m.data)
    vals[k] = m.field.reduce(vals[k] + 1)
    return Mat(m.field, m.rows, m.cols, tuple(vals))


def bump_one(mats, rng):
    """A copy of the dict or sequence mats with one nonempty entry bumped."""
    keys = [k for k in (sorted(mats) if isinstance(mats, dict) else range(len(mats)))
            if mats[k].rows * mats[k].cols]
    key = rng.choice(keys)
    out = dict(mats) if isinstance(mats, dict) else list(mats)
    out[key] = bumped(mats[key], rng)
    return out


def identities(c: GroupCoring) -> list:
    return [Mat.identity(c.base.field, comp.dim) for comp in c.comps]


def law_rows(rep, ref) -> list:
    """The rows of rep under the check ids of ref, in report order."""
    ids = {it.check_id for it in ref.items}
    return [it for it in rep.items if it.check_id in ids]


def checks(name: str, rng=None) -> list:
    """(kind, report, reference report) of every degree-indexed law of the
    named input; given rng, each input has one entry bumped first."""

    def bump(mats):
        return mats if rng is None else bump_one(mats, rng)

    c, wit, ca, acom = structure(name)
    g = c.group
    r = dual_ring(c)
    out = []
    cb = GroupCoring(g, c.base, c.comps, bump(c.delta), c.counit)
    out.append(("comultiplication", validate_group_coring(cb, check_components=False),
                reference_coring_laws(cb)))
    cb = GroupCoring(g, c.base, c.comps, c.delta, bump([c.counit])[0])
    out.append(("counit", validate_group_coring(cb, check_components=False),
                reference_coring_laws(cb)))
    f = GroupCoringMorphism(c, c, bump(identities(c)))
    out.append(("coring-morphism", validate_coring_morphism(f), reference_comultiplicative_row(f)))
    if wit is not None:
        w = CofreeWitness(c, bump(wit.gammas))
        out.append(("cofree", verify_cofree(c, w), reference_cofree_compatible_row(c, w)))
    cg = coring_as_gcomodule(c)
    gm = GComodule(c, cg.comps, bump(cg.rho))
    out.append(("g-comodule", validate_g_comodule(gm), reference_validate_g_comodule(gm)))
    for m in (acom, pack_gcomodule(cg)[0]):
        m = Comodule(c, m.space, bump(m.rho))
        out.append(("comodule", validate_comodule(m), reference_validate_comodule(m)))
    rb = copy.copy(r)
    rb.mul = bump(r.mul)
    out.append(("dual-ring", validate_graded_ring(rb), reference_graded_ring_laws(rb)))
    graded = gcomodule_to_graded(cg, r)
    rm = comodule_to_module(acom, r)
    for m in (graded, induce_grading(rm)):
        m = GradedModule(r, m.comps, bump(m.act))
        out.append(("graded-module", validate_graded_module(m), reference_graded_module_laws(m)))
    m = RModule(r, rm.module, bump(rm.act))
    out.append(("r-module", validate_rmodule(m), reference_validate_rmodule(m)))
    if ca is not None:
        sp = copy.copy(SmashProduct(ca))
        sp.mul = bump(sp.mul)
        out.append(("smash", validate_smash_product(sp), reference_validate_smash_product(sp)))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_degree_laws_match_the_loop_references(name):
    for kind, rep, ref in checks(name):
        assert law_rows(rep, ref) == ref.items, kind
        assert ref.ok, kind


@pytest.mark.parametrize("name", NAMES)
def test_degree_laws_report_the_failures_of_the_loop_references(name):
    rng = random.Random(18)
    failed, kinds = set(), set()
    for _ in range(2):
        for kind, rep, ref in checks(name, rng):
            assert law_rows(rep, ref) == ref.items, kind
            kinds.add(kind)
            if not ref.ok:
                failed.add(kind)
    assert failed == kinds


@pytest.mark.parametrize("name", NAMES)
def test_graded_map_failures_match_the_loop_reference(name):
    """On the identity of the dual ring, with one entry of the maps, of the
    source product or of the target product bumped."""
    rng = random.Random(18)
    c = structure(name)[0]
    g = c.group
    r = dual_ring(c)
    maps = [Mat.identity(r.base.field, r.dim(a)) for a in g.elements()]
    assert graded_map_failures(g, maps, r.mul, r.mul) == []
    failed = 0
    for _ in range(3):
        for args in ((bump_one(maps, rng), r.mul, r.mul), (maps, bump_one(r.mul, rng), r.mul),
                     (maps, r.mul, bump_one(r.mul, rng))):
            bad = graded_map_failures(g, *args)
            assert bad == reference_graded_map_failures(g, *args)
            failed += bool(bad)
    assert failed


# the machine report of `--suite all --seed 0` on k[C_3] and its exit code
C3_ALL = ("corings check bench/inputs/c3-qq.coring --suite all --seed 0 --format machine",
          0, "bc47ba2b6b732b87412002a82f5694e7aba4387df506e115d3a47d71e161be01")


def test_c3_full_report_matches_its_recorded_hash(monkeypatch):
    command, code, digest = C3_ALL
    monkeypatch.chdir(ROOT)  # the report embeds the path as given
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()[1:]) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
