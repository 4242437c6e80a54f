"""Named check suites over a parsed structure file.

Every suite is deterministic given (structure, seed): randomized test
objects come from a seeded generator and the report is sorted by check id
before serialization, so identical invocations produce identical bytes.
"""

from __future__ import annotations

from corings.algebra import Bimodule, validate_algebra, validate_bimodule
from corings.comodules import (
    check_cofree_equivalence,
    check_pack_replicate,
    coring_as_gcomodule,
    gcomodules_equal,
    pack_gcomodule,
    replicate_comodule,
    validate_comodule,
    validate_g_comodule,
)
from corings.coring import check_cofree_counit_identities, validate_group_coring, verify_cofree
from corings.dualring import (
    check_component_bidual,
    check_dual_basis_comultiplication,
    check_functor_square,
    comodule_to_module,
    forget_grading,
    gcomodule_to_graded,
    graded_to_gcomodule,
    induce_grading,
    rmodules_equal,
    validate_graded_ring,
    validate_rmodule,
    validate_graded_module,
)
from corings.galois import (
    check_base_ring,
    comodule_from_grouplike,
    grouplike_from_comodule,
    structure_theorem_battery,
    validate_grouplike,
    validate_ring_morphism,
    check_coinvariants_cofree,
)
from corings.groups import validate_group
from corings.hopf import (
    hopf_galois_check,
    hopf_galois_decomposition_check,
    relative_hopf_module_check,
    smash_dual,
    validate_smash_product,
    RelativeHopfModule,
)
from corings.linalg import row_space
from corings.morita import (
    check_canonical_graded_action,
    check_group_ring_context_match,
    check_shift_fixed_points,
    check_standard_context_match,
    galois_equivalence_battery,
    grouplike_character,
    is_strict,
    validate_graded_morita_context,
    validate_morita_context,
)
from corings.report import CheckReport
from corings.structfile import MainStructure


class UnknownSuite(ValueError):
    pass


SUITES = ("validate", "comodules", "dual-ring", "galois", "structure-theorem",
          "morita", "graded-morita", "section9", "hopf", "all")


def suite_validate(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    rep.extend(validate_group(ms.coring.group), prefix="validate.")
    rep.extend(validate_algebra(ms.coring.base), prefix="validate.base.")
    for a in ms.coring.group.elements():
        rep.extend(validate_bimodule(ms.coring.comps[a]), prefix=f"validate.comp[{a}].")
    rep.extend(validate_group_coring(ms.coring, check_components=False), prefix="validate.")
    rep.extend(validate_grouplike(ms.grouplike), prefix="validate.")
    rep.extend(validate_ring_morphism(ms.base), prefix="validate.base-morphism.")
    if ms.comodule_algebra is not None:
        rep.extend(ms.hopf_family_report, prefix="validate.")
        rep.extend(ms.comodule_algebra_report, prefix="validate.")
    return rep


def suite_comodules(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    d = ms.derived
    acom = comodule_from_grouplike(ms.grouplike)
    rep.extend(validate_comodule(acom), prefix="comodules.base.")
    x2 = grouplike_from_comodule(acom)
    rep.add("comodules.roundtrip", "grouplike and base-comodule structures correspond",
            x2.vectors == ms.grouplike.vectors)
    cg = coring_as_gcomodule(ms.coring)
    rep.extend(validate_g_comodule(cg), prefix="comodules.coring.")
    packed, _, _ = pack_gcomodule(cg)
    rep.extend(validate_comodule(packed), prefix="comodules.packed.")
    rnd = d.seeded_comodule(seed)
    rep.extend(validate_comodule(rnd), prefix="comodules.random.")
    pairs = [(replicate_comodule(acom), acom), (cg, packed)]
    rep.extend(check_pack_replicate(pairs), prefix="comodules.")
    wit = d.witness
    if wit is not None:
        rep.extend(verify_cofree(ms.coring, wit), prefix="comodules.")
        rep.extend(check_cofree_counit_identities(ms.coring, wit), prefix="comodules.")
        objs = [cg, replicate_comodule(acom), replicate_comodule(rnd)]
        rep.extend(check_cofree_equivalence(ms.coring, wit, objs), prefix="comodules.")
    else:
        rep.add("comodules.cofree-witness", "cofree comparison skipped", True,
                "no cofree witness available for this coring")
    return rep


def suite_dual_ring(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    d = ms.derived
    r = d.dual_ring
    rep.extend(validate_graded_ring(r), prefix="dual-ring.")
    rep.extend(check_component_bidual(ms.coring, r), prefix="dual-ring.")
    rep.extend(check_dual_basis_comultiplication(ms.coring, r), prefix="dual-ring.")
    cg = coring_as_gcomodule(ms.coring)
    gm = gcomodule_to_graded(cg, r)
    rep.extend(validate_graded_module(gm), prefix="dual-ring.coring-module.")
    back = graded_to_gcomodule(gm, ms.coring)
    rep.add("dual-ring.roundtrip.coring", "graded module reconstructs the family",
            gcomodules_equal(back, cg))
    acom = comodule_from_grouplike(ms.grouplike)
    repl = replicate_comodule(acom)
    back2 = graded_to_gcomodule(d.canonical_module, ms.coring)
    rep.add("dual-ring.roundtrip.base", "replicated base comodule reconstructs",
            gcomodules_equal(back2, repl))
    rm = comodule_to_module(acom, r)
    rep.extend(validate_rmodule(rm), prefix="dual-ring.base-module.")
    rep.extend(validate_graded_module(induce_grading(rm)), prefix="dual-ring.regraded.")
    rnd = d.seeded_comodule(seed)
    rnd_family = replicate_comodule(rnd)
    rnd_graded = gcomodule_to_graded(rnd_family, r)
    rep.extend(check_functor_square([(cg, gm), (rnd_family, rnd_graded)],
                                    [(acom, d.canonical_module), (rnd, rnd_graded)], r),
               prefix="dual-ring.")
    if d.witness is not None:
        rep.extend(d.cofree_dual[1], prefix="dual-ring.")
    else:
        rep.add("dual-ring.cofree-dual", "group-ring comparison skipped", True,
                "no cofree witness available for this coring")
    return rep


def suite_galois(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    d = ms.derived
    rep.extend(check_base_ring(d))
    rep.extend(d.galois[1])
    wit, drep = d.decomposition
    for it in drep.items:
        if it.check_id.startswith("decomposition."):
            rep.add(f"galois.{it.check_id}", it.law, it.passed, it.witness)
    if wit is not None:
        rep.extend(check_coinvariants_cofree(ms.grouplike, wit, d.coinvariants),
                   prefix="galois.")
    return rep


def suite_structure_theorem(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    rep.extend(structure_theorem_battery(ms.derived), prefix="structure-theorem.")
    return rep


def suite_morita(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    d = ms.derived
    chi, chirep = grouplike_character(ms.grouplike, d.dual_ring)
    rep.extend(chirep, prefix="morita.")
    rep.add("morita.coinvariants-agree", "strict and weak coinvariants coincide",
            row_space(d.coinvariants.basis) == row_space(d.weak_coinvariants.basis))
    o_strict, o_weak = d.connecting_spaces
    rep.add("morita.connecting-agree", "strict and weak connecting spaces coincide",
            row_space(o_strict) == row_space(o_weak),
            f"dims {o_strict.rows} vs {o_weak.rows}")
    ctx, brep = d.morita
    rep.extend(brep, prefix="morita.")
    rep.extend(validate_morita_context(ctx), prefix="morita.")
    ctx_w, _ = d.weak_morita
    rep.add("morita.contexts-identified",
            "strict and weak contexts share maps on the common bases",
            o_strict == o_weak and ctx.tau == ctx_w.tau and ctx.mu == ctx_w.mu)
    strict_verdict, srep = is_strict(ctx)
    rep.add("morita.strictness", "strictness of the classical context computed", True,
            f"value={strict_verdict}")
    # the right action convention for endomorphism-style bimodules is fixed
    # as composition in the written order; recorded for reproducibility
    rep.add("morita.convention.end-action",
            "right endomorphism actions compose in the written order", True,
            "convention")
    return rep


def suite_graded_morita(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    d = ms.derived
    r = d.dual_ring
    s, s_w = d.coefficients, d.weak_coefficients
    rep.add("graded-morita.coefficients-agree",
            "strict and weak coefficient families coincide",
            row_space(s.basis) == row_space(s_w.basis),
            f"dims {s.basis.rows} vs {s_w.basis.rows}")
    rep.extend(check_shift_fixed_points(s), prefix="graded-morita.")
    gctx, brep = d.graded_morita
    rep.extend(brep, prefix="graded-morita.")
    rep.extend(validate_graded_morita_context(gctx), prefix="graded-morita.")
    strict_verdict, _ = d.graded_strict
    rep.add("graded-morita.strictness", "strictness of the graded context computed", True,
            f"value={strict_verdict}")
    agm = d.canonical_module
    rep.extend(check_canonical_graded_action(agm, ms.grouplike, r), prefix="graded-morita.")
    lhs = comodule_to_module(pack_gcomodule(replicate_comodule(
        comodule_from_grouplike(ms.grouplike)))[0], r)
    rep.add("graded-morita.forget-match",
            "forgetting the grading of the canonical module matches the packed dual action",
            rmodules_equal(forget_grading(agm), lhs))
    rep.extend(check_standard_context_match(d), prefix="graded-morita.")
    if d.witness is not None:
        rep.extend(check_group_ring_context_match(d), prefix="graded-morita.")
    else:
        rep.add("graded-morita.group-ring-context", "group-ring comparison skipped", True,
                "no cofree witness available for this coring")
    return rep


def suite_section9(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    rep.extend(galois_equivalence_battery(ms.derived), prefix="section9.")
    return rep


def suite_hopf(ms: MainStructure, seed: int) -> CheckReport:
    rep = CheckReport()
    ca = ms.comodule_algebra
    if ca is None:
        rep.add("hopf.data", "no comodule algebra in this file; checks skipped", True)
        return rep
    rep.extend(ms.hopf_family_report, prefix="hopf.")
    rep.extend(ms.comodule_algebra_report, prefix="hopf.")
    h = ms.derived.hopf or ms.derived  # the derived objects of the induced coring
    verdict, grep = hopf_galois_check(ca, h)
    for it in grep.items:
        if "invariants" in it.check_id:
            rep.items.append(it)
    rep.add("hopf.galois-verdict", "Galois verdict of the induced coring computed", True,
            f"value={verdict}")
    rep.extend(hopf_galois_decomposition_check(h), prefix="hopf.")
    mod = RelativeHopfModule(ca, Bimodule.right_regular(ca.algebra), ca.rho)
    rep.extend(relative_hopf_module_check(ca, [mod], h.coring), prefix="hopf.")
    rep.extend(structure_theorem_battery(h), prefix="hopf.relative.")
    sp, lambdas, srep = smash_dual(ca, h.dual_ring)
    rep.extend(validate_smash_product(sp), prefix="hopf.")
    rep.extend(srep, prefix="hopf.")
    return rep


_SUITE_FUNCS = {
    "validate": suite_validate,
    "comodules": suite_comodules,
    "dual-ring": suite_dual_ring,
    "galois": suite_galois,
    "structure-theorem": suite_structure_theorem,
    "morita": suite_morita,
    "graded-morita": suite_graded_morita,
    "section9": suite_section9,
    "hopf": suite_hopf,
}


def run_suite(ms: MainStructure, suite: str, seed: int = 0) -> CheckReport:
    if suite == "all":
        rep = CheckReport()
        for name in SUITES[:-1]:
            rep.extend(_SUITE_FUNCS[name](ms, seed))
        return rep
    if suite not in _SUITE_FUNCS:
        raise UnknownSuite(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    return _SUITE_FUNCS[suite](ms, seed)
