"""The objects the suites share through `MainStructure.derived`: each is built
once per structure, and dropping the structure frees them all."""

import dataclasses
import gc
import inspect
import sys
import weakref
from collections import defaultdict
from pathlib import Path

import pytest

from corings import algebra, dualring, galois, morita, structfile
from corings.algebra import field_algebra, subalgebra
from corings.coring import GroupCoring
from corings.dualring import GradedRing, dual_ring
from corings.fixtures import fixture_file_text
from corings.galois import CoinvariantRing, GrouplikeFamily, RingMorphism
from corings.hopf import coring_from_comodule_algebra
from corings.linalg import Mat
from corings.morita import CoefficientRing
from corings.structfile import Derived, main_structure, parse
from corings.suites import run_suite
from helpers import from_cols, triangular_family

FIXTURES = ("trivial", "regular", "nongalois", "sweedler")
C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"

# builder -> (module, the parameters that make up its input)
BUILDERS = {
    "dual_ring": (dualring, ("c",)),
    "coinvariant_ring": (galois, ("x",)),
    "is_galois": (galois, ("x",)),
    "galois_decomposition": (galois, ("x",)),
    "connecting_spaces": (morita, ("x", "r")),
    "coefficient_spaces": (morita, ("x", "r")),
    "graded_morita_context": (morita, ("x", "r", "s", "wq")),
    "canonical_graded_module": (morita, ("x", "r")),
    "subalgebra": (algebra, ("ambient", "basis")),
}


def content(obj):
    """A value equal for inputs with equal content: corings, dual rings and
    grouplike families compare by identity otherwise.  Solved rings and
    spaces count by identity: the strict and the weak ones are equal in
    content on these structures, but are separate inputs."""
    if isinstance(obj, GroupCoring):
        return ("coring", obj.group, obj.base, obj.comps,
                tuple(sorted(obj.delta.items())), obj.counit)
    if isinstance(obj, GradedRing):
        return ("dual ring", content(obj.coring))
    if isinstance(obj, GrouplikeFamily):
        return ("grouplike", content(obj.coring), obj.vectors)
    if isinstance(obj, (CoefficientRing, Mat)):
        return ("solved", id(obj))
    return obj


def record_builds(monkeypatch) -> dict:
    """Rebind every builder in every corings module to a version that logs
    the content of its input; returns builder name -> list of inputs.

    The dual of the canonical comparison in the section 9 battery builds the
    dual ring of the comparison's domain, a coring built inside the check
    from the base morphism; its inputs are logged under their own role, as
    on some fixtures that coring equals the main one in content."""
    calls = defaultdict(list)
    role = []
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "corings" or name.startswith("corings."))]
    for name, (module, params) in BUILDERS.items():
        original = getattr(module, name)
        signature = inspect.signature(original)

        def logged(*args, _original=original, _name=name, _params=params,
                   _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(content(bound.arguments[p]) for p in _params)
            calls[_name].append((tuple(role), key))
            return _original(*args, **kwargs)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, logged)
    original_dual = dualring.dual_morphism

    def dual_morphism(*args, **kwargs):
        role.append("comparison domain")
        try:
            return original_dual(*args, **kwargs)
        finally:
            role.pop()

    monkeypatch.setattr(morita, "dual_morphism", dual_morphism)
    return calls


def distinct(inputs) -> int:
    seen = []
    for key in inputs:
        if key not in seen:
            seen.append(key)
    return len(seen)


@pytest.mark.parametrize("name", FIXTURES)
def test_suite_all_builds_each_input_once(monkeypatch, name):
    ms = main_structure(parse(fixture_file_text(name)))
    calls = record_builds(monkeypatch)
    run_suite(ms, "all", seed=0)
    for builder in ("dual_ring", "coinvariant_ring", "is_galois", "galois_decomposition",
                    "connecting_spaces", "coefficient_spaces", "graded_morita_context"):
        assert calls[builder], builder
        assert len(calls[builder]) == distinct(calls[builder]), (builder, len(calls[builder]))


@pytest.mark.parametrize("name", FIXTURES)
def test_suite_all_decides_the_strictness_of_each_context_once(monkeypatch, name):
    ms = main_structure(parse(fixture_file_text(name)))
    original = morita.is_strict
    contexts = []

    def is_strict(ctx):
        contexts.append(ctx)
        return original(ctx)

    for m in [m for key, m in sys.modules.items()
              if m is not None and (key == "corings" or key.startswith("corings."))]:
        for attr, value in list(vars(m).items()):
            if value is original:
                monkeypatch.setattr(m, attr, is_strict)
    run_suite(ms, "all", seed=0)
    assert len(contexts) == distinct(contexts) > 0, (len(contexts), distinct(contexts))


def test_graded_morita_on_c3_builds_each_input_once(monkeypatch):
    ms = main_structure(parse(C3.read_bytes()))
    calls = record_builds(monkeypatch)
    run_suite(ms, "graded-morita", seed=0)
    counts = {name: (len(calls[name]), distinct(calls[name])) for name in (
        "connecting_spaces", "coefficient_spaces", "coinvariant_ring",
        "graded_morita_context", "canonical_graded_module", "subalgebra")}
    # connecting spaces of the family and of the identity-degree slice, each
    # strict and weak in one pass; strict and weak coefficients in one pass;
    # one graded context, since the weak inputs equal the strict ones here;
    # coinvariants of the family and slice; subalgebras for those two and
    # the coefficient ring, none for the weak coinvariants, whose basis is
    # the strict one here
    assert counts == {"connecting_spaces": (2, 2), "coefficient_spaces": (1, 1),
                      "coinvariant_ring": (2, 2), "graded_morita_context": (1, 1),
                      "canonical_graded_module": (1, 1), "subalgebra": (3, 3)}


@pytest.mark.parametrize("name", FIXTURES)
def test_suite_all_derives_the_shared_comparisons_once(monkeypatch, name):
    # the structure-theorem, section 9 and hopf suites share the induction
    # comparisons, and the galois suite and both batteries the extension
    # facts of the base morphism; the dual-ring and graded-morita suites
    # share the cofree comparison of the dual ring, and the dual-ring suite
    # reads the canonical graded module that the graded-morita suite builds;
    # the comodules and dual-ring suites check one random comodule
    ms = main_structure(parse(fixture_file_text(name)))
    calls = defaultdict(int)
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "corings" or key.startswith("corings."))]
    for module, builder in ((galois, "induction_equivalence"),
                            (galois, "predicates_of_extension"),
                            (galois, "onto_coinvariants"),
                            (galois, "random_comodule"),
                            (dualring, "cofree_dual_group_ring_iso"),
                            (dualring, "gcomodule_to_graded")):
        original = getattr(module, builder)

        def counted(*args, _original=original, _name=builder):
            calls[_name] += 1
            return _original(*args)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, counted)
    run_suite(ms, "all", seed=0)
    # the coring family, the canonical module and the replicated random
    # comodule: the functor square reads the graded modules the suite built
    expected = {"induction_equivalence": 1, "predicates_of_extension": 1,
                "onto_coinvariants": 1, "cofree_dual_group_ring_iso": 1,
                "gcomodule_to_graded": 3, "random_comodule": 1}
    if name == "nongalois":  # no cofree witness, so no cofree comparison
        del expected["cofree_dual_group_ring_iso"]
    assert dict(calls) == expected


def test_connecting_spaces_read_the_first_legs_off_the_dual_ring(monkeypatch):
    ms = main_structure(parse(C3.read_bytes()))
    x, r = ms.grouplike, ms.derived.dual_ring
    calls = []
    original = algebra.contract_right

    def contract_right(*args):
        calls.append(args)
        return original(*args)

    for m in [m for key, m in sys.modules.items()
              if m is not None and (key == "corings" or key.startswith("corings."))]:
        for attr, value in list(vars(m).items()):
            if value is original:
                monkeypatch.setattr(m, attr, contract_right)
    strict, weak = morita.connecting_spaces(x, r)
    assert calls == [] and strict.rows == weak.rows > 0
    dual_ring(ms.coring)  # the dual ring computes the legs, and is counted
    assert calls


def test_suite_all_validates_the_comodule_algebra_once(monkeypatch):
    # the validate and hopf suites both report these checks
    ms = main_structure(parse(fixture_file_text("regular")))
    calls = defaultdict(int)
    for name in ("validate_hopf_g_coalgebra", "validate_comodule_algebra"):
        original = getattr(structfile, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(structfile, name, counted)
    rep = run_suite(ms, "all", seed=0)
    assert calls == {"validate_hopf_g_coalgebra": 1, "validate_comodule_algebra": 1}
    ids = {it.check_id for it in rep.items}
    assert {"validate.hopf-g.antipode", "hopf.hopf-g.antipode"} <= ids


def test_parsing_builds_nothing_and_suites_share_one_derived():
    ms = main_structure(parse(fixture_file_text("regular")))
    assert "derived" not in vars(ms)
    d = ms.derived
    assert not any(name in vars(d) for name in ("dual_ring", "coinvariants", "galois"))
    run_suite(ms, "morita", seed=0)
    assert ms.derived is d
    assert "dual_ring" in vars(d) and "weak_morita" in vars(d)


@pytest.mark.parametrize("name", FIXTURES)
def test_dropped_structure_frees_its_derived_objects_without_the_collector(name):
    ms = main_structure(parse(fixture_file_text(name)))
    run_suite(ms, "all", seed=0)
    refs = [weakref.ref(ms.coring.base), weakref.ref(ms.derived),
            weakref.ref(ms.derived.dual_ring)]
    gc.collect()
    gc.disable()
    try:
        del ms
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_hopf_suite_reads_the_induced_coring_when_it_is_not_the_main_one():
    ms = main_structure(parse(fixture_file_text("regular")))
    cor, x = coring_from_comodule_algebra(ms.comodule_algebra)
    assert ms.derived.hopf is None  # the main coring is the induced one
    other = main_structure(parse(fixture_file_text("nongalois")))
    mixed = dataclasses.replace(ms, coring=other.coring, grouplike=other.grouplike)
    h = mixed.derived.hopf
    assert h is not None and content(h.coring) == content(cor)
    assert h.grouplike.vectors == x.vectors
    assert run_suite(mixed, "hopf", seed=0).items == run_suite(ms, "hopf", seed=0).items


def _derived(name: str) -> Derived:
    if name != "triangular":
        return main_structure(parse(fixture_file_text(name))).derived
    x = triangular_family()
    a = x.coring.base
    return Derived(x.coring, x, RingMorphism(field_algebra(a.field), a,
                                             from_cols(a.field, [a.unit])))


def _count_weak_builds(monkeypatch) -> dict:
    calls = defaultdict(int)
    for name in ("coefficient_ring", "morita_context", "graded_morita_context"):
        original = getattr(structfile, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(structfile, name, counted)
    return calls


@pytest.mark.parametrize("name", FIXTURES + ("triangular",))
def test_weak_objects_are_the_strict_ones_when_their_inputs_are_equal(monkeypatch, name):
    d = _derived(name)
    calls = _count_weak_builds(monkeypatch)
    assert d.weak_coefficients is d.coefficients
    assert d.weak_morita is d.morita
    assert d.weak_graded_morita is d.graded_morita
    assert calls == {"coefficient_ring": 1, "morita_context": 1, "graded_morita_context": 1}


def _rescaled(d: Derived, forced: str) -> None:
    """Give d a weak input spanning the strict one in another basis (rows
    times 2), so that it is not equal to the strict input."""
    if forced == "coinvariants":
        basis = d.coinvariants.basis.scale(2)
        vars(d)["weak_coinvariants"] = CoinvariantRing(
            basis, *subalgebra(d.coring.base, basis))
    else:
        spaces = f"{forced}_spaces"
        strict, weak = getattr(d, spaces)
        vars(d)[spaces] = (strict, weak.scale(2))


@pytest.mark.parametrize("forced, separate", [
    ("connecting", {"morita_context", "graded_morita_context"}),
    ("coefficient", {"coefficient_ring", "graded_morita_context"}),
    ("coinvariants", {"coefficient_ring", "morita_context", "graded_morita_context"}),
])
def test_weak_objects_are_built_separately_when_an_input_differs(monkeypatch, forced, separate):
    # no bundled structure has weak inputs that differ from the strict ones,
    # so one is rescaled here; the weak builds then read it
    d = _derived("regular")
    _rescaled(d, forced)
    calls = _count_weak_builds(monkeypatch)
    weak = {"coefficient_ring": d.weak_coefficients, "morita_context": d.weak_morita,
            "graded_morita_context": d.weak_graded_morita}
    strict = {"coefficient_ring": d.coefficients, "morita_context": d.morita,
              "graded_morita_context": d.graded_morita}
    assert {name for name in weak if weak[name] is not strict[name]} == separate
    assert dict(calls) == {name: 1 + (name in separate) for name in weak}
    if forced == "connecting":
        # the weak space is the strict one with rows times 2, and both
        # pairings of the context are linear in it
        ctx, ctx_w = d.morita[0], d.weak_morita[0]
        assert d.connecting_spaces[1] != d.connecting_spaces[0]
        assert (ctx_w.tau, ctx_w.mu) == (ctx.tau.scale(2), ctx.mu.scale(2))
    if forced == "coefficient":
        assert d.weak_coefficients.basis == d.coefficient_spaces[1]
