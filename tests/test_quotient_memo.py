"""The tensor quotients in the per-algebra memo (`Algebra.memo`), and the
tags of its keys."""

import gc
import sys
import weakref
from pathlib import Path

import pytest

from corings import algebra, comodules, coring, dualring, linalg
from corings.algebra import (
    Algebra,
    BaseMismatch,
    Bimodule,
    cached_tensor,
    cached_triple,
    product_field_algebra,
    tensor_over_algebra,
)
from corings.comodules import (
    coring_as_gcomodule,
    pack_gcomodule,
    validate_comodule,
    validate_g_comodule,
)
from corings.fixtures import fixture_file_text
from corings.linalg import Mat, balanced_quotient, kron_after, row_space, triple_balanced_quotient
from corings.scalars import QQ
from corings.structfile import main_structure, parse
from corings.suites import run_suite
from helpers import dense_triple_quotient

FIXTURES = ("trivial", "regular", "nongalois", "sweedler")
C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"
# the first entry of every key of `Algebra.memo`
KINDS = {"tensor", "tensor-space", "triple", "sum", "lift", "left_dual", "dual_basis",
         "collapse_right", "collapse_left", "contract_right", "contract_left"}


def _load(name):
    text = C3.read_bytes() if name == "c3-qq" else fixture_file_text(name)
    return main_structure(parse(text))


def _same_space(q1, q2):
    return (q1.dim, q1.relations, q1.proj, q1.sect) == (q2.dim, q2.relations, q2.proj, q2.sect)


def _fresh_triple(m, n, p):
    """The projection of `cached_triple(m, n, p)` from uncached builds: the
    outer tensor of the inner pair's module with p, after the inner pair."""
    inner = tensor_over_algebra(m, n)
    outer = tensor_over_algebra(inner.module, p)
    return kron_after(outer.space.proj, inner.space.proj, Mat.identity(m.base.field, p.dim))


def _kernel_of_the_triple_quotient(proj, field, d1, d2, d3, acts12, acts23):
    """Whether proj, onto a space of the quotient's dimension, has the
    kernel of the quotient by the relations of both junctions."""
    q = dense_triple_quotient(field, d1, d2, d3, acts12, acts23)
    return (proj.rows, proj.cols) == (q.dim, q.ambient_dim) and row_space(proj) == row_space(q.proj)


def _checked(monkeypatch, hits):
    """Rebind the memo lookups of the coring, comodule and dual-ring layers
    to versions that compare every hit with a fresh, uncached build."""

    def tensor(m, n):
        hit = ("tensor", m.dim, m.left, m.right, n.dim, n.left, n.right) in m.base.memo
        t = cached_tensor(m, n)
        if hit:
            fresh = tensor_over_algebra(m, n)
            assert _same_space(t.space, fresh.space)
            assert (t.module.dim, t.module.left, t.module.right) == \
                (fresh.module.dim, fresh.module.left, fresh.module.right)
            assert (t.left, t.right) == (m, n)
            hits["tensor"] += 1
        return t

    def triple(m, n, p):
        hit = ("triple", m.dim, n.dim, p.dim, m.right, n.left, n.right, p.left) in m.base.memo
        proj = cached_triple(m, n, p)
        if hit:
            assert proj == _fresh_triple(m, n, p)
            fresh = triple_balanced_quotient(m.base.field, m.dim, n.dim, p.dim,
                                             (m.right, n.left), (n.right, p.left))
            assert row_space(proj) == row_space(fresh.proj)
            hits["triple"] += 1
        return proj

    for mod in (coring, comodules, dualring):
        for name, checked in (("cached_tensor", tensor), ("cached_triple", triple)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, checked)


@pytest.mark.parametrize("name", FIXTURES)
def test_every_memo_hit_equals_a_fresh_build(monkeypatch, name):
    hits = {"tensor": 0, "triple": 0}
    _checked(monkeypatch, hits)
    ms = _load(name)
    for suite in ("validate", "comodules", "dual-ring"):
        run_suite(ms, suite, seed=0)
    assert hits["tensor"] > 0 and hits["triple"] > 0


@pytest.mark.parametrize("name, suite", [(name, "all") for name in FIXTURES]
                         + [("c3-qq", "dual-ring")])
def test_memo_entries_equal_fresh_builds_after_all(name, suite):
    ms = _load(name)
    run_suite(ms, suite, seed=0)
    A = ms.coring.base
    memo = A.memo
    assert memo
    # recorded by direct_sum_bimodule
    sums = {key[1:] for key in memo if key[0] == "sum"}
    filled = lifts = 0
    for key, value in list(memo.items()):
        kind, *rest = key
        assert kind in KINDS, key
        if kind == "sum":
            total, _, _ = algebra.direct_sum_bimodule([Bimodule(A, *part) for part in value])
            assert (total.dim, total.left, total.right) == tuple(rest)
        elif kind == "tensor":
            dm, ml, mr, dn, nl, nr = rest
            filled += (dm, ml, mr) in sums
            fresh = tensor_over_algebra(Bimodule(A, dm, ml, mr), Bimodule(A, dn, nl, nr))
            space, left, right = value
            assert _same_space(space, fresh.space)
            assert (left, right) == (fresh.module.left, fresh.module.right)
        elif kind == "tensor-space":
            dm, mr, dn, nl = rest
            assert _same_space(value, balanced_quotient(A.field, dm, dn, mr, nl))
        elif kind == "triple":
            d1, d2, d3, r1, l2, r2, l3 = rest
            filled += (d1, None, r1) in sums
            assert _kernel_of_the_triple_quotient(value, A.field, d1, d2, d3, (r1, l2), (r2, l3))
        elif kind == "lift":
            dm, mr, dn, nl, mat = rest
            m, n = Bimodule(A, dm, None, mr), Bimodule(A, dn, nl, None)
            assert value == cached_tensor(m, n).space.sect @ mat
            assert value == balanced_quotient(A.field, dm, dn, mr, nl).sect @ mat
            lifts += 1
    assert sums and filled and lifts


@pytest.mark.parametrize("name", FIXTURES + ("c3-qq",))
def test_no_suite_builds_the_triple_quotient(monkeypatch, name):
    # every triple comparison goes through the two pair quotients of
    # `cached_triple`; `triple_balanced_quotient` is the tests' reference
    calls = []
    real = linalg.triple_balanced_quotient

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("corings") and \
                getattr(module, "triple_balanced_quotient", None) is real:
            monkeypatch.setattr(module, "triple_balanced_quotient", counted)
    ms = _load(name)
    run_suite(ms, "all", seed=0)
    assert any(key[0] == "triple" for key in ms.coring.base.memo)
    assert calls == []


@pytest.mark.parametrize("name", FIXTURES)
def test_no_two_pair_builds_share_a_quotient_space_key(monkeypatch, name):
    # the pair quotient depends only on (m.dim, m.right, n.dim, n.left), so
    # pairs that differ in m.left or n.right share one elimination
    keys = []
    real = algebra.balanced_quotient

    def counted(field, dim_m, dim_n, right_acts, left_acts):
        keys.append((dim_m, tuple(right_acts), dim_n, tuple(left_acts)))
        return real(field, dim_m, dim_n, right_acts, left_acts)

    monkeypatch.setattr(algebra, "balanced_quotient", counted)
    run_suite(_load(name), "all", seed=0)
    assert keys and len(keys) == len(set(keys))


@pytest.mark.parametrize("name", FIXTURES)
def test_packing_runs_no_elimination_once_the_summands_are_in_the_memo(monkeypatch, name):
    ms = _load(name)
    cg = coring_as_gcomodule(ms.coring)
    assert validate_g_comodule(cg).ok  # fills every summand pair and triple quotient
    calls = []
    real = linalg._quotient  # every quotient, balanced or triple, is built through it

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "_quotient", counted)
    packed, _, _ = pack_gcomodule(cg)
    assert validate_comodule(packed).ok
    assert calls == []


def test_memo_keeps_no_bimodule_or_algebra():
    ms = _load("regular")
    run_suite(ms, "comodules", seed=0)
    memo = ms.coring.base.memo

    def leaves(x):
        if isinstance(x, tuple):
            for y in x:
                yield from leaves(y)
        else:
            yield x

    found = [x for x in leaves(tuple(memo.items())) if isinstance(x, (Bimodule, Algebra))]
    assert memo and not found


def test_two_parses_of_one_text_share_no_entries():
    text = fixture_file_text("regular")
    ms1 = main_structure(parse(text))
    ms2 = main_structure(parse(text))
    A1, A2 = ms1.coring.base, ms2.coring.base
    assert A1 == A2 and A1 is not A2
    after_parse = dict(A2.memo)
    run_suite(ms1, "validate", seed=0)
    assert len(A1.memo) > len(after_parse)
    assert A2.memo == after_parse
    run_suite(ms2, "validate", seed=0)
    assert A1.memo is not A2.memo
    assert A1.memo.keys() == A2.memo.keys()
    assert not {id(v) for v in A1.memo.values()} & {id(v) for v in A2.memo.values()}


def test_factors_over_different_algebras_raise_base_mismatch():
    a1, a2 = product_field_algebra(QQ, 2), product_field_algebra(QQ, 3)
    r1, r2 = Bimodule.regular(a1), Bimodule.regular(a2)
    with pytest.raises(BaseMismatch):
        cached_tensor(r1, r2)
    with pytest.raises(BaseMismatch):
        cached_triple(r1, r1, r2)
    with pytest.raises(BaseMismatch):
        cached_triple(r2, r1, r1)
    assert not a1.memo and not a2.memo


def test_base_mismatch_is_checked_before_the_lookup():
    a1 = product_field_algebra(QQ, 2)
    a2 = Algebra.from_tables(QQ, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0])
    r1 = Bimodule.regular(a1)
    alien = Bimodule(a2, r1.dim, r1.left, r1.right)  # a1's content over a2
    cached_tensor(r1, r1)
    cached_triple(r1, r1, r1)
    with pytest.raises(BaseMismatch):
        cached_tensor(r1, alien)
    with pytest.raises(BaseMismatch):
        cached_triple(r1, alien, r1)


def test_equal_algebras_share_tensor_results_but_not_memos():
    a1, a2 = product_field_algebra(QQ, 2), product_field_algebra(QQ, 2)
    t1 = cached_tensor(Bimodule.regular(a1), Bimodule.regular(a2))
    t2 = cached_tensor(Bimodule.regular(a1), Bimodule.regular(a1))
    assert t2.space is t1.space
    assert t2.module.base is a1
    assert a1.memo and not a2.memo


@pytest.mark.parametrize("name", FIXTURES)
def test_dropped_structure_frees_its_algebra_without_the_collector(name):
    ms = _load(name)
    run_suite(ms, "comodules", seed=0)
    ref = weakref.ref(ms.coring.base)
    assert ms.coring.base.memo
    gc.collect()
    gc.disable()
    try:
        del ms
        assert ref() is None
    finally:
        gc.enable()


def test_memo_uses_the_uncached_builders(monkeypatch):
    calls = []
    real = algebra.tensor_over_algebra

    def counted(m, n):
        calls.append(1)
        return real(m, n)

    monkeypatch.setattr(algebra, "tensor_over_algebra", counted)
    a = product_field_algebra(QQ, 2)
    reg = Bimodule.regular(a)
    cached_tensor(reg, reg)
    cached_tensor(Bimodule.regular(a), Bimodule.regular(a))
    assert len(calls) == 1


def test_a_sum_with_one_nonzero_summand_is_not_split():
    a = product_field_algebra(QQ, 2)
    reg = Bimodule.regular(a)
    zero = Bimodule(a, 0, tuple(Mat.zeros(QQ, 0, 0) for _ in range(2)),
                    tuple(Mat.zeros(QQ, 0, 0) for _ in range(2)))
    for parts in ([reg], [zero, reg], [reg, zero, zero]):
        total, _, _ = algebra.direct_sum_bimodule(parts)
        assert (total.dim, total.left, total.right) == (reg.dim, reg.left, reg.right)
        assert not any(key[0] == "sum" for key in a.memo)
        t = cached_tensor(total, reg)
        assert _same_space(t.space, tensor_over_algebra(reg, reg).space)
    total, _, _ = algebra.direct_sum_bimodule([reg, zero, reg])
    assert a.memo[("sum", total.dim, total.left, total.right)] == ((2, reg.left, reg.right),) * 2


def test_sum_entries_follow_the_order_of_unequal_summands():
    a = product_field_algebra(QQ, 2)
    reg = Bimodule.regular(a)
    # the simple module on which e_0 acts as 1 and e_1 as 0
    acts = (Mat.identity(QQ, 1), Mat.zeros(QQ, 1, 1))
    simple = Bimodule(a, 1, acts, acts)
    for parts in ([reg, simple], [simple, reg, simple]):
        total, _, _ = algebra.direct_sum_bimodule(parts)
        t, fresh = cached_tensor(total, reg), tensor_over_algebra(total, reg)
        assert _same_space(t.space, fresh.space)
        assert (t.module.left, t.module.right) == (fresh.module.left, fresh.module.right)
        proj = cached_triple(total, reg, simple)
        assert proj == _fresh_triple(total, reg, simple)
        assert _kernel_of_the_triple_quotient(proj, QQ, total.dim, 2, 1, (total.right, reg.left),
                                              (reg.right, simple.left))
