"""The left duals, dual bases, collapse maps and contractions in the
per-algebra memo (`Algebra.memo`), the lifts it keeps, and the inverses a
cofree witness keeps."""

from pathlib import Path

import pytest

from corings import algebra, linalg
from corings.algebra import (
    Algebra,
    Bimodule,
    collapse_right,
    contract_right,
    find_dual_basis,
    left_dual,
    product_field_algebra,
)
from corings.comodules import coring_as_gcomodule
from corings.fixtures import fixture_file_text
from corings.linalg import Mat, QuotientSpace, hstack, interleave, inverse, kron_after
from corings.scalars import QQ
from corings.structfile import main_structure, parse
from corings.suites import run_suite

FIXTURES = ("trivial", "regular", "nongalois", "sweedler")
DUAL_KINDS = ("left_dual", "dual_basis", "collapse_right", "collapse_left", "contract_right",
              "contract_left")
C3 = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "c3-qq.coring"


def _load(name):
    text = C3.read_bytes() if name == "c3-qq" else fixture_file_text(name)
    return main_structure(parse(text))


def _fresh(A: Algebra, key: tuple):
    """The value an uncached build gives for a `DUAL_KINDS` key of `Algebra.memo`."""
    kind, dim, *rest = key
    F = A.field
    if kind == "left_dual":
        return algebra._left_dual(Bimodule(A, dim, *rest))
    if kind == "dual_basis":
        m = Bimodule(A, dim, rest[0], None)
        return algebra._dual_basis(m, algebra._left_dual(m)[0])
    if kind == "collapse_right":
        return interleave(F, dim, rest[0])
    if kind == "collapse_left":
        return hstack(rest[0])
    acts, functional = rest
    if kind == "contract_right":
        return kron_after(interleave(F, dim, acts), Mat.identity(F, dim), functional)
    assert kind == "contract_left", kind
    return kron_after(hstack(acts), functional, Mat.identity(F, dim))


@pytest.mark.parametrize("name, suite", [(name, "all") for name in FIXTURES]
                         + [("c3-qq", "dual-ring")])
def test_dual_memo_entries_equal_fresh_builds(name, suite):
    ms = _load(name)
    run_suite(ms, suite, seed=0)
    A = ms.coring.base
    kinds = set()
    for key, value in A.memo.items():
        if key[0] in DUAL_KINDS:
            assert value == _fresh(A, key), key
            kinds.add(key[0])
    assert {"left_dual", "collapse_right", "contract_right"} <= kinds
    if suite == "all":
        assert {"dual_basis", "collapse_left", "contract_left"} <= kinds


def test_dual_memo_keeps_no_bimodule_or_algebra():
    ms = _load("regular")
    run_suite(ms, "all", seed=0)
    memo = ms.coring.base.memo

    def leaves(x):
        if isinstance(x, tuple):
            for y in x:
                yield from leaves(y)
        else:
            yield x

    found = [x for x in leaves(tuple(memo.items())) if isinstance(x, (Bimodule, Algebra))]
    assert memo and not found


def test_equal_modules_share_one_build_and_get_their_own_wrappers(monkeypatch):
    builds = []
    real = algebra._left_dual

    def counted(m):
        builds.append(m)
        return real(m)

    monkeypatch.setattr(algebra, "_left_dual", counted)
    a = product_field_algebra(QQ, 2)
    m1, m2 = Bimodule.regular(a), Bimodule.regular(a)
    assert m1 is not m2
    d1, f1, _ = left_dual(m1)
    d2, f2, _ = left_dual(m2)
    assert builds == [m1] and f2 is f1 and d2 == d1
    db = find_dual_basis(m2)
    assert db.module is m2 and find_dual_basis(m1).module is m1
    assert builds == [m1]  # the dual basis reads the stored functionals
    assert collapse_right(m2) is collapse_right(m1)
    functional = f1[0]
    assert contract_right(m2, functional) is contract_right(m1, functional)
    assert contract_right(m1, functional.scale(2)) == contract_right(m1, functional).scale(2)


def test_the_left_dual_solves_once_and_its_basis_is_the_functionals_vec(monkeypatch):
    kernels = []
    real = linalg.LinearSystem.kernel

    def counted(sys):
        kernels.append(sys)
        return real(sys)

    monkeypatch.setattr(linalg.LinearSystem, "kernel", counted)
    ms = _load("regular")
    ring = ms.derived.dual_ring
    for a in ring.group.elements():
        comp = ms.coring.comps[ring.group.inv(a)]
        kernels.clear()
        _, functionals, basis = left_dual(Bimodule(comp.base, comp.dim, comp.left, comp.right))
        assert kernels == []  # a memo hit
        assert ring._func_bases[a] is basis and ring.functionals[a] is functionals
        assert basis == linalg.vec_rows(QQ, comp.base.dim * comp.dim, functionals)
    m = Bimodule.regular(product_field_algebra(QQ, 3))
    left_dual(m)
    assert len(kernels) == 1


def test_a_module_without_dual_basis_is_remembered_as_none(monkeypatch):
    # the whole base acts by zero on k, so the only left-linear functional
    # is zero and no dual basis exists
    a = product_field_algebra(QQ, 2)
    zero = Mat.zeros(QQ, 1, 1)
    m = Bimodule(a, 1, (zero, zero), None)
    solves = []
    real = algebra._dual_basis

    def counted(mod, functionals):
        solves.append(mod)
        return real(mod, functionals)

    monkeypatch.setattr(algebra, "_dual_basis", counted)
    assert find_dual_basis(m) is None
    assert find_dual_basis(Bimodule(a, 1, (zero, zero), None)) is None
    assert len(solves) == 1


def test_each_lift_and_inverse_is_computed_once_and_follows_a_new_map():
    ms = _load("regular")
    c, w = ms.coring, ms.derived.witness
    lift = c.delta_left_lift(0, 1)
    assert c.delta_left_lift(0, 1) is lift
    assert lift == c.tensor(0, 1).space.sect @ c.delta[(0, 1)]
    changed = c.delta[(0, 1)].scale(2)
    c.delta[(0, 1)] = changed
    assert c.delta_left_lift(0, 1) == (c.tensor(0, 1).space.sect @ changed) != lift
    gm = coring_as_gcomodule(ms.coring)
    assert gm.lift(1, 1) is gm.lift(1, 1)
    assert gm.lift(1, 1) == gm.tensor(1, 1).space.sect @ gm.rho[(1, 1)]
    # the coring over itself shares the lift of each pair with the coring
    pairs = [(a, b) for a in c.group.elements() for b in c.group.elements()]
    assert len(pairs) > 1
    assert all(gm.lift(a, b) is c.delta_left_lift(a, b) for a, b in pairs)
    inv = w.gamma_inv(1)
    assert w.gamma_inv(1) is inv and inv == inverse(w.gammas[1])


def test_a_rank_is_computed_once_per_matrix(monkeypatch):
    calls = []
    real = linalg.rref_pivots

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(linalg, "rref_pivots", counted)
    m = Mat.from_rows(QQ, [[1, 2], [2, 4]])
    assert linalg.rank(m) == linalg.rank(m) == 1
    assert not linalg.is_invertible(m)
    assert calls == [m]


def _held_matrices(obj):
    """Every matrix in a memo key or value: tuples, quotient spaces (with
    their derived relations, once built) and matrices."""
    if isinstance(obj, Mat):
        yield obj
    elif isinstance(obj, QuotientSpace):
        yield obj.proj
        yield obj.sect
        if "relations" in obj.__dict__:
            yield obj.__dict__["relations"]
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _held_matrices(item)


def test_memo_matrices_keep_no_dense_copy_after_the_comodules_suite():
    # the memos live as long as the base algebra, and a dense copy of a wide
    # triple projection or contraction is almost all zeros
    ms = _load("c3-qq")
    run_suite(ms, "comodules", seed=0)
    A = ms.coring.base
    held = [m for item in A.memo.items() for m in _held_matrices(item)]
    assert len(held) > 100
    assert [m for m in held if "data" in m.__dict__] == []
