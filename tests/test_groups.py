"""Finite group tables and their validator."""

from corings.groups import FiniteGroup, validate_group
from helpers import cyclic_group, symmetric3


def test_cyclic_two_is_valid():
    assert validate_group(cyclic_group(2)).ok


def test_symmetric_three_is_valid():
    g = symmetric3()
    assert g.order == 6
    assert validate_group(g).ok
    # identity-first enumeration
    assert g.mul(0, 3) == 3


def test_broken_associativity_is_reported():
    # start from C3 and corrupt one entry
    g = cyclic_group(3)
    table = [list(r) for r in g.table]
    table[1][1] = 1  # 1*1 should be 2
    bad = FiniteGroup.from_table(table)
    rep = validate_group(bad)
    assert not rep.ok
    assert any("associativity" in it.law and not it.passed for it in rep.items)


def test_missing_inverse_is_reported():
    # a monoid that is not a group: absorbing second element
    bad = FiniteGroup.from_table([[0, 1], [1, 1]])
    rep = validate_group(bad)
    assert not rep.ok
    assert any("inverse" in it.law and not it.passed for it in rep.items)


def test_inverses():
    g = cyclic_group(3)
    assert [g.inv(a) for a in g.elements()] == [0, 2, 1]
