"""Finite groups as 0-based multiplication tables with identity at index 0."""

from __future__ import annotations

from dataclasses import dataclass

from corings.report import CheckReport


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple  # table[a][b] = index of a*b

    @classmethod
    def from_table(cls, table) -> "FiniteGroup":
        t = tuple(tuple(int(x) for x in row) for row in table)
        return cls(len(t), t)

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        for b in range(self.order):
            if self.mul(a, b) == 0 and self.mul(b, a) == 0:
                return b
        raise ValueError(f"element {a} has no inverse")

    def elements(self) -> range:
        return range(self.order)


TRIVIAL_GROUP = FiniteGroup(1, ((0,),))


def validate_group(g: FiniteGroup) -> CheckReport:
    rep = CheckReport()
    n = g.order
    shape_ok = len(g.table) == n and all(len(r) == n for r in g.table) and all(
        0 <= x < n for r in g.table for x in r
    )
    rep.add("group.table", "table is a well-formed index square", shape_ok)
    if not shape_ok:
        return rep
    bad_id = [a for a in range(n) if g.mul(0, a) != a or g.mul(a, 0) != a]
    rep.add("group.identity", "index 0 is a two-sided identity",
            not bad_id, f"failing elements: {bad_id}" if bad_id else "")
    bad_assoc = [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c))
    ]
    rep.add("group.associativity", "associativity on all triples",
            not bad_assoc, f"failing triples: {bad_assoc[:5]}" if bad_assoc else "")
    bad_inv = []
    for a in range(n):
        if not any(g.mul(a, b) == 0 and g.mul(b, a) == 0 for b in range(n)):
            bad_inv.append(a)
    rep.add("group.inverses", "every element has a two-sided inverse",
            not bad_inv, f"failing elements: {bad_inv}" if bad_inv else "")
    return rep
