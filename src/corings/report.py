"""Check reports: the uniform result type of every validator and battery."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckItem:
    check_id: str
    law: str          # human name of the algebraic law being verified
    passed: bool
    witness: str = ""  # failure detail (indices, dimensions, offending values)


@dataclass
class CheckReport:
    items: list = field(default_factory=list)

    def add(self, check_id: str, law: str, passed: bool, witness: str = "") -> None:
        self.items.append(CheckItem(check_id, law, bool(passed), witness))

    def extend(self, other: "CheckReport", prefix: str = "") -> None:
        for it in other.items:
            cid = f"{prefix}{it.check_id}" if prefix else it.check_id
            self.items.append(CheckItem(cid, it.law, it.passed, it.witness))

    @property
    def ok(self) -> bool:
        return all(it.passed for it in self.items)

    def failures(self) -> list:
        return [it for it in self.items if not it.passed]

    def sorted_items(self) -> list:
        return sorted(self.items, key=lambda it: it.check_id)

    def to_text(self, suite: str) -> str:
        lines = [f"suite: {suite}"]
        for it in self.sorted_items():
            mark = "PASS" if it.passed else "FAIL"
            line = f"  [{mark}] {it.check_id}: {it.law}"
            if it.witness:
                line += f"  ({it.witness})"
            lines.append(line)
        lines.append(f"verdict: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)
