"""Bundled fixtures: the smallest structures exercising the Galois-true,
Galois-false and cofree-but-nontrivial code paths.

* trivial:   every component is the base field, index group of order two.
* regular:   the order-two group algebra coacting on itself through tagged
             copies of its own Hopf structure (Galois).
* nongalois: the field with the trivial coaction over the same Hopf family
             (the canonical comparison drops dimension).
* sweedler:  the cofree coring on the two-sided tensor square of the split
             quadratic extension of the rationals (Galois, base nontrivial).

`fixture_file_text` writes each fixture's structure file, and `fixture` is
the structure parsed from it: the file is the only definition.
"""

from __future__ import annotations

from functools import lru_cache

from corings.algebra import Algebra, field_algebra, product_field_algebra
from corings.groups import FiniteGroup
from corings.hopf import HopfAlgebra, group_hopf_algebra
from corings.linalg import Mat
from corings.scalars import QQ
from corings.structfile import MainStructure, main_structure, parse

FIXTURES = ("trivial", "regular", "nongalois", "sweedler")


@lru_cache(maxsize=None)
def fixture(name: str) -> MainStructure:
    """The main structure of a bundled fixture, parsed from its file."""
    return main_structure(parse(fixture_file_text(name)))


# -- structure-file emission -----------------------------------------------------------

def _fmt_vector(field, v) -> str:
    return "[" + ", ".join(field.format(x) for x in v) + "]"


def _fmt_matrix(field, m: Mat) -> str:
    rows = ["[" + ", ".join(field.format(m.at(i, j)) for j in range(m.cols)) + "]"
            for i in range(m.rows)]
    return "[" + ", ".join(rows) + "]"


def _fmt_mul_tensor(alg: Algebra) -> str:
    rows = []
    for i in range(alg.dim):
        cells = [_fmt_vector(alg.field, alg.mul[i][j]) for j in range(alg.dim)]
        rows.append("[" + ", ".join(cells) + "]")
    return "[" + ", ".join(rows) + "]"


def _emit_group(name: str, g: FiniteGroup) -> list:
    table = "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in g.table) + "]"
    return [f"begin group {name}", f"  table {table}", "end", ""]


def _emit_algebra(name: str, a: Algebra) -> list:
    return [
        f"begin algebra {name}",
        f"  dim {a.dim}",
        f"  unit {_fmt_vector(a.field, a.unit)}",
        f"  mul {_fmt_mul_tensor(a)}",
        "end",
        "",
    ]


def _emit_hopfalgebra(name: str, alg_name: str, ha: HopfAlgebra) -> list:
    F = ha.algebra.field
    return [
        f"begin hopfalgebra {name}",
        f"  algebra {alg_name}",
        f"  delta {_fmt_matrix(F, ha.delta)}",
        f"  counit {_fmt_matrix(F, ha.counit)}",
        f"  antipode {_fmt_matrix(F, ha.antipode)}",
        "end",
        "",
    ]


def fixture_file_text(name: str) -> str:
    """The structure-definition file for a bundled fixture."""
    g2 = FiniteGroup.cyclic(2)
    lines = ["# bundled fixture: " + name, "field Q", ""]
    if name == "trivial":
        a = field_algebra(QQ)
        one = Mat.identity(QQ, 1)
        lines += _emit_group("G", g2)
        lines += _emit_algebra("A", a)
        lines += _emit_algebra("B", field_algebra(QQ))
        lines += _emit_hopfalgebra("HE", "A", HopfAlgebra(a, one, one, one))
        lines += ["begin hopf H", "  group G", "  cofree HE", "end", ""]
        lines += ["begin comodule-algebra CA", "  algebra A", "  hopf H", "  trivial", "end", ""]
        lines += ["begin coring C", "  from-comodule-algebra CA", "end", ""]
        lines += ["begin grouplike X", "  coring C", "  canonical", "end", ""]
        lines += ["begin morphism IB", "  src B", "  dst A", "  mat [[1]]", "end", ""]
        lines += ["begin main", "  coring C", "  grouplike X", "  base IB",
                  "  comodule-algebra CA", "end"]
    elif name == "regular":
        ha = group_hopf_algebra(QQ, g2)
        lines += _emit_group("G", g2)
        lines += _emit_algebra("A", ha.algebra)
        lines += _emit_algebra("B", field_algebra(QQ))
        lines += _emit_hopfalgebra("HE", "A", ha)
        lines += ["begin hopf H", "  group G", "  cofree HE", "end", ""]
        lines += ["begin comodule-algebra CA", "  algebra A", "  hopf H", "  regular", "end", ""]
        lines += ["begin coring C", "  from-comodule-algebra CA", "end", ""]
        lines += ["begin grouplike X", "  coring C", "  canonical", "end", ""]
        lines += ["begin morphism IB", "  src B", "  dst A", "  mat [[1], [0]]", "end", ""]
        lines += ["begin main", "  coring C", "  grouplike X", "  base IB",
                  "  comodule-algebra CA", "end"]
    elif name == "nongalois":
        ha = group_hopf_algebra(QQ, g2)
        a = field_algebra(QQ)
        lines += _emit_group("G", g2)
        lines += _emit_algebra("A", a)
        lines += _emit_algebra("B", field_algebra(QQ))
        lines += _emit_algebra("HC2", ha.algebra)
        lines += _emit_hopfalgebra("HE", "HC2", ha)
        lines += ["begin hopf H", "  group G", "  cofree HE", "end", ""]
        lines += ["begin comodule-algebra CA", "  algebra A", "  hopf H", "  trivial", "end", ""]
        lines += ["begin coring C", "  from-comodule-algebra CA", "end", ""]
        lines += ["begin grouplike X", "  coring C", "  canonical", "end", ""]
        lines += ["begin morphism IB", "  src B", "  dst A", "  mat [[1]]", "end", ""]
        lines += ["begin main", "  coring C", "  grouplike X", "  base IB",
                  "  comodule-algebra CA", "end"]
    elif name == "sweedler":
        a = product_field_algebra(QQ, 2)
        lines += _emit_group("G", g2)
        lines += _emit_algebra("A", a)
        lines += _emit_algebra("B", field_algebra(QQ))
        lines += ["begin morphism IB", "  src B", "  dst A", "  mat [[1], [1]]", "end", ""]
        lines += ["begin coring C", "  sweedler IB group G", "end", ""]
        lines += ["begin grouplike X", "  coring C", "  canonical", "end", ""]
        lines += ["begin main", "  coring C", "  grouplike X", "  base IB", "end"]
    else:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return "\n".join(lines) + "\n"
