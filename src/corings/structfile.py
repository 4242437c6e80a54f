"""Parser for the structure-definition file format.

A file is a sequence of blocks between ``begin <kind> <name>`` / ``end``
lines, preceded by a mandatory field declaration (``field Q`` or ``field Fp
<p>``).  Values are nested bracket lists whose scalars are integers or
``p/q`` rationals (integers in [0, p) over a prime field); a logical line
continues onto the next physical line while brackets stay unbalanced.
Comments start with ``#``.  Parsing is total: any malformed input is
reported as a positioned error, never an exception escaping `parse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from corings.algebra import Algebra, Bimodule
from corings.coring import CofreeWitness, GroupCoring, group_corings_equal
from corings.dualring import GradedModule, GradedRing, dual_ring
from corings.galois import (
    CanonicalMorphism,
    CoinvariantRing,
    GrouplikeFamily,
    RingMorphism,
    coinvariant_canonical_morphism,
    coinvariant_ring,
    galois_decomposition,
    is_galois,
    sweedler_coring,
)
from corings.groups import FiniteGroup
from corings.hopf import (
    ComoduleAlgebra,
    HopfAlgebra,
    cofree_hopf,
    coring_from_comodule_algebra,
    regular_comodule_algebra,
    trivial_comodule_algebra,
    validate_comodule_algebra,
    validate_hopf_g_coalgebra,
)
from corings.linalg import Mat
from corings.morita import (
    CoefficientRing,
    canonical_graded_module,
    coefficient_ring,
    coefficient_spaces,
    connecting_spaces,
    graded_morita_context,
    is_strict,
    morita_context,
    slice_context,
    weak_coinvariants,
)
from corings.report import CheckReport
from corings.scalars import Field


class StructureError(ValueError):
    """Parse or semantic error with a position and message."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# -- lexing ----------------------------------------------------------------------

def _logical_lines(text: str):
    """Join physical lines while brackets are unbalanced; strip comments."""
    buf = []
    start = None
    depth = 0
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and depth == 0:
            continue
        if start is None:
            start = idx
        buf.append(line)
        depth += line.count("[") - line.count("]")
        if depth < 0:
            raise StructureError(idx, "unbalanced ']'")
        if depth == 0:
            yield start, " ".join(buf)
            buf = []
            start = None
    if buf:
        raise StructureError(start, "unterminated bracket expression")


def _parse_value(text: str, line: int, fld: Field):
    """Parse a nested bracket list of scalars."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos] in " \t,":
            pos += 1

    def parse_item():
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise StructureError(line, "unexpected end of value")
        if text[pos] == "[":
            pos += 1
            items = []
            while True:
                skip_ws()
                if pos >= len(text):
                    raise StructureError(line, "missing ']'")
                if text[pos] == "]":
                    pos += 1
                    return items
                items.append(parse_item())
        cstart = pos
        while pos < len(text) and text[pos] not in " \t,[]":
            pos += 1
        tok = text[cstart:pos]
        try:
            return fld.parse(tok)
        except (ValueError, ZeroDivisionError):
            raise StructureError(line, f"bad scalar {tok!r}") from None

    out = parse_item()
    skip_ws()
    if pos != len(text):
        raise StructureError(line, f"trailing input {text[pos:]!r}")
    return out


def _as_matrix(value, line: int, fld: Field) -> Mat:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise StructureError(line, "expected a matrix (list of rows)")
    try:
        return Mat.from_rows(fld, value)
    except Exception as exc:
        raise StructureError(line, f"bad matrix: {exc}") from None


# -- the parsed structure ------------------------------------------------------------

@dataclass
class StructureFile:
    field: Field
    groups: dict = field(default_factory=dict)
    algebras: dict = field(default_factory=dict)
    bimodules: dict = field(default_factory=dict)
    hopf_algebras: dict = field(default_factory=dict)
    hopfs: dict = field(default_factory=dict)
    comodule_algebras: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    corings: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)          # coring name -> CofreeWitness
    canonical_grouplikes: dict = field(default_factory=dict)  # coring name -> vectors
    grouplikes: dict = field(default_factory=dict)
    main: dict = field(default_factory=dict)


def parse(text: str) -> StructureFile:
    """Parse a structure file; raises StructureError on any malformed input."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StructureError(0, f"not valid utf-8: {exc}") from None
    lines = list(_logical_lines(text))
    if not lines:
        raise StructureError(0, "missing field declaration")
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else None

    ln, first = lines[0]
    toks = first.split()
    if toks[0] != "field":
        raise StructureError(ln, "missing field declaration")
    if toks[1:] == ["Q"]:
        fld = Field()
    elif len(toks) == 3 and toks[1] == "Fp":
        try:
            fld = Field(int(toks[2]))
        except ValueError as exc:
            raise StructureError(ln, str(exc)) from None
    else:
        raise StructureError(ln, f"bad field declaration {first!r}")
    pos = 1
    sf = StructureFile(fld)
    while pos < len(lines):
        ln, line = lines[pos]
        toks = line.split(None, 2)
        if toks[0] != "begin" or len(toks) < 2 or (len(toks) < 3 and toks[1] != "main"):
            raise StructureError(ln, f"expected 'begin <kind> <name>', got {line!r}")
        kind = toks[1]
        name = toks[2].strip() if len(toks) > 2 else "main"
        body = []
        pos += 1
        closed = False
        while pos < len(lines):
            bln, bline = lines[pos]
            if bline.strip() == "end":
                closed = True
                pos += 1
                break
            body.append((bln, bline.strip()))
            pos += 1
        if not closed:
            raise StructureError(ln, f"block {kind} {name!r} never closed")
        _load_block(sf, kind, name, body, ln)
    return sf


def _body_map(body, multi=()):
    out = {}
    for bln, bline in body:
        parts = bline.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key in multi:
            out.setdefault(key, []).append((bln, rest))
        else:
            if key in out:
                raise StructureError(bln, f"duplicate key {key!r}")
            out[key] = (bln, rest)
    return out


def _require(mapping, key, line, kind):
    if key not in mapping:
        raise StructureError(line, f"{kind} block is missing {key!r}")
    return mapping[key]


def _lookup(table, name, line, what):
    if name not in table:
        raise StructureError(line, f"unknown {what} {name!r}")
    return table[name]


def _load_block(sf: StructureFile, kind: str, name: str, body, line: int) -> None:
    fld = sf.field
    if kind == "group":
        m = _body_map(body)
        bln, rest = _require(m, "table", line, "group")
        table = _parse_value(rest, bln, fld)
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise StructureError(bln, "group table must be a square list")
        try:
            rows = [[int(x) for x in r] for r in table]
        except (TypeError, ValueError):
            raise StructureError(bln, "group table entries must be integers") from None
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise StructureError(bln, "group table must be a square list")
        if any(not 0 <= x < n for r in rows for x in r):
            raise StructureError(bln, f"group table entries must lie in [0, {n})")
        g = FiniteGroup.from_table(rows)
        if any(g.mul(0, a) != a or g.mul(a, 0) != a for a in range(g.order)):
            raise StructureError(bln, "group identity must be index 0")
        sf.groups[name] = g
    elif kind == "algebra":
        m = _body_map(body)
        bln_d, rest_d = _require(m, "dim", line, "algebra")
        try:
            dim = int(rest_d)
        except ValueError:
            raise StructureError(bln_d, "dim must be an integer") from None
        bln_u, rest_u = _require(m, "unit", line, "algebra")
        unit = _parse_value(rest_u, bln_u, fld)
        bln_m, rest_m = _require(m, "mul", line, "algebra")
        mul = _parse_value(rest_m, bln_m, fld)
        if len(unit) != dim or len(mul) != dim or any(
                len(r) != dim or any(len(v) != dim for v in r) for r in mul):
            raise StructureError(bln_m, f"algebra {name!r} has inconsistent dimensions")
        sf.algebras[name] = Algebra.from_tables(fld, mul, unit)
    elif kind == "bimodule":
        m = _body_map(body)
        bln_b, base_name = _require(m, "base", line, "bimodule")
        base = _lookup(sf.algebras, base_name, bln_b, "algebra")
        bln_d, rest_d = _require(m, "dim", line, "bimodule")
        try:
            dim = int(rest_d)
        except ValueError:
            raise StructureError(bln_d, "dim must be an integer") from None

        def side(key):
            if key not in m:
                return None
            bln, rest = m[key]
            mats = _parse_value(rest, bln, fld)
            if len(mats) != base.dim:
                raise StructureError(bln, f"{key} needs one matrix per base basis element")
            out = tuple(_as_matrix(mm, bln, fld) for mm in mats)
            for mm in out:
                if mm.rows != dim or mm.cols != dim:
                    raise StructureError(bln, f"{key} matrices must be {dim}x{dim}")
            return out

        sf.bimodules[name] = Bimodule(base, dim, side("left"), side("right"))
    elif kind == "hopfalgebra":
        m = _body_map(body)
        bln_a, alg_name = _require(m, "algebra", line, "hopfalgebra")
        alg = _lookup(sf.algebras, alg_name, bln_a, "algebra")
        bln, rest = _require(m, "delta", line, "hopfalgebra")
        delta = _as_matrix(_parse_value(rest, bln, fld), bln, fld)
        bln, rest = _require(m, "counit", line, "hopfalgebra")
        counit = _as_matrix(_parse_value(rest, bln, fld), bln, fld)
        bln, rest = _require(m, "antipode", line, "hopfalgebra")
        antipode = _as_matrix(_parse_value(rest, bln, fld), bln, fld)
        if delta.rows != alg.dim * alg.dim or delta.cols != alg.dim \
                or counit.rows != 1 or counit.cols != alg.dim \
                or antipode.rows != alg.dim or antipode.cols != alg.dim:
            raise StructureError(line, f"hopfalgebra {name!r} has inconsistent shapes")
        sf.hopf_algebras[name] = HopfAlgebra(alg, delta, counit, antipode)
    elif kind == "hopf":
        m = _body_map(body)
        bln_g, group_name = _require(m, "group", line, "hopf")
        g = _lookup(sf.groups, group_name, bln_g, "group")
        if "cofree" in m:
            bln_c, base_name = m["cofree"]
            ha = _lookup(sf.hopf_algebras, base_name, bln_c, "hopfalgebra")
            sf.hopfs[name] = (cofree_hopf(ha, g), ha)
        else:
            raise StructureError(line, f"hopf {name!r} needs a 'cofree <hopfalgebra>' entry")
    elif kind == "comodule-algebra":
        m = _body_map(body, multi=("rho",))
        bln_a, alg_name = _require(m, "algebra", line, "comodule-algebra")
        alg = _lookup(sf.algebras, alg_name, bln_a, "algebra")
        bln_h, hopf_name = _require(m, "hopf", line, "comodule-algebra")
        hopf, base_ha = _lookup(sf.hopfs, hopf_name, bln_h, "hopf")
        if "regular" in m:
            if base_ha.algebra is not alg and base_ha.algebra != alg:
                raise StructureError(m["regular"][0],
                                     "regular coaction needs the underlying Hopf algebra")
            ca = regular_comodule_algebra(hopf, base_ha)
        elif "trivial" in m:
            ca = trivial_comodule_algebra(alg, hopf)
        elif "rho" in m:
            rho = [None] * hopf.group.order
            for bln, rest in m["rho"]:
                parts = rest.split(None, 1)
                try:
                    deg = int(parts[0])
                except (IndexError, ValueError):
                    raise StructureError(bln, "rho needs a degree then a matrix") from None
                if not (0 <= deg < hopf.group.order):
                    raise StructureError(bln, f"degree {deg} out of range")
                mat = _as_matrix(_parse_value(parts[1], bln, fld), bln, fld)
                want_rows = alg.dim * hopf.comps[deg].dim
                if mat.rows != want_rows or mat.cols != alg.dim:
                    raise StructureError(bln, f"rho {deg} must be {want_rows}x{alg.dim}")
                rho[deg] = mat
            if any(r is None for r in rho):
                raise StructureError(line, f"comodule-algebra {name!r} is missing a coaction degree")
            ca = ComoduleAlgebra(alg, hopf, rho)
        else:
            raise StructureError(line,
                                 f"comodule-algebra {name!r} needs 'regular', 'trivial' or 'rho' entries")
        sf.comodule_algebras[name] = ca
    elif kind == "morphism":
        m = _body_map(body)
        bln_s, src_name = _require(m, "src", line, "morphism")
        src = _lookup(sf.algebras, src_name, bln_s, "algebra")
        bln_d, dst_name = _require(m, "dst", line, "morphism")
        dst = _lookup(sf.algebras, dst_name, bln_d, "algebra")
        bln, rest = _require(m, "mat", line, "morphism")
        mat = _as_matrix(_parse_value(rest, bln, fld), bln, fld)
        if mat.rows != dst.dim or mat.cols != src.dim:
            raise StructureError(bln, f"morphism {name!r} must be {dst.dim}x{src.dim}")
        sf.morphisms[name] = RingMorphism(src, dst, mat)
    elif kind == "coring":
        m = _body_map(body, multi=("comp", "delta"))
        if "from-comodule-algebra" in m:
            bln, ca_name = m["from-comodule-algebra"]
            ca = _lookup(sf.comodule_algebras, ca_name, bln, "comodule-algebra")
            try:
                cor, gl = coring_from_comodule_algebra(ca)
            except ValueError as exc:  # e.g. an action that does not descend
                raise StructureError(bln, f"coring {name!r}: {exc}") from None
            sf.corings[name] = cor
            sf.canonical_grouplikes[name] = gl.vectors
        elif "sweedler" in m:
            bln, rest = m["sweedler"]
            parts = rest.split()
            if len(parts) != 3 or parts[1] != "group":
                raise StructureError(bln, "expected 'sweedler <morphism> group <group>'")
            mor = _lookup(sf.morphisms, parts[0], bln, "morphism")
            g = _lookup(sf.groups, parts[2], bln, "group")
            cor, wit, _, gl = sweedler_coring(mor, g)
            sf.corings[name] = cor
            sf.witnesses[name] = wit
            sf.canonical_grouplikes[name] = gl.vectors
        else:
            bln_g, group_name = _require(m, "group", line, "coring")
            g = _lookup(sf.groups, group_name, bln_g, "group")
            bln_b, base_name = _require(m, "base", line, "coring")
            base = _lookup(sf.algebras, base_name, bln_b, "algebra")
            comps = [None] * g.order
            for bln, rest in m.get("comp", []):
                parts = rest.split()
                if len(parts) != 2:
                    raise StructureError(bln, "expected 'comp <degree> <bimodule>'")
                try:
                    deg = int(parts[0])
                except ValueError:
                    raise StructureError(bln, "component degree must be an integer") from None
                if not (0 <= deg < g.order):
                    raise StructureError(bln, f"degree {deg} out of range")
                comps[deg] = _lookup(sf.bimodules, parts[1], bln, "bimodule")
            if any(c is None for c in comps):
                raise StructureError(line, f"coring {name!r} is missing components")
            cor = GroupCoring(g, base, comps, {}, Mat.zeros(fld, 1, 1))
            for bln, rest in m.get("delta", []):
                parts = rest.split(None, 2)
                try:
                    da, db = int(parts[0]), int(parts[1])
                except (IndexError, ValueError):
                    raise StructureError(bln, "expected 'delta <a> <b> <matrix>'") from None
                lift = _as_matrix(_parse_value(parts[2], bln, fld), bln, fld)
                dab = g.mul(da, db)
                want_rows = comps[da].dim * comps[db].dim
                if lift.rows != want_rows or lift.cols != comps[dab].dim:
                    raise StructureError(bln, f"delta {da} {db} must be {want_rows}x{comps[dab].dim}")
                t = cor.tensor(da, db)
                cor.delta[(da, db)] = t.space.proj @ lift
            missing = [(a, b) for a in g.elements() for b in g.elements()
                       if (a, b) not in cor.delta]
            if missing:
                raise StructureError(line, f"coring {name!r} is missing delta {missing[0]}")
            bln, rest = _require(m, "counit", line, "coring")
            counit = _as_matrix(_parse_value(rest, bln, fld), bln, fld)
            if counit.rows != base.dim or counit.cols != comps[0].dim:
                raise StructureError(bln, f"counit must be {base.dim}x{comps[0].dim}")
            cor.counit = counit
            sf.corings[name] = cor
    elif kind == "grouplike":
        m = _body_map(body, multi=("x",))
        bln_c, coring_name = _require(m, "coring", line, "grouplike")
        cor = _lookup(sf.corings, coring_name, bln_c, "coring")
        if "canonical" in m:
            if coring_name not in sf.canonical_grouplikes:
                raise StructureError(m["canonical"][0],
                                     f"coring {coring_name!r} has no canonical grouplike family")
            vectors = sf.canonical_grouplikes[coring_name]
        else:
            vecs = [None] * cor.group.order
            for bln, rest in m.get("x", []):
                parts = rest.split(None, 1)
                try:
                    deg = int(parts[0])
                except (IndexError, ValueError):
                    raise StructureError(bln, "expected 'x <degree> <vector>'") from None
                if not (0 <= deg < cor.group.order):
                    raise StructureError(bln, f"degree {deg} out of range")
                val = _parse_value(parts[1], bln, fld)
                if not isinstance(val, list) or len(val) != cor.comps[deg].dim:
                    raise StructureError(bln, f"x {deg} must have length {cor.comps[deg].dim}")
                vecs[deg] = tuple(val)
            if any(v is None for v in vecs):
                raise StructureError(line, f"grouplike {name!r} is missing degrees")
            vectors = tuple(vecs)
        sf.grouplikes[name] = GrouplikeFamily(cor, vectors)
    elif kind == "main":
        m = _body_map(body)
        for key in ("coring", "grouplike", "base"):
            _require(m, key, line, "main")
        bln, cname = m["coring"]
        cor = _lookup(sf.corings, cname, bln, "coring")
        bln, gname = m["grouplike"]
        if _lookup(sf.grouplikes, gname, bln, "grouplike").coring is not cor:
            raise StructureError(bln, f"grouplike {gname!r} is not a family on coring {cname!r}")
        bln, bname = m["base"]
        if _lookup(sf.morphisms, bname, bln, "morphism").dst != cor.base:
            raise StructureError(bln, f"morphism {bname!r} does not land in the base "
                                      f"algebra of coring {cname!r}")
        main = {"coring": cname, "grouplike": gname, "base": bname}
        if "comodule-algebra" in m:
            bln, caname = m["comodule-algebra"]
            _lookup(sf.comodule_algebras, caname, bln, "comodule-algebra")
            main["comodule-algebra"] = caname
        sf.main = main
    else:
        raise StructureError(line, f"unknown block kind {kind!r}")


@dataclass(frozen=True)
class MainStructure:
    """The designated structures a check suite runs on."""

    coring: GroupCoring
    grouplike: GrouplikeFamily
    base: RingMorphism
    comodule_algebra: ComoduleAlgebra | None
    witness: CofreeWitness | None
    source: StructureFile

    @cached_property
    def derived(self) -> "Derived":
        """The objects the suites derive from this structure, shared by all
        of them; built on first use, so parsing does not pay for it."""
        return Derived(self.coring, self.grouplike, self.witness, self.comodule_algebra)

    # the `validate` and `hopf` suites both report these two checks of the
    # comodule algebra, under their own prefixes; read them only when there
    # is one

    @cached_property
    def hopf_family_report(self) -> CheckReport:
        return validate_hopf_g_coalgebra(self.comodule_algebra.hopf)

    @cached_property
    def comodule_algebra_report(self) -> CheckReport:
        return validate_comodule_algebra(self.comodule_algebra)


def main_structure(sf: StructureFile) -> MainStructure:
    if not sf.main:
        raise StructureError(0, "file has no main block")
    cname = sf.main["coring"]
    return MainStructure(
        coring=sf.corings[cname],
        grouplike=sf.grouplikes[sf.main["grouplike"]],
        base=sf.morphisms[sf.main["base"]],
        comodule_algebra=sf.comodule_algebras.get(sf.main.get("comodule-algebra")),
        witness=sf.witnesses.get(cname),
        source=sf,
    )


class Derived:
    """What the check suites derive from a coring with a grouplike family:
    the dual ring, the coinvariants, the Galois data and the (graded) Morita
    solution spaces and contexts, each built once, on first use.

    It keeps the parts of a structure it reads, never the MainStructure
    itself, so that dropping the structure frees all of it without the
    cycle collector.  Each solution space is one (strict, weak) pair,
    solved in one pass; the rings and contexts built on them are separate
    strict and weak members.
    """

    def __init__(self, coring: GroupCoring, grouplike: GrouplikeFamily,
                 witness: CofreeWitness | None = None,
                 comodule_algebra: ComoduleAlgebra | None = None):
        self.coring = coring
        self.grouplike = grouplike
        self.comodule_algebra = comodule_algebra
        self._witness = witness

    @cached_property
    def dual_ring(self) -> GradedRing:
        return dual_ring(self.coring)

    @cached_property
    def coinvariants(self) -> CoinvariantRing:
        return coinvariant_ring(self.grouplike)

    @cached_property
    def weak_coinvariants(self) -> CoinvariantRing:
        return weak_coinvariants(self.grouplike, self.dual_ring)

    @cached_property
    def canonical(self) -> CanonicalMorphism:
        """The canonical morphism over the coinvariants."""
        return coinvariant_canonical_morphism(self.grouplike, self.coinvariants)

    @cached_property
    def galois(self) -> tuple:
        """`is_galois` without a base morphism: (verdict, report)."""
        return is_galois(self.grouplike, self.canonical)

    @cached_property
    def decomposition(self) -> tuple:
        """`galois_decomposition`: (witness or None, report)."""
        return galois_decomposition(self.grouplike, self.canonical, self.galois)

    @cached_property
    def witness(self) -> CofreeWitness | None:
        """The cofree witness of the file, else the one of the decomposition."""
        return self._witness if self._witness is not None else self.decomposition[0]

    @cached_property
    def connecting_spaces(self) -> tuple:
        """`connecting_spaces`: (strict, weak) basis rows."""
        return connecting_spaces(self.grouplike, self.dual_ring)

    @cached_property
    def coefficient_spaces(self) -> tuple:
        """`coefficient_spaces`: (strict, weak) basis rows."""
        return coefficient_spaces(self.grouplike, self.dual_ring)

    @cached_property
    def coefficients(self) -> CoefficientRing:
        return coefficient_ring(self.grouplike, self.coefficient_spaces[0], self.coinvariants)

    @cached_property
    def weak_coefficients(self) -> CoefficientRing:
        return coefficient_ring(self.grouplike, self.coefficient_spaces[1],
                                self.weak_coinvariants)

    @cached_property
    def morita(self) -> tuple:
        """`morita_context`: (context, connecting space, build report)."""
        return morita_context(self.grouplike, self.dual_ring, self.coinvariants,
                              self.connecting_spaces[0])

    @cached_property
    def weak_morita(self) -> tuple:
        return morita_context(self.grouplike, self.dual_ring, self.weak_coinvariants,
                              self.connecting_spaces[1])

    @cached_property
    def graded_morita(self) -> tuple:
        """`graded_morita_context`: (graded context, coefficient ring,
        connecting space, build report)."""
        return graded_morita_context(self.grouplike, self.dual_ring, self.coefficients,
                                     self.connecting_spaces[0])

    @cached_property
    def graded_strict(self) -> tuple:
        """`is_strict` of the graded context: (verdict, report)."""
        return is_strict(self.graded_morita[0].ctx)

    @cached_property
    def weak_graded_morita(self) -> tuple:
        return graded_morita_context(self.grouplike, self.dual_ring, self.weak_coefficients,
                                     self.connecting_spaces[1])

    @cached_property
    def slice(self) -> tuple:
        """`slice_context`: (context, connecting space, dual ring) of the
        identity-degree slice."""
        return slice_context(self.grouplike)

    @cached_property
    def canonical_module(self) -> GradedModule:
        return canonical_graded_module(self.grouplike, self.dual_ring)

    @cached_property
    def hopf(self) -> "Derived | None":
        """The derived objects of the coring the comodule algebra induces,
        with its canonical family; None when those equal the coring and
        family here in content, whose derived objects then serve both."""
        cor, x = coring_from_comodule_algebra(self.comodule_algebra)
        if group_corings_equal(cor, self.coring) and x.vectors == self.grouplike.vectors:
            return None
        return Derived(cor, x)
