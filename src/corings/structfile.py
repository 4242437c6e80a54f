"""Parser for the structure-definition file format.

A file is a sequence of blocks between ``begin <kind> <name>`` / ``end``
lines, preceded by a mandatory field declaration (``field Q`` or ``field Fp
<p>``).  Values are nested bracket lists whose scalars are integers or
``p/q`` rationals (integers in [0, p) over a prime field); a logical line
continues onto the next physical line while brackets stay unbalanced.
Comments start with ``#``.

Each block is read through a few readers that check what they return:
`_entry` (exactly one line per key), `_shaped` (a value with the list
length its key declares at every nesting level and a scalar at every leaf;
`_matrix` builds a `Mat` from one), `_per_degree` (the ``comp``, ``delta``,
``rho`` and ``x`` lines: degrees in range, a value after them, one line for
every degree tuple) and `_lookup` (a name defined by an earlier block).
Parsing is total: any malformed input is reported as a positioned
`StructureError`, never another exception escaping `parse`.  A parsed file
carries its `MainStructure`, and `main_structure` returns it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product

from corings.algebra import Algebra, Bimodule, ModulePredicates, cached_tensor, subalgebra
from corings.comodules import Comodule
from corings.coring import CofreeWitness, GroupCoring, group_corings_equal
from corings.dualring import GradedModule, GradedRing, cofree_dual_group_ring_iso, dual_ring
from corings.galois import (
    CanonicalMorphism,
    CoinvariantRing,
    GrouplikeFamily,
    RingMorphism,
    coinvariant_canonical_morphism,
    coinvariant_ring,
    galois_decomposition,
    induction_equivalence,
    is_galois,
    onto_coinvariants,
    predicates_of_extension,
    random_comodule,
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
    weak_coinvariant_ring,
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
    """Parse a nested bracket list of scalars, at most three brackets deep
    (the deepest declared shapes: the `mul` cube, the action families)."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos] in " \t,":
            pos += 1

    def parse_item(depth: int):
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise StructureError(line, "unexpected end of value")
        if text[pos] == "[":
            if depth == 3:
                raise StructureError(line, "value nested deeper than 3 brackets")
            pos += 1
            items = []
            while True:
                skip_ws()
                if pos >= len(text):
                    raise StructureError(line, "missing ']'")
                if text[pos] == "]":
                    pos += 1
                    return items
                items.append(parse_item(depth + 1))
        cstart = pos
        while pos < len(text) and text[pos] not in " \t,[]":
            pos += 1
        tok = text[cstart:pos]
        try:
            return fld.parse(tok)
        except (ValueError, ZeroDivisionError):
            raise StructureError(line, f"bad scalar {tok!r}") from None

    out = parse_item(0)
    skip_ws()
    if pos != len(text):
        raise StructureError(line, f"trailing input {text[pos:]!r}")
    return out


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
    main: MainStructure | None = None


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


def _body_map(body) -> dict:
    """Key -> the (line, rest) of every body line with that key, in file order."""
    out = {}
    for bln, bline in body:
        parts = bline.split(None, 1)
        out.setdefault(parts[0], []).append((bln, parts[1] if len(parts) > 1 else ""))
    return out


def _entry(m, key, line, kind):
    """The (line, rest) of the one `key` line of a block."""
    if key not in m:
        raise StructureError(line, f"{kind} block is missing {key!r}")
    if len(m[key]) > 1:
        raise StructureError(m[key][1][0], f"duplicate key {key!r}")
    return m[key][0]


def _lookup(table, entry, what):
    """The object that a (line, name) entry names in table."""
    line, name = entry
    if name not in table:
        raise StructureError(line, f"unknown {what} {name!r}")
    return table[name]


def _dim(entry) -> int:
    line, rest = entry
    if not rest.isdecimal():
        raise StructureError(line, "dim must be a non-negative integer")
    return int(rest)


def _group(entry, fld: Field) -> FiniteGroup:
    """The group whose multiplication table a (line, text) entry writes."""
    line, text = entry
    table = _parse_value(text, line, fld)
    n = len(table) if isinstance(table, list) else 0
    if not n or not _fits(table, (n, n)):
        raise StructureError(line, "group table must be a non-empty square list")
    if any(type(x) is not int or not 0 <= x < n for row in table for x in row):
        raise StructureError(line, f"group table entries must be integers in [0, {n})")
    g = FiniteGroup.from_table(table)
    if any(g.mul(0, a) != a or g.mul(a, 0) != a for a in range(n)):
        raise StructureError(line, "group identity must be index 0")
    return g


def _fits(value, shape) -> bool:
    """Whether value is nested lists with the lengths of shape at each level,
    outermost first, and a scalar at every leaf."""
    if not shape:
        return not isinstance(value, list)
    return (isinstance(value, list) and len(value) == shape[0]
            and all(_fits(v, shape[1:]) for v in value))


def _shaped(entry, fld: Field, shape, what: str):
    """The bracket value of a (line, text) entry, checked against shape."""
    line, text = entry
    value = _parse_value(text, line, fld)
    if not _fits(value, shape):
        raise StructureError(line, f"{what} must have shape {'x'.join(map(str, shape))}")
    return value


def _matrix(entry, fld: Field, rows: int, cols: int, what: str) -> Mat:
    value = _shaped(entry, fld, (rows, cols), what)
    return Mat(fld, rows, cols, tuple(chain.from_iterable(value)))


def _per_degree(m, key, arity: int, order: int, line: int, kind: str) -> dict:
    """The `key <degree>... <value>` lines of a block, with arity degrees in
    [0, order), one for every tuple of degrees: degrees -> (line, value
    text), in file order."""
    usage = f"expected '{key}{' <degree>' * arity} <value>'"
    out = {}
    for bln, rest in m.get(key, ()):
        parts = rest.split(None, arity)
        if len(parts) <= arity or not all(p.isdecimal() for p in parts[:arity]):
            raise StructureError(bln, usage)
        degrees = tuple(int(p) for p in parts[:arity])
        if any(d >= order for d in degrees):
            raise StructureError(bln, f"{key} degrees must lie in [0, {order})")
        if degrees in out:
            raise StructureError(bln, f"duplicate key {key!r} for degrees {degrees}")
        out[degrees] = (bln, parts[arity])
    missing = [d for d in product(range(order), repeat=arity) if d not in out]
    if missing:
        raise StructureError(line, f"{kind} block is missing {key} "
                                   + " ".join(map(str, missing[0])))
    return out


def _load_block(sf: StructureFile, kind: str, name: str, body, line: int) -> None:
    fld = sf.field
    m = _body_map(body)

    def entry(key):
        return _entry(m, key, line, kind)

    if kind == "group":
        sf.groups[name] = _group(entry("table"), fld)
    elif kind == "algebra":
        dim = _dim(entry("dim"))
        unit = _shaped(entry("unit"), fld, (dim,), "unit")
        mul = _shaped(entry("mul"), fld, (dim, dim, dim), "mul")
        sf.algebras[name] = Algebra.from_tables(fld, mul, unit)
    elif kind == "bimodule":
        base = _lookup(sf.algebras, entry("base"), "algebra")
        dim = _dim(entry("dim"))
        sides = {key: tuple(Mat(fld, dim, dim, tuple(chain.from_iterable(act)))
                            for act in _shaped(entry(key), fld, (base.dim, dim, dim), key))
                 for key in ("left", "right") if key in m}
        sf.bimodules[name] = Bimodule(base, dim, sides.get("left"), sides.get("right"))
    elif kind == "hopfalgebra":
        alg = _lookup(sf.algebras, entry("algebra"), "algebra")
        d = alg.dim
        sf.hopf_algebras[name] = HopfAlgebra(alg, _matrix(entry("delta"), fld, d * d, d, "delta"),
                                             _matrix(entry("counit"), fld, 1, d, "counit"),
                                             _matrix(entry("antipode"), fld, d, d, "antipode"))
    elif kind == "hopf":
        g = _lookup(sf.groups, entry("group"), "group")
        ha = _lookup(sf.hopf_algebras, entry("cofree"), "hopfalgebra")
        sf.hopfs[name] = (cofree_hopf(ha, g), ha)
    elif kind == "comodule-algebra":
        alg = _lookup(sf.algebras, entry("algebra"), "algebra")
        hopf, base_ha = _lookup(sf.hopfs, entry("hopf"), "hopf")
        if "regular" in m:
            if base_ha.algebra != alg:
                raise StructureError(m["regular"][0][0],
                                     "regular coaction needs the underlying Hopf algebra")
            ca = regular_comodule_algebra(hopf, base_ha)
        elif "trivial" in m:
            ca = trivial_comodule_algebra(alg, hopf)
        elif "rho" in m:
            rho = _per_degree(m, "rho", 1, hopf.group.order, line, kind)
            ca = ComoduleAlgebra(alg, hopf, [
                _matrix(rho[(a,)], fld, alg.dim * hopf.comps[a].dim, alg.dim, f"rho {a}")
                for a in hopf.group.elements()])
        else:
            raise StructureError(line,
                                 f"comodule-algebra {name!r} needs 'regular', 'trivial' or 'rho' entries")
        sf.comodule_algebras[name] = ca
    elif kind == "morphism":
        src = _lookup(sf.algebras, entry("src"), "algebra")
        dst = _lookup(sf.algebras, entry("dst"), "algebra")
        sf.morphisms[name] = RingMorphism(src, dst,
                                          _matrix(entry("mat"), fld, dst.dim, src.dim, "mat"))
    elif kind == "coring":
        if "from-comodule-algebra" in m:
            ca_entry = entry("from-comodule-algebra")
            ca = _lookup(sf.comodule_algebras, ca_entry, "comodule-algebra")
            try:
                cor, gl = coring_from_comodule_algebra(ca)
            except ValueError as exc:  # e.g. an action that does not descend
                raise StructureError(ca_entry[0], f"coring {name!r}: {exc}") from None
            sf.corings[name] = cor
            sf.canonical_grouplikes[name] = gl.vectors
        elif "sweedler" in m:
            bln, rest = entry("sweedler")
            parts = rest.split()
            if len(parts) != 3 or parts[1] != "group":
                raise StructureError(bln, "expected 'sweedler <morphism> group <group>'")
            mor = _lookup(sf.morphisms, (bln, parts[0]), "morphism")
            g = _lookup(sf.groups, (bln, parts[2]), "group")
            cor, wit, _, gl = sweedler_coring(mor, g)
            sf.corings[name] = cor
            sf.witnesses[name] = wit
            sf.canonical_grouplikes[name] = gl.vectors
        else:
            g = _lookup(sf.groups, entry("group"), "group")
            base = _lookup(sf.algebras, entry("base"), "algebra")
            comps = _per_degree(m, "comp", 1, g.order, line, kind)
            comps = [_lookup(sf.bimodules, comps[(a,)], "bimodule") for a in g.elements()]
            bad = [a for a in g.elements()
                   if comps[a].base != base or None in (comps[a].left, comps[a].right)]
            if bad:
                raise StructureError(line, f"comp {bad[0]} must be a bimodule over the base "
                                           "algebra with both actions")
            lifts = _per_degree(m, "delta", 2, g.order, line, kind)
            counit = _matrix(entry("counit"), fld, base.dim, comps[0].dim, "counit")
            delta = {}
            for (a, b), lift in lifts.items():
                lift = _matrix(lift, fld, comps[a].dim * comps[b].dim, comps[g.mul(a, b)].dim,
                               f"delta {a} {b}")
                delta[(a, b)] = cached_tensor(comps[a], comps[b]).space.proj @ lift
            sf.corings[name] = GroupCoring(g, base, comps, delta, counit)
    elif kind == "grouplike":
        cname = entry("coring")[1]
        cor = _lookup(sf.corings, entry("coring"), "coring")
        if "canonical" in m:
            if cname not in sf.canonical_grouplikes:
                raise StructureError(m["canonical"][0][0],
                                     f"coring {cname!r} has no canonical grouplike family")
            vectors = sf.canonical_grouplikes[cname]
        else:
            xs = _per_degree(m, "x", 1, cor.group.order, line, kind)
            vectors = tuple(tuple(_shaped(xs[(a,)], fld, (cor.comps[a].dim,), f"x {a}"))
                            for a in cor.group.elements())
        sf.grouplikes[name] = GrouplikeFamily(cor, vectors)
    elif kind == "main":
        cname = entry("coring")[1]
        cor = _lookup(sf.corings, entry("coring"), "coring")
        gln, gname = entry("grouplike")
        x = _lookup(sf.grouplikes, (gln, gname), "grouplike")
        if x.coring is not cor:
            raise StructureError(gln, f"grouplike {gname!r} is not a family on coring {cname!r}")
        bln, bname = entry("base")
        base = _lookup(sf.morphisms, (bln, bname), "morphism")
        if base.dst != cor.base:
            raise StructureError(bln, f"morphism {bname!r} does not land in the base "
                                      f"algebra of coring {cname!r}")
        ca = (_lookup(sf.comodule_algebras, entry("comodule-algebra"), "comodule-algebra")
              if "comodule-algebra" in m else None)
        sf.main = MainStructure(cor, x, base, ca, sf.witnesses.get(cname))
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

    @cached_property
    def derived(self) -> "Derived":
        """The objects the suites derive from this structure, shared by all
        of them; built on first use, so parsing does not pay for it."""
        return Derived(self.coring, self.grouplike, self.base, self.witness,
                       self.comodule_algebra)

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
    if sf.main is None:
        raise StructureError(0, "file has no main block")
    return sf.main


class Derived:
    """What the check suites derive from a coring with a grouplike family
    and a base morphism: the dual ring, the coinvariants, the Galois data,
    the induction comparisons, the (graded) Morita solution spaces and
    contexts, the derived objects of the identity-degree slice and the
    random comodule of each seed, each built once, on first use.

    It keeps the parts of a structure it reads, never the MainStructure
    itself, so that dropping the structure frees all of it without the
    cycle collector.  Each solution space is one (strict, weak) pair,
    solved in one pass; the rings and contexts built on them are separate
    strict and weak members.  A weak member is the strict object itself
    when every input its build reads equals the strict one (the builders
    are deterministic, so equal inputs give equal outputs), and is built
    on its own otherwise.  A context member is (context, build report); its
    inputs are read off `connecting_spaces` and the coefficient rings.
    """

    def __init__(self, coring: GroupCoring, grouplike: GrouplikeFamily, base: RingMorphism,
                 witness: CofreeWitness | None = None,
                 comodule_algebra: ComoduleAlgebra | None = None):
        self.coring = coring
        self.grouplike = grouplike
        self.base = base
        self.comodule_algebra = comodule_algebra
        self._witness = witness
        self._random = {}  # seed -> the comodule `seeded_comodule` drew

    def seeded_comodule(self, seed: int) -> Comodule:
        """`random_comodule` over the coinvariants, drawn with
        `random.Random(seed)`: the comodules and dual-ring suites check the
        same one, built once per seed."""
        if seed not in self._random:
            self._random[seed] = random_comodule(self.grouplike, random.Random(seed),
                                                 self.coinvariants)
        return self._random[seed]

    @cached_property
    def dual_ring(self) -> GradedRing:
        return dual_ring(self.coring)

    @cached_property
    def coinvariants(self) -> CoinvariantRing:
        return coinvariant_ring(self.grouplike)

    @cached_property
    def weak_coinvariants(self) -> CoinvariantRing:
        """The weak coinvariants as a ring: the strict ring when the weak
        basis equals the strict one."""
        basis = weak_coinvariant_ring(self.grouplike, self.dual_ring)
        if basis == self.coinvariants.basis:
            return self.coinvariants
        return CoinvariantRing(basis, *subalgebra(self.coring.base, basis))

    @cached_property
    def onto_coinvariants(self) -> bool:
        """`onto_coinvariants` of the base morphism and the coinvariants."""
        return onto_coinvariants(self.base, self.coinvariants)

    @cached_property
    def extension(self) -> ModulePredicates:
        """`predicates_of_extension` of the base morphism."""
        return predicates_of_extension(self.base)

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
    def induction(self) -> tuple:
        """`induction_equivalence` over the base morphism: (units, counits, detail)."""
        return induction_equivalence(self.grouplike, self.base)

    @cached_property
    def witness(self) -> CofreeWitness | None:
        """The cofree witness of the file, else the one of the decomposition."""
        return self._witness if self._witness is not None else self.decomposition[0]

    @cached_property
    def cofree_dual(self) -> tuple:
        """`cofree_dual_group_ring_iso` along the witness: (degree maps, report)."""
        return cofree_dual_group_ring_iso(self.coring, self.witness, self.dual_ring)

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
        strict, weak = self.coefficient_spaces
        if weak == strict and self.weak_coinvariants == self.coinvariants:
            return self.coefficients
        return coefficient_ring(self.grouplike, weak, self.weak_coinvariants)

    @cached_property
    def morita(self) -> tuple:
        """`morita_context` on the strict spaces: (context, build report)."""
        return morita_context(self.grouplike, self.dual_ring, self.coinvariants,
                              self.connecting_spaces[0])

    @cached_property
    def weak_morita(self) -> tuple:
        strict, weak = self.connecting_spaces
        if weak == strict and self.weak_coinvariants == self.coinvariants:
            return self.morita
        return morita_context(self.grouplike, self.dual_ring, self.weak_coinvariants, weak)

    @cached_property
    def graded_morita(self) -> tuple:
        """`graded_morita_context` on the strict coefficient ring and
        connecting space: (graded context, build report)."""
        return graded_morita_context(self.grouplike, self.dual_ring, self.coefficients,
                                     self.connecting_spaces[0])

    @cached_property
    def graded_strict(self) -> tuple:
        """`is_strict` of the graded context: (verdict, report)."""
        return is_strict(self.graded_morita[0].ctx)

    @cached_property
    def weak_graded_morita(self) -> tuple:
        strict, weak = self.connecting_spaces
        if weak == strict and self.weak_coefficients == self.coefficients:
            return self.graded_morita
        return graded_morita_context(self.grouplike, self.dual_ring, self.weak_coefficients,
                                     weak)

    @cached_property
    def slice(self) -> "Derived":
        """The derived objects of the identity-degree slice coring and the
        identity-degree member of the family, over the same base morphism."""
        e_coring = self.coring.e_slice()
        x_e = GrouplikeFamily(e_coring, (self.grouplike.vec(self.coring.group.identity),))
        return Derived(e_coring, x_e, self.base)

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
        return Derived(cor, x, self.base)
