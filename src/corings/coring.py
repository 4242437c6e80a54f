"""Group-indexed corings over an algebra: axioms, morphisms and the cofree
construction for finite index groups.

A coring here is a family of bimodules C_a, one per group element, with
comultiplications Delta[a,b]: C_{ab} -> C_a (x)_A C_b landing in the
computed tensor quotients, and a counit C_e -> A.  All structure maps are
stored as matrices in the deterministic quotient bases, so the axioms are
literal matrix identities.  A coring is built whole: its maps are
computed before the constructor is called and never reassigned, and what
is derived from it (the tensor quotients of its components, the lifts of
its maps through the chosen section) lives in the memo of the base
algebra, keyed by content.  The coaction laws on one degree
(`coaction_failures`) serve the coring over itself and every comodule
family, and `comultiplicative_failures` serves coring morphisms and cofree
witnesses; maps of comodule families have their law, applied to many maps
at once in column blocks of `kron_after` composites, in
`comodules.is_gcomodule_map`.
"""

from __future__ import annotations

from corings.algebra import (
    Algebra,
    Bimodule,
    BimoduleMap,
    TensorProduct,
    cached_lift,
    cached_tensor,
    cached_triple,
    contract_left,
    contract_right,
    is_bimodule_iso,
    validate_bimodule,
    validate_bimodule_map,
)
from corings.groups import TRIVIAL_GROUP, FiniteGroup
from corings.linalg import Mat, QuotientSpace, inverse, kron_after
from corings.report import CheckReport


class MissingCofreeWitness(ValueError):
    """Raised when an operation needs a cofree structure that was not given."""


class GroupCoring:
    """Family (C_a) with comultiplications into tensor quotients and counit."""

    def __init__(self, group: FiniteGroup, base: Algebra, comps, delta, counit: Mat):
        self.group = group
        self.base = base
        self.comps = tuple(comps)
        self.delta = dict(delta)   # (a, b) -> Mat: C_{ab} -> tensor(a,b).space.dim
        self.counit = counit       # base.dim x C_e.dim

    # -- tensor quotients, memoised on the base algebra ----------------------

    def tensor(self, a: int, b: int) -> TensorProduct:
        return cached_tensor(self.comps[a], self.comps[b])

    def triple(self, a: int, b: int, c: int) -> QuotientSpace:
        return cached_triple(self.comps[a], self.comps[b], self.comps[c])

    # -- composite comultiplications -----------------------------------------

    def delta_left_lift(self, a: int, b: int) -> Mat:
        """C_{ab} -> C_a (x)_k C_b through the chosen section, memoised by
        content (`algebra.cached_lift`)."""
        return cached_lift(self.comps[a], self.comps[b], self.delta[(a, b)])

    def e_slice(self) -> "GroupCoring":
        """The degree-e part as a coring over the trivial group."""
        e = self.group.identity
        return GroupCoring(
            TRIVIAL_GROUP, self.base, (self.comps[e],),
            {(0, 0): self.delta[(e, e)]}, self.counit,
        )


def validate_group_coring(c: GroupCoring, check_components: bool = True) -> CheckReport:
    rep = CheckReport()
    g = c.group
    e = g.identity
    if check_components:
        for a in g.elements():
            rep.extend(validate_bimodule(c.comps[a]), prefix=f"comp[{a}].")
        for (a, b), mat in sorted(c.delta.items()):
            f = BimoduleMap(c.comps[g.mul(a, b)], c.tensor(a, b).module, mat)
            rep.extend(validate_bimodule_map(f), prefix=f"delta[{a},{b}].")
        eps = BimoduleMap(c.comps[e], Bimodule.regular(c.base), c.counit)
        rep.extend(validate_bimodule_map(eps), prefix="counit.")
    fails = [coaction_failures(c, c, c.delta_left_lift, a) for a in g.elements()]
    bad = [(a, b, d) for a in g.elements() for b, d in fails[a][0]]
    rep.add("coring.coassociativity", "comultiplication coassociativity",
            not bad, f"failing triples: {bad}" if bad else "")
    # the right counit law is the coaction's; (counit (x) C_a) o Delta_{e,a} = id
    bad = [a for a in g.elements()
           if not fails[a][1] or contract_left(c.comps[a], c.counit) @ c.delta_left_lift(e, a)
           != Mat.identity(c.base.field, c.comps[a].dim)]
    rep.add("coring.counit", "counit laws on every component",
            not bad, f"failing indices: {bad}" if bad else "")
    return rep


def coaction_failures(m, c: GroupCoring, lift, a: int) -> tuple[list, bool]:
    """The coaction laws on M_a of a coaction rho[(x, y)]: M_{xy} -> M_x (x)_A C_y
    over c, given as its lifts lift(x, y): M_{xy} -> M_x (x)_k C_y: the pairs
    (b, d), b major, where (rho_{a,b} (x) C_d) rho_{ab,d} and (M_a (x)
    Delta_{b,d}) rho_{a,bd} differ in the triple quotient, and whether (M_a
    (x) counit) rho_{a,e} is the identity.  m is a `comodules.GComodule`
    over c with lift = m.lift, or c itself with lift = c.delta_left_lift;
    the triple quotients are its `triple`."""
    g = c.group
    F = c.base.field
    ident = Mat.identity(F, m.comps[a].dim)
    bad = []
    for b in g.elements():
        first = lift(a, b)
        for d in g.elements():
            proj = m.triple(a, b, d).proj
            if (kron_after(proj, first, Mat.identity(F, c.comps[d].dim)) @ lift(g.mul(a, b), d)
                    != kron_after(proj, ident, c.delta_left_lift(b, d)) @ lift(a, g.mul(b, d))):
                bad.append((b, d))
    return bad, contract_right(m.comps[a], c.counit) @ lift(a, g.identity) == ident


# -- morphisms -------------------------------------------------------------------

class GroupCoringMorphism:
    def __init__(self, src: GroupCoring, dst: GroupCoring, maps):
        self.src = src
        self.dst = dst
        self.maps = tuple(maps)  # per group element: Mat dst.comps[a].dim x src.comps[a].dim


def validate_coring_morphism(f: GroupCoringMorphism) -> CheckReport:
    rep = CheckReport()
    g = f.src.group
    for a in g.elements():
        bm = BimoduleMap(f.src.comps[a], f.dst.comps[a], f.maps[a])
        rep.extend(validate_bimodule_map(bm), prefix=f"component[{a}].")
    bad = comultiplicative_failures(g, f.maps, f.maps, f.src.delta_left_lift, f.dst, f.dst.delta)
    rep.add("morphism.comultiplicative", "compatibility with comultiplication",
            not bad, f"failing pairs: {bad}" if bad else "")
    e = g.identity
    rep.add("morphism.counit", "compatibility with the counit",
            f.dst.counit @ f.maps[e] == f.src.counit)
    return rep


def comultiplicative_failures(g: FiniteGroup, maps, seconds, lift, dst, dst_maps) -> list:
    """The pairs (a, b), a major, where (f_a (x) seconds[b]) lift(a, b)
    differs from dst_maps[(a, b)] f_{ab} in dst.tensor(a, b), for f_a =
    maps[a] and lift the source's structure maps through the section: for
    a coring morphism C -> D, seconds = maps, lift = C.delta_left_lift and
    dst_maps = D.delta."""
    return [(a, b) for a in g.elements() for b in g.elements()
            if kron_after(dst.tensor(a, b).space.proj, maps[a], seconds[b]) @ lift(a, b)
            != dst_maps[(a, b)] @ maps[g.mul(a, b)]]


# -- cofree corings -----------------------------------------------------------------

class CofreeWitness:
    """Isomorphisms gamma_a: C_e -> C_a compatible with comultiplication."""

    def __init__(self, coring: GroupCoring, gammas):
        self.coring = coring
        self.gammas = tuple(gammas)
        self._inverses = {}  # a -> gamma_a^{-1}, inverted on first use

    def gamma_inv(self, a: int) -> Mat:
        if a not in self._inverses:
            self._inverses[a] = inverse(self.gammas[a])
        return self._inverses[a]


def cofree_coring(c_e: GroupCoring, group: FiniteGroup) -> tuple[GroupCoring, CofreeWitness]:
    """The coring with every component a tagged copy of the given
    one-component coring, comultiplications transported along the tags."""
    if c_e.group.order != 1:
        raise ValueError("cofree construction starts from a one-component coring")
    comp = c_e.comps[0]
    delta_ee = c_e.delta[(0, 0)]
    comps = tuple(comp for _ in group.elements())
    delta = {(a, b): delta_ee for a in group.elements() for b in group.elements()}
    cor = GroupCoring(group, c_e.base, comps, delta, c_e.counit)
    ident = Mat.identity(c_e.base.field, comp.dim)
    wit = CofreeWitness(cor, tuple(ident for _ in group.elements()))
    return cor, wit


def verify_cofree(c: GroupCoring, w: CofreeWitness) -> CheckReport:
    rep = CheckReport()
    g = c.group
    e = g.identity
    bad_iso = []
    for a in g.elements():
        f = BimoduleMap(c.comps[e], c.comps[a], w.gammas[a])
        if not validate_bimodule_map(f).ok or not is_bimodule_iso(f):
            bad_iso.append(a)
    rep.add("cofree.iso", "each connecting map is a bimodule isomorphism",
            not bad_iso, f"failing indices: {bad_iso}" if bad_iso else "")
    rep.add("cofree.identity-tag", "the identity-degree connecting map is the identity",
            w.gammas[e] == Mat.identity(c.base.field, c.comps[e].dim))
    # the witness as a morphism from the cofree coring on C_e: every Delta is Delta_{e,e}
    bad = comultiplicative_failures(g, w.gammas, w.gammas, lambda a, b: c.delta_left_lift(e, e),
                                    c, c.delta)
    rep.add("cofree.compatible", "connecting maps intertwine comultiplication",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep


def check_cofree_counit_identities(c: GroupCoring, w: CofreeWitness) -> CheckReport:
    """The two derived identities mixing counit and connecting maps:
    contracting the first leg of Delta_{a,b} with counit o gamma_a^{-1}
    recovers gamma_b o gamma_{ab}^{-1}, and symmetrically on the second leg."""
    rep = CheckReport()
    g = c.group
    bad1, bad2 = [], []
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            lift = c.delta_left_lift(a, b)
            t_a = c.counit @ w.gamma_inv(a)
            t_b = c.counit @ w.gamma_inv(b)
            lhs1 = contract_left(c.comps[b], t_a) @ lift
            rhs1 = w.gammas[b] @ w.gamma_inv(ab)
            if lhs1 != rhs1:
                bad1.append((a, b))
            lhs2 = contract_right(c.comps[a], t_b) @ lift
            rhs2 = w.gammas[a] @ w.gamma_inv(ab)
            if lhs2 != rhs2:
                bad2.append((a, b))
    rep.add("cofree.counit-first-leg", "counit contraction of the first leg",
            not bad1, f"failing pairs: {bad1}" if bad1 else "")
    rep.add("cofree.counit-second-leg", "counit contraction of the second leg",
            not bad2, f"failing pairs: {bad2}" if bad2 else "")
    return rep


def group_corings_equal(c1: GroupCoring, c2: GroupCoring) -> bool:
    """Structural equality: same group, base algebra, components, structure
    matrices and counit."""
    return (c1.group, c1.base, c1.comps, c1.delta, c1.counit) == \
        (c2.group, c2.base, c2.comps, c2.delta, c2.counit)
