"""The two comodule categories over a group coring and the functors
between them.

A plain comodule is one module with a coaction per group element; a
group-indexed comodule is a family of modules with a coaction per pair.
Packing a family into its direct sum and replicating a single comodule
into tagged copies form an adjoint pair, and for finite index groups a
Frobenius pair; both facts are verified on solved hom-space bases.  For
cofree corings the family category collapses onto comodules over the
degree-e slice, with explicit mutually inverse comparison maps.

A family's laws are `coring.coaction_failures` on each degree; a plain
comodule is checked as its replicate read at the identity tag, and a
family map against its law (`is_gcomodule_map`), never a solved system.
"""

from __future__ import annotations

from corings.algebra import (
    Bimodule,
    TensorProduct,
    cached_lift,
    cached_tensor,
    cached_triple,
    contract_right,
    direct_sum_bimodule,
    intertwining_failures,
)
from corings.coring import (
    CofreeWitness,
    GroupCoring,
    MissingCofreeWitness,
    coaction_failures,
    comultiplicative_failures,
)
from corings.linalg import (
    LinearSystem,
    Mat,
    QuotientSpace,
    block_diagonal,
    block_matrix,
    hstack,
    kron_after,
    vstack,
)
from corings.report import CheckReport
from corings.scalars import DimensionMismatch


class Comodule:
    """Right module with one coaction M -> M (x)_A C_a per group element."""

    def __init__(self, coring: GroupCoring, space: Bimodule, rho):
        self.coring = coring
        self.space = space
        self.rho = tuple(rho)

    def tensor(self, a: int) -> TensorProduct:
        return cached_tensor(self.space, self.coring.comps[a])

    def triple(self, a: int, b: int) -> QuotientSpace:
        return cached_triple(self.space, self.coring.comps[a], self.coring.comps[b])


class GComodule:
    """Family of right modules with one coaction M_{ab} -> M_a (x)_A C_b per pair."""

    def __init__(self, coring: GroupCoring, comps, rho):
        self.coring = coring
        self.comps = tuple(comps)
        self.rho = dict(rho)

    def tensor(self, a: int, b: int) -> TensorProduct:
        return cached_tensor(self.comps[a], self.coring.comps[b])

    def lift(self, a: int, b: int) -> Mat:
        """rho_{a,b} through the chosen section: M_{ab} -> M_a (x)_k C_b."""
        return cached_lift(self.comps[a], self.coring.comps[b], self.rho[(a, b)])

    def triple(self, a: int, b: int, c: int) -> QuotientSpace:
        return cached_triple(self.comps[a], self.coring.comps[b], self.coring.comps[c])


# -- validators ---------------------------------------------------------------------

def validate_comodule(m: Comodule) -> CheckReport:
    """The laws of m as those of its replicate at the identity tag: rho_a is
    the coaction of the pair (e, a)."""
    rep = CheckReport()
    gm = replicate_comodule(m)
    e = m.coring.group.identity
    bad = _right_linear_failures(gm, e)
    rep.add("comodule.right-linear", "coactions are right-linear",
            not bad, f"failing (degree, basis): {bad}" if bad else "")
    bad, counit_ok = coaction_failures(gm, m.coring, gm.lift, e)
    rep.add("comodule.coassociativity", "coaction coassociativity",
            not bad, f"failing pairs: {bad}" if bad else "")
    rep.add("comodule.counit", "counit law", counit_ok)
    return rep


def validate_g_comodule(m: GComodule) -> CheckReport:
    rep = CheckReport()
    g = m.coring.group
    bad = [(a, b, j) for a in g.elements() for b, j in _right_linear_failures(m, a)]
    rep.add("g-comodule.right-linear", "coactions are right-linear",
            not bad, f"failing (pair, basis): {bad[:5]}" if bad else "")
    fails = [coaction_failures(m, m.coring, m.lift, a) for a in g.elements()]
    bad = [(a, b, d) for a in g.elements() for b, d in fails[a][0]]
    rep.add("g-comodule.coassociativity", "family coaction coassociativity",
            not bad, f"failing triples: {bad[:5]}" if bad else "")
    bad = [a for a in g.elements() if not fails[a][1]]
    rep.add("g-comodule.counit", "counit law on every component",
            not bad, f"failing indices: {bad}" if bad else "")
    return rep


def _right_linear_failures(m: GComodule, a: int) -> list:
    """The pairs (b, j), b major, where rho[(a, b)]: M_{ab} -> M_a (x)_A C_b
    does not commute with the right action of base basis element j."""
    c = m.coring
    g = c.group
    ident = Mat.identity(c.base.field, c.base.dim)
    return [(b, j) for b in g.elements() for j in intertwining_failures(
        m.rho[(a, b)], m.comps[g.mul(a, b)].right, m.tensor(a, b).module.right, ident)]


def is_gcomodule_map(m: GComodule, n: GComodule, fams) -> bool:
    """Whether the maps fams[a]: M_a -> N_a are right-linear and carry the
    coactions of m to those of n (identity second legs)."""
    c = m.coring
    F = c.base.field
    if [(f.rows, f.cols) for f in fams] != [(y.dim, x.dim) for x, y in zip(m.comps, n.comps)]:
        raise DimensionMismatch("maps do not fit the degrees of the families")
    ident = Mat.identity(F, c.base.dim)
    if any(intertwining_failures(f, m.comps[a].right, n.comps[a].right, ident)
           for a, f in enumerate(fams)):
        return False
    seconds = [Mat.identity(F, comp.dim) for comp in c.comps]
    return not comultiplicative_failures(c.group, fams, seconds, m.lift, n, n.rho)


# -- canonical objects ----------------------------------------------------------------

def coring_as_gcomodule(c: GroupCoring) -> GComodule:
    """The coring over itself: components as right modules, coactions the
    comultiplications."""
    return GComodule(c, tuple(m.with_trivial_left() for m in c.comps), c.delta)


# -- the pack / replicate adjunction ---------------------------------------------------

def pack_gcomodule(m: GComodule) -> tuple[Comodule, list, list]:
    """Direct sum of the family with coactions shifted by the group action:
    rho_a sends block b to block b a^{-1} of the packed quotient, the block
    diagonal of the quotients M_x (x)_A C_a, by the family's rho[(b a^{-1}, a)].

    Returns the comodule plus the block injection/projection matrices.
    """
    c = m.coring
    g = c.group
    total, inj, proj = direct_sum_bimodule([mm.with_trivial_left() for mm in m.comps])
    dims = [mm.dim for mm in m.comps]
    rho = []
    for a in g.elements():
        ainv = g.inv(a)
        rho.append(block_matrix(c.base.field, [m.rho[(x, a)].rows for x in g.elements()],
                                dims, {(g.mul(b, ainv), b): m.rho[(g.mul(b, ainv), a)]
                                       for b in g.elements()}))
    return Comodule(c, total, rho), inj, proj


def replicate_comodule(m: Comodule) -> GComodule:
    """Tagged copies of one comodule, coaction per pair read off degree two."""
    c = m.coring
    g = c.group
    comps = tuple(m.space for _ in g.elements())
    rho = {(a, b): m.rho[b] for a in g.elements() for b in g.elements()}
    return GComodule(c, comps, rho)


# -- hom-space solvers -------------------------------------------------------------------

def comodule_homs(m: Comodule, n: Comodule) -> LinearSystem:
    """The constraints on a comodule morphism m -> n, one unknown "f"."""
    c = m.coring
    F = c.base.field
    fn, fm = n.space.dim, m.space.dim
    sys = LinearSystem(F, {"f": (fn, fm)})
    idn = Mat.identity(F, fn)
    idm = Mat.identity(F, fm)
    for j in range(c.base.dim):
        sys.add((1, "f", idn, m.space.right[j]), (-1, "f", n.space.right[j], idm))
    for a in c.group.elements():
        sys.add((1, "f", n.tensor(a).space.proj, m.tensor(a).space.sect @ m.rho[a],
                 c.comps[a].dim),
                (-1, "f", n.rho[a], idm))
    return sys


def gcomodule_homs(m: GComodule, n: GComodule) -> LinearSystem:
    """The constraints on a family morphism m -> n, one unknown per degree;
    each element of its `basis()` is a per-degree tuple of matrices."""
    c = m.coring
    g = c.group
    F = c.base.field
    sys = LinearSystem(F, {a: (n.comps[a].dim, m.comps[a].dim) for a in g.elements()})
    for a in g.elements():
        idn = Mat.identity(F, n.comps[a].dim)
        idm = Mat.identity(F, m.comps[a].dim)
        for j in range(c.base.dim):
            sys.add((1, a, idn, m.comps[a].right[j]), (-1, a, n.comps[a].right[j], idm))
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            sys.add((1, a, n.tensor(a, b).space.proj, m.lift(a, b), c.comps[b].dim),
                    (-1, ab, n.rho[(a, b)], Mat.identity(F, m.comps[ab].dim)))
    return sys


# -- adjunction and Frobenius batteries ---------------------------------------------------

def check_pack_replicate_adjunction(pairs) -> CheckReport:
    """For each (family, comodule) pair: the hom-space bijection in both
    directions plus the triangle identities of the adjunction."""
    rep = CheckReport()
    for idx, (gm, n) in enumerate(pairs):
        c = gm.coring
        g = c.group
        F = c.base.field
        packed, inj, _ = pack_gcomodule(gm)
        h_packed = [f for (f,) in comodule_homs(packed, n).basis()]
        repl = replicate_comodule(n)
        h_family = gcomodule_homs(gm, repl).basis()
        rep.add(f"adjunction[{idx}].dim", "hom spaces have equal dimension",
                len(h_packed) == len(h_family),
                f"{len(h_packed)} vs {len(h_family)}")

        def psi(f: Mat):
            return tuple(f @ inj[a] for a in g.elements())

        # the inverse transposition puts the family side by side
        ok = all(hstack(psi(f)) == f for f in h_packed)
        rep.add(f"adjunction[{idx}].retract", "hom transposition composes to the identity",
                ok)
        ok = all(tuple(psi(hstack(fams))) == tuple(fams) for fams in h_family)
        rep.add(f"adjunction[{idx}].section", "reverse hom transposition composes to the identity",
                ok)
        ok = all(is_gcomodule_map(gm, repl, psi(f)) for f in h_packed)
        rep.add(f"adjunction[{idx}].well-defined", "transposed maps are morphisms", ok)

        # triangle identities
        f1_eta = block_diagonal(inj)
        eps_packed = hstack([Mat.identity(F, packed.space.dim) for _ in g.elements()])
        rep.add(f"adjunction[{idx}].triangle-left",
                "counit after packed unit is the identity",
                eps_packed @ f1_eta == Mat.identity(F, packed.space.dim))
        eta_repl_ok = True
        for b in g.elements():
            eta_b = block_matrix(F, [n.space.dim] * g.order, [n.space.dim],
                                 {(b, 0): Mat.identity(F, n.space.dim)})
            g1_eps_b = hstack([Mat.identity(F, n.space.dim) for _ in g.elements()])
            if g1_eps_b @ eta_b != Mat.identity(F, n.space.dim):
                eta_repl_ok = False
        rep.add(f"adjunction[{idx}].triangle-right",
                "replicated counit after unit is the identity", eta_repl_ok)
    return rep


def check_pack_replicate_frobenius(pairs) -> CheckReport:
    """The second adjunction (replicate left adjoint of pack) on hom bases."""
    rep = CheckReport()
    for idx, (gm, n) in enumerate(pairs):
        c = gm.coring
        g = c.group
        F = c.base.field
        packed, inj, proj = pack_gcomodule(gm)
        repl = replicate_comodule(n)
        h_rev_family = gcomodule_homs(repl, gm).basis()   # replicate(N) -> family
        h_rev_packed = [f for (f,) in comodule_homs(n, packed).basis()]   # N -> packed

        rep.add(f"frobenius[{idx}].dim", "reverse hom spaces have equal dimension",
                len(h_rev_family) == len(h_rev_packed),
                f"{len(h_rev_family)} vs {len(h_rev_packed)}")

        def cap_psi(f: Mat):
            return tuple(proj[a] @ f for a in g.elements())

        # the inverse transposition stacks the family
        ok = all(tuple(cap_psi(vstack(fams))) == tuple(fams) for fams in h_rev_family)
        rep.add(f"frobenius[{idx}].retract", "hom transposition composes to the identity", ok)
        ok = all(vstack(cap_psi(f)) == f for f in h_rev_packed)
        rep.add(f"frobenius[{idx}].section", "reverse transposition composes to the identity", ok)
        ok = all(is_gcomodule_map(repl, gm, cap_psi(f)) for f in h_rev_packed)
        rep.add(f"frobenius[{idx}].well-defined", "transposed maps are morphisms", ok)

        nu = vstack([Mat.identity(F, n.space.dim) for _ in g.elements()])
        zeta = tuple(proj[a] for a in g.elements())
        # pack(zeta) o nu_pack = id
        pack_zeta = block_diagonal(zeta)
        nu_pack = vstack([Mat.identity(F, packed.space.dim) for _ in g.elements()])
        rep.add(f"frobenius[{idx}].triangle-left",
                "packed counit after unit is the identity",
                pack_zeta @ nu_pack == Mat.identity(F, packed.space.dim))
        tri_ok = True
        for b in g.elements():
            zeta_repl_b = block_matrix(F, [n.space.dim], [n.space.dim] * g.order,
                                       {(0, b): Mat.identity(F, n.space.dim)})
            if zeta_repl_b @ nu != Mat.identity(F, n.space.dim):
                tri_ok = False
        rep.add(f"frobenius[{idx}].triangle-right",
                "replicated counit after unit is the identity", tri_ok)
    return rep


# -- the cofree equivalence -----------------------------------------------------------------

def cofree_extend(n: Comodule, c: GroupCoring, w: CofreeWitness) -> GComodule:
    """Extend a degree-e comodule to a family along a cofree witness."""
    if w is None:
        raise MissingCofreeWitness("extension needs a cofree witness")
    if n.coring.group.order != 1:
        raise ValueError("source must be a comodule over the degree-e slice")
    g = c.group
    ident = Mat.identity(c.base.field, n.space.dim)
    lifted = n.tensor(0).space.sect @ n.rho[0]
    # rho_{a,b} = (N (x) gamma_b) rho_e reads only b
    per_b = [kron_after(cached_tensor(n.space, c.comps[b]).space.proj, ident, w.gammas[b]) @ lifted
             for b in g.elements()]
    return GComodule(c, tuple(n.space for _ in g.elements()),
                     {(a, b): per_b[b] for a in g.elements() for b in g.elements()})


def e_component(m: GComodule) -> Comodule:
    """The degree-e part as a comodule over the degree-e slice coring."""
    c = m.coring
    e = c.group.identity
    return Comodule(c.e_slice(), m.comps[e], (m.rho[(e, e)],))


def comodules_equal(m1: Comodule, m2: Comodule) -> bool:
    return (m1.space.dim == m2.space.dim
            and m1.space.right == m2.space.right
            and m1.rho == m2.rho)


def gcomodules_equal(m1: GComodule, m2: GComodule) -> bool:
    if len(m1.comps) != len(m2.comps):
        return False
    for a in range(len(m1.comps)):
        if m1.comps[a].dim != m2.comps[a].dim or m1.comps[a].right != m2.comps[a].right:
            return False
    return m1.rho == m2.rho


def check_cofree_equivalence(c: GroupCoring, w: CofreeWitness, objects) -> CheckReport:
    """Extend/restrict along the cofree witness and verify the comparison
    maps are mutually inverse morphisms on each supplied family."""
    rep = CheckReport()
    g = c.group
    e = g.identity
    F = c.base.field
    for idx, gm in enumerate(objects):
        ncom = e_component(gm)
        back = cofree_extend(ncom, c, w)
        # phi_a: M_a -> M_e, psi_a: M_e -> M_a, second legs read by counit o gamma^-1
        phis = tuple(contract_right(gm.comps[e], c.counit @ w.gamma_inv(a)) @ gm.lift(e, a)
                     for a in g.elements())
        psis = [contract_right(gm.comps[a], c.counit @ w.gamma_inv(g.inv(a))) @ gm.lift(a, g.inv(a))
                for a in g.elements()]
        ok_inv = all(phi @ psi == Mat.identity(F, psi.cols) and psi @ phi == Mat.identity(F, phi.cols)
                     for phi, psi in zip(phis, psis))
        rep.add(f"cofree-equiv[{idx}].inverse", "comparison maps are mutually inverse", ok_inv)
        rep.add(f"cofree-equiv[{idx}].morphism",
                "comparison maps form a family morphism",
                is_gcomodule_map(gm, back, phis))
        rep.add(f"cofree-equiv[{idx}].restrict-extend",
                "restriction of the extension is the original comodule",
                comodules_equal(e_component(back), ncom))
    return rep
