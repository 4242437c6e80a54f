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
That law is stated for many maps at once, in column blocks, one per map,
of `kron_after` composites, so no map is reshaped into rows.
"""

from __future__ import annotations

from corings.algebra import (
    Bimodule,
    TensorProduct,
    cached_lift,
    cached_tensor,
    cached_triple,
    contract_right,
    differing_columns,
    direct_sum_bimodule,
    intertwining_failures,
)
from corings.coring import (
    CofreeWitness,
    GroupCoring,
    MissingCofreeWitness,
    coaction_failures,
)
from corings.linalg import (
    LinearSystem,
    Mat,
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

    def triple(self, a: int, b: int) -> Mat:
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

    def triple(self, a: int, b: int, c: int) -> Mat:
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


def is_gcomodule_map(m: GComodule, n: GComodule, families) -> list:
    """The indices of the families, each a tuple of maps fams[a]: M_a -> N_a,
    that are not maps of families m -> n: not right-linear, or not carrying
    the coactions of m to those of n (identity second legs).

    The laws are linear in the maps, so each is applied to all of them at
    once, with the maps of degree a side by side, H_a = hstack(f_a^1, ...,
    f_a^k), and column block i of each side holding map i: H_a (I_k (x)
    R^M_j) against R^N_j H_a, and proj (H_a (x) I) (I_k (x) lift) against
    rho^N_{a,b} H_{ab}."""
    c = m.coring
    g = c.group
    F = c.base.field
    shapes, k = [(y.dim, x.dim) for x, y in zip(m.comps, n.comps)], len(families)
    if any([(f.rows, f.cols) for f in fams] != shapes for fams in families):
        raise DimensionMismatch("maps do not fit the degrees of the families")
    if not k:
        return []
    side = [hstack([fams[a] for fams in families]) for a in g.elements()]
    ident = Mat.identity(F, k)
    bad = set()
    for a in g.elements():
        for rm, rn in zip(m.comps[a].right, n.comps[a].right):
            bad.update(t // rm.cols for t in differing_columns(kron_after(side[a], ident, rm),
                                                               rn @ side[a]))
        for b in g.elements():
            ab, proj = g.mul(a, b), n.tensor(a, b).space.proj
            lhs = kron_after(kron_after(proj, side[a], Mat.identity(F, c.comps[b].dim)),
                             ident, m.lift(a, b))
            bad.update(t // m.comps[ab].dim for t in differing_columns(lhs, n.rho[(a, b)] @ side[ab]))
    return sorted(bad)


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

# the row texts in which the two batteries differ: dim, section, triangle-left
_TEXTS = {"adjunction": ("hom spaces have equal dimension",
                         "reverse hom transposition composes to the identity",
                         "counit after packed unit is the identity"),
          "frobenius": ("reverse hom spaces have equal dimension",
                        "reverse transposition composes to the identity",
                        "packed counit after unit is the identity")}


def check_pack_replicate(pairs) -> CheckReport:
    """For each (family, comodule) pair: the hom-space bijection of pack left
    adjoint to replicate, in both directions, and its triangle identities
    (the `adjunction` rows), then the same for replicate left adjoint to
    pack (the `frobenius` rows).  Each pair's pack, replicate and pack of
    the replicate are built once and serve both."""
    built = []
    for gm, n in pairs:
        repl = replicate_comodule(n)
        built.append((gm, n, pack_gcomodule(gm), repl, pack_gcomodule(repl)))
    rep = _adjunction_battery(built, "adjunction", True)
    rep.extend(_adjunction_battery(built, "frobenius", False))
    return rep


def _adjunction_battery(built, tag: str, pack_left: bool) -> CheckReport:
    """The rows of one adjunction for each pair (family M, comodule N): maps
    pack M -> N against M -> replicate N when pack is the left adjoint,
    replicate N -> M against N -> pack M when it is the right one; a map out
    of (into) the pack transposes to its column (row) blocks.  With pack on
    the left, the unit eta_M is the block injections, the counit eps_N the
    sum of the copies, and the triangles eps_{pack M} pack(eta_M) = id and
    replicate(eps_N) eta_{replicate N} = id, whose rows also check eta_M and
    eta_{replicate N} as maps; with replicate on the left all are transposed,
    and the rows check zeta_M = eta_M^T and the unit replicate(nu_N).
    Each entry of built is (M, N, pack M, replicate N, pack replicate N),
    a pack with its injections and projections."""
    dim_text, section_text, left_text = _TEXTS[tag]
    rep = CheckReport()
    for idx, (gm, n, (packed, inj, proj), repl, (copies, inj_n, _)) in enumerate(built):
        F, order = gm.coring.base.field, gm.coring.group.order
        eye_p, eye_n = Mat.identity(F, packed.space.dim), Mat.identity(F, n.space.dim)
        if pack_left:
            h_packed = [f for (f,) in comodule_homs(packed, n).basis()]
            h_family = gcomodule_homs(gm, repl).basis()
            join, legs, first = hstack, inj, tuple(inj_n)
        else:
            h_family = gcomodule_homs(repl, gm).basis()
            h_packed = [f for (f,) in comodule_homs(n, packed).basis()]
            join, legs, first = vstack, proj, (vstack([eye_n] * order),) * order

        def split(f: Mat) -> tuple:
            return tuple(f @ i for i in inj) if pack_left else tuple(q @ f for q in proj)

        def maps(other: GComodule, families) -> bool:  # gm -> other, or other -> gm
            return not is_gcomodule_map(*((gm, other) if pack_left else (other, gm)), families)

        # (dimension, round trip) of each hom space, the left adjoint's first
        sides = [(len(h_packed), all(join(split(f)) == f for f in h_packed)),
                 (len(h_family), all(split(join(fams)) == tuple(fams) for fams in h_family))]
        (left_dim, left_trip), (right_dim, right_trip) = sides if pack_left else sides[::-1]
        rep.add(f"{tag}[{idx}].dim", dim_text, left_dim == right_dim, f"{left_dim} vs {right_dim}")
        rep.add(f"{tag}[{idx}].retract", "hom transposition composes to the identity", left_trip)
        rep.add(f"{tag}[{idx}].section", section_text, right_trip)
        rep.add(f"{tag}[{idx}].well-defined", "transposed maps are morphisms",
                maps(repl, [split(f) for f in h_packed]))
        rep.add(f"{tag}[{idx}].triangle-left", left_text,
                maps(replicate_comodule(packed), [tuple(legs)])
                and hstack([eye_p] * order) @ block_diagonal(inj) == eye_p)
        rep.add(f"{tag}[{idx}].triangle-right", "replicated counit after unit is the identity",
                not is_gcomodule_map(repl, replicate_comodule(copies), [first])
                and all(hstack([eye_n] * order) @ i == eye_n for i in inj_n))
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
                not is_gcomodule_map(gm, back, [phis]))
        rep.add(f"cofree-equiv[{idx}].restrict-extend",
                "restriction of the extension is the original comodule",
                comodules_equal(e_component(back), ncom))
    return rep
