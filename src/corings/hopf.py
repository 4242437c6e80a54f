"""Group-indexed Hopf coalgebras, comodule algebras, the coring they induce,
Hopf-Galois detection, and the smash-product description of the dual ring.

Components are plain algebras over the ground field; comultiplications land
in ground-field tensor squares (no quotients needed on this layer).  The
induced coring twists the right action of the base by the coaction, turning
every statement about the comodule algebra into a coring statement.

The layer is written as matrix identities over `linalg.tensor_k`: every
structure map and every law is a composite of Kronecker products, identity
and unit-vector matrices, the multiplication matrices `Algebra.mul_mat` and
the tensor algebra `algebra.tensor_algebra`, so no code here indexes a
tensor product by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from corings.algebra import (
    Algebra,
    Bimodule,
    algebra_map_failures,
    cached_tensor,
    collapse_right,
    field_algebra,
    intertwining_failures,
    tensor_algebra,
    validate_algebra,
)
from corings.comodules import Comodule, validate_comodule
from corings.coring import GroupCoring
from corings.dualring import GradedRing, graded_map_failures, graded_ring_failures
from corings.galois import GrouplikeFamily
from corings.groups import FiniteGroup
from corings.linalg import (
    Mat,
    combine,
    is_invertible,
    kernel,
    kron_after,
    row_space,
    tensor_k,
    tensor_vec,
    vec_rows,
    vstack,
)
from corings.report import CheckReport
from corings.scalars import Field


def _is_algebra_map(f: Mat, src: Algebra, dst: Algebra) -> bool:
    """f: src -> dst preserves the unit and the multiplication."""
    return (f.apply(src.unit) == dst.unit
            and not algebra_map_failures(f, src.mul_mat, dst.mul_mat))


def _one_tensor(a: Algebra, dim: int) -> Mat:
    """V -> A (x) V, v -> 1 (x) v."""
    return tensor_k(Mat.col_vector(a.field, a.unit), Mat.identity(a.field, dim))


# -- classical Hopf algebras --------------------------------------------------------

@dataclass(frozen=True)
class HopfAlgebra:
    algebra: Algebra
    delta: Mat     # (dim*dim) x dim
    counit: Mat    # 1 x dim
    antipode: Mat  # dim x dim


# -- group-indexed Hopf coalgebras -----------------------------------------------------

class HopfGCoalgebra:
    def __init__(self, group: FiniteGroup, field: Field, comps, delta, counit: Mat, antipode):
        self.group = group
        self.field = field
        self.comps = tuple(comps)          # per degree: Algebra
        self.delta = dict(delta)           # (a, b) -> Mat (dim_a*dim_b) x dim_ab
        self.counit = counit               # 1 x dim_e
        self.antipode = tuple(antipode)    # per degree a: Mat dim_a x dim_{a^{-1}}


def cofree_hopf(h: HopfAlgebra, group: FiniteGroup) -> HopfGCoalgebra:
    """Tagged copies of one Hopf algebra with structure maps transported
    along the tags."""
    comps = tuple(h.algebra for _ in group.elements())
    delta = {(a, b): h.delta for a in group.elements() for b in group.elements()}
    antipode = tuple(h.antipode for _ in group.elements())
    return HopfGCoalgebra(group, h.algebra.field, comps, delta, h.counit, antipode)


def validate_hopf_g_coalgebra(h: HopfGCoalgebra) -> CheckReport:
    rep = CheckReport()
    g = h.group
    F = h.field
    for a in g.elements():
        rep.extend(validate_algebra(h.comps[a]), prefix=f"component[{a}].")
    ident = [Mat.identity(F, h.comps[a].dim) for a in g.elements()]
    bad = [(a, b, c) for a in g.elements() for b in g.elements() for c in g.elements()
           if tensor_k(h.delta[(a, b)], ident[c]) @ h.delta[(g.mul(a, b), c)]
           != tensor_k(ident[a], h.delta[(b, c)]) @ h.delta[(a, g.mul(b, c))]]
    rep.add("hopf-g.coassociative", "comultiplication coassociativity",
            not bad, f"failing triples: {bad[:5]}" if bad else "")
    e = g.identity
    bad = []
    for a in g.elements():
        if tensor_k(ident[a], h.counit) @ h.delta[(a, e)] != ident[a]:
            bad.append((a, "right"))
        if tensor_k(h.counit, ident[a]) @ h.delta[(e, a)] != ident[a]:
            bad.append((a, "left"))
    rep.add("hopf-g.counit", "counit laws", not bad, f"failing: {bad}" if bad else "")
    bad = [(a, b) for a in g.elements() for b in g.elements()
           if not _is_algebra_map(h.delta[(a, b)], h.comps[g.mul(a, b)],
                                  tensor_algebra(h.comps[a], h.comps[b]))]
    rep.add("hopf-g.delta-algebra-maps", "comultiplications are algebra maps",
            not bad, f"failing pairs: {bad}" if bad else "")
    rep.add("hopf-g.counit-algebra-map", "counit is an algebra map",
            _is_algebra_map(h.counit, h.comps[e], field_algebra(F)))
    bad = []
    for a in g.elements():
        ainv = g.inv(a)
        mm = h.comps[a].mul_mat
        unit_eps = Mat.col_vector(F, h.comps[a].unit) @ h.counit
        if (kron_after(mm, h.antipode[a], ident[a]) @ h.delta[(ainv, a)] != unit_eps
                or kron_after(mm, ident[a], h.antipode[a]) @ h.delta[(a, ainv)] != unit_eps):
            bad.append(a)
    rep.add("hopf-g.antipode", "antipode law on every degree",
            not bad, f"failing degrees: {bad}" if bad else "")
    return rep


# -- comodule algebras ------------------------------------------------------------------

class ComoduleAlgebra:
    def __init__(self, algebra: Algebra, hopf: HopfGCoalgebra, rho):
        self.algebra = algebra
        self.hopf = hopf
        self.rho = tuple(rho)  # per degree a: Mat (dimA*dimH_a) x dimA


def _coaction_laws(h: HopfGCoalgebra, dim: int, rho) -> CheckReport:
    """Coassociativity and the counit law of coactions rho[p]: V -> V (x) H_p
    on a space V of dimension dim."""
    rep = CheckReport()
    g = h.group
    ident = Mat.identity(h.field, dim)
    bad = [(p, q) for p in g.elements() for q in g.elements()
           if tensor_k(ident, h.delta[(p, q)]) @ rho[g.mul(p, q)]
           != tensor_k(rho[p], Mat.identity(h.field, h.comps[q].dim)) @ rho[q]]
    rep.add("coassociative", "coaction coassociativity",
            not bad, f"failing pairs: {bad}" if bad else "")
    rep.add("counit", "counit law", tensor_k(ident, h.counit) @ rho[g.identity] == ident)
    return rep


def validate_comodule_algebra(ca: ComoduleAlgebra) -> CheckReport:
    rep = CheckReport()
    a = ca.algebra
    h = ca.hopf
    rep.extend(_coaction_laws(h, a.dim, ca.rho), prefix="comodule-algebra.")
    bad = [p for p in h.group.elements()
           if not _is_algebra_map(ca.rho[p], a, tensor_algebra(a, h.comps[p]))]
    rep.add("comodule-algebra.algebra-maps", "coactions are algebra maps",
            not bad, f"failing degrees: {bad}" if bad else "")
    return rep


def regular_comodule_algebra(h: HopfGCoalgebra, base: HopfAlgebra) -> ComoduleAlgebra:
    """The base Hopf algebra coacting on itself through the tagged copies;
    meaningful for cofree families built on `base`."""
    rho = tuple(base.delta for _ in h.group.elements())
    return ComoduleAlgebra(base.algebra, h, rho)


def trivial_comodule_algebra(a: Algebra, h: HopfGCoalgebra) -> ComoduleAlgebra:
    """rho_p(x) = x (x) 1 in every degree."""
    ida = Mat.identity(a.field, a.dim)
    return ComoduleAlgebra(a, h, [tensor_k(ida, Mat.col_vector(a.field, hp.unit))
                                  for hp in h.comps])


# -- the induced coring --------------------------------------------------------------------

def _twisted_right(dim: int, rights, hp: Algebra, rho_p: Mat) -> tuple:
    """Right action matrices of the base basis elements b on V (x) H_p,
    v (x) h -> v.b[0] (x) h.b[1] for rho_p(b) = b[0] (x) b[1]: each is the
    combination of the R (x) S, for R in `rights` (the right action on V,
    of dimension dim) and S a right multiplication of H_p, weighted by the
    coordinates of rho_p(b)."""
    terms = [tensor_k(R, S) for R in rights for S in hp.right_mats]
    n = dim * hp.dim
    return tuple(combine(hp.field, n, n, terms, rho_p.col(j)) for j in range(rho_p.cols))


def coring_from_comodule_algebra(ca: ComoduleAlgebra) -> tuple[GroupCoring, GrouplikeFamily]:
    """Components base (x) H_a, right action twisted by the coaction; the
    family of tensor units is grouplike.  The comultiplication sends
    a (x) h to (a (x) h_(1)) (x)_A (1 (x) h_(2))."""
    a = ca.algebra
    h = ca.hopf
    g = h.group
    F = a.field
    comps = []
    for p in g.elements():
        hp = h.comps[p]
        left = tuple(tensor_k(L, Mat.identity(F, hp.dim)) for L in a.left_mats)
        right = _twisted_right(a.dim, a.right_mats, hp, ca.rho[p])
        comps.append(Bimodule(a, a.dim * hp.dim, left, right))
    ida = Mat.identity(F, a.dim)
    ones = [_one_tensor(a, hq.dim) for hq in h.comps]
    delta = {}
    for p in g.elements():
        idp = Mat.identity(F, h.comps[p].dim)
        for q in g.elements():
            # H_pq -> H_p (x) A (x) H_q, h -> h_(1) (x) 1 (x) h_(2)
            split = tensor_k(idp, ones[q]) @ h.delta[(p, q)]
            delta[(p, q)] = kron_after(cached_tensor(comps[p], comps[q]).space.proj, ida, split)
    cor = GroupCoring(g, a, comps, delta, tensor_k(ida, h.counit))
    vectors = tuple(tensor_vec(F, a.unit, h.comps[p].unit) for p in g.elements())
    return cor, GrouplikeFamily(cor, vectors)


def invariant_subalgebra(ca: ComoduleAlgebra) -> Mat:
    """Basis rows of elements with trivial coaction in every degree."""
    trivial = trivial_comodule_algebra(ca.algebra, ca.hopf)
    return kernel(vstack([r - t for r, t in zip(ca.rho, trivial.rho)]))


def hopf_galois_check(ca: ComoduleAlgebra, h: "Derived") -> tuple[bool, CheckReport]:
    """Galois property of the induced coring, plus the identification of its
    coinvariants with the invariant subalgebra of the coaction; `h` is the
    `structfile.Derived` of the induced coring and its canonical family."""
    verdict, sub = h.galois
    rep = CheckReport()
    rep.extend(sub)
    inv = invariant_subalgebra(ca)
    rep.add("hopf-galois.invariants",
            "coring coinvariants equal the coaction invariants",
            row_space(h.coinvariants.basis) == row_space(inv))
    return verdict, rep


def hopf_galois_decomposition_check(h: "Derived") -> CheckReport:
    """Galois for the family holds exactly when the family splits cofreely
    and the identity-degree slice is Galois (checked through the coring);
    `h` is the `structfile.Derived` of the induced coring and its canonical
    family."""
    rep = CheckReport()
    verdict, _ = h.galois
    wit, drep = h.decomposition
    rep.add("split.galois-verdict", "family Galois verdict computed", True, f"value={verdict}")
    if verdict:
        rep.add("split.witness", "decomposition produced a cofree witness", wit is not None)
        rep.extend(drep, prefix="split.")
    else:
        rep.add("split.witness", "no witness claimed for a non-Galois family", wit is None)
    return rep


# -- relative Hopf modules --------------------------------------------------------------------

class RelativeHopfModule:
    """Right module over the comodule algebra with compatible coactions."""

    def __init__(self, ca: ComoduleAlgebra, space: Bimodule, rho):
        self.ca = ca
        self.space = space  # right module over ca.algebra
        self.rho = tuple(rho)  # per degree a: Mat (dim*dimH_a) x dim


def validate_relative_hopf_module(m: RelativeHopfModule) -> CheckReport:
    rep = CheckReport()
    ca = m.ca
    h = ca.hopf
    rep.extend(_coaction_laws(h, m.space.dim, m.rho), prefix="relative.")
    ident = Mat.identity(ca.algebra.field, ca.algebra.dim)
    # rho(m.a) = m[0]a[0] (x) m[1]a[1]
    bad = [(p, j) for p in h.group.elements() for j in intertwining_failures(
        m.rho[p], m.space.right,
        _twisted_right(m.space.dim, m.space.right, h.comps[p], ca.rho[p]), ident)]
    rep.add("relative.compatible", "coaction is compatible with the action",
            not bad, f"failing: {bad[:5]}" if bad else "")
    return rep


def relative_to_coring_comodule(m: RelativeHopfModule, cor: GroupCoring) -> Comodule:
    """Reindex the componentwise coaction into the induced coring's tensor
    quotient coordinates: m (x) h -> m (x)_A (1 (x) h)."""
    ca = m.ca
    ident = Mat.identity(ca.algebra.field, m.space.dim)
    rho = [kron_after(cached_tensor(m.space, cor.comps[p]).space.proj,
                      ident, _one_tensor(ca.algebra, ca.hopf.comps[p].dim)) @ m.rho[p]
           for p in cor.group.elements()]
    return Comodule(cor, m.space, rho)


def coring_comodule_to_relative(m: Comodule, ca: ComoduleAlgebra) -> RelativeHopfModule:
    """Inverse reindexing: contract the base leg of the tensor quotient,
    m (x)_A (a (x) h) -> m.a (x) h."""
    F = ca.algebra.field
    collapse = collapse_right(m.space)
    rho = [tensor_k(collapse, Mat.identity(F, ca.hopf.comps[p].dim))
           @ m.tensor(p).space.sect @ m.rho[p]
           for p in ca.hopf.group.elements()]
    return RelativeHopfModule(ca, m.space, rho)


def relative_hopf_module_check(ca: ComoduleAlgebra, modules, cor: GroupCoring) -> CheckReport:
    """Both reindexing directions on each test module, through the coring
    `cor` the comodule algebra induces."""
    rep = CheckReport()
    for idx, m in enumerate(modules):
        vrep = validate_relative_hopf_module(m)
        rep.add(f"relative[{idx}].axioms", "relative module axioms hold", vrep.ok,
                "; ".join(it.check_id for it in vrep.failures()))
        com = relative_to_coring_comodule(m, cor)
        crep = validate_comodule(com)
        rep.add(f"relative[{idx}].to-coring", "reindexed coaction is a coring comodule",
                crep.ok, "; ".join(it.check_id for it in crep.failures()))
        back = coring_comodule_to_relative(com, ca)
        rep.add(f"relative[{idx}].roundtrip", "reindexing round-trips",
                back.rho == m.rho and back.space.right == m.space.right)
    return rep


# -- the smash product description of the dual ----------------------------------------------

class SmashProduct:
    """Graded ring on dual components tensored with the base, with the
    coaction-twisted multiplication: degree p is H_{p^{-1}}^* (x) A."""

    def __init__(self, ca: ComoduleAlgebra):
        self.ca = ca
        h = ca.hopf
        g = h.group
        self.group = g
        self.field = ca.algebra.field
        self.dims = tuple(h.comps[g.inv(p)].dim * ca.algebra.dim for p in g.elements())
        # mult[(p, q)]: SP_p (x) SP_q -> SP_{pq}
        self.mul = {(p, q): self._build_mul(p, q) for p in g.elements() for q in g.elements()}
        # unit: counit of H_e (x) unit of A
        self.unit_vec = tensor_vec(self.field, h.counit.row(0), ca.algebra.unit)

    def _build_mul(self, p: int, q: int) -> Mat:
        """(x # a)(k # b) = (k(1) . x) # (k(2) . a) b, summed over the Sweedler
        parts e_s^* (x) e_t^* of k in H_{q^{-1}}^*, each with the weight
        <k, e_s e_t>.  k(1) . x is the dual of the comultiplication into
        H_{q^{-1}} (x) H_{p^{-1}} applied to e_s^* (x) x, and k(2) . a pairs
        e_t^* with the H_{q^{-1}} leg of the coaction of a."""
        ca = self.ca
        h = ca.hopf
        g = self.group
        a = ca.algebra
        F = self.field
        pinv, qinv = g.inv(p), g.inv(q)
        hp, hq = h.comps[pinv], h.comps[qinv]
        # H_{q^{-1}}^* (x) H_{p^{-1}}^* -> H_{(pq)^{-1}}^*
        dual_delta = h.delta[(qinv, pinv)].transpose()
        mult_a = a.mul_mat
        ida = Mat.identity(F, a.dim)
        # A -> A, a -> <e_t^*, a[1]> a[0] for the coaction into H_{q^{-1}}
        acted = [tensor_k(ida, Mat.from_rows(F, [hq.basis_vec(t)])) @ ca.rho[qinv]
                 for t in range(hq.dim)]
        terms = []
        for s in range(hq.dim):
            pairing = kron_after(dual_delta, Mat.col_vector(F, hq.basis_vec(s)),
                                 Mat.identity(F, hp.dim))
            for t in range(hq.dim):
                weight = Mat.from_rows(F, [hq.mul_mat.col(s * hq.dim + t)])
                terms.append(tensor_k(pairing,
                                      kron_after(mult_a, tensor_k(acted[t], weight), ida)))
        rows = self.dims[g.mul(p, q)]
        return combine(F, rows, self.dims[p] * self.dims[q], terms, [F.one] * len(terms))


def validate_smash_product(sp: SmashProduct) -> CheckReport:
    rep = CheckReport()
    unit = Mat.col_vector(sp.field, sp.unit_vec)
    triples, degrees = graded_ring_failures(sp.group, sp.mul, unit)
    rep.add("smash.associative", "multiplication associativity",
            not triples, f"failing triples: {triples[:5]}" if triples else "")
    rep.add("smash.unit", "two-sided unit",
            not degrees, f"failing degrees: {degrees}" if degrees else "")
    return rep


def smash_dual(ca: ComoduleAlgebra, r: GradedRing) -> tuple[SmashProduct, list, CheckReport]:
    """The smash product, the degreewise comparison maps onto the dual ring
    `r` of the induced coring, and the report checking they form a graded
    ring isomorphism."""
    rep = CheckReport()
    sp = SmashProduct(ca)
    g = sp.group
    F = sp.field
    a = ca.algebra
    rep.add("smash-dual.dims", "per-degree dimensions match the dual ring",
            all(sp.dims[p] == r.dim(p) for p in g.elements()),
            f"smash {sp.dims} vs dual {tuple(r.dim(p) for p in g.elements())}")
    lambdas = []
    for p in g.elements():
        hp = ca.hopf.comps[g.inv(p)]
        # e_u^* # a_i is the functional b (x) h -> <e_u^*, h> b a_i on
        # A (x) H_{p^{-1}}
        rows = vec_rows(F, a.dim * a.dim * hp.dim, [
            tensor_k(a.right_mats[i], Mat.from_rows(F, [hp.basis_vec(u)]))
            for u in range(hp.dim) for i in range(a.dim)])
        lambdas.append(r.coordinates(p, rows).transpose())
    bad = [p for p in g.elements() if not is_invertible(lambdas[p])]
    rep.add("smash-dual.bijective", "comparison maps are bijective per degree",
            not bad, f"failing degrees: {bad}" if bad else "")
    bad = graded_map_failures(g, lambdas, sp.mul, r.mul)
    rep.add("smash-dual.multiplicative",
            "comparison transports the smash multiplication to the dual product",
            not bad, f"failing pairs: {bad}" if bad else "")
    e = g.identity
    rep.add("smash-dual.unit", "comparison preserves the unit",
            lambdas[e].apply(sp.unit_vec) == r.unit_vec)
    # the base embeds as counit (x) a
    eps = ca.hopf.counit.row(0)
    bad = [j for j in range(a.dim)
           if lambdas[e].apply(tensor_vec(F, eps, a.basis_vec(j))) != r.base_map.col(j)]
    rep.add("smash-dual.base-map", "comparison is compatible with the base ring maps",
            not bad, f"failing basis: {bad}" if bad else "")
    return sp, lambdas, rep
