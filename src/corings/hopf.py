"""Group-indexed Hopf coalgebras, comodule algebras, the coring they induce,
Hopf-Galois detection, and the smash-product description of the dual ring.

Components are plain algebras over the ground field; comultiplications land
in ground-field tensor squares (no quotients needed on this layer).  The
induced coring twists the right action of the base by the coaction, turning
every statement about the comodule algebra into a coring statement.
"""

from __future__ import annotations

from dataclasses import dataclass

from corings.algebra import Algebra, Bimodule, validate_algebra
from corings.coring import GroupCoring
from corings.dualring import GradedRing
from corings.galois import GrouplikeFamily
from corings.groups import FiniteGroup
from corings.linalg import (
    Mat,
    kernel,
    rank,
    row_space,
    tensor_k,
    tensor_vec,
    unit_vec,
    vstack,
)
from corings.report import CheckReport
from corings.scalars import Field


def mult_matrix(a: Algebra) -> Mat:
    """Multiplication as a matrix A (x)k A -> A (columns i major, j minor)."""
    cols = [a.mul[i][j] for i in range(a.dim) for j in range(a.dim)]
    return Mat.from_cols(a.field, cols)


def tensor_multiply(a: Algebra, b: Algebra, x, y) -> tuple:
    """Product in A (x)k B with componentwise multiplication."""
    F = a.field
    out = [F.zero] * (a.dim * b.dim)
    for i in range(a.dim):
        for j in range(b.dim):
            cij = x[i * b.dim + j]
            if not cij:
                continue
            for k in range(a.dim):
                for l in range(b.dim):
                    dkl = y[k * b.dim + l]
                    if not dkl:
                        continue
                    coeff = F.mul(cij, dkl)
                    pa = a.mul[i][k]
                    pb = b.mul[j][l]
                    for p, va in enumerate(pa):
                        if va:
                            for q, vb in enumerate(pb):
                                if vb:
                                    idx = p * b.dim + q
                                    out[idx] = F.add(out[idx], F.mul(coeff, F.mul(va, vb)))
    return tuple(out)


# -- classical Hopf algebras --------------------------------------------------------

@dataclass(frozen=True)
class HopfAlgebra:
    algebra: Algebra
    delta: Mat     # (dim*dim) x dim
    counit: Mat    # 1 x dim
    antipode: Mat  # dim x dim


def group_hopf_algebra(field: Field, g: FiniteGroup) -> HopfAlgebra:
    """The group algebra with its standard Hopf structure: basis elements are
    grouplike and the antipode inverts."""
    n = g.order
    mul = [[tuple(field.one if k == g.mul(i, j) else field.zero for k in range(n))
            for j in range(n)] for i in range(n)]
    unit = tuple(field.one if k == 0 else field.zero for k in range(n))
    alg = Algebra(field, n, tuple(tuple(r) for r in mul), unit)
    delta_cols = []
    for i in range(n):
        col = [field.zero] * (n * n)
        col[i * n + i] = field.one
        delta_cols.append(col)
    delta = Mat.from_cols(field, delta_cols)
    counit = Mat.from_rows(field, [[field.one] * n])
    anti_cols = []
    for i in range(n):
        col = [field.zero] * n
        col[g.inv(i)] = field.one
        anti_cols.append(col)
    antipode = Mat.from_cols(field, anti_cols)
    return HopfAlgebra(alg, delta, counit, antipode)


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


def trivial_hopf(field: Field, group: FiniteGroup) -> HopfGCoalgebra:
    from corings.algebra import field_algebra

    base = field_algebra(field)
    one = Mat.identity(field, 1)
    return cofree_hopf(HopfAlgebra(base, one, one, one), group)


def validate_hopf_g_coalgebra(h: HopfGCoalgebra) -> CheckReport:
    rep = CheckReport()
    g = h.group
    F = h.field
    for a in g.elements():
        rep.extend(validate_algebra(h.comps[a]), prefix=f"component[{a}].")
    bad = []
    for a in g.elements():
        for b in g.elements():
            for c in g.elements():
                ab = g.mul(a, b)
                bc = g.mul(b, c)
                idc = Mat.identity(F, h.comps[c].dim)
                ida = Mat.identity(F, h.comps[a].dim)
                lhs = tensor_k(h.delta[(a, b)], idc) @ h.delta[(ab, c)]
                rhs = tensor_k(ida, h.delta[(b, c)]) @ h.delta[(a, bc)]
                if lhs != rhs:
                    bad.append((a, b, c))
    rep.add("hopf-g.coassociative", "comultiplication coassociativity",
            not bad, f"failing triples: {bad[:5]}" if bad else "")
    e = g.identity
    bad = []
    for a in g.elements():
        ident = Mat.identity(F, h.comps[a].dim)
        if tensor_k(ident, h.counit) @ h.delta[(a, e)] != ident:
            bad.append((a, "right"))
        if tensor_k(h.counit, ident) @ h.delta[(e, a)] != ident:
            bad.append((a, "left"))
    rep.add("hopf-g.counit", "counit laws", not bad, f"failing: {bad}" if bad else "")
    bad = []
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            ha, hb, hab = h.comps[a], h.comps[b], h.comps[ab]
            mult_ok = all(
                h.delta[(a, b)].apply(hab.multiply(hab.basis_vec(i), hab.basis_vec(j)))
                == tensor_multiply(ha, hb, h.delta[(a, b)].col(i), h.delta[(a, b)].col(j))
                for i in range(hab.dim) for j in range(hab.dim)
            )
            unit_ok = h.delta[(a, b)].apply(hab.unit) == tensor_vec(F, ha.unit, hb.unit)
            if not (mult_ok and unit_ok):
                bad.append((a, b))
    rep.add("hopf-g.delta-algebra-maps", "comultiplications are algebra maps",
            not bad, f"failing pairs: {bad}" if bad else "")
    he = h.comps[e]
    eps_ok = h.counit.apply(he.unit) == (F.one,) and all(
        h.counit.apply(he.multiply(he.basis_vec(i), he.basis_vec(j)))
        == (F.mul(h.counit.at(0, i), h.counit.at(0, j)),)
        for i in range(he.dim) for j in range(he.dim)
    )
    rep.add("hopf-g.counit-algebra-map", "counit is an algebra map", eps_ok)
    bad = []
    for a in g.elements():
        ainv = g.inv(a)
        ha = h.comps[a]
        mm = mult_matrix(ha)
        ident = Mat.identity(F, ha.dim)
        lhs1 = mm @ tensor_k(h.antipode[a], ident) @ h.delta[(ainv, a)]
        lhs2 = mm @ tensor_k(ident, h.antipode[a]) @ h.delta[(a, ainv)]
        unit_eps = Mat.from_cols(F, [tuple(F.mul(h.counit.at(0, i), u) for u in ha.unit)
                                     for i in range(he.dim)])
        if lhs1 != unit_eps or lhs2 != unit_eps:
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


def validate_comodule_algebra(ca: ComoduleAlgebra) -> CheckReport:
    rep = CheckReport()
    a = ca.algebra
    h = ca.hopf
    g = h.group
    F = a.field
    bad = []
    for p in g.elements():
        for q in g.elements():
            pq = g.mul(p, q)
            ida = Mat.identity(F, a.dim)
            idq = Mat.identity(F, h.comps[q].dim)
            lhs = tensor_k(ida, h.delta[(p, q)]) @ ca.rho[pq]
            rhs = tensor_k(ca.rho[p], idq) @ ca.rho[q]
            if lhs != rhs:
                bad.append((p, q))
    rep.add("comodule-algebra.coassociative", "coaction coassociativity",
            not bad, f"failing pairs: {bad}" if bad else "")
    e = g.identity
    rep.add("comodule-algebra.counit", "counit law",
            tensor_k(Mat.identity(F, a.dim), h.counit) @ ca.rho[e] == Mat.identity(F, a.dim))
    bad = []
    for p in g.elements():
        hp = h.comps[p]
        mult_ok = all(
            ca.rho[p].apply(a.multiply(a.basis_vec(i), a.basis_vec(j)))
            == tensor_multiply(a, hp, ca.rho[p].col(i), ca.rho[p].col(j))
            for i in range(a.dim) for j in range(a.dim)
        )
        unit_ok = ca.rho[p].apply(a.unit) == tensor_vec(F, a.unit, hp.unit)
        if not (mult_ok and unit_ok):
            bad.append(p)
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
    F = a.field
    rho = []
    for p in h.group.elements():
        cols = [tensor_vec(F, a.basis_vec(i), h.comps[p].unit) for i in range(a.dim)]
        rho.append(Mat.from_cols(F, cols))
    return ComoduleAlgebra(a, h, rho)


# -- the induced coring --------------------------------------------------------------------

def coring_from_comodule_algebra(ca: ComoduleAlgebra) -> tuple[GroupCoring, GrouplikeFamily]:
    """Components base (x) H_a, right action twisted by the coaction; the
    family of tensor units is grouplike."""
    a = ca.algebra
    h = ca.hopf
    g = h.group
    F = a.field
    comps = []
    for p in g.elements():
        hp = h.comps[p]
        dim = a.dim * hp.dim
        left = tuple(tensor_k(L, Mat.identity(F, hp.dim)) for L in a.left_mats)
        right = []
        for j in range(a.dim):
            v = ca.rho[p].col(j)
            acc = Mat.zeros(F, dim, dim)
            for pi in range(a.dim):
                for qi in range(hp.dim):
                    coeff = v[pi * hp.dim + qi]
                    if coeff:
                        acc = acc + tensor_k(a.right_mats[pi], hp.right_mats[qi]).scale(coeff)
            right.append(acc)
        comps.append(Bimodule(a, dim, left, tuple(right)))
    cor = GroupCoring(g, a, comps, {}, tensor_k(Mat.identity(F, a.dim), h.counit))
    for p in g.elements():
        for q in g.elements():
            pq = g.mul(p, q)
            t = cor.tensor(p, q)
            hp_dim = h.comps[p].dim
            hq_dim = h.comps[q].dim
            cols = []
            for i in range(a.dim):
                for m in range(h.comps[pq].dim):
                    dcol = h.delta[(p, q)].col(m)
                    vec = [F.zero] * t.space.ambient_dim
                    for u in range(hp_dim):
                        for v in range(hq_dim):
                            coeff = dcol[u * hq_dim + v]
                            if coeff:
                                first = [F.zero] * (a.dim * hp_dim)
                                first[i * hp_dim + u] = coeff
                                second = [F.zero] * (a.dim * hq_dim)
                                for k, unit_c in enumerate(a.unit):
                                    if unit_c:
                                        second[k * hq_dim + v] = unit_c
                                pure = tensor_vec(F, tuple(first), tuple(second))
                                vec = [F.add(xx, yy) for xx, yy in zip(vec, pure)]
                    cols.append(t.space.project(vec))
            cor.delta[(p, q)] = Mat.from_cols(F, cols)
    vectors = tuple(tensor_vec(F, a.unit, h.comps[p].unit) for p in g.elements())
    return cor, GrouplikeFamily(cor, vectors)


def invariant_subalgebra(ca: ComoduleAlgebra) -> Mat:
    """Basis rows of elements with trivial coaction in every degree."""
    a = ca.algebra
    F = a.field
    rows = []
    for p in ca.hopf.group.elements():
        unit_embed = Mat.from_cols(F, [
            tensor_vec(F, a.basis_vec(i), ca.hopf.comps[p].unit) for i in range(a.dim)
        ])
        rows.append(ca.rho[p] - unit_embed)
    return kernel(vstack(rows))


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
    g = h.group
    F = ca.algebra.field
    bad = []
    for p in g.elements():
        for q in g.elements():
            pq = g.mul(p, q)
            idm = Mat.identity(F, m.space.dim)
            idq = Mat.identity(F, h.comps[q].dim)
            if tensor_k(idm, h.delta[(p, q)]) @ m.rho[pq] != tensor_k(m.rho[p], idq) @ m.rho[q]:
                bad.append((p, q))
    rep.add("relative.coassociative", "coaction coassociativity",
            not bad, f"failing pairs: {bad}" if bad else "")
    e = g.identity
    rep.add("relative.counit", "counit law",
            tensor_k(Mat.identity(F, m.space.dim), h.counit) @ m.rho[e]
            == Mat.identity(F, m.space.dim))
    bad = []
    for p in g.elements():
        hp = h.comps[p]
        for j in range(ca.algebra.dim):
            # rho(m.a) = m[0]a[0] (x) m[1]a[1]
            lhs = m.rho[p] @ m.space.right[j]
            acol = ca.rho[p].col(j)
            acc = Mat.zeros(F, m.space.dim * hp.dim, m.space.dim * hp.dim)
            for pi in range(ca.algebra.dim):
                for qi in range(hp.dim):
                    coeff = acol[pi * hp.dim + qi]
                    if coeff:
                        acc = acc + tensor_k(m.space.right[pi], hp.right_mats[qi]).scale(coeff)
            if lhs != acc @ m.rho[p]:
                bad.append((p, j))
    rep.add("relative.compatible", "coaction is compatible with the action",
            not bad, f"failing: {bad[:5]}" if bad else "")
    return rep


def relative_to_coring_comodule(m: RelativeHopfModule, cor: GroupCoring):
    """Reindex the componentwise coaction into the induced coring's tensor
    quotient coordinates."""
    from corings.comodules import Comodule

    ca = m.ca
    F = ca.algebra.field
    out = Comodule(cor, m.space, [None] * cor.group.order)
    rho = []
    for p in cor.group.elements():
        t = out.tensor(p)
        hp = ca.hopf.comps[p]
        cols = []
        for i in range(m.space.dim):
            v = m.rho[p].col(i)
            vec = [F.zero] * t.space.ambient_dim
            for mi in range(m.space.dim):
                for qi in range(hp.dim):
                    coeff = v[mi * hp.dim + qi]
                    if coeff:
                        second = [F.zero] * (ca.algebra.dim * hp.dim)
                        for k, unit_c in enumerate(ca.algebra.unit):
                            if unit_c:
                                second[k * hp.dim + qi] = F.mul(unit_c, coeff)
                        pure = tensor_vec(F, unit_vec(F, m.space.dim, mi), tuple(second))
                        vec = [F.add(xx, yy) for xx, yy in zip(vec, pure)]
            cols.append(t.space.project(vec))
        rho.append(Mat.from_cols(F, cols))
    out.rho = tuple(rho)
    return out


def coring_comodule_to_relative(m, ca: ComoduleAlgebra) -> RelativeHopfModule:
    """Inverse reindexing: contract the base leg of the tensor quotient."""
    F = ca.algebra.field
    rho = []
    for p in ca.hopf.group.elements():
        hp = ca.hopf.comps[p]
        t = m.tensor(p)
        # M (x)_A (A (x) H) -> M (x) H: m (x) (a (x) h) -> m.a (x) h
        cols = []
        for i in range(m.space.dim):
            for k in range(ca.algebra.dim):
                for qi in range(hp.dim):
                    moved = m.space.right_act(ca.algebra.basis_vec(k)).col(i)
                    cols.append(tensor_vec(F, moved, unit_vec(F, hp.dim, qi)))
        collapse = Mat.from_cols(F, cols)
        rho.append(collapse @ t.space.sect @ m.rho[p])
    return RelativeHopfModule(ca, m.space, rho)


def relative_hopf_module_check(ca: ComoduleAlgebra, modules, cor: GroupCoring) -> CheckReport:
    """Both reindexing directions on each test module, through the coring
    `cor` the comodule algebra induces."""
    from corings.comodules import validate_comodule

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
    coaction-twisted multiplication."""

    def __init__(self, ca: ComoduleAlgebra):
        self.ca = ca
        h = ca.hopf
        g = h.group
        a = ca.algebra
        F = a.field
        self.group = g
        self.field = F
        self.dims = tuple(h.comps[g.inv(p)].dim * a.dim for p in g.elements())
        # mult[(p, q)]: SP_p (x) SP_q -> SP_{pq}
        self.mul = {}
        for p in g.elements():
            for q in g.elements():
                self.mul[(p, q)] = self._build_mul(p, q)
        e = g.identity
        he = h.comps[e]
        # unit: counit of H_e (x) unit of A
        eps_vec = tuple(h.counit.at(0, i) for i in range(he.dim))
        self.unit_vec = tensor_vec(F, eps_vec, a.unit)

    def _build_mul(self, p: int, q: int) -> Mat:
        ca = self.ca
        h = ca.hopf
        g = self.group
        a = ca.algebra
        F = self.field
        pinv, qinv = g.inv(p), g.inv(q)
        pq = g.mul(p, q)
        hp, hq = h.comps[pinv], h.comps[qinv]
        hpq = h.comps[g.inv(pq)]
        # pairing data: delta of H_{(pq)^{-1}} into H_{q^{-1}} (x) H_{p^{-1}}
        dd = h.delta[(qinv, pinv)]
        # comultiplication of the dual component K_q = H_{q^{-1}}^*: transpose of mult
        mm_q = mult_matrix(hq)
        cols = []
        for hu in range(hp.dim):
            for ai in range(a.dim):
                for kv in range(hq.dim):
                    for bj in range(a.dim):
                        # (delta_u^* # e_ai)(delta_v^* # e_bj)
                        # = (k(1)* . h*) # (k(2)* . a) b over Sweedler parts of k*
                        out = [F.zero] * (hpq.dim * a.dim)
                        # Sweedler parts of delta_v^*: <k(1)*, x><k(2)*, y> = <k*, xy>
                        for s in range(hq.dim):
                            for t_ in range(hq.dim):
                                coeff_split = mm_q.at(kv, s * hq.dim + t_)
                                if not coeff_split:
                                    continue
                                # action part: k(2)* . e_ai = <delta_t*, a[1,q^{-1}]> a[0]
                                acted = [F.zero] * a.dim
                                acol = ca.rho[qinv].col(ai)
                                for mi in range(a.dim):
                                    cval = acol[mi * hq.dim + t_]
                                    if cval:
                                        acted[mi] = F.add(acted[mi], cval)
                                if not any(acted):
                                    continue
                                coeff_a = a.multiply(tuple(acted), a.basis_vec(bj))
                                # product part: (delta_s* ? delta_hu*) on H_{(pq)^{-1}}:
                                # <prod, h> = <delta_s*, h(1,q^{-1})><delta_hu*, h(2,p^{-1})>
                                for w in range(hpq.dim):
                                    pair_val = dd.at(s * hp.dim + hu, w)
                                    if pair_val:
                                        for z, av in enumerate(coeff_a):
                                            if av:
                                                idx = w * a.dim + z
                                                out[idx] = F.add(
                                                    out[idx],
                                                    F.mul(coeff_split, F.mul(pair_val, av)))
                        cols.append(tuple(out))
        return Mat.from_cols(F, cols)


def validate_smash_product(sp: SmashProduct) -> CheckReport:
    rep = CheckReport()
    g = sp.group
    F = sp.field
    bad = []
    for p in g.elements():
        for q in g.elements():
            for r in g.elements():
                pq = g.mul(p, q)
                qr = g.mul(q, r)
                lhs = sp.mul[(pq, r)] @ tensor_k(sp.mul[(p, q)], Mat.identity(F, sp.dims[r]))
                rhs = sp.mul[(p, qr)] @ tensor_k(Mat.identity(F, sp.dims[p]), sp.mul[(q, r)])
                if lhs != rhs:
                    bad.append((p, q, r))
    rep.add("smash.associative", "multiplication associativity",
            not bad, f"failing triples: {bad[:5]}" if bad else "")
    e = g.identity
    bad = []
    for p in g.elements():
        ident = Mat.identity(F, sp.dims[p])
        left = Mat.from_cols(F, [
            sp.mul[(e, p)].apply(tensor_vec(F, sp.unit_vec, unit_vec(F, sp.dims[p], u)))
            for u in range(sp.dims[p])
        ])
        right = Mat.from_cols(F, [
            sp.mul[(p, e)].apply(tensor_vec(F, unit_vec(F, sp.dims[p], u), sp.unit_vec))
            for u in range(sp.dims[p])
        ])
        if left != ident or right != ident:
            bad.append(p)
    rep.add("smash.unit", "two-sided unit", not bad, f"failing degrees: {bad}" if bad else "")
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
    lambdas = []
    ok_dims = True
    for p in g.elements():
        if sp.dims[p] != r.dim(p):
            ok_dims = False
    rep.add("smash-dual.dims", "per-degree dimensions match the dual ring", ok_dims,
            f"smash {sp.dims} vs dual {tuple(r.dim(p) for p in g.elements())}")
    for p in g.elements():
        pinv = g.inv(p)
        hp = ca.hopf.comps[pinv]
        cols = []
        for hu in range(hp.dim):
            for ai in range(a.dim):
                # functional on A (x) H_{p^{-1}}: b (x) h -> <delta_hu, h> b a_i
                func_cols = []
                for bi in range(a.dim):
                    prod = a.multiply(a.basis_vec(bi), a.basis_vec(ai))
                    for hv in range(hp.dim):
                        func_cols.append(tuple(prod) if hv == hu else (F.zero,) * a.dim)
                func = Mat.from_cols(F, func_cols)
                cols.append(r.coords(p, func))
        lambdas.append(Mat.from_cols(F, cols))
    bad = [p for p in g.elements()
           if lambdas[p].rows != lambdas[p].cols or rank(lambdas[p]) != lambdas[p].rows]
    rep.add("smash-dual.bijective", "comparison maps are bijective per degree",
            not bad, f"failing degrees: {bad}" if bad else "")
    bad = []
    for p in g.elements():
        for q in g.elements():
            pq = g.mul(p, q)
            lhs = r.mul[(p, q)] @ tensor_k(lambdas[p], lambdas[q])
            rhs = lambdas[pq] @ sp.mul[(p, q)]
            if lhs != rhs:
                bad.append((p, q))
    rep.add("smash-dual.multiplicative",
            "comparison transports the smash multiplication to the dual product",
            not bad, f"failing pairs: {bad}" if bad else "")
    e = g.identity
    rep.add("smash-dual.unit", "comparison preserves the unit",
            lambdas[e].apply(sp.unit_vec) == r.unit_vec)
    bad = []
    he = ca.hopf.comps[g.inv(e)]
    eps_vec = tuple(ca.hopf.counit.at(0, i) for i in range(he.dim))
    for j in range(a.dim):
        # embedding of the base: counit functional (x) a
        smash_j = tensor_vec(F, eps_vec, a.basis_vec(j))
        if lambdas[e].apply(smash_j) != r.base_map.col(j):
            bad.append(j)
    rep.add("smash-dual.base-map", "comparison is compatible with the base ring maps",
            not bad, f"failing basis: {bad}" if bad else "")
    return sp, lambdas, rep
