"""The left dual graded ring of a group coring and the functors linking
comodule categories to (graded) module categories.

Degree a of the dual ring consists of the left-linear functionals on the
component of degree a^{-1}, multiplied by dualizing comultiplication.  All
elements are stored as coordinate vectors over the solved functional
bases, with multiplication precomputed into structure constants at
construction time.

Graded rings and graded modules share one statement of their laws per
degree (`graded_action_failures`), and graded ring maps one statement of
multiplicativity (`graded_map_failures`); a module over the packed ring
is checked as its regrading read at the identity tag.

A packed graded ring (`GradedAlgebra`) is a plain algebra and the number
of its basis elements in each degree, nothing more: its degree blocks, as
every block layout of the library, are placed by `linalg.block_matrix`
and read by `linalg.hsplit`.
"""

from __future__ import annotations

from dataclasses import dataclass

from corings.algebra import (
    Algebra,
    Bimodule,
    MissingDualBasis,
    TensorProduct,
    algebra_map_failures,
    cached_tensor,
    cached_triple,
    collapse_left,
    collapse_right,
    contract_right,
    differing_columns,
    direct_sum_bimodule,
    find_dual_basis,
    left_dual,
)
from corings.comodules import Comodule, GComodule, pack_gcomodule
from corings.coring import (
    CofreeWitness,
    GroupCoring,
    GroupCoringMorphism,
    MissingCofreeWitness,
)
from corings.groups import FiniteGroup
from corings.linalg import (
    LinearSystem,
    Mat,
    block_matrix,
    combine,
    interleave,
    is_invertible,
    kron_after,
    regroup,
    rowspace_coords,
    span_coords,
    tensor_k,
    vec_rows,
    vstack,
)
from corings.report import CheckReport
from corings.scalars import Field


# -- graded algebras (packed graded rings over the ground field) -----------------

@dataclass(frozen=True)
class GradedAlgebra:
    """A plain algebra together with a block grading by group degree: the
    dims[a] basis elements of degree a come after those of the degrees
    before a.  The blocks are placed with `linalg.block_matrix` and read
    with `linalg.hsplit`, as every degree-block layout is."""

    group: FiniteGroup
    algebra: Algebra
    dims: tuple

    @classmethod
    def from_products(cls, field: Field, group: FiniteGroup, dims, product,
                      unit) -> "GradedAlgebra":
        """The graded algebra with dims[a] basis elements of degree a whose
        product of degrees a and b is the matrix product(a, b), of shape
        dims[ab] x (dims[a] * dims[b]) with column i * dims[b] + j holding
        e_i e_j, and whose unit is `unit` in the identity degree."""
        g, dims = group, tuple(dims)
        n = sum(dims)
        # the product of degrees a and b, placed in degree ab, read at the
        # degree-a and degree-b coordinates of packed vectors
        proj = [block_matrix(field, [d], dims, {(0, a): Mat.identity(field, d)})
                for a, d in enumerate(dims)]
        terms = [kron_after(block_matrix(field, dims, [dims[a] * dims[b]],
                                         {(g.mul(a, b), 0): product(a, b)}), proj[a], proj[b])
                 for a in g.elements() for b in g.elements()]
        mul = combine(field, n, n * n, terms, [field.one] * len(terms))
        unit = block_matrix(field, dims, [1], {(g.identity, 0): Mat.col_vector(field, unit)})
        return cls(g, Algebra(field, n, mul, unit.col(0)), dims)


def group_ring(base: Algebra, group: FiniteGroup) -> GradedAlgebra:
    """base[G]: one copy of base per degree, (x u_a)(y u_b) = xy u_{ab}."""
    return GradedAlgebra.from_products(base.field, group, [base.dim] * group.order,
                                       lambda a, b: base.mul_mat, base.unit)


# -- the dual graded ring -----------------------------------------------------------

class GradedRing:
    """Left dual of a group coring: functionals graded by inverse degree."""

    def __init__(self, coring: GroupCoring):
        self.coring = coring
        self.group = coring.group
        self.base = coring.base
        g = self.group
        # per degree a: the left dual of C_{a^-1}, its functionals and the
        # rows vec(f) to solve for their coordinates in
        self.comps, self.functionals, self._func_bases = zip(
            *(left_dual(coring.comps[g.inv(a)]) for a in g.elements()))
        F = self.base.field
        # legs[(a, b)]: per functional f of degree a, the first
        # comultiplication leg C_{(ab)^{-1}} -> C_{b^{-1}}, c -> c_(1) f(c_(2))
        self.legs = {}
        self.mul = {}
        for a in g.elements():
            for b in g.elements():
                self.legs[(a, b)] = self._first_legs(a, b)
                self.mul[(a, b)] = self._build_mul(a, b)
        e = g.identity
        self.unit_vec = self.coordinates(e, vec_rows(F, self._func_bases[e].cols, [coring.counit])).row(0)
        # column j: the coordinates of i(e_j) = e_j . counit
        self.base_map = self.coordinates(e, vec_rows(F, self._func_bases[e].cols, [
            right @ coring.counit for right in self.base.right_mats])).transpose()
        self._packed = None
        self._regrouped = {}

    # element handling ------------------------------------------------------

    def coordinates(self, a: int, rows: Mat) -> Mat:
        """The coordinates of degree-a functionals given as the rows vec(f),
        one row each, in one solve."""
        return span_coords(self._func_bases[a], rows, "functional outside the solved dual basis")

    def precomposed(self, a: int, m: Mat) -> Mat:
        """The rows vec(f o m) for the functionals f of degree a, in one
        pass over the rows vec(f) of the solved basis: vec(X Y) =
        vec(X) (I (x) Y) for the row-major vec."""
        return kron_after(self._func_bases[a], Mat.identity(self.base.field, self.base.dim), m)

    def _first_legs(self, a: int, b: int) -> tuple:
        g = self.group
        c = self.coring
        ainv, binv = g.inv(a), g.inv(b)
        lift = c.delta_left_lift(binv, ainv)  # C_{(ab)^{-1}} -> C_{b^-1} (x)k C_{a^-1}
        return tuple(contract_right(c.comps[binv], f) @ lift
                     for f in self.functionals[a])

    def _build_mul(self, a: int, b: int) -> Mat:
        """Column u * dim(b) + v: the coordinates of f_u f_v = f_v o leg_u,
        from one product per leg with the functionals of degree b stacked
        and one solve for all of them."""
        ab = self.group.mul(a, b)
        # row u * dim(b) + v: vec(f_v o leg_u)
        rows = [self.precomposed(b, leg) for leg in self.legs[(a, b)]]
        rows = vstack(rows) if rows else Mat.zeros(self.base.field, 0, self._func_bases[ab].cols)
        return self.coordinates(ab, rows).transpose()

    def dim(self, a: int) -> int:
        return self.comps[a].dim

    def regrouped(self, b: int, d: int) -> Mat:
        """`linalg.regroup` of the product R_b (x) R_d -> R_{bd}, kept on the
        ring: its block u is the transpose of left multiplication by basis
        element u of degree b."""
        if (b, d) not in self._regrouped:
            self._regrouped[(b, d)] = regroup(self.mul[(b, d)], self.dim(b), self.dim(d))
        return self._regrouped[(b, d)]

    def packed(self) -> GradedAlgebra:
        if self._packed is None:
            g = self.group
            self._packed = GradedAlgebra.from_products(
                self.base.field, g, [self.dim(a) for a in g.elements()],
                lambda a, b: self.mul[(a, b)], self.unit_vec)
        return self._packed


def dual_ring(c: GroupCoring) -> GradedRing:
    return GradedRing(c)


def validate_graded_ring(r: GradedRing) -> CheckReport:
    rep = CheckReport()
    g = r.group
    F = r.base.field
    e = g.identity
    ident = [Mat.identity(F, r.dim(a)) for a in g.elements()]
    triples, degrees = graded_ring_failures(g, r.mul, Mat.col_vector(F, r.unit_vec))
    rep.add("dual-ring.associative", "product associativity on all degree triples",
            not triples, f"failing triples: {triples[:5]}" if triples else "")
    rep.add("dual-ring.unit", "the counit is a two-sided unit",
            not degrees, f"failing degrees: {degrees}" if degrees else "")
    bad = algebra_map_failures(r.base_map, r.base.mul_mat, r.mul[(e, e)])
    rep.add("dual-ring.base-map", "the base ring map is multiplicative",
            not bad, f"failing pairs: {bad}" if bad else "")
    rep.add("dual-ring.base-map-unit", "the base ring map preserves the unit",
            r.base_map.apply(r.base.unit) == r.unit_vec)
    bad = []
    for a in g.elements():
        # e_j.f = i(e_j) # f on A (x) R_a, column j * dim(a) + v, and
        # f.e_j = f # i(e_j) on R_a (x) A, column v * dim(A) + j
        left = {t // r.dim(a) for t in differing_columns(
            kron_after(r.mul[(e, a)], r.base_map, ident[a]), collapse_left(r.comps[a]))}
        right = {t % r.base.dim for t in differing_columns(
            kron_after(r.mul[(a, e)], ident[a], r.base_map), collapse_right(r.comps[a]))}
        bad += [(a, j) for j in sorted(left | right)]
    rep.add("dual-ring.bimodule-compat",
            "base actions agree with multiplication through the base map",
            not bad, f"failing: {bad[:5]}" if bad else "")
    return rep


def graded_action_failures(g: FiniteGroup, act, mul, unit: Mat, a: int) -> tuple[list, bool]:
    """The laws on degree a of a graded action act[(x, y)]: M_x (x)k R_y ->
    M_{xy} of the graded ring with product mul and unit column `unit`: the
    pairs (b, c), b major, where act_{ab,c} (act_{a,b} (x) R_c) and
    act_{a,bc} (M_a (x) mul_{b,c}) differ, and whether act_{a,e} (M_a (x)
    unit) is the identity.  With act = mul it checks the ring over itself."""
    F = unit.field
    e = g.identity
    # act_{a,e} lands in M_a and mul_{c,e} in R_c
    ident = Mat.identity(F, act[(a, e)].rows)
    bad = [(b, c) for b in g.elements() for c in g.elements()
           if kron_after(act[(g.mul(a, b), c)], act[(a, b)], Mat.identity(F, mul[(c, e)].rows))
           != kron_after(act[(a, g.mul(b, c))], ident, mul[(b, c)])]
    return bad, kron_after(act[(a, e)], ident, unit) == ident


def graded_ring_failures(g: FiniteGroup, mul, unit: Mat) -> tuple[list, list]:
    """The laws of the graded ring with product mul and unit column `unit`
    (`graded_action_failures` of the ring over itself): the triples (a, b,
    c), a major, where the product does not associate, and the degrees a
    where the unit is not a two-sided unit on R_a."""
    e = g.identity
    fails = [graded_action_failures(g, mul, mul, unit, a) for a in g.elements()]
    triples = [(a, b, c) for a in g.elements() for b, c in fails[a][0]]
    ident = [Mat.identity(unit.field, mul[(a, e)].rows) for a in g.elements()]
    degrees = [a for a in g.elements()
               if not fails[a][1] or kron_after(mul[(e, a)], unit, ident[a]) != ident[a]]
    return triples, degrees


def graded_map_failures(g: FiniteGroup, maps, src_mul, dst_mul) -> list:
    """The pairs (a, b), a major, where the degreewise maps maps[a] do not
    carry the product src_mul[(a, b)] to dst_mul[(a, b)]: f_{ab} src_mul_{a,b}
    against dst_mul_{a,b} (f_a (x) f_b)."""
    return [(a, b) for a in g.elements() for b in g.elements()
            if maps[g.mul(a, b)] @ src_mul[(a, b)] != kron_after(dst_mul[(a, b)], maps[a], maps[b])]


# -- duals of coring morphisms ----------------------------------------------------

@dataclass(frozen=True)
class GradedRingMorphism:
    src: GradedRing
    dst: GradedRing
    maps: tuple  # per degree a: Mat dst.dim(a) x src.dim(a)


def dual_morphism(f: GroupCoringMorphism, r_dst: GradedRing) -> GradedRingMorphism:
    """Left dual of a coring morphism: reverses direction degreewise by
    precomposition with the inverse-degree component.  `r_dst` is the dual
    ring of f.dst."""
    r_src = dual_ring(f.src)
    g = f.src.group
    maps = tuple(r_src.coordinates(a, r_dst.precomposed(a, f.maps[g.inv(a)])).transpose()
                 for a in g.elements())
    return GradedRingMorphism(r_dst, r_src, maps)


def validate_graded_ring_morphism(m: GradedRingMorphism) -> CheckReport:
    rep = CheckReport()
    g = m.src.group
    bad = graded_map_failures(g, m.maps, m.src.mul, m.dst.mul)
    rep.add("morphism.multiplicative", "preserves the graded product",
            not bad, f"failing pairs: {bad}" if bad else "")
    e = g.identity
    rep.add("morphism.unit", "preserves the unit",
            m.maps[e].apply(m.src.unit_vec) == m.dst.unit_vec)
    return rep


def is_graded_ring_iso(m: GradedRingMorphism) -> bool:
    return all(is_invertible(m.maps[a]) for a in m.src.group.elements())


# -- graded modules ------------------------------------------------------------------

class GradedModule:
    """Family of right modules with a degree-paired action of the dual ring."""

    def __init__(self, ring: GradedRing, comps, act):
        self.ring = ring
        self.comps = tuple(comps)
        self.act = dict(act)  # (a, b) -> Mat: M_a (x)k R_b -> M_{ab}
        self._regrouped = {}

    def regrouped(self, a: int, d: int) -> Mat:
        """`linalg.regroup` of the action M_a (x) R_d -> M_{ad}, kept on the
        module: its block i is the transpose of r -> m_i . r on R_d."""
        if (a, d) not in self._regrouped:
            self._regrouped[(a, d)] = regroup(self.act[(a, d)], self.comps[a].dim,
                                              self.ring.dim(d))
        return self._regrouped[(a, d)]


def validate_graded_module(m: GradedModule) -> CheckReport:
    rep = CheckReport()
    r = m.ring
    g = r.group
    F = r.base.field
    fails = [graded_action_failures(g, m.act, r.mul, Mat.col_vector(F, r.unit_vec), a)
             for a in g.elements()]
    bad = [a for a in g.elements() if not fails[a][1]]
    rep.add("graded-module.unit", "the unit acts as the identity",
            not bad, f"failing degrees: {bad}" if bad else "")
    bad = [(a, b, c) for a in g.elements() for b, c in fails[a][0]]
    rep.add("graded-module.associative", "action associativity on degree triples",
            not bad, f"failing triples: {bad[:5]}" if bad else "")
    n, bad = r.base.dim, []
    for a in g.elements():
        for b in g.elements():
            act, ident_a = m.act[(a, b)], Mat.identity(F, m.comps[a].dim)
            # on M_a (x) A (x) R_b, column (i * n + j) * dim(b) + v:
            # act(m_i . e_j (x) r_v) against act(m_i (x) e_j . r_v)
            balance = {t // r.dim(b) % n for t in differing_columns(
                kron_after(act, collapse_right(m.comps[a]), Mat.identity(F, r.dim(b))),
                kron_after(act, ident_a, collapse_left(r.comps[b])))}
            # on M_a (x) R_b (x) A, column (i * dim(b) + v) * n + j:
            # act(m_i (x) r_v . e_j) against act(m_i (x) r_v) . e_j
            linear = {t % n for t in differing_columns(
                kron_after(act, ident_a, collapse_right(r.comps[b])),
                kron_after(collapse_right(m.comps[g.mul(a, b)]), act, Mat.identity(F, n)))}
            bad += [(a, b, j, kind) for j in range(n)
                    for kind, failing in (("balance", balance), ("linear", linear)) if j in failing]
    rep.add("graded-module.balanced", "action is balanced and right-linear over the base",
            not bad, f"failing: {bad[:5]}" if bad else "")
    return rep


def graded_modules_equal(m1: GradedModule, m2: GradedModule) -> bool:
    if len(m1.comps) != len(m2.comps):
        return False
    for a in range(len(m1.comps)):
        if m1.comps[a].dim != m2.comps[a].dim or m1.comps[a].right != m2.comps[a].right:
            return False
    return m1.act == m2.act


# -- modules over the packed ring ------------------------------------------------------

class RModule:
    """Right module over the packed dual ring, action stored per degree."""

    def __init__(self, ring: GradedRing, module: Bimodule, act):
        self.ring = ring
        self.module = module  # right module over the base algebra
        self.act = dict(act)  # a -> Mat: M (x)k R_a -> M


def validate_rmodule(m: RModule) -> CheckReport:
    """The laws of m as those of its regrading at the identity tag."""
    rep = CheckReport()
    r = m.ring
    g = r.group
    bad, unit_ok = graded_action_failures(g, induce_grading(m).act, r.mul,
                                          Mat.col_vector(r.base.field, r.unit_vec), g.identity)
    rep.add("module.unit", "the unit acts as the identity", unit_ok)
    rep.add("module.associative", "action associativity on degree pairs",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep


def rmodules_equal(m1: RModule, m2: RModule) -> bool:
    return (m1.module.dim == m2.module.dim and m1.module.right == m2.module.right
            and m1.act == m2.act)


# -- the functors -----------------------------------------------------------------------

def _dual_action(t: TensorProduct, rho: Mat, r: GradedRing, b: int) -> Mat:
    """M (x)k R_b -> N, m (x) f -> m_(0) f(m_(1)), for a coaction
    rho: M -> N (x)_A C_{b^{-1}} landing in t = N (x)_A C_{b^{-1}}; column
    i * dim(b) + u holds the contraction of rho(e_i) by functional u."""
    F = r.base.field
    # the evaluation C_{b^{-1}} (x)k R_b -> A, c (x) f -> f(c)
    pairing = interleave(F, r.base.dim, r.functionals[b])
    ident = Mat.identity(F, r.dim(b))
    return kron_after(contract_right(t.left, pairing), t.space.sect @ rho, ident)


def gcomodule_to_graded(m: GComodule, r: GradedRing) -> GradedModule:
    """Action m.f = (value of the inverse-degree coaction contracted by f)."""
    g = m.coring.group
    act = {}
    for a in g.elements():
        for b in g.elements():
            ab, binv = g.mul(a, b), g.inv(b)
            act[(a, b)] = _dual_action(m.tensor(ab, binv), m.rho[(ab, binv)], r, b)
    return GradedModule(r, tuple(m.comps), act)


def _dual_basis_tensors(c: GroupCoring, r: GradedRing) -> dict:
    """Per degree b, the dual basis of C_b as the tensor D_b = sum_s f_s (x)
    c_s in R_{b^{-1}} (x)_k C_b, with f_s in dual-ring coordinates: the
    column vec(sum_s f_s c_s^T)."""
    g = c.group
    F = c.base.field
    out = {}
    for b in g.elements():
        db = find_dual_basis(c.comps[b])
        if db is None:
            raise MissingDualBasis(f"component {b} has no dual basis")
        binv = g.inv(b)
        funcs = r.coordinates(binv, vec_rows(F, c.base.dim * c.comps[b].dim,
                                             [f for f, _ in db.pairs])).transpose()
        vecs = Mat._from_cols(F, [v for _, v in db.pairs], c.comps[b].dim)
        out[b] = vec_rows(F, r.dim(binv) * c.comps[b].dim, [funcs @ vecs.transpose()]).transpose()
    return out


def graded_to_gcomodule(m: GradedModule, c: GroupCoring) -> GComodule:
    """Inverse construction through dual bases of the components:
    rho(m) = sum_s m.f_s (x) c_s."""
    g = c.group
    F = c.base.field
    tensors = _dual_basis_tensors(c, m.ring)
    rho = {}
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            # m (x) D_b -> (m.f_s) (x) c_s, then onto the quotient
            proj = cached_tensor(m.comps[a], c.comps[b]).space.proj
            acted = kron_after(proj, m.act[(ab, g.inv(b))], Mat.identity(F, c.comps[b].dim))
            rho[(a, b)] = kron_after(acted, Mat.identity(F, m.comps[ab].dim), tensors[b])
    return GComodule(c, m.comps, rho)


def comodule_to_module(m: Comodule, r: GradedRing) -> RModule:
    """Total action of the packed dual ring on a comodule."""
    g = m.coring.group
    act = {a: _dual_action(m.tensor(g.inv(a)), m.rho[g.inv(a)], r, a) for a in g.elements()}
    return RModule(r, m.space, act)


def forget_grading(m: GradedModule) -> RModule:
    g = m.ring.group
    F = m.ring.base.field
    total, _, _ = direct_sum_bimodule([mm.with_trivial_left() for mm in m.comps])
    dims = [mm.dim for mm in m.comps]
    act = {b: block_matrix(F, dims, [d * m.ring.dim(b) for d in dims],
                           {(g.mul(a, b), a): m.act[(a, b)] for a in g.elements()})
           for b in g.elements()}
    return RModule(m.ring, total, act)


def induce_grading(m: RModule) -> GradedModule:
    g = m.ring.group
    comps = tuple(m.module for _ in g.elements())
    act = {(a, b): m.act[b] for a in g.elements() for b in g.elements()}
    return GradedModule(m.ring, comps, act)


def check_functor_square(families, singles, r: GradedRing) -> CheckReport:
    """Pack-then-dualize equals dualize-then-forget, on both sides, for
    pairs (family, its graded module) and (comodule, the graded module of
    its replicate) that the caller built with `gcomodule_to_graded`."""
    rep = CheckReport()
    for idx, (gm, graded) in enumerate(families):
        packed, _, _ = pack_gcomodule(gm)
        lhs = comodule_to_module(packed, r)
        rep.add(f"square.family[{idx}]",
                "packing then dualizing equals dualizing then forgetting the grading",
                rmodules_equal(lhs, forget_grading(graded)))
    for idx, (cm, lhs) in enumerate(singles):
        rhs = induce_grading(comodule_to_module(cm, r))
        rep.add(f"square.single[{idx}]",
                "replicating then dualizing equals dualizing then regrading",
                graded_modules_equal(lhs, rhs))
    return rep


# -- graded ring of a cofree coring ----------------------------------------------------

def cofree_dual_group_ring_iso(c: GroupCoring, w: CofreeWitness, r: GradedRing) -> tuple:
    """Degreewise isomorphisms from the degree-e dual onto each degree,
    given by precomposition with the inverse connecting maps; returns
    (sigma maps, CheckReport) where sigma[a]: R_e -> R_a."""
    if w is None:
        raise MissingCofreeWitness("group-ring comparison needs a cofree witness")
    rep = CheckReport()
    g = c.group
    F = c.base.field
    e = g.identity
    sigmas = [r.coordinates(a, r.precomposed(e, w.gamma_inv(g.inv(a)))).transpose()
              for a in g.elements()]
    bad = [a for a in g.elements() if not is_invertible(sigmas[a])]
    rep.add("cofree-dual.bijective", "each degree map is bijective",
            not bad, f"failing degrees: {bad}" if bad else "")
    rep.add("cofree-dual.identity-degree", "the identity-degree map is the identity",
            sigmas[e] == Mat.identity(F, r.dim(e)))
    # sigma carries the group-ring product of R_e[G] to the product of r
    bad = graded_map_failures(g, sigmas, {key: r.mul[(e, e)] for key in r.mul}, r.mul)
    rep.add("cofree-dual.multiplicative",
            "the group-ring style product is preserved",
            not bad, f"failing pairs: {bad}" if bad else "")
    return tuple(sigmas), rep


# -- homogeneous biduals ------------------------------------------------------------

def check_component_bidual(c: GroupCoring, r: GradedRing) -> CheckReport:
    """Evaluation from each component into the linear dual of the matching
    dual-ring degree is bijective (homogeneously finite case)."""
    rep = CheckReport()
    g = c.group
    F = c.base.field
    bad = []
    ida = Mat.identity(F, c.base.dim)
    for a in g.elements():
        # solve right-linear maps R_a -> A
        sys = LinearSystem(F, {"h": (c.base.dim, r.dim(a))})
        for j in range(c.base.dim):
            sys.add((1, "h", ida, r.comps[a].right[j]),
                    (-1, "h", c.base.right_mats[j], Mat.identity(F, r.dim(a))))
        # row i: vec of the evaluation at basis vector i of C_{a^-1}, the
        # map R_a -> A whose column u is f_u(c_i), read off the rows vec(f_u)
        # (a row outside the span gets zero coordinates, so no bijection)
        evaluations = regroup(r._func_bases[a], c.base.dim, c.comps[g.inv(a)].dim)
        if not is_invertible(rowspace_coords(sys.kernel(), evaluations)[0]):
            bad.append(a)
    rep.add("bidual.iso", "evaluation into the homogeneous bidual is bijective",
            not bad, f"failing degrees: {bad}" if bad else "")
    return rep


def check_dual_basis_comultiplication(c: GroupCoring, r: GradedRing) -> CheckReport:
    """Comultiplied dual bases match the product of dual bases: for each
    degree pair (b, c), P (I (x) Delta) D_bc = P (T (x) I) D_c by
    vec(A X B) = (A (x) B^T) vec(X), for P the projection onto
    R_{(bc)^{-1}} (x)_A C_b (x)_A C_c, D_x the dual basis tensor of C_x and
    T: g -> (mul (x) I)(g (x) D_b) the product of the dual-ring legs."""
    rep = CheckReport()
    g = c.group
    F = c.base.field
    tensors = _dual_basis_tensors(c, r)
    bad = []
    for b in g.elements():
        for cdeg in g.elements():
            bc, cinv = g.mul(b, cdeg), g.inv(cdeg)
            proj = cached_triple(r.comps[g.inv(bc)], c.comps[b], c.comps[cdeg])
            legs = kron_after(tensor_k(r.mul[(cinv, g.inv(b))], Mat.identity(F, c.comps[b].dim)),
                              Mat.identity(F, r.dim(cinv)), tensors[b])
            if (kron_after(proj, Mat.identity(F, r.dim(g.inv(bc))), c.delta_left_lift(b, cdeg))
                    @ tensors[bc] != kron_after(proj, legs, Mat.identity(F, c.comps[cdeg].dim))
                    @ tensors[cdeg]):
                bad.append((b, cdeg))
    rep.add("dual-basis.comultiplication",
            "dual bases are compatible with comultiplication",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep
