"""Morita contexts attached to a coring with a grouplike family: the
classical context on the coinvariants, the graded contexts on the twisted
coefficient rings, the endomorphism description of both, and the battery of
equivalent Galois characterizations for progenerator components.

Solution-space objects (the connecting module, the coefficient families)
are kernels of explicitly assembled linear systems; memberships are then
rechecked independently when structures act on them.

The context laws and comparisons are matrix identities: each bimodule has
one flattened action map per side, `RingBimodule.left_map` (`hstack` of the
left actions) and `right_map` (`linalg.interleave` of the right ones), and
each bimodule law, context law or intertwining condition is an equation of
`kron_after` composites whose differing columns name the failing basis
elements.  A pairing that applies every action to every vector of a basis
W, as mu does, is one `kron_after(right_map, W^T, I)`.

Every graded map is made of whole matrices: its degree blocks are placed
with `linalg.block_matrix`, `block_diagonal` or `hstack`, and the blocks
of a product or of a coordinate solve are read back with `linalg.hsplit`
and `deinterleave`, so no map is built one column at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from corings.algebra import (
    Algebra,
    Bimodule,
    action_failures,
    acts_unitally,
    algebra_map_failures,
    collapse_right,
    commuting_failures,
    differing_columns,
    intertwining_failures,
    left_module_predicates,
    product_field_algebra,
    subalgebra,
    tensor_algebra,
)
from corings.comodules import replicate_comodule
from corings.coring import validate_coring_morphism
from corings.dualring import (
    GradedAlgebra,
    GradedModule,
    GradedRing,
    dual_morphism,
    gcomodule_to_graded,
    group_ring,
    is_graded_ring_iso,
    validate_graded_ring_morphism,
)
from corings.galois import (
    CoinvariantRing,
    GrouplikeFamily,
    canonical_morphism,
    comodule_from_grouplike,
    span_action,
)
from corings.linalg import (
    LinearSystem,
    Mat,
    balanced_quotient,
    block_diagonal,
    block_matrix,
    combine,
    deinterleave,
    hsplit,
    hstack,
    interleave,
    inverse,
    is_invertible,
    kernel,
    kron_after,
    rank,
    row_space,
    rowspace_coords,
    span_coords,
    tensor_k,
    unvec_rows,
    vec_rows,
    vstack,
)
from corings.report import CheckReport


class HypothesisFailed(ValueError):
    """Raised when a battery's standing hypothesis does not hold."""


# -- degree blocks and coordinates ----------------------------------------------------

def _packed_base_action(r: GradedRing, side: str) -> list:
    """The action, on side "left" or "right", of each base basis element on
    the packed dual ring, degree by degree."""
    packed = r.packed()
    return [block_matrix(r.base.field, packed.dims, packed.dims,
                         {(a, a): getattr(r.comps[a], side)[j] for a in r.group.elements()})
            for j in range(r.base.dim)]


def _evaluations(x: GrouplikeFamily, r: GradedRing, a: int) -> list:
    """For each basis functional f of degree a, the matrix of the action
    b -> f(x_{a^{-1}} . b) of f on the base."""
    translates = x.right_translates[x.coring.group.inv(a)]
    return list(unvec_rows(r.precomposed(a, translates), r.base.dim, translates.cols))


def _degrees(dims) -> list:
    """The degree of each index of a layout with dims[a] indices of degree a."""
    return [a for a, d in enumerate(dims) for _ in range(d)]


# -- the grouplike character --------------------------------------------------------

def grouplike_character(x: GrouplikeFamily, r: GradedRing) -> tuple[Mat, CheckReport]:
    """The map from the packed dual ring to the base evaluating each degree
    at the inverse-degree member of the family."""
    rep = CheckReport()
    c = x.coring
    g = c.group
    A = c.base
    F = A.field
    packed = r.packed()
    # block a: column u holds f_u(x_{a^{-1}}) for the functional f_u of degree a
    blocks = [r.precomposed(a, Mat.col_vector(F, x.vec(g.inv(a)))).transpose()
              for a in g.elements()]
    chi = hstack(blocks)
    bad = intertwining_failures(chi, _packed_base_action(r, "right"), A.right_mats,
                                Mat.identity(F, A.dim))
    rep.add("character.right-linear", "the character is right-linear over the base",
            not bad, f"failing basis: {bad}" if bad else "")
    # column f * N + h: chi(chi(f) . h), through the packed left base action,
    # against chi(f h); packed index f is basis element u of degree a
    n = packed.algebra.dim
    left = hstack(_packed_base_action(r, "left"))
    homogeneous = [(a, u) for a in g.elements() for u in range(r.dim(a))]
    bad = [homogeneous[t // n] + homogeneous[t % n]
           for t in differing_columns(kron_after(chi @ left, chi, Mat.identity(F, n)),
                                      chi @ packed.algebra.mul_mat)]
    rep.add("character.associative", "character of a scaled factor equals character of the product",
            not bad, f"failing: {bad[:5]}" if bad else "")
    rep.add("character.unit", "character of the unit is one",
            blocks[g.identity].apply(r.unit_vec) == A.unit)
    return chi, rep


# -- two-ring bimodules and Morita contexts ---------------------------------------------

@dataclass(frozen=True)
class RingBimodule:
    left_ring: Algebra
    right_ring: Algebra
    dim: int
    left: tuple   # per left_ring basis element
    right: tuple  # per right_ring basis element

    @cached_property
    def left_map(self) -> Mat:
        """The left action R (x) M -> M: column i * dim + k holds e_i . m_k."""
        return hstack(self.left)

    @cached_property
    def right_map(self) -> Mat:
        """The right action M (x) S -> M: column k * S.dim + j holds m_k . e_j."""
        return interleave(self.left_ring.field, self.dim, self.right)


def validate_ring_bimodule(m: RingBimodule) -> CheckReport:
    rep = CheckReport()
    rep.add("bimodule.left-unital", "left unit acts as the identity",
            acts_unitally(m.left_ring, m.left_map, "left"))
    rep.add("bimodule.right-unital", "right unit acts as the identity",
            acts_unitally(m.right_ring, m.right_map, "right"))
    bad = [(side, i, j) for side, ring, act in (("left", m.left_ring, m.left_map),
                                                ("right", m.right_ring, m.right_map))
           for i, j in action_failures(ring, act, side)]
    rep.add("bimodule.actions", "actions respect ring multiplication",
            not bad, f"failing: {bad[:5]}" if bad else "")
    bad = commuting_failures(m.left_map, m.right_map, m.left_ring.dim, m.right_ring.dim)
    rep.add("bimodule.commuting", "left and right actions commute",
            not bad, f"failing: {bad[:5]}" if bad else "")
    return rep


@dataclass(frozen=True)
class MoritaContext:
    ring1: Algebra       # the small ring
    ring2: Algebra       # the big ring
    p: RingBimodule      # (ring1, ring2)
    q: RingBimodule      # (ring2, ring1)
    tau: Mat             # ring1.dim x (p.dim * q.dim)
    mu: Mat              # ring2.dim x (q.dim * p.dim)


def _balanced_failures(pair: Mat, m: RingBimodule, n: RingBimodule) -> list:
    """The basis elements e_j of the middle ring where pair(m . e_j (x) n)
    and pair(m (x) e_j . n) differ; column (i * middle + j) * n.dim + k of
    both sides is read at m_i, e_j, n_k."""
    F = pair.field
    return sorted({t // n.dim % m.right_ring.dim for t in differing_columns(
        kron_after(pair, m.right_map, Mat.identity(F, n.dim)),
        kron_after(pair, Mat.identity(F, m.dim), n.left_map))})


def _bilinear_failures(pair: Mat, ring: Algebra, m: RingBimodule, n: RingBimodule) -> list:
    """The ("left", i) and ("right", i), i major, where pair: M (x) N -> ring
    fails pair(e_i . m (x) n) = e_i pair(m (x) n), or pair(m (x) n . e_i) =
    pair(m (x) n) e_i."""
    F, d = ring.field, ring.dim
    ident, mul = Mat.identity(F, d), ring.mul_mat
    left = {t // (m.dim * n.dim) for t in differing_columns(
        kron_after(pair, m.left_map, Mat.identity(F, n.dim)), kron_after(mul, ident, pair))}
    right = {t % d for t in differing_columns(
        kron_after(pair, Mat.identity(F, m.dim), n.right_map), kron_after(mul, pair, ident))}
    return [(side, i) for i in range(d) for side, bad in (("left", left), ("right", right))
            if i in bad]


def _associative_failures(m: RingBimodule, n: RingBimodule, mn: Mat, nm: Mat) -> list:
    """The triples (i, j, k) where mn(m_i (x) n_j) . m_k and m_i . nm(n_j (x) m_k)
    differ, for the pairings mn: M (x) N -> the left ring of M and nm:
    N (x) M -> its right ring."""
    ident = Mat.identity(mn.field, m.dim)
    return [(t // (n.dim * m.dim), t // m.dim % n.dim, t % m.dim) for t in differing_columns(
        kron_after(m.left_map, mn, ident), kron_after(m.right_map, ident, nm))]


def validate_morita_context(ctx: MoritaContext) -> CheckReport:
    rep = CheckReport()
    p, q = ctx.p, ctx.q
    rep.extend(validate_ring_bimodule(p), prefix="p.")
    rep.extend(validate_ring_bimodule(q), prefix="q.")
    bad = _balanced_failures(ctx.tau, p, q)
    rep.add("morita.tau-balanced", "first connecting map is balanced over the big ring",
            not bad, f"failing basis: {bad[:5]}" if bad else "")
    bad = _balanced_failures(ctx.mu, q, p)
    rep.add("morita.mu-balanced", "second connecting map is balanced over the small ring",
            not bad, f"failing basis: {bad[:5]}" if bad else "")
    bad = _bilinear_failures(ctx.tau, ctx.ring1, p, q)
    rep.add("morita.tau-bilinear", "first connecting map is bilinear over the small ring",
            not bad, f"failing: {bad[:5]}" if bad else "")
    bad = _bilinear_failures(ctx.mu, ctx.ring2, q, p)
    rep.add("morita.mu-bilinear", "second connecting map is bilinear over the big ring",
            not bad, f"failing: {bad[:5]}" if bad else "")
    bad = _associative_failures(p, q, ctx.tau, ctx.mu)
    rep.add("morita.assoc-p", "connecting maps associate through the first module",
            not bad, f"failing: {bad[:3]}" if bad else "")
    bad = _associative_failures(q, p, ctx.mu, ctx.tau)
    rep.add("morita.assoc-q", "connecting maps associate through the second module",
            not bad, f"failing: {bad[:3]}" if bad else "")
    return rep


def is_strict(ctx: MoritaContext) -> tuple[bool, CheckReport]:
    """Strict = both connecting maps surjective; bijectivity on the balanced
    tensor quotients is then asserted, a mismatch being reported as a hard
    inconsistency."""
    rep = CheckReport()
    F = ctx.ring1.field
    tau_rank, mu_rank = rank(ctx.tau), rank(ctx.mu)
    tau_surj = tau_rank == ctx.ring1.dim
    mu_surj = mu_rank == ctx.ring2.dim
    rep.add("strict.tau-surjective", "first connecting map is surjective", True,
            f"value={tau_surj} (rank {tau_rank} of {ctx.ring1.dim})")
    rep.add("strict.mu-surjective", "second connecting map is surjective", True,
            f"value={mu_surj} (rank {mu_rank} of {ctx.ring2.dim})")
    verdict = tau_surj and mu_surj
    if verdict:
        q_pq = balanced_quotient(F, ctx.p.dim, ctx.q.dim, ctx.p.right, ctx.q.left)
        tau_bar = ctx.tau @ q_pq.sect
        q_qp = balanced_quotient(F, ctx.q.dim, ctx.p.dim, ctx.q.right, ctx.p.left)
        mu_bar = ctx.mu @ q_qp.sect
        bij = (q_pq.dim == ctx.ring1.dim and rank(tau_bar) == ctx.ring1.dim
               and q_qp.dim == ctx.ring2.dim and rank(mu_bar) == ctx.ring2.dim)
        rep.add("strict.bijective",
                "surjective connecting maps are bijective on the balanced tensors",
                bij, "" if bij else "HARD INCONSISTENCY: surjective but not bijective")
        verdict = verdict and bij
    return verdict, rep


# -- the solution spaces --------------------------------------------------------------

def connecting_spaces(x: GrouplikeFamily, r: GradedRing) -> tuple[Mat, Mat]:
    """The strict and the weak connecting space, solved in one pass.

    Both hold the families (q_a) of dual-ring elements with the connecting
    property: the first comultiplication leg times the evaluated second leg
    equals the evaluated product times the family member.  The weak space
    only asks for equality after applying every functional."""
    c = x.coring
    g = c.group
    F = c.base.field
    shapes = {a: (1, r.dim(a)) for a in g.elements()}
    strict, weak = LinearSystem(F, shapes), LinearSystem(F, shapes)
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            binv = g.inv(b)
            out_dim = c.comps[binv].dim
            # (q (x) I) @ (stacked legs) sums q[u] times the u-th leg; the
            # second leg of f is f followed by b -> b.x_{b^{-1}}
            legs = []
            if r.legs[(a, b)]:
                legs.append((1, a, vstack(r.legs[(a, b)])))
            if r.functionals[ab]:
                legs.append((-1, ab, vstack([x.left_translates[binv] @ f
                                              for f in r.functionals[ab]])))
            for system, posts in ((strict, [Mat.identity(F, out_dim)]),
                                  (weak, r.functionals[b])):
                for post in posts:
                    system.add(*[(sign, name, post, stacked, out_dim)
                                 for sign, name, stacked in legs])
    return strict.kernel(), weak.kernel()


def weak_coinvariant_ring(x: GrouplikeFamily, r: GradedRing) -> Mat:
    """Basis rows of the weak coinvariants: elements whose commutator with
    every family member is killed by all functionals."""
    g = x.coring.group
    return kernel(vstack([f @ (x.left_translates[a] - x.right_translates[a])
                          for a in g.elements() for f in r.functionals[g.inv(a)]]))


def coefficient_spaces(x: GrouplikeFamily, r: GradedRing) -> tuple[Mat, Mat]:
    """The strict and the weak coefficient families, solved in one pass.

    Both hold the families (b_a) in a product of base copies with the
    twisted commutation property b_{ab} x_{b^{-1}} = x_{b^{-1}} b_a; the
    weak ones only after applying every functional of degree b."""
    c = x.coring
    g = c.group
    F = c.base.field
    shapes = {a: (c.base.dim, 1) for a in g.elements()}
    strict, weak = LinearSystem(F, shapes), LinearSystem(F, shapes)
    one = Mat.identity(F, 1)
    for b in g.elements():
        binv = g.inv(b)
        left, right = x.left_translates[binv], x.right_translates[binv]
        for system, posts in ((strict, [Mat.identity(F, left.rows)]), (weak, r.functionals[b])):
            for post in posts:
                lhs, rhs = post @ left, post @ right
                for a in g.elements():
                    system.add((1, g.mul(a, b), lhs, one), (-1, a, rhs, one))
    return strict.kernel(), weak.kernel()


# the names `bench/spans.py` traces the two solvers under
connecting_space = connecting_spaces
coefficient_space = coefficient_spaces


@dataclass(frozen=True)
class CoefficientRing:
    basis: Mat           # rows in the product of base copies
    algebra: Algebra     # componentwise product in the solved basis
    sigma: tuple         # per group element: shift action on solved coordinates
    twisted: GradedAlgebra  # the twisted group ring
    diag: Mat            # coinvariants -> coefficient ring (diagonal families)


def coefficient_ring(x: GrouplikeFamily, basis: Mat, t: CoinvariantRing) -> CoefficientRing:
    """The ring of the coefficient families with basis rows `basis` (one of
    `coefficient_spaces`), a subalgebra of the product of base copies, with
    its shift action, its twisted group ring and the diagonal families of
    the coinvariants `t`."""
    c = x.coring
    g = c.group
    A = c.base
    F = A.field
    n = g.order
    w = basis.rows
    dims = [A.dim] * n
    s_alg, _ = subalgebra(tensor_algebra(product_field_algebra(F, n), A), basis)
    # the shift by s reads the block of degree s a into degree a
    sigma, stable = span_action(basis, [
        block_matrix(F, dims, dims, {(a, g.mul(s, a)): Mat.identity(F, A.dim)
                                     for a in g.elements()})
        for s in g.elements()])
    if not stable:
        raise ValueError("coefficient families are not stable under the shift action")
    # twisted group ring: (u_a b)(u_b c) = u_{ab} b^{shift} c
    twisted = GradedAlgebra.from_products(
        F, g, [w] * n, lambda a, b: kron_after(s_alg.mul_mat, sigma[b], Mat.identity(F, w)),
        s_alg.unit)
    diag = span_coords(basis, hstack([t.basis] * n),
                       "diagonal coinvariant family escapes the coefficient ring")
    return CoefficientRing(basis, s_alg, tuple(sigma), twisted, diag.transpose())


def check_shift_fixed_points(s: CoefficientRing) -> CheckReport:
    """Fixed points of the shift action are exactly the diagonal families
    coming from the coinvariants."""
    rep = CheckReport()
    ident = Mat.identity(s.algebra.field, s.algebra.dim)
    fixed = kernel(vstack([sig - ident for sig in s.sigma]))
    rep.add("fixed.match", "shift fixed points equal the diagonal coinvariants",
            row_space(fixed) == row_space(s.diag.transpose()),
            f"fixed dim {fixed.rows}, diagonal dim {s.diag.cols}")
    return rep


# -- the classical context ---------------------------------------------------------------

def morita_context(x: GrouplikeFamily, r: GradedRing, t: CoinvariantRing, w: Mat,
                   ) -> tuple[MoritaContext, CheckReport]:
    """The context (coinvariants `t`, packed dual ring, base, connecting
    space with basis rows `w` in packed dual-ring coordinates), strict or
    weak as `t` and `w` are, and a report of the membership self-checks."""
    rep = CheckReport()
    c = x.coring
    g = c.group
    A = c.base
    F = A.field
    packed = r.packed()
    o_dim = w.rows
    # P = base as (T, R)-bimodule
    p_left = A.left_mults(t.inclusion)
    p_right = tuple(m for a in g.elements() for m in _evaluations(x, r, a))
    p = RingBimodule(t.algebra, packed.algebra, A.dim, p_left, p_right)
    # Q = connecting space as (R, T)-bimodule
    q_left, ok_left = span_action(w, packed.algebra.left_mats)
    rep.add("build.left-ideal", "the connecting space is a left ideal", ok_left)
    base_action = _packed_base_action(r, "right")
    q_right, ok_right = span_action(w, [
        combine(F, packed.algebra.dim, packed.algebra.dim, base_action, t.inclusion.col(i))
        for i in range(t.algebra.dim)])
    rep.add("build.right-module", "the connecting space absorbs the coinvariants",
            ok_right)
    q = RingBimodule(packed.algebra, t.algebra, o_dim, tuple(q_left), tuple(q_right))
    # tau: P (x) Q -> T, the right action of Q on the base; column j * o_dim + u
    acted = kron_after(p.right_map, Mat.identity(F, A.dim), w.transpose())
    tau, outside = rowspace_coords(t.basis, acted.transpose())
    rep.add("build.tau-lands", "the pairing lands in the coinvariants", not outside)
    tau = tau.transpose()
    # mu: Q (x) P -> R, the right action of the base on Q; column u * A.dim + j
    mu = kron_after(interleave(F, packed.algebra.dim, base_action), w.transpose(),
                    Mat.identity(F, A.dim))
    return MoritaContext(t.algebra, packed.algebra, p, q, tau, mu), rep


# -- graded pieces -------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedMoritaContext:
    ctx: MoritaContext
    group: object
    ring1: GradedAlgebra
    ring2: GradedAlgebra
    p_dims: tuple
    q_dims: tuple


def validate_graded_morita_context(gctx: GradedMoritaContext) -> CheckReport:
    rep = CheckReport()
    rep.extend(validate_morita_context(gctx.ctx), prefix="underlying.")
    g = gctx.group
    ctx = gctx.ctx
    p_deg, q_deg = _degrees(gctx.p_dims), _degrees(gctx.q_dims)
    deg1, deg2 = _degrees(gctx.ring1.dims), _degrees(gctx.ring2.dims)
    qd, pd = ctx.q.dim, ctx.p.dim
    bad = [("tau", i, j) for i, a in enumerate(p_deg) for j, b in enumerate(q_deg)
           if any(v and deg1[k] != g.mul(a, b) for k, v in enumerate(ctx.tau.col(i * qd + j)))]
    bad += [("mu", j, i) for j, b in enumerate(q_deg) for i, a in enumerate(p_deg)
            if any(v and deg2[k] != g.mul(b, a) for k, v in enumerate(ctx.mu.col(j * pd + i)))]
    rep.add("graded.degree-zero", "connecting maps are homogeneous of trivial degree",
            not bad, f"failing: {bad[:5]}" if bad else "")
    return rep


def canonical_graded_module(x: GrouplikeFamily, r: GradedRing) -> GradedModule:
    """Copies of the base, graded by the group, with the twisted action of
    the dual ring (the dualized replicated base comodule)."""
    acom = comodule_from_grouplike(x)
    return gcomodule_to_graded(replicate_comodule(acom), r)


def check_canonical_graded_action(m: GradedModule, x: GrouplikeFamily,
                                  r: GradedRing) -> CheckReport:
    """The dualized action agrees with the direct evaluation formula."""
    rep = CheckReport()
    g = x.coring.group
    A = x.coring.base
    direct = {b: interleave(A.field, A.dim, _evaluations(x, r, b)) for b in g.elements()}
    bad = [(a, b) for a in g.elements() for b in g.elements() if direct[b] != m.act[(a, b)]]
    rep.add("canonical.action", "dualized action equals the direct evaluation formula",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep


def graded_morita_context(x: GrouplikeFamily, r: GradedRing, s: CoefficientRing, wq: Mat,
                          ) -> tuple[GradedMoritaContext, CheckReport]:
    """The graded context (twisted coefficient ring `s`, dual ring, base
    copies, shifted connecting families with basis rows `wq`), strict or
    weak as `s` and `wq` are, and a report of its build self-checks."""
    rep = CheckReport()
    c = x.coring
    g = c.group
    A = c.base
    F = A.field
    n = g.order
    o_dim = wq.rows
    packed = r.packed()
    sdim = s.algebra.dim
    gs = s.twisted
    a_dims, o_dims = [A.dim] * n, [o_dim] * n
    # P = graded copies of the base, (G*S, R)-bimodule
    # the left multiplication by the degree-a entry of coefficient family wi
    # is mults[wi * n + a]
    mults = A.left_mults(s.basis.reshape(sdim * n, A.dim).transpose())
    p_left = [block_matrix(F, a_dims, a_dims,
                           {(g.mul(tt, a), a): mults[wi * n + a] for a in g.elements()})
              for tt in g.elements() for wi in range(sdim)]
    # the `_evaluations` of each degree as rows; omega reads them too
    translated = [r.precomposed(b, x.right_translates[g.inv(b)]) for b in g.elements()]
    p_right = [block_matrix(F, a_dims, a_dims, {(g.mul(a, b), a): ev for a in g.elements()})
               for b in g.elements() for ev in unvec_rows(translated[b], A.dim, A.dim)]
    p = RingBimodule(gs.algebra, packed.algebra, n * A.dim, tuple(p_left), tuple(p_right))
    # QG = graded copies of the connecting space, (R, G*S)-bimodule
    # left action of the dual ring through the shifted product
    left_small, ok_left = span_action(wq, packed.algebra.left_mats)
    rep.add("build.q-left-closure", "dual-ring action preserves the connecting families",
            ok_left)
    q_left = [block_matrix(F, o_dims, o_dims, {(g.mul(b, a), a): small for a in g.elements()})
              for b, small in zip(_degrees(packed.dims), left_small)]

    # right action of the twisted ring through shifted coefficient families:
    # column shift * sdim + wi of `shifted` is family wi shifted by shift, and
    # acts[d][shift * sdim + wi] its right action on degree d
    shifted = hstack(s.sigma)
    acts = [deinterleave(kron_after(collapse_right(r.comps[d]), Mat.identity(F, r.dim(d)),
                                    basis.transpose() @ shifted), n * sdim)
            for d, basis in zip(g.elements(), hsplit(s.basis, a_dims))]
    right_small, ok_right = span_action(wq, [block_diagonal(blocks) for blocks in zip(*acts)])
    rep.add("build.q-right-closure",
            "coefficient families act on the connecting families", ok_right)
    # the block leaving degree a depends only on the shift (a tt)^{-1}
    q_right = [block_matrix(F, o_dims, o_dims,
                            {(g.mul(a, tt), a): right_small[g.inv(g.mul(a, tt)) * sdim + wi]
                             for a in g.elements()})
               for tt in g.elements() for wi in range(sdim)]
    q = RingBimodule(packed.algebra, gs.algebra, n * o_dim, tuple(q_left), tuple(q_right))
    # omega: P (x) QG -> G*S; the family it reads off does not depend on the
    # degree of the P factor.  Row u of wq_d[d] @ translated[d] is vec of the
    # action of family member u in degree d on the base, b -> sum_v
    # wq[u, (d, v)] f_v(x_{d^{-1}} . b), and vals[d][j] holds its columns j
    wq_d = hsplit(wq, packed.dims)
    vals = [deinterleave(wq_d[d] @ translated[d], A.dim) for d in g.elements()]
    coords, outside = rowspace_coords(s.basis, vstack([
        hstack([vals[g.mul(sigma, b)][j] for b in g.elements()])
        for j in range(A.dim) for sigma in g.elements()]))
    rep.add("build.omega-lands", "the first connecting map lands in the coefficient ring",
            not outside)
    # part j * n + sigma: the families read off at (j, sigma), one column per u
    parts = hsplit(coords.transpose(), [o_dim] * (A.dim * n))
    omega = block_matrix(F, gs.dims, [o_dim] * (n * A.dim * n),
                         {(g.mul(a, sigma), (a * A.dim + j) * n + sigma): parts[j * n + sigma]
                          for a in g.elements() for j in range(A.dim) for sigma in g.elements()})
    # nu: QG (x) P -> R; rights[d][u] holds the right base actions on row u
    # of wq in degree d, one column per base basis element
    rights = [hsplit(kron_after(collapse_right(r.comps[d]), wq_d[d].transpose(),
                                Mat.identity(F, A.dim)), [A.dim] * o_dim)
              for d in g.elements()]
    nu = block_matrix(F, packed.dims, [A.dim] * (n * o_dim * n),
                      {(g.mul(sigma, a), (sigma * o_dim + u) * n + a): rights[g.mul(sigma, a)][u]
                       for sigma in g.elements() for u in range(o_dim) for a in g.elements()})
    ctx = MoritaContext(gs.algebra, packed.algebra, p, q, omega, nu)
    gctx = GradedMoritaContext(ctx, g, gs, packed, (A.dim,) * n, (o_dim,) * n)
    return gctx, rep


# -- graded hom and endomorphism rings ---------------------------------------------------

def graded_hom(m: GradedModule, n: GradedModule, sigma: int) -> list:
    """Basis of degree-sigma module maps between graded modules: families
    F_a: M_a -> N_{sigma a} commuting with the action."""
    r = m.ring
    g = r.group
    F = r.base.field
    sys = LinearSystem(F, {a: (n.comps[g.mul(sigma, a)].dim, m.comps[a].dim)
                           for a in g.elements()})
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            # N.act[(sa, b)] o (F_a (x) id) == F_ab o M.act[(a, b)]
            sys.add((1, a, n.act[(g.mul(sigma, a), b)],
                     Mat.identity(F, m.comps[a].dim * r.dim(b)), r.dim(b)),
                    (-1, ab, Mat.identity(F, n.comps[g.mul(sigma, ab)].dim), m.act[(a, b)]))
    return sys.basis()


def _stacked(F, g, bases, dims, src_dims) -> tuple:
    """The families of each degree sigma stacked: per sigma and source degree
    a, the maps fams[a] (from degree a of src_dims to degree sigma a of dims)
    one vec per row (`vec_rows`), and per sigma those blocks side by side,
    the rows the coordinates of a family of degree sigma are solved in."""
    per_source = [[vec_rows(F, dims[g.mul(sigma, a)] * src_dims[a],
                            [fams[a] for fams in bases[sigma]]) for a in g.elements()]
                  for sigma in g.elements()]
    return per_source, [hstack(blocks) for blocks in per_source]


def _composites(g, stacked, dims, ends, sigma: int, tau: int, width: int) -> Mat:
    """Rows (t, k), t major, of width `width`: the families (X_k[tau c] t_c)_c
    of degree sigma tau, for the families X_k of degree sigma stacked in
    `stacked` (maps into the degrees of dims) and the endomorphism families t
    of degree tau in `ends`, each through vec(X t) = vec(X) (I (x) t)."""
    F = stacked[sigma][0].field
    per_t = [hstack([kron_after(stacked[sigma][g.mul(tau, c)],
                                Mat.identity(F, dims[g.mul(g.mul(sigma, tau), c)]), t[c])
                     for c in g.elements()]) for t in ends[tau]]
    return vstack([Mat.zeros(F, 0, width)] + per_t)


@dataclass(frozen=True)
class GradedEnd:
    module: GradedModule
    bases: tuple     # per degree sigma: list of hom families
    stacked: list    # per degree sigma and source degree a: `_stacked` of the bases
    graded: GradedAlgebra


def graded_end(m: GradedModule) -> GradedEnd:
    r = m.ring
    g = r.group
    F = r.base.field
    e = g.identity
    bases = tuple(graded_hom(m, m, sigma) for sigma in g.elements())
    dims, m_dims = [len(b) for b in bases], [mm.dim for mm in m.comps]
    stacked, full = _stacked(F, g, bases, m_dims, m_dims)
    # product = composition s t, of degree sigma tau: column block
    # (sigma, s, tau) holds s t for the t of degree tau
    keys = {key: k for k, key in enumerate((sigma, s, tau) for sigma in g.elements()
                                           for s in range(dims[sigma]) for tau in g.elements())}
    blocks = {}
    for sigma in g.elements():
        for tau in g.elements():
            st = g.mul(sigma, tau)
            composites = _composites(g, stacked, m_dims, bases, sigma, tau, full[st].cols)
            coords = span_coords(full[st], composites, "endomorphism escaped its solved basis")
            # column t of block s: the coordinates of s t
            for s, block in enumerate(deinterleave(coords.transpose(), dims[sigma])):
                blocks[(st, keys[(sigma, s, tau)])] = block
    mul = block_matrix(F, dims, [dims[tau] for _, _, tau in keys], blocks)
    ident = hstack([vec_rows(F, d * d, [Mat.identity(F, d)]) for d in m_dims])
    unit = span_coords(full[e], ident, "endomorphism escaped its solved basis").transpose()
    alg = Algebra(F, sum(dims), mul, block_matrix(F, dims, [1], {(e, 0): unit}).col(0))
    return GradedEnd(m, bases, stacked, GradedAlgebra(g, alg, tuple(dims)))


def context_from_graded_module(m: GradedModule) -> tuple[GradedMoritaContext, GradedEnd, list]:
    """The standard context of a graded module: endomorphisms, the ring,
    the module, and module maps into the ring; returned with the
    endomorphisms and the module maps of each degree stacked (`_stacked`),
    so that each action or composition is one `kron_after` per degree pair
    and each degree's coordinates one solve."""
    r = m.ring
    g = r.group
    F = r.base.field
    end = graded_end(m)
    packed = r.packed()
    hom_bases = tuple(graded_hom(m, _ring_as_module(r), sigma) for sigma in g.elements())
    hdims, edims = [len(b) for b in hom_bases], list(end.graded.dims)
    m_dims, r_dims = [mm.dim for mm in m.comps], [r.dim(a) for a in g.elements()]
    homs, hom_full = _stacked(F, g, hom_bases, r_dims, m_dims)
    end_full = [hstack(blocks) for blocks in end.stacked]

    def acted(actor, dims, x: int, sigma: int, target: Mat, error: str) -> tuple:
        """Per basis element i of degree x of the actor (the ring through its
        product, the module through its action; degree dims `dims`), the
        matrix whose column k holds the coordinates in target of the family
        (T_i X_k[c])_c, T_i the action of i, for the hom families X_k of
        degree sigma: one kron_after per degree pair through the regrouped
        action, vec(T X) = vec(X) (T^T (x) I), read block i by block i with
        `hsplit`, and one solve of the blocks stacked i-major."""
        products = [hsplit(kron_after(homs[sigma][c], actor.regrouped(x, g.mul(sigma, c)),
                                      Mat.identity(F, m_dims[c])),
                           [dims[g.mul(g.mul(x, sigma), c)] * m_dims[c]] * dims[x])
                    for c in g.elements()]
        rows = vstack([Mat.zeros(F, 0, target.cols)] + [hstack(row) for row in zip(*products)])
        return hsplit(span_coords(target, rows, error).transpose(), [hdims[sigma]] * dims[x])

    # P: left END, right R
    p_left = tuple(block_matrix(F, m_dims, m_dims,
                                {(g.mul(sigma, a), a): fams[a] for a in g.elements()})
                   for sigma in g.elements() for fams in end.bases[sigma])
    # the maps m -> m . e_u on M_a for every u at once, read off the action
    rights = {(a, b): deinterleave(m.act[(a, b)], r_dims[b])
              for a in g.elements() for b in g.elements()}
    p_right = tuple(block_matrix(F, m_dims, m_dims, {(g.mul(a, b), a): rights[(a, b)][u]
                                                     for a in g.elements()})
                    for b in g.elements() for u in range(r_dims[b]))
    p = RingBimodule(end.graded.algebra, packed.algebra, sum(m_dims), p_left, p_right)
    # Q: left R, right END, both through composition
    q_left = []
    for b in g.elements():
        # (r . q)_a = left multiply the value: R_b x R_{sigma a} -> R_{b sigma a}
        blocks = [acted(r, r_dims, b, sigma, hom_full[g.mul(b, sigma)],
                        "module map escaped its solved basis")
                  for sigma in g.elements()]
        q_left += [block_matrix(F, hdims, hdims, {(g.mul(b, sigma), sigma): blocks[sigma][u]
                                                  for sigma in g.elements()})
                   for u in range(r_dims[b])]
    q_right = []
    for tau in g.elements():
        # (q . t)_a = q_{tau a} t_a; column block t of the transposed
        # coordinates holds the q of degree sigma composed with t
        blocks = []
        for sigma in g.elements():
            target = hom_full[g.mul(sigma, tau)]
            composites = _composites(g, homs, r_dims, end.bases, sigma, tau, target.cols)
            coords = span_coords(target, composites, "module map escaped its solved basis")
            blocks.append(hsplit(coords.transpose(), [hdims[sigma]] * edims[tau]))
        q_right += [block_matrix(F, hdims, hdims, {(g.mul(sigma, tau), sigma):
                                                   blocks[sigma][t]
                                                   for sigma in g.elements()})
                    for t in range(edims[tau])]
    q = RingBimodule(packed.algebra, end.graded.algebra, sum(hdims),
                     tuple(q_left), tuple(q_right))
    # phi: P (x) Q -> END, phi(p (x) q)(p') = p . q(p'); column block
    # (a, i, sigma) holds the q of degree sigma
    keys = {key: k for k, key in enumerate((a, i, sigma) for a in g.elements()
                                           for i in range(m_dims[a]) for sigma in g.elements())}
    blocks = {(g.mul(a, sigma), keys[(a, i, sigma)]): block
              for a in g.elements() for sigma in g.elements()
              for i, block in enumerate(acted(m, m_dims, a, sigma, end_full[g.mul(a, sigma)],
                                              "endomorphism escaped its solved basis"))}
    phi = block_matrix(F, edims, [hdims[sigma] for _, _, sigma in keys], blocks)
    # psi: Q (x) P -> R, psi(q (x) p) = q(p); column block (sigma, q, a)
    # holds the map of degree a of q
    keys = [(sigma, fams, a) for sigma in g.elements() for fams in hom_bases[sigma]
            for a in g.elements()]
    psi = block_matrix(F, r_dims, [m_dims[a] for _, _, a in keys],
                       {(g.mul(sigma, a), k): fams[a] for k, (sigma, fams, a) in enumerate(keys)})
    ctx = MoritaContext(end.graded.algebra, packed.algebra, p, q, phi, psi)
    gctx = GradedMoritaContext(ctx, g, end.graded, packed,
                               tuple(m_dims), tuple(hdims))
    return gctx, end, homs


def _ring_as_module(r: GradedRing) -> GradedModule:
    """The dual ring over itself as a graded module."""
    g = r.group
    act = {(a, b): r.mul[(a, b)] for a in g.elements() for b in g.elements()}
    return GradedModule(r, tuple(r.comps), act)


# -- comparison isomorphisms for the standard context ---------------------------------------

def _block_coords(basis: Mat, rows) -> tuple[Mat, bool]:
    """The block-diagonal matrix whose block sigma holds, one column per row
    of rows[sigma], its coordinates in the rows of basis, one solve per
    degree, and whether every row lies in their span."""
    solved = [rowspace_coords(basis, block) for block in rows]
    return (block_diagonal([coords.transpose() for coords, _ in solved]),
            not any(outside for _, outside in solved))


def end_to_twisted_iso(end: GradedEnd, s: CoefficientRing) -> tuple[Mat, CheckReport]:
    """Endomorphisms of the canonical graded module correspond to twisted
    coefficient families: read each endomorphism off its values at the
    block units."""
    rep = CheckReport()
    g = end.graded.group
    F = end.graded.algebra.field
    gs = s.twisted
    m_dims = [mm.dim for mm in end.module.comps]
    unit = Mat.col_vector(F, end.module.ring.base.unit)
    # block a of a row: the value of the family at the unit of degree a,
    # through vec(X u) = vec(X) (I (x) u)
    xi, lands = _block_coords(s.basis, [
        hstack([kron_after(end.stacked[sigma][a], Mat.identity(F, m_dims[g.mul(sigma, a)]), unit)
                for a in g.elements()]) for sigma in g.elements()])
    rep.add("end-iso.lands", "endomorphism families are coefficient families", lands)
    rep.add("end-iso.bijective", "the comparison is bijective",
            is_invertible(xi), f"{xi.cols} -> {xi.rows}, rank {rank(xi)}")
    end_alg = end.graded.algebra
    bad = algebra_map_failures(xi, end_alg.mul_mat, gs.algebra.mul_mat)
    rep.add("end-iso.multiplicative", "the comparison preserves multiplication",
            not bad, f"failing pairs: {bad[:5]}" if bad else "")
    rep.add("end-iso.unit", "the comparison preserves the unit",
            xi.apply(end_alg.unit) == gs.algebra.unit)
    return xi, rep


def hom_to_shifted_iso(homs, wq: Mat, r: GradedRing) -> tuple[Mat, CheckReport]:
    """Module maps from the canonical graded module into the ring, stacked
    as `context_from_graded_module` returns them, correspond to shifted
    connecting families: read each map off the block units."""
    rep = CheckReport()
    g = r.group
    F = r.base.field
    unit = Mat.col_vector(F, r.base.unit)
    # block a of a row: the value of a map of degree sigma at the unit of
    # degree sigma^{-1} a, which lies in R_a
    psi, lands = _block_coords(wq, [
        hstack([kron_after(homs[sigma][g.mul(g.inv(sigma), a)], Mat.identity(F, r.dim(a)), unit)
                for a in g.elements()]) for sigma in g.elements()])
    rep.add("hom-iso.lands", "module-map families are connecting families", lands)
    rep.add("hom-iso.bijective", "the comparison is bijective",
            is_invertible(psi), f"{psi.cols} -> {psi.rows}, rank {rank(psi)}")
    return psi, rep


def check_standard_context_match(d: "Derived") -> CheckReport:
    """The standard context of the canonical graded module of `d` (the
    `structfile.Derived` of the coring) matches its weak graded context
    through the two comparison isomorphisms (commuting squares checked as
    matrix identities)."""
    rep = CheckReport()
    r = d.dual_ring
    F = r.base.field
    std, end, homs = context_from_graded_module(d.canonical_module)
    gctx, build_rep = d.weak_graded_morita
    s, wq = d.weak_coefficients, d.connecting_spaces[1]
    rep.extend(build_rep, prefix="weak.")
    xi, xi_rep = end_to_twisted_iso(end, s)
    rep.extend(xi_rep)
    psi, psi_rep = hom_to_shifted_iso(homs, wq, r)
    rep.extend(psi_rep)
    bad = [("left", k) for k in intertwining_failures(
        psi, std.ctx.q.left, gctx.ctx.q.left, Mat.identity(F, r.packed().algebra.dim))]
    bad += [("right", k) for k in intertwining_failures(
        psi, std.ctx.q.right, gctx.ctx.q.right, xi)]
    rep.add("standard.hom-equivariant",
            "the hom comparison intertwines both module structures",
            not bad, f"failing: {bad[:5]}" if bad else "")
    lhs = xi @ std.ctx.tau
    rhs = kron_after(gctx.ctx.tau, Mat.identity(F, std.ctx.p.dim), psi)
    rep.add("standard.square-one",
            "evaluation square: endomorphism pairing matches the coefficient pairing",
            lhs == rhs)
    lhs = std.ctx.mu
    rhs = kron_after(gctx.ctx.mu, psi, Mat.identity(F, std.ctx.p.dim))
    rep.add("standard.square-two",
            "evaluation square: ring-valued pairings agree",
            lhs == rhs)
    return rep


# -- group-ring contexts ---------------------------------------------------------------------

def group_ring_context(ctx_e: MoritaContext, g) -> GradedMoritaContext:
    """Degreewise copies of a context over the group rings of its two rings."""
    F = ctx_e.ring1.field
    ring1 = group_ring(ctx_e.ring1, g)
    ring2 = group_ring(ctx_e.ring2, g)
    n = g.order

    def spread(small_mats, mod_dim, target):
        """Each basis element of degree sigma of a group ring acts as its
        small matrix from every degree tau to degree target(sigma, tau)."""
        dims = [mod_dim] * n
        return tuple(block_matrix(F, dims, dims, {(target(sigma, tau), tau): small
                                                  for tau in g.elements()})
                     for sigma in g.elements() for small in small_mats)

    def on_right(rho, tau):
        return g.mul(tau, rho)

    p = RingBimodule(ring1.algebra, ring2.algebra, n * ctx_e.p.dim,
                     spread(ctx_e.p.left, ctx_e.p.dim, g.mul),
                     spread(ctx_e.p.right, ctx_e.p.dim, on_right))
    q = RingBimodule(ring2.algebra, ring1.algebra, n * ctx_e.q.dim,
                     spread(ctx_e.q.left, ctx_e.q.dim, g.mul),
                     spread(ctx_e.q.right, ctx_e.q.dim, on_right))

    def spread_pairing(pair: Mat, ring: GradedAlgebra, left: int, right: int) -> Mat:
        """The pairing of the degree sigma copy of basis element i of the
        left module with the degree rho copy of the right module, in degree
        sigma rho: part i of the pair at column block (sigma, i, rho)."""
        parts = hsplit(pair, [right] * left)
        return block_matrix(F, ring.dims, [right] * (n * left * n),
                            {(g.mul(sigma, rho), (sigma * left + i) * n + rho): part
                             for sigma in g.elements() for i, part in enumerate(parts)
                             for rho in g.elements()})

    pd, qd = ctx_e.p.dim, ctx_e.q.dim
    ctx = MoritaContext(ring1.algebra, ring2.algebra, p, q,
                        spread_pairing(ctx_e.tau, ring1, pd, qd),
                        spread_pairing(ctx_e.mu, ring2, qd, pd))
    return GradedMoritaContext(ctx, g, ring1, ring2, (pd,) * n, (qd,) * n)


def check_group_ring_context_match(d: "Derived") -> CheckReport:
    """For a cofree coring carrying the grouplike family, with the
    `structfile.Derived` objects `d`: the graded context is isomorphic to the
    group-ring extension of the slice context, through the diagonal, tag-swap
    and shift comparison maps."""
    sigmas, sig_rep = d.cofree_dual
    rep = CheckReport()
    c = d.grouplike.coring
    g = c.group
    F = c.base.field
    r, t = d.dual_ring, d.coinvariants
    gctx, s, wq = d.graded_morita[0], d.coefficients, d.connecting_spaces[0]
    ctx_e, w_e = d.slice.morita[0], d.slice.connecting_spaces[0]
    ring_ctx_e = group_ring_context(ctx_e, g)
    rep.extend(sig_rep)
    # the slice coinvariants must match the family coinvariants
    rep.add("ring-match.coinvariants",
            "slice coinvariants equal the family coinvariants",
            ctx_e.ring1.mul_mat == t.algebra.mul_mat)
    # Theta: T[G] -> G*S via diagonal families
    theta = block_diagonal([s.diag] * g.order)
    rep.add("ring-match.theta-bijective", "diagonal comparison is bijective",
            is_invertible(theta), f"{theta.cols} -> {theta.rows}")
    tg = ring_ctx_e.ring1.algebra
    bad = algebra_map_failures(theta, tg.mul_mat, s.twisted.algebra.mul_mat)
    rep.add("ring-match.theta-multiplicative", "diagonal comparison preserves products",
            not bad and theta.apply(tg.unit) == s.twisted.algebra.unit,
            f"failing pairs: {bad[:5]}" if bad else "")
    # phi47 packed: R_e[G] -> packed R through the shifts
    packed = r.packed()
    phi47 = block_diagonal(sigmas)
    reg = ring_ctx_e.ring2.algebra
    bad = algebra_map_failures(phi47, reg.mul_mat, packed.algebra.mul_mat)
    rep.add("ring-match.shift-multiplicative",
            "shift comparison of the dual rings preserves products",
            not bad and phi47.apply(reg.unit) == packed.algebra.unit,
            f"failing pairs: {bad[:5]}" if bad else "")
    # the tag swap on the base copies is the identity in these coordinates;
    # equivariance over both ring comparisons pins it down
    ident_p = Mat.identity(F, gctx.ctx.p.dim)
    bad = [("left", k) for k in intertwining_failures(
        ident_p, ring_ctx_e.ctx.p.left, gctx.ctx.p.left, theta)]
    bad += [("right", k) for k in intertwining_failures(
        ident_p, ring_ctx_e.ctx.p.right, gctx.ctx.p.right, phi47)]
    rep.add("ring-match.base-equivariant",
            "base copies carry the same actions through the ring comparisons",
            not bad, f"failing: {bad[:5]}" if bad else "")
    # j: slice connecting space -> family connecting space through the shifts
    coords, outside = rowspace_coords(wq, hstack([w_e @ sigma.transpose() for sigma in sigmas]))
    jg = tensor_k(Mat.identity(F, g.order), coords.transpose())
    rep.add("ring-match.connecting-lands",
            "shifted slice families are connecting families", not outside)
    rep.add("ring-match.connecting-bijective",
            "the shifted comparison of connecting spaces is bijective",
            is_invertible(jg), f"{jg.cols} -> {jg.rows}")
    if not is_invertible(jg):
        return rep
    jg_inv = inverse(jg)
    bad = [("left", k) for k in intertwining_failures(
        jg, ring_ctx_e.ctx.q.left, gctx.ctx.q.left, phi47)]
    bad += [("right", k) for k in intertwining_failures(
        jg, ring_ctx_e.ctx.q.right, gctx.ctx.q.right, theta)]
    rep.add("ring-match.connecting-equivariant",
            "the connecting comparison intertwines both bimodule structures",
            not bad, f"failing: {bad[:5]}" if bad else "")
    lhs = gctx.ctx.tau
    rhs = kron_after(theta @ ring_ctx_e.ctx.tau, ident_p, jg_inv)
    rep.add("ring-match.square-one",
            "first connecting maps agree through the comparisons", lhs == rhs)
    lhs = gctx.ctx.mu
    rhs = kron_after(phi47 @ ring_ctx_e.ctx.mu, jg_inv, ident_p)
    rep.add("ring-match.square-two",
            "second connecting maps agree through the comparisons", lhs == rhs)
    return rep


# -- the equivalent characterizations battery --------------------------------------------------

def galois_equivalence_battery(d: "Derived") -> CheckReport:
    """Four equivalent characterizations of the Galois property for corings
    whose components are left progenerators, evaluated independently on the
    family of `d` (the `structfile.Derived` of its coring) over its base
    morphism b:

    1. the canonical comparison is an isomorphism and the extension is
       faithfully flat;
    2. its dual is a graded ring isomorphism and the extension is a
       progenerator;
    3. the base equals the coinvariants, the diagonal map onto the shift
       ring is bijective, and the graded context is strict;
    4. the base equals the coinvariants and induction/coinvariants form an
       object-level equivalence.
    """
    rep = CheckReport()
    x, b = d.grouplike, d.base
    c = x.coring
    for a in c.group.elements():
        comp = Bimodule(c.base, c.comps[a].dim, c.comps[a].left, None)
        preds = left_module_predicates(comp)
        if not preds.progenerator:
            raise HypothesisFailed(f"component {a} is not a left progenerator")
    rep.add("battery.hypothesis", "every component is a left progenerator", True)
    preds_b = d.extension
    can = canonical_morphism(x, b)
    can_iso = validate_coring_morphism(can.morphism).ok and all(
        is_invertible(m) for m in can.morphism.maps)
    s1 = can_iso and preds_b.faithfully_flat
    rep.add("battery.statement-1",
            "canonical comparison iso + faithfully flat extension", True,
            f"value={s1} (iso={can_iso}, faithfully_flat={preds_b.faithfully_flat})")
    dual_can = dual_morphism(can.morphism, d.dual_ring)
    dual_ok = validate_graded_ring_morphism(dual_can).ok and is_graded_ring_iso(dual_can)
    s2 = dual_ok and preds_b.progenerator
    rep.add("battery.statement-2",
            "dual comparison graded ring iso + progenerator extension", True,
            f"value={s2} (dual_iso={dual_ok}, progenerator={preds_b.progenerator})")
    b_is_t = d.onto_coinvariants
    diag_bij = is_invertible(d.coefficients.diag)
    strict_verdict, strict_rep = d.graded_strict
    s3 = b_is_t and diag_bij and strict_verdict
    rep.add("battery.statement-3",
            "base equals coinvariants + diagonal iso + strict graded context", True,
            f"value={s3} (base={b_is_t}, diagonal={diag_bij}, strict={strict_verdict})")
    rep.extend(strict_rep, prefix="battery.")
    units_ok, counits_ok, _ = d.induction
    s4 = b_is_t and units_ok and counits_ok
    rep.add("battery.statement-4",
            "base equals coinvariants + object-level induction equivalence", True,
            f"value={s4} (base={b_is_t}, units={units_ok}, counits={counits_ok})")
    agreement = s1 == s2 == s3 == s4
    rep.add("battery.agreement", "all four characterizations agree",
            agreement, f"values=({s1}, {s2}, {s3}, {s4})")
    return rep
