"""Grouplike families, coinvariants, the canonical comparison morphism and
the Galois property, with the object-level structure equivalence battery.

A grouplike family turns the base algebra into a comodule; its coinvariants
form the small ring of the descent picture.  The canonical morphism compares
the cofree coring built on the two-sided tensor square of the base with the
given coring; bijectivity of every component is the Galois property.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from corings.algebra import (
    Algebra,
    Bimodule,
    ModulePredicates,
    algebra_map_failures,
    cached_tensor,
    collapse_left,
    collapse_right,
    direct_sum_bimodule,
    left_module_predicates,
    subalgebra,
)
from corings.comodules import (
    Comodule,
    GComodule,
    coring_as_gcomodule,
    replicate_comodule,
)
from corings.coring import (
    CofreeWitness,
    GroupCoring,
    GroupCoringMorphism,
    cofree_coring,
    validate_coring_morphism,
)
from corings.groups import TRIVIAL_GROUP
from corings.linalg import (
    LinearSystem,
    Mat,
    QuotientSpace,
    balanced_quotient,
    hstack,
    inverse,
    is_invertible,
    kernel,
    kron_after,
    random_invertible,
    rank,
    row_space,
    rowspace_coords,
    tensor_k,
    tensor_vec,
    unit_vec,
    unvec_rows,
    vstack,
)
from corings.report import CheckReport


class ImageNotInCoinvariants(ValueError):
    """Raised when a base ring morphism does not land in the coinvariants."""


@dataclass(frozen=True)
class GrouplikeFamily:
    coring: GroupCoring
    vectors: tuple  # per degree: coordinate tuple in C_a

    def vec(self, a: int) -> tuple:
        return self.vectors[a]

    @cached_property
    def left_translates(self) -> tuple:
        """Per degree a: the C_a.dim x A.dim matrix of b -> b.x_a."""
        c = self.coring
        ident = Mat.identity(c.base.field, c.base.dim)
        return tuple(kron_after(collapse_left(m), ident, Mat.col_vector(c.base.field, x))
                     for m, x in zip(c.comps, self.vectors))

    @cached_property
    def right_translates(self) -> tuple:
        """Per degree a: the C_a.dim x A.dim matrix of b -> x_a.b."""
        c = self.coring
        ident = Mat.identity(c.base.field, c.base.dim)
        return tuple(kron_after(collapse_right(m), Mat.col_vector(c.base.field, x), ident)
                     for m, x in zip(c.comps, self.vectors))


def validate_grouplike(x: GrouplikeFamily) -> CheckReport:
    rep = CheckReport()
    c = x.coring
    g = c.group
    F = c.base.field
    bad = []
    for a in g.elements():
        for b in g.elements():
            ab = g.mul(a, b)
            t = c.tensor(a, b)
            lhs = c.delta[(a, b)].apply(x.vec(ab))
            rhs = t.pure(x.vec(a), x.vec(b))
            if lhs != rhs:
                bad.append((a, b))
    rep.add("grouplike.comultiplicative", "comultiplication splits the family",
            not bad, f"failing pairs: {bad}" if bad else "")
    e = g.identity
    rep.add("grouplike.counit", "counit of the identity-degree element is one",
            c.counit.apply(x.vec(e)) == c.base.unit)
    return rep


# -- grouplikes vs comodule structures on the base ---------------------------------

def comodule_from_grouplike(x: GrouplikeFamily) -> Comodule:
    c = x.coring
    A = c.base
    space = Bimodule.right_regular(A)
    unit = Mat.col_vector(A.field, A.unit)
    # rho_a(b) = 1 (x) x_a.b
    return Comodule(c, space, [kron_after(cached_tensor(space, c.comps[a]).space.proj, unit,
                                          x.right_translates[a]) for a in c.group.elements()])


def grouplike_from_comodule(m: Comodule) -> GrouplikeFamily:
    """Read the family back off the coaction of the unit."""
    c = m.coring
    g = c.group
    A = c.base
    if m.space.dim != A.dim:
        raise ValueError("comodule is not carried by the base algebra")
    vectors = []
    for a in g.elements():
        t = m.tensor(a)
        amb = t.space.sect.apply(m.rho[a].apply(A.unit))
        vectors.append(collapse_left(c.comps[a]).apply(amb))
    return GrouplikeFamily(c, tuple(vectors))


# -- coinvariants --------------------------------------------------------------------

@dataclass(frozen=True)
class CoinvariantRing:
    basis: Mat            # rows span T inside the base algebra
    algebra: Algebra      # T in the solved basis
    inclusion: Mat        # base.dim x T.dim


def coinvariant_ring(x: GrouplikeFamily) -> CoinvariantRing:
    """T = elements of the base commuting with every member of the family."""
    basis = kernel(vstack([left - right for left, right
                           in zip(x.left_translates, x.right_translates)]))
    alg, incl = subalgebra(x.coring.base, basis)
    return CoinvariantRing(basis, alg, incl)


def g_coinvariants(m: GComodule, x: GrouplikeFamily) -> Mat:
    """Basis rows of the family coinvariants inside the direct sum of the
    components (blocks ordered by degree)."""
    c = m.coring
    g = c.group
    F = c.base.field
    sys = LinearSystem(F, {a: (m.comps[a].dim, 1) for a in g.elements()})
    one = Mat.identity(F, 1)
    for a in g.elements():
        for b in g.elements():
            coact = kron_after(m.tensor(a, b).space.proj, Mat.identity(F, m.comps[a].dim),
                               Mat.col_vector(F, x.vec(b)))
            sys.add((1, g.mul(a, b), m.rho[(a, b)], one), (-1, a, coact, one))
    return sys.kernel()


def span_action(w: Mat, acts) -> tuple[list, bool]:
    """Each matrix of acts on the span of the rows of w, in the coordinates
    of those rows, and whether the span is closed under all of them: the
    images of the rows under every act, solved at once."""
    acts = list(acts)
    coords, outside = rowspace_coords(w, vstack([Mat.zeros(w.field, 0, w.cols)]
                                                + [w @ act.transpose() for act in acts]))
    blocks = unvec_rows(coords.reshape(len(acts), w.rows * w.rows), w.rows, w.rows)
    return [block.transpose() for block in blocks], not outside


# -- ring morphisms and induction -----------------------------------------------------

@dataclass(frozen=True)
class RingMorphism:
    src: Algebra
    dst: Algebra
    mat: Mat  # dst.dim x src.dim


def validate_ring_morphism(b: RingMorphism) -> CheckReport:
    rep = CheckReport()
    rep.add("ring-morphism.unit", "preserves the unit",
            b.mat.apply(b.src.unit) == b.dst.unit)
    bad = algebra_map_failures(b.mat, b.src.mul_mat, b.dst.mul_mat)
    rep.add("ring-morphism.multiplicative", "preserves products",
            not bad, f"failing pairs: {bad}" if bad else "")
    return rep


def inclusion_morphism(t: CoinvariantRing, a: Algebra) -> RingMorphism:
    return RingMorphism(t.algebra, a, t.inclusion)


def _check_image_in_coinvariants(b: RingMorphism, x: GrouplikeFamily) -> None:
    degrees = x.coring.group.elements()
    # column i of moved[a]: image i times x_a minus x_a times image i
    moved = [(x.left_translates[a] - x.right_translates[a]) @ b.mat for a in degrees]
    for i in range(b.src.dim):
        for a in degrees:
            if any(moved[a].col(i)):
                raise ImageNotInCoinvariants(
                    f"image of basis element {i} does not centralize the family at degree {a}")


@dataclass(frozen=True)
class InducedComodule:
    comodule: Comodule
    space: QuotientSpace  # of N (x)k A


def induce_comodule(n: Bimodule, b: RingMorphism, x: GrouplikeFamily) -> InducedComodule:
    """N (x)_B A with coaction through the grouplike family."""
    _check_image_in_coinvariants(b, x)
    c = x.coring
    A = c.base
    F = A.field
    q = balanced_quotient(F, n.dim, A.dim, n.right, A.left_mults(b.mat))
    right = tuple(kron_after(q.proj, Mat.identity(F, n.dim), R) @ q.sect for R in A.right_mats)
    space = Bimodule(A, q.dim, None, right)
    # column i: the class of n_i (x) 1
    base_cls = kron_after(q.proj, Mat.identity(F, n.dim), Mat.col_vector(F, A.unit))
    # rho_a(n_i (x) b) = (n_i (x) 1) (x) x_a.b
    rho = [kron_after(cached_tensor(space, c.comps[a]).space.proj, base_cls,
                      x.right_translates[a]) @ q.sect for a in c.group.elements()]
    return InducedComodule(Comodule(c, space, rho), q)


def induce_gcomodule(n: Bimodule, b: RingMorphism, x: GrouplikeFamily) -> GComodule:
    return replicate_comodule(induce_comodule(n, b, x).comodule)


def free_right_module(b: Algebra, r: int) -> Bimodule:
    ident = Mat.identity(b.field, r)
    right = tuple(tensor_k(ident, R) for R in b.right_mats)
    return Bimodule(b, r * b.dim, None, right)


# -- the canonical morphism ------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalMorphism:
    domain: GroupCoring          # cofree coring on the two-sided tensor square
    witness: CofreeWitness
    morphism: GroupCoringMorphism
    square: QuotientSpace        # A (x)_B A
    grouplike: GrouplikeFamily   # class of 1 (x) 1 in every degree


def sweedler_coring(b: RingMorphism, group) -> tuple[GroupCoring, CofreeWitness,
                                                     QuotientSpace, GrouplikeFamily]:
    """The cofree coring on the two-sided tensor square of the target over
    the source, with the class of 1 (x) 1 as its canonical grouplike family."""
    A = b.dst
    F = A.field
    q = balanced_quotient(F, A.dim, A.dim, A.right_mults(b.mat), A.left_mults(b.mat))
    ident = Mat.identity(F, A.dim)
    left = tuple(kron_after(q.proj, L, ident) @ q.sect for L in A.left_mats)
    right = tuple(kron_after(q.proj, ident, R) @ q.sect for R in A.right_mats)
    d_e = Bimodule(A, q.dim, left, right)
    # column i * dim + j: the class of (e_i (x) 1) (x) (1 (x) e_j)
    unit = Mat.col_vector(F, A.unit)
    split = kron_after(cached_tensor(d_e, d_e).space.proj,
                       kron_after(q.proj, ident, unit), kron_after(q.proj, unit, ident))
    slice_coring = GroupCoring(TRIVIAL_GROUP, A, (d_e,), {(0, 0): split @ q.sect},
                               A.mul_mat @ q.sect)
    dom, wit = cofree_coring(slice_coring, group)
    one_cls = q.project(tensor_vec(F, A.unit, A.unit))
    gl = GrouplikeFamily(dom, tuple(one_cls for _ in group.elements()))
    return dom, wit, q, gl


def canonical_morphism(x: GrouplikeFamily, b: RingMorphism) -> CanonicalMorphism:
    _check_image_in_coinvariants(b, x)
    c = x.coring
    dom, wit, q, gl = sweedler_coring(b, c.group)
    # b (x) b' -> b.x_a.b'
    maps = [hstack([L @ x.right_translates[a] for L in c.comps[a].left]) @ q.sect
            for a in c.group.elements()]
    mor = GroupCoringMorphism(dom, c, maps)
    return CanonicalMorphism(dom, wit, mor, q, gl)


def onto_coinvariants(b: RingMorphism, t: CoinvariantRing) -> bool:
    """Whether the base morphism is injective with image the coinvariants."""
    return rank(b.mat) == b.src.dim and row_space(b.mat.transpose()) == row_space(t.basis)


def check_base_ring(d: "Derived") -> CheckReport:
    """The supplied base ring of `d` compared against the coinvariants."""
    rep = CheckReport()
    matches = d.onto_coinvariants
    rep.add("galois.base-ring", "supplied base ring matches the coinvariants",
            matches, "" if matches else
            f"supplied dim {d.base.src.dim}, coinvariants dim {d.coinvariants.basis.rows}")
    return rep


def coinvariant_canonical_morphism(x: GrouplikeFamily, t: CoinvariantRing) -> CanonicalMorphism:
    """The canonical morphism over the coinvariant ring `t` of the family."""
    return canonical_morphism(x, inclusion_morphism(t, x.coring.base))


def is_galois(x: GrouplikeFamily, can: CanonicalMorphism) -> tuple[bool, CheckReport]:
    """Galois property: the canonical morphism `can` from the cofree coring
    on the coinvariant tensor square is an isomorphism of group corings."""
    rep = CheckReport()
    c = x.coring
    mrep = validate_coring_morphism(can.morphism)
    rep.add("galois.canonical-morphism", "canonical comparison is a coring morphism",
            mrep.ok, "; ".join(f"{it.check_id}" for it in mrep.failures()))
    bad = []
    for a in c.group.elements():
        mat = can.morphism.maps[a]
        if not is_invertible(mat):
            bad.append(f"degree {a}: {mat.cols} -> {mat.rows}, rank {rank(mat)}")
    rep.add("galois.bijective", "every canonical component is bijective",
            not bad, "; ".join(bad))
    verdict = mrep.ok and not bad
    return verdict, rep


def galois_decomposition(x: GrouplikeFamily, can: CanonicalMorphism,
                         galois: tuple[bool, CheckReport]):
    """When Galois: the induced cofree witness (connecting maps through the
    canonical morphism) plus the degree-e Galois verdict.

    Returns (witness, report) with witness None when not Galois.  The report
    also confirms the reverse composition: connecting maps composed with the
    degree-e canonical map recover every component map bijectively.  `can`
    and `galois` are the canonical morphism over the coinvariants and the
    result of `is_galois` on it.
    """
    rep = CheckReport()
    c = x.coring
    g = c.group
    verdict, sub = galois
    rep.extend(sub)
    if not verdict:
        rep.add("decomposition.available", "coring splits as a cofree coring", False,
                "not Galois")
        return None, rep
    e = g.identity
    can_e_inv = inverse(can.morphism.maps[e])
    gammas = tuple(can.morphism.maps[a] @ can_e_inv for a in g.elements())
    wit = CofreeWitness(c, gammas)
    bad = [a for a in g.elements() if gammas[a].apply(x.vec(e)) != x.vec(a)]
    rep.add("decomposition.grouplike", "connecting maps carry the identity-degree element",
            not bad, f"failing degrees: {bad}" if bad else "")
    rep.add("decomposition.e-galois", "the degree-e slice is Galois", True)
    bad = []
    for a in g.elements():
        recomposed = gammas[a] @ can.morphism.maps[e]
        if recomposed != can.morphism.maps[a] or rank(recomposed) != recomposed.rows:
            bad.append(a)
    rep.add("decomposition.recompose",
            "cofree witness and the degree-e map rebuild every component",
            not bad, f"failing degrees: {bad}" if bad else "")
    return wit, rep


def check_coinvariants_cofree(x: GrouplikeFamily, w: CofreeWitness,
                              t: CoinvariantRing) -> CheckReport:
    """For a cofree coring whose witness carries the grouplike family, the
    family coinvariants `t` of the base equal the degree-e coinvariants."""
    rep = CheckReport()
    c = x.coring
    g = c.group
    e = g.identity
    carried = all(w.gammas[a].apply(x.vec(e)) == x.vec(a) for a in g.elements())
    rep.add("cofree-coinvariants.carried", "witness carries the grouplike family", carried)
    t_slice = kernel(x.left_translates[e] - x.right_translates[e])
    rep.add("cofree-coinvariants.equal",
            "family coinvariants equal the degree-e coinvariants",
            row_space(t.basis) == row_space(t_slice))
    return rep


# -- module predicates for the base extension ---------------------------------------------

def predicates_of_extension(b: RingMorphism) -> ModulePredicates:
    """Predicates of the target as a left module over the source."""
    module = Bimodule(b.src, b.dst.dim, b.dst.left_mults(b.mat), None)
    return left_module_predicates(module)


# -- unit and counit of the induction adjunction -------------------------------------------

def induction_unit(n: Bimodule, b: RingMorphism, x: GrouplikeFamily) -> tuple[Mat, bool]:
    """The comparison N -> family-coinvariants of the induced family; returns
    (matrix in the solved coinvariant basis, is-bijective)."""
    c = x.coring
    g = c.group
    F = c.base.field
    ind = induce_comodule(n, b, x)
    fam = replicate_comodule(ind.comodule)
    w = g_coinvariants(fam, x)
    # n_i -> the class of n_i (x) 1 in every degree
    coords, outside = rowspace_coords(w, Mat._from_cols(F, [
        ind.space.project(tensor_vec(F, unit_vec(F, n.dim, i), c.base.unit)) * g.order
        for i in range(n.dim)], w.cols).transpose())
    mat = coords.transpose()
    bij = not outside and is_invertible(mat)
    return mat, bij


def induction_counits(m: GComodule, b: RingMorphism, x: GrouplikeFamily) -> tuple[list, bool]:
    """The per-degree comparisons from the induced family on the coinvariants
    back to the family; returns (matrices, all-bijective)."""
    c = x.coring
    g = c.group
    A = c.base
    F = A.field
    w = g_coinvariants(m, x)
    total, _, proj = direct_sum_bimodule(m.comps)
    # right B-module structure on the coinvariants
    right, ok = span_action(w, [total.right_act(b.mat.col(i)) for i in range(b.src.dim)])
    if not ok:
        return [], False
    qq = balanced_quotient(F, w.rows, A.dim, right, A.left_mults(b.mat))
    # degree a: column u * A.dim + j holds the degree-a block of w_u acted on by e_j
    mats = [kron_after(collapse_right(m.comps[a]), proj[a] @ w.transpose(), Mat.identity(F, A.dim))
            @ qq.sect for a in g.elements()]
    return mats, all(is_invertible(eps_a) for eps_a in mats)


def induction_equivalence(x: GrouplikeFamily, b: RingMorphism) -> tuple[bool, bool, str]:
    """Whether the induction unit is bijective on the free right modules of
    rank one and two over the source of `b`, and the counit on every default
    test family; each stops at its first failure, which the detail names."""
    modules = [free_right_module(b.src, 1), free_right_module(b.src, 2)]
    unit_wit = next((f"unit comparison fails on module {i}"
                     for i, n in enumerate(modules) if not induction_unit(n, b, x)[1]), "")
    counit_wit = next((f"counit comparison fails on family object {i}"
                       for i, gm in enumerate(default_test_gcomodules(x, b))
                       if not induction_counits(gm, b, x)[1]), "")
    return not unit_wit, not counit_wit, unit_wit + counit_wit


def structure_theorem_battery(d: "Derived") -> CheckReport:
    """Both sides of the structure equivalence for the family and the base
    morphism of `d` (the `structfile.Derived` of its coring), verified
    object-wise.

    Side one: the base morphism is an isomorphism onto the coinvariants, the
    coring is Galois, and the extension is faithfully flat.  Side two: the
    extension is flat and the induction unit/counit comparisons are bijective
    on every test object.  The check asserts the two sides agree.
    """
    rep = CheckReport()
    iso_onto_t = d.onto_coinvariants
    galois_verdict = d.galois[0]
    preds = d.extension
    side1 = iso_onto_t and galois_verdict and preds.faithfully_flat
    rep.add("structure.side1", "base iso onto coinvariants + Galois + faithfully flat",
            True,
            f"value={side1} (iso={iso_onto_t}, galois={galois_verdict}, "
            f"faithfully_flat={preds.faithfully_flat})")
    units_ok, counits_ok, detail = d.induction
    side2 = preds.flat_projective and units_ok and counits_ok
    rep.add("structure.side2", "flat + unit/counit comparisons bijective on test objects",
            True,
            f"value={side2} (flat={preds.flat_projective}, units={units_ok}, "
            f"counits={counits_ok})" + (f"; {detail}" if not side2 else ""))
    rep.add("structure.agreement", "the two sides of the structure equivalence agree",
            side1 == side2, f"side1={side1}, side2={side2}")
    return rep


def default_test_gcomodules(x: GrouplikeFamily, b: RingMorphism) -> list:
    out = [coring_as_gcomodule(x.coring),
           replicate_comodule(comodule_from_grouplike(x))]
    try:
        out.append(induce_gcomodule(free_right_module(b.src, 1), b, x))
    except ImageNotInCoinvariants:
        pass
    return out


# rank of the free module behind `random_comodule`; rank one is covered by
# the induced module of `default_test_gcomodules`
RANDOM_COMODULE_RANK = 2


def random_comodule(x: GrouplikeFamily, rng, t: CoinvariantRing) -> Comodule:
    """A seeded-random valid comodule: the induced free module of rank
    RANDOM_COMODULE_RANK over the coinvariants `t` of the family, conjugated
    by a random invertible change of basis.

    The seed draws only the change of basis, so every seed checks an
    object of the same size and a suite's cost does not depend on it."""
    c = x.coring
    F = c.base.field
    b = inclusion_morphism(t, c.base)
    ind = induce_comodule(free_right_module(t.algebra, RANDOM_COMODULE_RANK), b, x).comodule
    u = random_invertible(F, ind.space.dim, rng)
    uinv = inverse(u)
    space = Bimodule(c.base, ind.space.dim, None,
                     tuple(u @ R @ uinv for R in ind.space.right))
    return Comodule(c, space, [
        kron_after(cached_tensor(space, c.comps[a]).space.proj, u, Mat.identity(F, c.comps[a].dim))
        @ ind.tensor(a).space.sect @ ind.rho[a] @ uinv for a in c.group.elements()])
