"""Realizability verdicts and worked isometry actions on the K3 lattice.

Two decision procedures sit at the center: decide_metric tests a finite
isometry group against the (-2)-vector obstruction in its coinvariant
lattice, and decide_complex additionally demands a trivial summand in
the orthogonal complement of L_G. Around them: the classification of
odd prime order actions into rotation-free (Nikulin) and root-spanned
(Coxeter) kinds, the obstruction report for squared Dehn twists, and
explicit constructions exercising every branch: the alternating group
A_4 on U^3 + E8(-1)^2, the involution swapping the two E8(-1) summands,
a rank-22 Coxeter-kind model, and for each p in {2, 3, 5, 7} a glued
unimodular model realizing the order-p rotation of the family lattice.

Search-discovered data (discriminant glue images, the A_3 + A_3 chain
embedding into E8) is pinned as module constants. A builder checks the
intermediate facts its later steps rely on, raising AssertionError or
ArithmeticError that names the failed claim, and records each identity
the paper states as the value it computed, in its certificates; the
scenario rows of k3lat.scenarios compare those values with the claims,
once. The searches that first produced the pins live with the tests,
which re-derive them.
"""

import itertools
from fractions import Fraction

from . import is_prime
from .matrix import (
    block_diag,
    char_poly,
    det,
    dot,
    identity_matrix,
    int_kernel,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_sub,
    row_hnf,
    transpose,
    vec_mat,
)
from .lattice import (
    DiscriminantForm,
    Lattice,
    direct_sum,
    express_in_basis,
    gram_of_rows,
    sublattice_index,
    two_elementary_profile,
)
from .standard import (
    cartan_matrix,
    cycle_coxeter_matrix,
    hyperbolic_plane,
    k3_lattice,
    reflection,
    root_lattice,
)
from .shortvec import (
    classify_root_system,
    disc_form_isometry,
    enumerate_vectors,
    has_minus_two_vector,
    lattice_isometry,
    min_norm_and_kissing,
)
from .groups import (
    IsometryGroup,
    coinvariant_L_G,
    jordan_blocks,
    regular_summand_discriminant_check,
    spinor_plus_membership,
    zg_decomposition,
)


TEICHMUELLER_CAVEAT = (
    "Lattice-level verdict only: whether the action also preserves a "
    "connected component of the Teichmueller space of Einstein metrics "
    "is a geometric hypothesis outside the scope of this computation.")

# profile a smooth involution fixing a positive 3-plane pointwise must have
REALIZABLE_INVOLUTION_TCR = (6, 0, 8)


class HypothesisViolated(ValueError):
    pass


class RealizabilityReport:
    """Joint verdict of both realizability tests for one group.

    coinvariant is the CoinvariantResult the verdicts were decided from.
    """

    def __init__(self, metric, metric_witness, complex_verdict,
                 complex_reason, complex_witness, L_G_rank, coinvariant=None):
        if metric not in ("yes", "no"):
            raise AssertionError("metric verdict must be yes or no, got %r"
                                 % (metric,))
        if complex_verdict not in ("yes", "no"):
            raise AssertionError("complex verdict must be yes or no, got %r"
                                 % (complex_verdict,))
        if complex_verdict == "yes" and metric != "yes":
            raise AssertionError("complex yes must imply metric yes")
        self.metric, self.metric_witness = metric, metric_witness
        self.complex_verdict = complex_verdict
        self.complex_reason = complex_reason
        self.complex_witness = complex_witness
        self.L_G_rank, self.caveat = L_G_rank, TEICHMUELLER_CAVEAT
        self.coinvariant = coinvariant


class DichotomyReport:
    def __init__(self, p, nu, kind, evidence):
        self.p, self.nu = p, nu
        self.kind = kind            # Nikulin | Coxeter | violation
        self.evidence = evidence


class ExampleAction:
    """A constructed group plus everything needed to analyze it.

    projectors, when set, carries rational isotypic projectors, which
    decide accepts with --isotypic and checks against the components it
    computes; certificates records every identity verified during
    construction, for report emission; fixed_gram, when set, is the Gram
    of the fixed sublattice computed during construction.
    """

    def __init__(self, group, projectors, certificates, fixed_gram=None):
        self.group, self.projectors = group, projectors
        self.certificates = certificates
        self.fixed_gram = fixed_gram


def decide_metric(group, isotypic_data=None, budget=None):
    """(verdict, witness, coinvariant result) for the metric question.

    yes iff L_G contains no vector of square -2; on no, the witness is
    such a vector in ambient coordinates.
    """
    res = coinvariant_L_G(group, isotypic_data)
    if not res.L_G:
        return "yes", None, res
    flag, wit = has_minus_two_vector(res.L_G_gram, budget=budget)
    if flag:
        amb = vec_mat(wit, res.L_G)
        gv = vec_mat(amb, group.ambient.gram)
        if dot(gv, amb) != -2:
            raise AssertionError("metric witness must have square -2, got %d"
                                 % dot(gv, amb))
        return "no", [int(x) for x in amb], res
    return "yes", None, res


def decide_complex(group, isotypic_data=None, budget=None):
    """Full realizability report: metric verdict plus the complex one.

    complex is yes iff metric is yes and the fixed lattice L^G holds a
    trivial summand orthogonal to L_G. L^G is the trivial isotypic
    component: with a positive part it lies outside L_G, so orthogonal to
    it, and the witness is its first canonical basis row; without one it
    lies inside the negative definite L_G, which meets L_G-perp in 0.
    """
    verdict, wit, res = decide_metric(group, isotypic_data, budget=budget)
    if verdict == "no":
        return RealizabilityReport("no", wit, "no", "no-minus-two-failed",
                                   None, len(res.L_G), coinvariant=res)
    if res.fixed_plus:
        return RealizabilityReport("yes", None, "yes", "ok",
                                   list(res.fixed[0]), len(res.L_G),
                                   coinvariant=res)
    return RealizabilityReport("yes", None, "no",
                               "no-trivial-rep-in-complement", None,
                               len(res.L_G), coinvariant=res)


def dehn_twist_obstruction(v):
    """Obstruction report for the squared Dehn twist along a (-2)-sphere.

    The reflection in v is the candidate action on homology. Its
    coinvariant lattice is Z v, which contains the (-2)-vector v itself,
    so the metric verdict is no. Independently, the reflection's summand
    profile (one regular block) differs from the profile any smooth
    involution fixing a positive 3-plane pointwise must carry (eight
    regular blocks); both profiles are computed and compared exactly.
    """
    ambient = k3_lattice()
    v = [int(x) for x in v]
    R = reflection(ambient.gram, v)
    group = IsometryGroup(ambient, [R])
    verdict, wit, res = decide_metric(group)
    if len(res.L_G) != 1:
        raise AssertionError("the coinvariant lattice of a reflection must "
                             "have rank 1")
    dec = zg_decomposition(R, 2)
    tcr = (dec.t, dec.c, dec.r)
    profiles_differ = tcr != REALIZABLE_INVOLUTION_TCR
    return {
        "vector": v,
        "metric": verdict,
        "witness": wit,
        "L_G_rank": len(res.L_G),
        "tcr": tcr,
        "jordan_blocks": dec.jordan_blocks,
        "realizable_tcr": REALIZABLE_INVOLUTION_TCR,
        "realizable_blocks": jordan_blocks(2, *REALIZABLE_INVOLUTION_TCR),
        "profiles_differ": profiles_differ,
        "obstructed": verdict == "no" and profiles_differ,
    }


def classify_dichotomy(group, budget=None, coinvariant=None, dec=None):
    """Sort an odd prime order action into Nikulin or Coxeter kind.

    Requires a positive 3-plane inside the fixed sublattice and no
    cyclotomic summands; violations of either hypothesis raise. A third
    verdict, kind = violation, covers root data matching neither shape.
    A caller that already holds the group's CoinvariantResult passes it
    as coinvariant, so the fixed sublattice and L_G are not recomputed,
    and likewise the zg_decomposition of its generator as dec.
    """
    p = group.order()
    if p == 2 or not is_prime(p):
        raise ValueError("group must have odd prime order, got %d" % p)
    # every element but 1 generates a group of prime order
    g = next(h for h in group.generators if h != identity_matrix(len(h)))
    coinvariant = coinvariant or coinvariant_L_G(group)
    if coinvariant.fixed_plus != 3:
        raise HypothesisViolated("fixed sublattice carries sig_plus = %d, "
                                 "need 3" % coinvariant.fixed_plus)
    dec = dec or zg_decomposition(g, p)
    if dec.c != 0:
        raise HypothesisViolated(
            "cyclotomic summands present (c = %d)" % dec.c)
    L = coinvariant.L_G
    if len(L) % (p - 1):
        raise AssertionError("the rank of L_G must be a multiple of p - 1")
    nu = len(L) // (p - 1)
    evidence = {"tcr": (dec.t, dec.c, dec.r), "L_G_rank": len(L)}
    rs = classify_root_system(coinvariant.L_G_gram, budget=budget)
    evidence["root_components"] = list(rs.components)
    if rs.is_empty():
        evidence["nu_times_p_plus_1"] = nu * (p + 1)
        # p + 1 | 24 and rank L_G = nu(p - 1) <= 19 (definite) leave p <= 7
        ok = nu * (p + 1) == 24
        return DichotomyReport(p, nu, "Nikulin" if ok else "violation",
                               evidence)
    evidence["spanning"] = rs.spanning
    if rs.components != [("A", p - 1)] * nu or not rs.spanning:
        return DichotomyReport(p, nu, "violation", evidence)
    # restriction of g to L_G (saturated and stable, hence integral)
    M = express_in_basis(mat_mul(L, g), L, "g must preserve L_G")
    certificates = []
    for simple, part in zip(rs.simple_roots, rs.component_roots):
        imgs = [vec_mat(r, M) for r in simple]
        C = express_in_basis(imgs, simple)
        if C is None:
            evidence["component_permuted"] = True
            return DichotomyReport(p, nu, "violation", evidence)
        comp_roots = {tuple(s * x for x in r) for r in part for s in (1, -1)}
        moved = all(tuple(vec_mat(list(r), M)) in comp_roots
                    for r in comp_roots)
        cert = {"char_poly_is_cyclotomic": char_poly(C) == [1] * p,
                "permutes_component_roots": moved,
                "root_pairs": len(comp_roots) // 2}
        certificates.append(cert)
    evidence["coxeter_certificates"] = certificates
    good = all(c["char_poly_is_cyclotomic"] and c["permutes_component_roots"]
               for c in certificates)
    return DichotomyReport(p, nu, "Coxeter" if good else "violation",
                           evidence)


# ---------------------------------------------------------------------------
# the alternating group A_4 on U^3 + E8(-1)^2

# a 3-cycle and a double transposition, as images of positions 0..3
A4_GENERATOR_PERMUTATIONS = ((1, 2, 0, 3), (1, 0, 3, 2))

# two orthogonal A_3 chains among the 240 roots of E8 whose orthogonal
# complement is spanned by two perpendicular vectors of square 4;
# coordinates in the simple root basis of cartan_matrix("E", 8)
A3A3_EMBEDDING = {
    "chain1": [[0, 0, 0, 0, 0, 0, 0, 1],
               [0, 0, 0, 0, 0, 0, 1, 0],
               [0, 0, 0, 0, 0, 1, 0, 0]],
    "chain2": [[0, 0, 0, 1, 0, 0, 0, 0],
               [0, 0, 1, 0, 0, 0, 0, 0],
               [1, 0, 0, 0, 0, 0, 0, 0]],
    "complement": [[2, 4, 4, 6, 4, 3, 2, 1],
                   [3, 4, 6, 9, 8, 6, 4, 2]],
}


def _a3_weyl(img):
    """4-permutation as an isometry of A_3 in simple root coordinates.

    Coordinates pass through the standard presentation (sums of epsilon
    differences); rows are images of the simple roots.
    """
    rows = []
    for i in range(3):
        c = [0, 0, 0, 0]
        c[img[i]] += 1
        c[img[i + 1]] -= 1
        rows.append([c[0], c[0] + c[1], c[0] + c[1] + c[2]])
    return rows


def _contragredient_interleaved(M):
    """blockdiag(M, M^-T) on interleaved (e, f) coordinates of U^3.

    The interleaving realizes the A_3 + A_3-dual pairing lattice directly
    on three hyperbolic planes: e-slots carry M, f-slots its inverse
    transpose, so all evaluation pairings are preserved.
    """
    Minvt = transpose(express_in_basis(identity_matrix(3), M,
                                       "a Weyl element must be unimodular"))
    X = [[0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            X[2 * i][2 * j] = M[i][j]
            X[2 * i + 1][2 * j + 1] = Minvt[i][j]
    return X


def _verify_a3a3(data):
    """Recheck the pinned chains and return the basis rows of E8 they
    span together with the complement, plus the Gram of the complement."""
    C = cartan_matrix("E", 8)
    chain1, chain2, comp = data["chain1"], data["chain2"], data["complement"]
    A3 = cartan_matrix("A", 3)
    for name, chain in (("chain1", chain1), ("chain2", chain2)):
        if gram_of_rows(chain, C) != A3:
            raise AssertionError("the %s rows must have the A_3 Gram in E8"
                                 % name)
    if any(dot(vec_mat(x, C), y) for x in chain1 for y in chain2):
        raise AssertionError("the two A_3 chains must be orthogonal in E8")
    stacked = chain1 + chain2
    K = int_kernel([vec_mat(r, C) for r in stacked])
    if sublattice_index(comp, K) != 1:
        raise AssertionError("complement rows must span the kernel")
    B = stacked + [list(r) for r in comp]
    if abs(det(B)) != 16:
        raise AssertionError("the chains and their complement must span "
                             "a sublattice of index 16 in E8")
    return B, gram_of_rows(comp, C)


def _a4_e8_matrix(img, basis_rows):
    """Weyl action of the 4-permutation transported through the embedding.

    Acts by the same reflection representation on both chains and fixes
    the complement pointwise; lands in W(E8), hence is integral.
    """
    M = _a3_weyl(img)
    D = block_diag(M, M, identity_matrix(2))
    # T = P^-1 D P for P = basis_rows: the integer solution of P T = D P
    T = transpose(express_in_basis(
        transpose(mat_mul(D, basis_rows)), transpose(basis_rows),
        "the A_3 + A_3 action must be integral on E8"))
    return T


def build_a4_example():
    """The order-12 alternating action on U^3 + E8(-1)^2.

    U^3 carries the reflection representation plus its contragredient
    (the A_3 + A_3-dual pairing lattice in disguise); each E8(-1) summand
    carries the reflection representation doubled along the pinned chain
    embedding. Records, for the claim rows to compare: order 12, O^+
    membership, L_G spanned by four perpendicular vectors of square -4,
    metric yes / complex no.
    """
    k3 = k3_lattice()
    basis_rows, complement_gram = _verify_a3a3(A3A3_EMBEDDING)

    # the interleaved pairing lattice is literally U^3: the permutation P6
    # carries the evaluation pairing G6 onto three hyperbolic planes
    G6 = [[0] * 6 for _ in range(6)]
    for i in range(3):
        G6[i][3 + i] = 1
        G6[3 + i][i] = 1
    P6 = [[0] * 6 for _ in range(6)]
    for i in range(3):
        P6[2 * i][i] = 1            # a_i to slot 2i
        P6[2 * i + 1][3 + i] = 1    # w_i to slot 2i+1
    u = hyperbolic_plane().gram
    pairing_is_u3 = gram_of_rows(P6, G6) == block_diag(u, u, u)

    gens = []
    for img in A4_GENERATOR_PERMUTATIONS:
        X = _contragredient_interleaved(_a3_weyl(img))
        T = _a4_e8_matrix(img, basis_rows)
        gens.append(block_diag(X, T, T))
    group = IsometryGroup(k3, gens)
    in_o_plus = all(spinor_plus_membership(k3, g) for g in gens)

    # the Reynolds projector (1/|G|) sum g, summed in integers
    elements = group.elements()
    order = len(elements)
    E = [[Fraction(sum(col), order) for col in zip(*rows)]
         for rows in zip(*elements)]
    projectors = [E, mat_sub(identity_matrix(k3.rank), E)]

    report = decide_complex(group, projectors)
    GL = report.coinvariant.L_G_gram
    mn, kiss = min_norm_and_kissing(GL)
    # perpendicular (-4)-vectors, one per rank, span L_G iff the |det| of
    # their diagonal Gram, 4^rank, equals |det L_G|
    gens4 = enumerate_vectors(GL, -4)
    spanned = (len(gens4) == len(GL)
               and 4 ** len(GL) == abs(det(GL))
               and all(dot(vec_mat(a, GL), b) == 0
                       for a, b in itertools.combinations(gens4, 2)))

    certificates = {
        "order": order,
        "in_O_plus": in_o_plus,
        "pairing_lattice_is_U3": pairing_is_u3,
        "embedding_complement_gram": complement_gram,
        "L_G_rank": len(GL),
        "L_G_min_norm": mn,
        "L_G_kissing": kiss,
        "L_G_perpendicular_minus4_generators": len(gens4) if spanned else 0,
        "metric": report.metric,
        "complex": report.complex_verdict,
        "complex_reason": report.complex_reason,
    }
    return ExampleAction(group, projectors, certificates)


# ---------------------------------------------------------------------------
# the involution swapping the two E8(-1) summands

def build_nikulin_involution():
    """The involution of U^3 + E8(-1)^2 exchanging the E8(-1) summands.

    Records, for the claim rows to compare: order 2, O^+ membership,
    summand profile (6, 0, 8), fixed lattice isometric to U^3 + E8(-2) by
    an explicit basis, L_G isometric to E8(-2) the same way, eight fixed
    points predicted.
    """
    from .gsignature import fixed_point_predictions
    k3 = k3_lattice()
    g = [[0] * 22 for _ in range(22)]
    for i in range(6):
        g[i][i] = 1
    for j in range(8):
        g[6 + j][14 + j] = 1
        g[14 + j][6 + j] = 1
    group = IsometryGroup(k3, [g])
    in_o_plus = spinor_plus_membership(k3, g)

    report = decide_complex(group)
    res = report.coinvariant
    fixed, L = res.fixed, res.L_G

    dec = zg_decomposition(g, 2)
    tcr = (dec.t, dec.c, dec.r)
    reg = regular_summand_discriminant_check(res, g, dec)

    # diagonal basis: u-block vectors plus (0, x, x); Gram is U^3 + E8(-2)
    expected_fixed = []
    for i in range(6):
        row = [0] * 22
        row[i] = 1
        expected_fixed.append(row)
    for j in range(8):
        row = [0] * 22
        row[6 + j] = 1
        row[14 + j] = 1
        expected_fixed.append(row)
    P = express_in_basis(expected_fixed, fixed)
    e8m2 = mat_scale(2, root_lattice("E", 8, -1).gram)
    u = hyperbolic_plane().gram
    fixed_matches = (
        len(fixed) == len(expected_fixed) and P is not None
        and abs(det(P)) == 1
        and gram_of_rows(expected_fixed, k3.gram)
        == block_diag(u, u, u, e8m2))

    # anti-diagonal basis: (0, x, -x); Gram is E8(-2) on the nose
    expected_L = []
    for j in range(8):
        row = [0] * 22
        row[6 + j] = 1
        row[14 + j] = -1
        expected_L.append(row)
    # Q L = expected_L with Q unimodular, so Q carries the computed Gram
    # onto the Gram of expected_L, E8(-2): an explicit isometry
    Q = express_in_basis(expected_L, L)
    L_matches = (
        len(L) == len(expected_L) and Q is not None
        and abs(det(Q)) == 1
        and gram_of_rows(expected_L, k3.gram) == e8m2)

    pred = fixed_point_predictions(2, 8)

    certificates = {
        "order": group.order(),
        "in_O_plus": in_o_plus,
        "tcr": tcr,
        "image_is_direct_summand": reg["image_is_direct_summand"],
        # a dimension over F_2 only if the disc group is an F_2-space
        "disc_dimension_over_F2": (
            reg["disc_dimension_over_Fp"]
            if set(reg["complement_disc_orders"]) <= {2} else None),
        "fixed_rank": len(fixed),
        "fixed_gram_matches_U3_plus_E8_minus_2": fixed_matches,
        "L_G_rank": len(L),
        "L_G_gram_matches_E8_minus_2": L_matches,
        "predicted_fixed_points": pred.euler,
        "metric": report.metric,
        "complex": report.complex_verdict,
    }
    return ExampleAction(group, None, certificates, res.fixed_gram)


# ---------------------------------------------------------------------------
# unimodular gluing

def _verify_anti_isometry(D_src, D_dst, images, p):
    """Generator-level certificate that images define an injective
    homomorphism negating the quadratic form (both groups p-elementary).
    A failed identity raises ArithmeticError naming it and the generator.

    The identities give b(phi x, phi y) = -b(x, y) for all x and y, so
    ker phi lies in the radical of b on D_src, which is 0: the bilinear
    form of a discriminant form is nondegenerate (Nikulin 1979, §1.3).
    So phi is injective with no further check."""
    k = len(D_src.orders)
    if len(images) != k:
        raise ArithmeticError("glue map: %d images for %d generators"
                              % (len(images), k))
    if D_src.orders != [p] * k or set(D_dst.orders) - {p}:
        raise ArithmeticError("glue map: orders %s and %s are not all %d"
                              % (D_src.orders, D_dst.orders, p))
    unit = identity_matrix(k)
    for i in range(k):
        if (D_dst.q(images[i]) + D_src.q(unit[i])) % 2:
            raise ArithmeticError(
                "glue map: q(image of x_%d) = %s is not -q(x_%d) = %s mod 2"
                % (i, D_dst.q(images[i]), i, -D_src.q(unit[i]) % 2))
        for j in range(i + 1, k):
            b_src = D_src.bilinear(unit[i], unit[j])
            b_dst = D_dst.bilinear(images[i], images[j])
            if (b_dst + b_src) % 1:
                raise ArithmeticError(
                    "glue map: b(images of x_%d, x_%d) = %s is not "
                    "-b(x_%d, x_%d) = %s mod 1"
                    % (i, j, b_dst, i, j, -b_src % 1))


def glue_unimodular(K, W, images, p):
    """Even unimodular overlattice of K + W along an anti-isometry graph.

    images lists, per generator of disc(K), its image in disc(W). The
    glued lattice is held in integers over the one denominator p: its
    basis rows B are the row HNF of [p I; lift_K(x) + lift_W(image)].
    Both forms have exponent p, so the lifts are p times representatives
    and B is p times a basis over the K + W frame (Cohen, GTM 138, §2.4);
    its Gram is B (K + W) B^T / p^2. Returns the new lattice, B, and the
    embedding rows of K (integral coordinates in the new basis). The glue
    index |disc K|, evenness, determinant +-1 and a primitive image of K,
    which together certify the anti-isometry globally, are left to the
    caller to read off the result.
    """
    DK = DiscriminantForm(K.gram)
    DW = DiscriminantForm(W.gram)
    _verify_anti_isometry(DK, DW, images, p)
    nk, nw = K.rank, W.rank
    amb = block_diag(K.gram, W.gram)
    pI = mat_scale(p, identity_matrix(nk + nw))
    glue = [DK.lift(x) + DW.lift(img)
            for x, img in zip(identity_matrix(len(images)), images)]
    B = row_hnf(pI + glue)
    G = gram_of_rows(B, amb, p, "glue graph must be isotropic for the "
                     "pairing")
    lam = Lattice(G)
    embed_K = express_in_basis(pI[:nk], B, "K must lie in the glued lattice")
    return lam, B, embed_K


def transport_action(B, M):
    """Conjugate the frame action M into the glued basis B, integer rows
    over any common denominator; must be integral, which is exactly
    invariance of the glue group."""
    return express_in_basis(mat_mul(B, M), B,
                            "action does not preserve the glue")


# ---------------------------------------------------------------------------
# the synthetic Coxeter-kind model

# images of the disc(A_2(-1)^6) generators inside disc of the partner
# lattice U + U(3)^2 + A_2(-1)^2, defining the unimodular glue
COXETER_GLUE_IMAGES = [
    (0, 0, 0, 2, 0, 2), (0, 0, 0, 2, 0, 1), (0, 0, 2, 0, 2, 0),
    (2, 2, 0, 0, 0, 0), (2, 1, 2, 0, 1, 0), (2, 1, 1, 0, 2, 0),
]


def _coxeter_partner():
    return direct_sum(hyperbolic_plane(), hyperbolic_plane(3),
                      hyperbolic_plane(3), root_lattice("A", 2, -1),
                      root_lattice("A", 2, -1))


def build_coxeter_model():
    """A rank-22 action of order 3 whose coinvariant lattice is spanned
    by roots: six blockwise Coxeter rotations on A_2(-1)^6, glued
    unimodularly to an identity block so that no cyclotomic summand
    survives. classify_dichotomy reports Coxeter kind on it.
    """
    A26 = direct_sum(*[root_lattice("A", 2, -1) for _ in range(6)])
    X = _coxeter_partner()
    lam, B, embed_K = glue_unimodular(A26, X, COXETER_GLUE_IMAGES, 3)
    if lam.signature() != (3, 19, 0) or not lam.is_even() \
            or abs(lam.determinant()) != 1:
        raise AssertionError("the Coxeter model must be even unimodular of "
                             "signature (3, 19)")

    c = cycle_coxeter_matrix(2)
    M = block_diag(*([c] * 6 + [identity_matrix(X.rank)]))
    S = transport_action(B, M)
    group = IsometryGroup(lam, [S])
    in_o_plus = spinor_plus_membership(lam, S)

    dec = zg_decomposition(S, 3)
    tcr = (dec.t, dec.c, dec.r)
    report = classify_dichotomy(group, dec=dec)

    certificates = {
        "order": group.order(),
        "in_O_plus": in_o_plus,
        "tcr": tcr,
        "kind": report.kind,
        "nu": report.nu,
        "root_components": report.evidence["root_components"],
        "coxeter_certificates": report.evidence["coxeter_certificates"],
    }
    return ExampleAction(group, None, certificates)


# ---------------------------------------------------------------------------
# glued models of the family rotations

# orthogonal partners: signature (2, 18 - nu(p-1)), discriminant form
# opposite to disc(K_p)
GLUE_PARTNERS = {
    2: lambda: direct_sum(hyperbolic_plane(2), hyperbolic_plane(2),
                          root_lattice("D", 8, -1)),
    3: lambda: direct_sum(hyperbolic_plane(), hyperbolic_plane(3),
                          root_lattice("A", 2, -1), root_lattice("A", 2, -1)),
    5: lambda: direct_sum(hyperbolic_plane(), hyperbolic_plane(5)),
    7: lambda: Lattice([[2, 1], [1, 4]]),
}

GLUE_PARTNER_NAMES = {
    2: "U(2)^2 + D8(-1)",
    3: "U + U(3) + A2(-1)^2",
    5: "U + U(5)",
    7: "[[2,1],[1,4]]",
}

# images of the disc(K_p) generators inside disc of the partner, per p
MODEL_GLUE_IMAGES = {
    2: [(0, 0, 0, 0, 0, 1), (0, 0, 1, 1, 1, 0), (0, 1, 1, 1, 1, 1),
        (1, 0, 1, 1, 1, 1), (0, 0, 0, 1, 0, 1), (1, 1, 0, 0, 1, 1)],
    3: [(0, 0, 0, 2), (0, 0, 2, 1), (1, 0, 0, 2), (0, 2, 1, 0)],
    5: [(0, 4), (2, 2)],
    7: [(4,)],
}


def _transported_family_isometry(fam, embed_K, L_G):
    """Unimodular change of basis carrying the family lattice onto L_G.

    The family lattice sits in K on the first block, as the rows of
    nikulin._flat_L_basis: each basis vector x corrected by -(rho.x)/p
    times the isotropic fixed vector f, which makes it orthogonal to both
    fixed vectors (e'.f = p and e'.x = rho.x) without changing any
    pairing. The corrected image lies in L_G with equal determinant,
    hence equals it. L_G is its basis rows in the glued lattice; returns
    T with T * fam.L.gram * T^t the Gram of those rows.
    """
    from .nikulin import _flat_L_basis
    R = mat_mul(_flat_L_basis(fam), embed_K)
    # X and its inverse are integral exactly when R is a basis of L_G
    X = express_in_basis(R, L_G, "the corrected rows must lie in L_G")
    return express_in_basis(identity_matrix(len(L_G)), X,
                            "the corrected rows must span L_G")


def build_model_prime_action(p, budget=None):
    """Glued unimodular model of the order-p family rotation.

    Embeds K_p primitively into an even unimodular lattice of signature
    (3, 19) by gluing against the pinned partner, extends sigma by the
    identity and records: order p, O^+ membership, sig_plus(fixed), and
    L_G_certification "isometry" when the explicit definite isometry of
    the family lattice onto L_G, transported through the glue with no
    search, carries one Gram onto the other (None otherwise). The
    lattice invariants are read off the one CoinvariantResult of
    decide_complex. The one budgeted search is the lattice isometry of
    L_G onto E8(-2) at p = 2, under budget nodes (None: the default of
    lattice_isometry).
    """
    from .gsignature import fixed_point_predictions
    from .nikulin import GENUS_CANDIDATES, family
    if p not in GLUE_PARTNERS:
        raise ValueError("no embedding data for p = %r" % (p,))
    fam = family(p)
    K = fam.K
    W = GLUE_PARTNERS[p]()
    lam, B, embed_K = glue_unimodular(K, W, MODEL_GLUE_IMAGES[p], p)

    M = block_diag(fam.sigma_K, identity_matrix(W.rank))
    S = transport_action(B, M)
    group = IsometryGroup(lam, [S])
    in_o_plus = spinor_plus_membership(lam, S)

    report = decide_complex(group)
    res = report.coinvariant
    fixed, L, GL = res.fixed, res.L_G, res.L_G_gram
    # coinvariant_L_G has refused a degenerate fixed lattice
    fixed_sig = (res.fixed_plus, len(fixed) - res.fixed_plus, 0)

    dec = zg_decomposition(S, p)
    tcr = (dec.t, dec.c, dec.r)
    reg = regular_summand_discriminant_check(res, S, dec)
    if not reg["disc_is_Fp_space_of_dim_r"]:
        raise AssertionError("the complement of the fixed lattice must have "
                             "disc (Z/p)^r")
    # S is symplectic, so the fixed lattice holds the positive 3-plane and
    # coinvariant_L_G, given no projectors, does not split: L_G is
    # fixed^perp, whose discriminant the check above has read
    L_disc_orders = reg["complement_disc_orders"]

    pred = fixed_point_predictions(p, fam.nu)

    # L_G is the family lattice by an explicit definite isometry
    # transported through the glue
    iso = _transported_family_isometry(fam, embed_K, L)
    isometric = mat_eq(mat_mul(mat_mul(iso, fam.L.gram), transpose(iso)), GL)

    certificates = {
        "p": p,
        "partner": GLUE_PARTNER_NAMES[p],
        # |disc K| = |det K|, which K caches
        "glue_index": abs(K.determinant()),
        "ambient_signature": lam.signature(),
        "ambient_even_unimodular": (lam.is_even()
                                    and abs(lam.determinant()) == 1),
        "K_embedded_primitively": sublattice_index(
            embed_K, int_kernel(int_kernel(embed_K))) == 1,
        "order": group.order(),
        "in_O_plus": in_o_plus,
        "tcr": tcr,
        "fixed_rank": len(fixed),
        "fixed_sig_plus": fixed_sig[0],
        "euler_prediction": pred.euler,
        "euler_equals_nu": pred.euler == fam.nu,
        "L_G_rank": len(L),
        "L_G_disc_orders": L_disc_orders,
        "L_G_certification": "isometry" if isometric else None,
    }

    if p == 2:
        e8m2 = [[2 * x for x in row]
                for row in root_lattice("E", 8, -1).gram]
        T = lattice_isometry(GL, e8m2, budget=budget)
        prof_fixed = two_elementary_profile(DiscriminantForm(res.fixed_gram))
        prof_swap = two_elementary_profile(DiscriminantForm(e8m2))
        certificates["tcr_matches_swap_involution"] = \
            tcr == REALIZABLE_INVOLUTION_TCR
        certificates["L_G_isometric_to_E8_minus_2"] = T is not None
        certificates["fixed_disc_matches_swap_fixed"] = \
            prof_fixed == prof_swap
    else:
        dich = classify_dichotomy(group, coinvariant=res, dec=dec)
        cand = GENUS_CANDIDATES[p]()
        cand_match = cand.signature() == fixed_sig and disc_form_isometry(
            DiscriminantForm(cand.gram), DiscriminantForm(res.fixed_gram))
        certificates["dichotomy_kind"] = dich.kind
        certificates["nu"] = dich.nu
        certificates["fixed_matches_genus_candidate"] = cand_match

    certificates["metric"] = report.metric
    certificates["complex"] = report.complex_verdict

    return ExampleAction(group, None, certificates)
