"""The named reproduction pipelines that `k3lat scenario` runs.

A scenario builds the objects behind one group of the paper's claims and
returns its report checks. Each claim is compared in one place, the check
row that names it: the builders record the values they compute, and the
rows of a scenario compare them with the claimed constants. The example
verb runs the same rows as the matching scenario on the action it emits.

Only the `scenario` and `example` verbs import this module, and each
scenario imports the library modules it calls when it runs, so a run of
defect-table, say, loads gsignature and no lattice code.
"""

from fractions import Fraction

from . import SCHEMA, jsonable

# nu at each prime p of the family: nu(p + 1) = 24
NU = {2: 8, 3: 6, 5: 4, 7: 3}


def _check(name, expected, computed, anchor):
    expected, computed = jsonable(expected), jsonable(computed)
    status = "pass" if expected == computed else "fail"
    return {"name": name, "status": status, "expected": expected,
            "computed": computed, "anchor": anchor}


def _cert_checks(certs, spec_rows):
    """Map computed values (a builder's certificates, a family's checks)
    onto report checks.

    spec_rows: (check name, certificate key, expected value, anchor).
    """
    return [_check(name, expected, certs.get(key), anchor)
            for name, key, expected, anchor in spec_rows]


def _failed(checks):
    return [c for c in checks if c["status"] == "fail"]


def _a4_checks(act):
    rows = [
        ("group-order", "order", 12, "|A_4| = 12"),
        ("generators-orientation", "in_O_plus", True,
         "generators preserve the positive-3-plane orientation"),
        ("pairing-lattice", "pairing_lattice_is_U3", True,
         "A_3 + A_3-dual with the evaluation pairing is U^3"),
        ("embedding-complement", "embedding_complement_gram",
         [[4, 0], [0, 4]],
         "complement of A_3 + A_3 in E8 is spanned by two "
         "perpendicular (+4)-vectors"),
        ("coinvariant-rank", "L_G_rank", 4, "L_G has rank 4"),
        ("coinvariant-min-norm", "L_G_min_norm", 4,
         "minimal |norm| in L_G is 4"),
        ("coinvariant-kissing", "L_G_kissing", 8,
         "8 vectors of minimal norm in L_G"),
        ("perpendicular-generators", "L_G_perpendicular_minus4_generators",
         4, "L_G is spanned by 4 mutually perpendicular (-4)-vectors"),
        ("metric-verdict", "metric", "yes",
         "no (-2)-vector in L_G: isometry action realizable"),
        ("complex-verdict", "complex", "no",
         "no trivial summand in the complement: no complex structure "
         "is preserved"),
    ]
    return _cert_checks(act.certificates, rows)


def _scenario_a4(budget):
    from .realize import build_a4_example
    return _a4_checks(build_a4_example())


def _involution_checks(act):
    from .lattice import DiscriminantForm, two_elementary_profile
    from .matrix import block_diag, mat_scale
    from .standard import hyperbolic_plane, root_lattice
    rows = [
        ("group-order", "order", 2, "the swap is an involution"),
        ("generators-orientation", "in_O_plus", True,
         "the swap preserves the positive-3-plane orientation"),
        ("summand-profile", "tcr", [6, 0, 8],
         "8 regular summands, 6 trivial, no cyclotomic"),
        ("image-direct-summand", "image_is_direct_summand", True,
         "im(g - 1) is a direct summand"),
        ("complement-disc-dimension", "disc_dimension_over_F2", 8,
         "disc of the fixed-lattice complement is an F_2-space of "
         "dimension 8"),
        ("fixed-lattice", "fixed_gram_matches_U3_plus_E8_minus_2", True,
         "fixed lattice is U^3 + E8(-2) by an explicit basis"),
        ("coinvariant-lattice", "L_G_gram_matches_E8_minus_2", True,
         "L_G is E8(-2) by an explicit basis"),
        ("fixed-point-count", "predicted_fixed_points", 8,
         "euler characteristic of the fixed set is 8"),
        ("metric-verdict", "metric", "yes",
         "no (-2)-vector in E8(-2)"),
        ("complex-verdict", "complex", "yes",
         "a fixed vector survives in the complement of L_G"),
    ]
    checks = _cert_checks(act.certificates, rows)
    # signature + discriminant identification, independent of the basis
    u = hyperbolic_plane().gram
    target = block_diag(u, u, u, mat_scale(2, root_lattice("E", 8, -1).gram))
    prof = two_elementary_profile(DiscriminantForm(target))
    prof_fixed = two_elementary_profile(DiscriminantForm(act.fixed_gram))
    checks.append(_check(
        "fixed-disc-profile", prof, prof_fixed,
        "disc of the fixed lattice matches disc of U^3 + E8(-2)"))
    return checks


def _scenario_involution(budget):
    from .realize import build_nikulin_involution
    return _involution_checks(build_nikulin_involution())


def _scenario_family(p, budget):
    from .lattice import DiscriminantForm, sublattice_index, \
        two_elementary_profile
    from .matrix import block_diag, identity_matrix, mat_scale
    from .nikulin import VARPI_NORMS, _flat_rho, _pair, \
        aut_trivial_on_disc_search, family
    from .shortvec import lattice_isometry, min_norm_and_kissing
    from .standard import hyperbolic_plane, root_lattice
    fam = family(p)
    m = fam.nu * (p - 1)
    checks = []

    checks.append(_check("rho-norm", Fraction(-2 * (p - 1) * p),
                         _pair(fam.gram_D, fam.p_rho, fam.p_rho, p),
                         "rho.rho = -2(p-1)p"))
    checks.append(_check("varpi-norm", Fraction(VARPI_NORMS[p]),
                         _pair(fam.gram_D, fam.p_varpi, fam.p_varpi, p),
                         "varpi.varpi determined by the weight vector"))
    # the block lattice and N_p, both scaled by p
    checks.append(_check("overlattice-index", p,
                         sublattice_index(mat_scale(p, identity_matrix(m)),
                                          fam.p_basis_N),
                         "N_p contains the block lattice with index p"))
    checks.append(_check("L-index", p,
                         sublattice_index(fam.L_basis_in_N,
                                          identity_matrix(m)),
                         "L_p has index p in N_p"))
    checks += _cert_checks(fam.checks, [
        ("rho-in-L", "rho_in_L", True, "rho lies in L_p"),
        ("L-disc-orders", "disc_L_orders", [p] * fam.nu,
         "disc(L_p) is (Z/p)^nu"),
        ("L-root-free", "L_has_no_roots", True,
         "L_p contains no (-2)-vectors"),
        ("sigma-trivial-on-disc", "sigma_trivial_on_disc", True,
         "sigma acts trivially on disc(L_p)"),
        ("sigma-shift", "sigma_shift_of_rho_over_p", True,
         "(sigma - 1) maps L_p-dual into L_p"),
        ("K-splits-U", "K_splits_off_U", True, "K_p = N_p + U"),
        ("s-dot-rho", "s_dot_rho", 2 * (p - 1), "s.rho = 2(p-1)"),
    ])
    # K-frame norms, reported as Fractions like the D-frame ones
    checks.append(_check("eprime-isotropic", Fraction(0),
                         Fraction(fam.K.q(fam.K_eprime)),
                         "the distinguished fixed vector e' is isotropic"))
    ps_rho = _flat_rho(fam)
    ps_rho[m + 1] += p
    checks.append(_check("ps-plus-rho-norm", Fraction(-2 * p),
                         Fraction(fam.K.q(ps_rho)),
                         "(p s + rho)^2 = -2p"))
    checks += _cert_checks(fam.checks, [
        ("L-complement-in-K", "complement_is_Up", True,
         "the complement of L_p in K_p has Gram [[0, p], [p, 0]]"),
        ("sigma-extends", "sigma_extends_to_K", True,
         "sigma extends to an isometry of K_p"),
    ])

    if p == 2:
        e8m2 = [[2 * x for x in row]
                for row in root_lattice("E", 8, -1).gram]
        T = lattice_isometry(fam.L.gram, e8m2, budget=budget)
        checks.append(_check("L2-is-E8-minus-2", True, T is not None,
                             "L_2 is isometric to E8(-2)"))
        u2 = hyperbolic_plane(2).gram
        pN = two_elementary_profile(DiscriminantForm(fam.N.gram))
        pU = two_elementary_profile(DiscriminantForm(block_diag(u2, u2, u2)))
        checks.append(_check("N2-disc-is-U2-disc", pU, pN,
                             "disc(N_2) matches disc(U(2)^3)"))
        a1m2 = mat_scale(-4, identity_matrix(8))
        same_orders = DiscriminantForm(e8m2).orders == \
            DiscriminantForm(a1m2).orders
        checks.append(_check("E8-minus-2-disc-differs", False, same_orders,
                             "disc(E8(-2)) differs from disc(A_1(-2)^8)"))
    if p == 3:
        mn, kiss = min_norm_and_kissing(fam.L.gram, budget=budget)
        checks.append(_check("L3-min-norm", 4, mn,
                             "minimal |norm| of L_3 is 4"))
        checks.append(_check("L3-kissing", 756, kiss,
                             "L_3 has 756 minimal vectors"))
    if p in (2, 3):
        aut = aut_trivial_on_disc_search(fam, budget)
        checks.append(_check("disc-trivial-aut-order", p,
                             aut.get("group_order"),
                             "isometries trivial on disc(L_p) are "
                             "exactly the powers of sigma"))
    return checks


def _scenario_defect(budget):
    from .gsignature import defect_point, fixed_point_predictions, \
        max_defect_check
    checks = []
    for p, nu in NU.items():
        closure = nu * defect_point(p, p - 1)
        expected = Fraction((p - 1) * (nu * p - 16))
        checks.append(_check("closure-p%d" % p, expected, closure,
                             "nu * defect(p, p-1) = (p-1)(nu p - 16)"))
        checks.append(_check("euler-count-p%d" % p, nu, 24 - nu * p,
                             "24 - nu p = nu at the equality cases"))
        pred = fixed_point_predictions(p, nu)
        checks.append(_check("prediction-consistent-p%d" % p,
                             expected, pred.total_defect,
                             "prediction table agrees with the closure "
                             "identity"))
    for p in (3, 5, 7):
        rep = max_defect_check(p)
        checks.append(_check("max-defect-p%d" % p,
                             Fraction((p - 1) * (p - 2), 3),
                             rep["max_value"],
                             "the point defect is maximal at q = p-1 "
                             "with value (p-1)(p-2)/3"))
        checks.append(_check("max-defect-strict-p%d" % p, True,
                             rep["strictly_maximal"],
                             "the maximum at q = p-1 is strict"))
    return checks


def _scenario_dehn(budget):
    from .realize import dehn_twist_obstruction
    v = [0] * 22
    v[6] = 1
    rep = dehn_twist_obstruction(v)
    return [
        _check("metric-verdict", "no", rep["metric"],
               "the coinvariant lattice of the reflection contains v "
               "itself"),
        _check("witness", True,
               rep["witness"] in (v, [-x for x in v]),
               "the witness is the twisting sphere class"),
        _check("reflection-profile", {1: 20, 2: 1}, rep["jordan_blocks"],
               "a reflection has one regular summand"),
        _check("realizable-profile", [6, 0, 8],
               list(rep["realizable_tcr"]),
               "a smooth involution fixing a positive 3-plane carries "
               "8 regular summands"),
        _check("profiles-differ", True, rep["profiles_differ"],
               "the two profiles disagree, so no such diffeomorphism "
               "exists"),
    ]


def _scenario_genus(budget):
    from .nikulin import genus_check_lambda_G
    checks = []
    for p in (3, 5, 7):
        rep = genus_check_lambda_G(p)
        nu = NU[p]
        checks.append(_check("candidate-rank-p%d" % p,
                             22 - nu * (p - 1), rep["candidate_rank"],
                             "invariant-lattice candidate has rank "
                             "22 - nu(p-1)"))
        checks.append(_check("candidate-signature-p%d" % p,
                             [3, 19 - nu * (p - 1), 0],
                             list(rep["candidate_signature"]),
                             "candidate signature is (3, 19 - nu(p-1))"))
        checks.append(_check("opposite-disc-p%d" % p, True,
                             rep["opposite_disc_match"],
                             "candidate disc form is opposite to "
                             "disc(L_p)"))
    return checks


def _model_checks(p, act):
    certs = act.certificates
    nu = NU[p]
    m = nu * (p - 1)
    rows = [
        ("ambient-unimodular", "ambient_even_unimodular", True,
         "the glued ambient lattice is even unimodular"),
        ("ambient-signature", "ambient_signature", [3, 19, 0],
         "the glued ambient lattice has signature (3, 19)"),
        ("K-primitive", "K_embedded_primitively", True,
         "K_p embeds primitively"),
        ("group-order", "order", p, "the extended action has order p"),
        ("generators-orientation", "in_O_plus", True,
         "the action preserves the positive-3-plane orientation"),
        ("fixed-rank", "fixed_rank", 22 - m,
         "fixed lattice has rank 22 - nu(p-1)"),
        ("fixed-positive-part", "fixed_sig_plus", 3,
         "fixed lattice contains a positive 3-plane"),
        ("euler-prediction", "euler_prediction", nu,
         "24 - nu p = nu fixed points predicted"),
        ("coinvariant-rank", "L_G_rank", m,
         "L_G has rank nu(p-1)"),
        ("coinvariant-disc", "L_G_disc_orders", [p] * nu,
         "disc(L_G) is (Z/p)^nu"),
        ("coinvariant-certification", "L_G_certification", "isometry",
         "L_G is isometric to L_p"),
        ("metric-verdict", "metric", "yes",
         "no (-2)-vector in L_G"),
        ("complex-verdict", "complex", "yes",
         "a fixed vector survives in the complement of L_G"),
    ]
    checks = _cert_checks(certs, rows)
    if p == 2:
        checks.append(_check("swap-profile", [6, 0, 8],
                             list(certs["tcr"]),
                             "the glued involution carries the swap "
                             "profile (6, 0, 8)"))
        checks.append(_check("L-G-is-E8-minus-2", True,
                             certs.get("L_G_isometric_to_E8_minus_2"),
                             "L_G is isometric to E8(-2)"))
        checks.append(_check("fixed-disc-profile", True,
                             certs.get("fixed_disc_matches_swap_fixed"),
                             "disc of the fixed lattice matches that of "
                             "the swap's, U^3 + E8(-2)"))
    else:
        checks.append(_check("dichotomy-kind", "Nikulin",
                             certs.get("dichotomy_kind"),
                             "the action is rotation-free: no roots in "
                             "L_G"))
        checks.append(_check("fixed-genus", True,
                             certs.get("fixed_matches_genus_candidate"),
                             "the fixed lattice matches the listed "
                             "genus candidate"))
    return checks


def _scenario_model(p, budget):
    from .realize import build_model_prime_action
    return _model_checks(p, build_model_prime_action(p, budget))


SCENARIOS = {
    "a4-example": _scenario_a4,
    "nikulin-involution": _scenario_involution,
    "nikulin-family-p2": lambda b: _scenario_family(2, b),
    "nikulin-family-p3": lambda b: _scenario_family(3, b),
    "nikulin-family-p5": lambda b: _scenario_family(5, b),
    "nikulin-family-p7": lambda b: _scenario_family(7, b),
    "defect-table": _scenario_defect,
    "dehn-twist": _scenario_dehn,
    "genus-check": _scenario_genus,
    "model-prime-3": lambda b: _scenario_model(3, b),
    "model-prime-5": lambda b: _scenario_model(5, b),
    "model-prime-7": lambda b: _scenario_model(7, b),
}


def run_scenario(name, budget=None):
    if name not in SCENARIOS:
        raise KeyError(name)
    checks = SCENARIOS[name](budget)
    return {"schema": SCHEMA, "kind": "scenario", "scenario": name,
            "checks": checks}
