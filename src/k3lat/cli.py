"""Command line front end: scenario runner, one-shot computations,
decision verbs and example emission.

One binary, verb-style subcommands. Reports are lists of named checks,
each carrying expected and computed values plus an anchor string that
states the mathematical claim being verified (or the literal tag
"plumbing" for format-level checks). Structured output is deterministic:
two runs with the same arguments emit byte-identical reports; runtimes
appear only in human mode.

Each claim is compared in one place, the check row that names it: the
builders record the values they compute, and the rows of a scenario
compare them with the claimed constants. The example verb runs the same
rows as the matching scenario on the action it emits.

Exit status: 0 when no check failed (inconclusive does not fail), 1 when
a check failed, in a scenario or an example, or when an internal
consistency check of the library failed ("internal check failed", naming
the file and line when the check carries no message), 2 for usage errors
and bad input (unreadable or malformed files, invalid data). The
budgeted searches are enumeration (Fincke-Pohst), lattice isometry and
the aut search of the family scenarios; discriminant forms are decided
by their q-value counts, with no search. A search that runs out of its
budget gives an inconclusive report (exit 0) naming the search, its
budget and the nodes it spent. The environment variable K3R_BUDGET
supplies a default search budget.

The modules realize, nikulin, gsignature and groups (and with groups,
polys) are imported inside the verbs and scenarios that call them, so a
fresh process compiles and loads them only when the command runs them.
"""

import argparse
import os
import sys
import time
from fractions import Fraction

from . import serialize
from .matrix import identity_matrix
from .lattice import DiscriminantForm, Lattice, direct_sum, express_in_basis, \
    rescale, sublattice_index, two_elementary_profile
from .standard import hyperbolic_plane, root_lattice
from .shortvec import SearchBudgetExceeded, lattice_isometry, \
    min_norm_and_kissing

SCHEMA = serialize.SCHEMA

# nu at each prime p of the family: nu(p + 1) = 24
NU = {2: 8, 3: 6, 5: 4, 7: 3}


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)


def _check(name, expected, computed, anchor="plumbing"):
    expected, computed = _jsonable(expected), _jsonable(computed)
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


# ---------------------------------------------------------------------------
# scenarios

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
    target = direct_sum(hyperbolic_plane(), hyperbolic_plane(),
                        hyperbolic_plane(),
                        rescale(root_lattice("E", 8, -1), 2))
    prof = two_elementary_profile(DiscriminantForm(target.gram))
    fixed = act.group.fixed_sublattice()
    prof_fixed = two_elementary_profile(DiscriminantForm(fixed.gram()))
    checks.append(_check(
        "fixed-disc-profile", prof, prof_fixed,
        "disc of the fixed lattice matches disc of U^3 + E8(-2)"))
    return checks


def _scenario_involution(budget):
    from .realize import build_nikulin_involution
    return _involution_checks(build_nikulin_involution())


def _scenario_family(p, budget):
    from .nikulin import VARPI_NORMS, _flat_rho, _pair, \
        aut_trivial_on_disc_search, family
    fam = family(p)
    m = fam.nu * (p - 1)
    checks = []

    checks.append(_check("rho-norm", Fraction(-2 * (p - 1) * p),
                         _pair(fam.gram_D, fam.rho, fam.rho),
                         "rho.rho = -2(p-1)p"))
    checks.append(_check("varpi-norm", Fraction(VARPI_NORMS[p]),
                         _pair(fam.gram_D, fam.varpi, fam.varpi),
                         "varpi.varpi determined by the weight vector"))
    unit_rows = identity_matrix(m)
    checks.append(_check("overlattice-index", p,
                         sublattice_index(unit_rows, fam.basis_N),
                         "N_p contains the block lattice with index p"))
    checks.append(_check("L-index", p,
                         sublattice_index(fam.L_basis_in_N,
                                          identity_matrix(m)),
                         "L_p has index p in N_p"))
    rho_in_L = express_in_basis([fam.rho_in_N], fam.L_basis_in_N)
    checks.append(_check("rho-in-L", True,
                         rho_in_L is not None and
                         all(x.denominator == 1 for x in rho_in_L[0]),
                         "rho lies in L_p"))
    checks += _cert_checks(fam.checks, [
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
    GK = fam.K.gram
    checks.append(_check("eprime-isotropic", Fraction(0),
                         _pair(GK, fam.K_eprime, fam.K_eprime),
                         "the distinguished fixed vector e' is isotropic"))
    jrho = _flat_rho(fam)
    ps_rho = [Fraction(p) if i == m + 1 else Fraction(0)
              for i in range(m + 2)]
    ps_rho = [a + b for a, b in zip(ps_rho, jrho)]
    checks.append(_check("ps-plus-rho-norm", Fraction(-2 * p),
                         _pair(GK, ps_rho, ps_rho),
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
        T = lattice_isometry(fam.L.gram, e8m2,
                             budget=budget or 10 ** 7)
        checks.append(_check("L2-is-E8-minus-2", True, T is not None,
                             "L_2 is isometric to E8(-2)"))
        u2cubed = direct_sum(hyperbolic_plane(2), hyperbolic_plane(2),
                             hyperbolic_plane(2))
        pN = two_elementary_profile(DiscriminantForm(fam.N.gram))
        pU = two_elementary_profile(DiscriminantForm(u2cubed.gram))
        checks.append(_check("N2-disc-is-U2-disc", pU, pN,
                             "disc(N_2) matches disc(U(2)^3)"))
        a1m2 = direct_sum(*[Lattice([[-4]]) for _ in range(8)])
        same_orders = DiscriminantForm(e8m2).cyclic_orders == \
            DiscriminantForm(a1m2.gram).cyclic_orders
        checks.append(_check("E8-minus-2-disc-differs", False, same_orders,
                             "disc(E8(-2)) differs from disc(A_1(-2)^8)"))
    if p == 3:
        mn, kiss = min_norm_and_kissing(fam.L.gram, budget=budget)
        checks.append(_check("L3-min-norm", 4, mn,
                             "minimal |norm| of L_3 is 4"))
        checks.append(_check("L3-kissing", 756, kiss,
                             "L_3 has 756 minimal vectors"))
    if p in (2, 3):
        aut = aut_trivial_on_disc_search(fam, budget or 10 ** 6)
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
    from .standard import k3_lattice
    from .realize import dehn_twist_obstruction
    k3 = k3_lattice()
    v = [0] * 22
    v[6] = 1
    rep = dehn_twist_obstruction(v, k3)
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
    return _model_checks(p, build_model_prime_action(
        p, iso_budget=budget or 10 ** 7))


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


# ---------------------------------------------------------------------------
# rendering

def _print_report(report, fmt, runtime=None, stream=None):
    stream = stream or sys.stdout
    if fmt == "structured":
        stream.write(serialize.dumps_canonical(report))
        return
    if report.get("kind") == "scenario":
        stream.write("scenario: %s\n" % report["scenario"])
        for c in report["checks"]:
            stream.write("%-12s %-28s expected=%r computed=%r  [%s]\n" % (
                c["status"].upper(), c["name"], c["expected"],
                c["computed"], c["anchor"]))
        n_fail = sum(1 for c in report["checks"] if c["status"] == "fail")
        stream.write("checks: %d, failed: %d\n" % (len(report["checks"]),
                                                   n_fail))
        if runtime is not None:
            stream.write("runtime: %.2fs\n" % runtime)
        return
    for k in sorted(report):
        if k in ("schema", "kind"):
            continue
        stream.write("%s: %s\n" % (k, report[k]))
    if runtime is not None:
        stream.write("runtime: %.2fs\n" % runtime)


def _inconclusive(args, e):
    obj = {"schema": SCHEMA, "kind": "inconclusive", "verb": args.verb,
           "status": "inconclusive", "stage": e.stage, "nodes": e.nodes,
           "budget": e.budget}
    _print_report(obj, args.format)
    return 0


def _fail(message, code=2):
    sys.stderr.write("error: %s\n" % message)
    return code


# ---------------------------------------------------------------------------
# verbs

def _load_group(path):
    return serialize.group_from_obj(serialize.read_json_file(path))


def _load_isotypic(path):
    return serialize.isotypic_from_obj(serialize.read_json_file(path))


def _cmd_scenario(args):
    if args.name not in SCENARIOS:
        return _fail("unknown scenario %r; choose from: %s" % (
            args.name, ", ".join(sorted(SCENARIOS))))
    t0 = time.time()
    report = run_scenario(args.name, budget=args.budget)
    _print_report(report, args.format, runtime=time.time() - t0)
    return 1 if _failed(report["checks"]) else 0


def _cmd_decide(args):
    from .realize import decide_complex
    group = _load_group(args.group)
    iso = _load_isotypic(args.isotypic) if args.isotypic else None
    rep = decide_complex(group, iso, budget=args.budget)
    obj = {"schema": SCHEMA, "kind": "realizability",
           "metric": rep.metric,
           "metric_witness": rep.metric_witness,
           "complex": rep.complex_verdict,
           "complex_reason": rep.complex_reason,
           "complex_witness": rep.complex_witness,
           "L_G_rank": rep.L_G_rank,
           "caveat": rep.caveat}
    _print_report(obj, args.format)
    return 0


def _cmd_dichotomy(args):
    from .realize import HypothesisViolated, classify_dichotomy
    group = _load_group(args.group)
    try:
        rep = classify_dichotomy(group, budget=args.budget)
    except HypothesisViolated as e:
        return _fail("hypothesis-violated: %s" % e)
    obj = {"schema": SCHEMA, "kind": "dichotomy", "p": rep.p, "nu": rep.nu,
           "dichotomy": rep.kind, "evidence": _jsonable(rep.evidence)}
    _print_report(obj, args.format)
    return 0


EXAMPLES = ("a4", "nikulin-involution", "prime-p")


def _cmd_example(args):
    from .realize import build_a4_example, build_model_prime_action, \
        build_nikulin_involution
    name = args.name
    if name == "prime-p":
        if args.p is None:
            return _fail("example prime-p requires --p")
        if args.p not in NU:
            return _fail("unsupported-prime: no embedding data for p = %d"
                         % args.p)
        act = build_model_prime_action(args.p,
                                       iso_budget=args.budget or 10 ** 7)
        checks = _model_checks(args.p, act)
        stem = "model-prime-%d" % args.p
    elif name == "a4":
        act = build_a4_example()
        checks = _a4_checks(act)
        stem = "a4"
    else:
        act = build_nikulin_involution()
        checks = _involution_checks(act)
        stem = "nikulin-involution"
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    files = []
    gpath = os.path.join(out, stem + "-group.json")
    serialize.write_json_file(gpath, serialize.group_to_obj(act.group))
    files.append(gpath)
    if act.projectors is not None:
        ipath = os.path.join(out, stem + "-isotypic.json")
        serialize.write_json_file(ipath,
                                  serialize.isotypic_to_obj(act.projectors))
        files.append(ipath)
    obj = {"schema": SCHEMA, "kind": "example", "example": name,
           "files": files, "verification": _jsonable(act.certificates)}
    _print_report(obj, args.format)
    failed = _failed(checks)
    for c in failed:
        _fail("check %s failed: expected %r, computed %r"
              % (c["name"], c["expected"], c["computed"]))
    return 1 if failed else 0


def _cmd_compute(args):
    sub = args.subcommand
    if sub == "signature":
        lat = serialize.lattice_from_obj(serialize.read_json_file(
            args.lattice))
        p, m, z = lat.signature()
        sys.stdout.write("%d %d %d\n" % (p, m, z))
        return 0
    if sub == "disc":
        lat = serialize.lattice_from_obj(serialize.read_json_file(
            args.lattice))
        D = lat.discriminant_group()
        sys.stdout.write(" ".join(str(o) for o in D.cyclic_orders) + "\n")
        return 0
    if sub == "enumerate":
        lat = serialize.lattice_from_obj(serialize.read_json_file(
            args.lattice))
        if args.norm is None:
            return _fail("compute enumerate requires --norm")
        from .shortvec import enumerate_vectors
        vs = enumerate_vectors(lat, args.norm, budget=args.budget)
        for v in vs:
            sys.stdout.write(" ".join(str(x) for x in v) + "\n")
        return 0
    if sub == "defect":
        if args.p is None or args.q is None:
            return _fail("compute defect requires --p and --q")
        from .gsignature import defect_point
        val = defect_point(args.p, args.q)
        sys.stdout.write("%s\n" % val)
        return 0
    return _fail("unknown compute subcommand %r" % sub)


def _build_parser():
    top = argparse.ArgumentParser(
        prog="k3lat",
        description="Exact homological invariants of finite isometry "
                    "groups of the K3 lattice.")
    top.add_argument("--format", choices=("human", "structured"),
                     default="human", help="report rendering")
    top.add_argument("--budget", type=int, default=None,
                     help="node budget of the searches: enumeration, "
                          "lattice isometry and the aut search "
                          "(discriminant forms are decided by q-value "
                          "counts, with no search); default: K3R_BUDGET "
                          "or library defaults")
    subs = top.add_subparsers(dest="verb")

    sc = subs.add_parser("scenario", help="run a named reproduction "
                                          "pipeline")
    sc.add_argument("name")

    de = subs.add_parser("decide", help="realizability verdicts for a "
                                        "group file")
    de.add_argument("--group", required=True)
    de.add_argument("--isotypic", default=None,
                    help="optional file of rational projectors, checked "
                         "against the computed isotypic components")

    di = subs.add_parser("dichotomy", help="Nikulin/Coxeter classification "
                                           "of an odd prime order action")
    di.add_argument("--group", required=True)

    ex = subs.add_parser("example", help="emit a constructed action plus "
                                         "its verification report")
    ex.add_argument("name", choices=EXAMPLES)
    ex.add_argument("--p", type=int, default=None)
    ex.add_argument("--out", default=None)

    co = subs.add_parser("compute", help="one-shot library computations")
    co.add_argument("subcommand",
                    choices=("signature", "disc", "enumerate", "defect"))
    co.add_argument("--lattice", default=None)
    co.add_argument("--norm", type=int, default=None)
    co.add_argument("--p", type=int, default=None)
    co.add_argument("--q", type=int, default=None)
    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.budget is None:
        env = os.environ.get("K3R_BUDGET")
        if env is not None:
            try:
                args.budget = int(env)
            except ValueError:
                return _fail("K3R_BUDGET must be an integer, got %r" % env)
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return 2
    handler = {
        "scenario": _cmd_scenario,
        "decide": _cmd_decide,
        "dichotomy": _cmd_dichotomy,
        "example": _cmd_example,
        "compute": _cmd_compute,
    }[args.verb]
    try:
        return handler(args)
    except SearchBudgetExceeded as e:
        return _inconclusive(args, e)
    except serialize.SerializationError as e:
        return _fail(str(e))
    except FileNotFoundError as e:
        return _fail("cannot read %s" % e.filename)
    except ValueError as e:
        return _fail("invalid input: %s" % e)
    except (AssertionError, ArithmeticError) as e:
        msg = str(e)
        if not msg:
            import traceback
            frame = traceback.extract_tb(e.__traceback__)[-1]
            msg = "%s line %d" % (os.path.basename(frame.filename),
                                  frame.lineno)
        return _fail("internal check failed: %s" % msg, code=1)


if __name__ == "__main__":
    sys.exit(main())
