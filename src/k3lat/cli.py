"""Command line front end: scenario runner, one-shot computations,
decision verbs and example emission.

One binary, verb-style subcommands. Reports are lists of named checks,
each carrying expected and computed values plus an anchor string that
states the mathematical claim being verified (or the literal tag
"plumbing" for format-level checks). Structured output is deterministic:
two runs with the same arguments emit byte-identical reports; runtimes
appear only in human mode.

Exit status: 0 when no check failed (inconclusive does not fail), 1 when
a check failed, in a scenario or an example, or when an internal
consistency check of the library failed ("internal check failed: " and
the claim the check names), 2 for usage errors
and bad input (unreadable or malformed files, invalid data). The
budgeted searches are enumeration (Fincke-Pohst), lattice isometry and
the aut search of the family scenarios; discriminant forms are decided
by their q-value counts, with no search. A search that runs out of its
budget gives an inconclusive report (exit 0) naming the search, its
budget and the nodes it spent. The environment variable K3R_BUDGET
supplies a default search budget.

`import k3lat.cli` loads this front end alone: the parser, the rendering
and the verbs, on argparse, os, sys and time. Each verb imports the
library modules it calls when it runs, so a fresh process compiles and
loads only those; the scenario pipelines and their check rows live in
k3lat.scenarios, which only the scenario and example verbs import.
"""

import argparse
import os
import sys
import time

from . import SCHEMA, jsonable


# ---------------------------------------------------------------------------
# rendering

def _print_report(report, fmt, runtime=None):
    if fmt == "structured":
        from .serialize import dumps_canonical
        sys.stdout.write(dumps_canonical(report))
        return
    if report.get("kind") == "scenario":
        sys.stdout.write("scenario: %s\n" % report["scenario"])
        for c in report["checks"]:
            sys.stdout.write("%-12s %-28s expected=%r computed=%r  [%s]\n" % (
                c["status"].upper(), c["name"], c["expected"],
                c["computed"], c["anchor"]))
        n_fail = sum(1 for c in report["checks"] if c["status"] == "fail")
        sys.stdout.write("checks: %d, failed: %d\n"
                         % (len(report["checks"]), n_fail))
        if runtime is not None:
            sys.stdout.write("runtime: %.2fs\n" % runtime)
        return
    for k in sorted(report):
        if k in ("schema", "kind"):
            continue
        sys.stdout.write("%s: %s\n" % (k, report[k]))
    if runtime is not None:
        sys.stdout.write("runtime: %.2fs\n" % runtime)


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
    from . import serialize
    return serialize.group_from_obj(serialize.read_json_file(path))


def _load_isotypic(path):
    from . import serialize
    return serialize.isotypic_from_obj(serialize.read_json_file(path))


def _load_lattice(path):
    from . import serialize
    return serialize.lattice_from_obj(serialize.read_json_file(path))


def _cmd_scenario(args):
    from .scenarios import SCENARIOS, _failed, run_scenario
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
           "dichotomy": rep.kind, "evidence": jsonable(rep.evidence)}
    _print_report(obj, args.format)
    return 0


EXAMPLES = ("a4", "nikulin-involution", "prime-p")


def _cmd_example(args):
    from . import serialize
    from .realize import build_a4_example, build_model_prime_action, \
        build_nikulin_involution
    from .scenarios import NU, _a4_checks, _failed, _involution_checks, \
        _model_checks
    name = args.name
    if name == "prime-p":
        if args.p is None:
            return _fail("example prime-p requires --p")
        if args.p not in NU:
            return _fail("unsupported-prime: no embedding data for p = %d"
                         % args.p)
        act = build_model_prime_action(args.p, args.budget)
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
           "files": files, "verification": jsonable(act.certificates)}
    _print_report(obj, args.format)
    failed = _failed(checks)
    for c in failed:
        _fail("check %s failed: expected %r, computed %r"
              % (c["name"], c["expected"], c["computed"]))
    return 1 if failed else 0


def _cmd_compute(args):
    sub = args.subcommand
    if sub == "defect":
        if args.p is None or args.q is None:
            return _fail("compute defect requires --p and --q")
        from .gsignature import defect_point
        val = defect_point(args.p, args.q)
        sys.stdout.write("%s\n" % val)
        return 0
    if args.lattice is None:
        return _fail("compute %s requires --lattice" % sub)
    lat = _load_lattice(args.lattice)
    if sub == "signature":
        p, m, z = lat.signature()
        sys.stdout.write("%d %d %d\n" % (p, m, z))
        return 0
    if sub == "disc":
        D = lat.discriminant_group()
        sys.stdout.write(" ".join(str(o) for o in D.cyclic_orders) + "\n")
        return 0
    # enumerate: argparse's choices admit no other subcommand
    if args.norm is None:
        return _fail("compute enumerate requires --norm")
    from .shortvec import enumerate_vectors
    vs = enumerate_vectors(lat.gram, args.norm, budget=args.budget)
    for v in vs:
        sys.stdout.write(" ".join(str(x) for x in v) + "\n")
    return 0


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
    except Exception as e:
        code = _exit_code(args, e)
        if code is None:
            raise
        return code


def _exit_code(args, e):
    """Report an exception a verb raised and return the exit status, or
    None when no status is mapped to it and it propagates.

    The two library exception classes are imported here, on the error
    path, so that no verb loads shortvec or serialize only to name them.
    """
    from .serialize import SerializationError
    from .shortvec import SearchBudgetExceeded
    if isinstance(e, SearchBudgetExceeded):
        return _inconclusive(args, e)
    if isinstance(e, SerializationError):
        return _fail(str(e))
    if isinstance(e, FileNotFoundError):
        return _fail("cannot read %s" % e.filename)
    if isinstance(e, ValueError):
        return _fail("invalid input: %s" % e)
    if isinstance(e, (AssertionError, ArithmeticError)):
        return _fail("internal check failed: %s" % e, code=1)
    return None


if __name__ == "__main__":
    sys.exit(main())
