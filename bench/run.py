"""The k3lat benchmark: time to verdict on three workloads.

Run from the repository root:

    python3 bench/run.py --workload family-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Workloads (BENCHMARK.json says why each was chosen):

  family-sweep   scenarios nikulin-family-p2, -p3 and -p7
  group-actions  scenarios a4-example, nikulin-involution, model-prime-3,
                 dehn-twist and defect-table
  skewed-inputs  `decide`, `dichotomy` and `compute enumerate` on the base
                 inputs in bench/inputs, conjugated by a unimodular matrix
                 drawn from the seed (bench/skew.py)

Every item runs in a fresh `python -m k3lat.cli` process, one at a time,
timed from spawn to exit, with user+sys CPU and max RSS read from
os.wait4. Every output is checked: scenario reports byte for byte against
bench/golden, user verbs against the hand-written answers in
bench/inputs/answers.json and the benchmark's own integer arithmetic. A
crash, a non-zero exit, a timeout or unparsable output fails every check
of that item, and the run goes on.

--trace 0 runs whole passes over the items: a second pass whenever one
pass is shorter than --seconds, and more while they end within --seconds.
It prints the end-to-end metrics, medians over the passes; setup_s is the
median wall of fresh `import k3lat.cli` processes taken between the items.
--trace 1 runs one pass, each item once plain and once under
bench/traced.py, and prints the per-layer metrics summed over the items.
The last line of standard output is the result JSON; the lines before it
are the run record and a readable table.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from skew import Skew, mat_mul, norm

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(BENCH, "inputs")
GOLDEN = os.path.join(BENCH, "golden")
WORK = os.path.join(ROOT, ".bench_work")

RUN_DEADLINE_S = 170      # every run exits well within 180 s
ITEM_LIMIT_S = 60
ITEM_LIMITS_S = {"nikulin-family-p7": 150}
SETUP_SAMPLES = 4
# base-change size of skewed-inputs: elementary moves on the rank-22 groups
# and on E8(-1); fixed per workload, the seed only picks the moves
SKEW_MOVES = {"rank22": 12, "e8": 8}

FAMILY_SWEEP = ("nikulin-family-p2", "nikulin-family-p3", "nikulin-family-p7")
GROUP_ACTIONS = ("a4-example", "nikulin-involution", "model-prime-3",
                 "dehn-twist", "defect-table")
DECIDE_GROUPS = ("a4", "nikulin-involution", "model-prime-3", "coxeter",
                 "rotation12")
DICHOTOMY_GROUPS = ("model-prime-3", "coxeter")
ENUMERATE_NORMS = (-2, -4)
WORKLOADS = ("family-sweep", "group-actions", "skewed-inputs")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("slowest_item_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "frac"))


def _layer_names():
    """Per-layer metric names. Time stats only for functions every workload
    calls, so no time reads 0 on some workload; calls of the rest."""
    names = []
    for f in ("mat_mul", "solve_right", "rank", "inverse", "det", "row_hnf",
              "int_kernel", "vec_mat"):
        names += ["matrix.%s.calls" % f, "matrix.%s.self_s" % f]
    names += ["matrix.mat_mul.mults", "matrix.snf.calls", "matrix.char_poly.s"]
    for f in ("signature_of_gram", "express_in_basis"):
        names += ["lattice.%s.calls" % f, "lattice.%s.self_s" % f]
    names += ["lattice.DiscriminantForm.%s.calls" % f
              for f in ("init", "q", "bilinear")]
    names += ["shortvec.fincke_pohst_up_to.%s" % s
              for s in ("calls", "self_s", "vectors", "dim_max")]
    names += ["shortvec.enumerate_vectors.%s" % s
              for s in ("calls", "s", "kept_frac")]
    names += ["shortvec.min_norm_and_kissing.calls",
              "shortvec.classify_root_system.calls"]
    for f in ("lattice_isometry", "disc_form_isometry"):
        names += ["shortvec.%s.calls" % f, "shortvec.%s.found_frac" % f]
    names.append("groups.coinvariant_L_G.calls")
    names += ["groups.coinvariant_L_G.mode.%s" % m
              for m in ("pointwise", "rotation", "isotypic")]
    names += ["groups.%s.calls" % f for f in (
        "spinor_plus_membership", "zg_decomposition",
        "IsometryGroup.elements")]
    names += ["nikulin.%s.calls" % f for f in (
        "build_family", "build_Lp", "build_sigma", "build_hat_and_K",
        "Lp_complement_in_Kp", "aut_trivial_on_disc_search",
        "genus_check_lambda_G")]
    names += ["realize.%s.calls" % f for f in (
        "build_a4_example", "build_nikulin_involution",
        "build_model_prime_action", "glue_unimodular", "decide_metric",
        "decide_complex", "classify_dichotomy")]
    names += ["gsignature.defect_point.calls",
              "gsignature.max_defect_check.calls",
              "polys.poly_eval_matrix.calls"]
    names += ["serialize.%s.calls" % f for f in (
        "read_json_file", "group_from_obj", "isotypic_from_obj")]
    names += ["serialize.dumps_canonical.s", "trace.overhead_ratio",
              "trace.covered_frac"]
    return names


PER_LAYER = _layer_names()


def layer_unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat in ("s", "self_s"):
        return "s"
    if stat.endswith("_frac"):
        return "frac"
    if stat.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# checks: each item carries a fixed list of named checks over its output

class Item:
    """One k3lat command with the checks its output must pass."""

    def __init__(self, name, args, parse, tests):
        self.name = name
        self.args = list(args)
        self.parse = parse
        self.tests = tests
        self.limit_s = ITEM_LIMITS_S.get(name, ITEM_LIMIT_S)

    def check(self, text):
        """[(check name, passed)] for the output text (None: no output)."""
        obj = None
        if text is not None:
            try:
                obj = self.parse(text)
            except ValueError:
                obj = None
        return [(name, obj is not None and _holds(test, obj))
                for name, test in self.tests]


def _holds(test, obj):
    try:
        return bool(test(obj))
    except (KeyError, IndexError, TypeError, ValueError):
        return False


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(path):
    return json.loads(_read(path))


def scenario_item(name):
    golden = _read(os.path.join(GOLDEN, name + ".json"))
    tests = [("golden-bytes", lambda o: o[0] == golden)]
    for c in json.loads(golden)["checks"]:
        tests.append((c["name"], lambda o, n=c["name"]: any(
            x["name"] == n and x["status"] == "pass" for x in o[1]["checks"])))
    return Item(name, ["--format", "structured", "scenario", name],
                lambda text: (text, json.loads(text)), tests)


def _is_vector(w, n):
    return (isinstance(w, list) and len(w) == n and any(w) and
            all(isinstance(x, int) and not isinstance(x, bool) for x in w))


def _is_fixed(w, gens):
    return all(mat_mul([w], g)[0] == w for g in gens)


def decide_item(name, args, group, answer):
    G, gens, n = group["ambient"]["gram"], group["generators"], \
        group["ambient"]["rank"]
    tests = [(k, lambda o, k=k: o[k] == answer[k])
             for k in ("metric", "complex", "L_G_rank")]
    if answer["metric"] == "no":
        tests.append(("metric-witness-is-root", lambda o: _is_vector(
            o["metric_witness"], n) and norm(o["metric_witness"], G) == -2))
    else:
        tests.append(("no-metric-witness",
                      lambda o: o["metric_witness"] is None))
    if answer["complex"] == "yes":
        tests.append(("complex-witness-fixed", lambda o: _is_vector(
            o["complex_witness"], n) and _is_fixed(o["complex_witness"],
                                                   gens)))
    else:
        tests.append(("no-complex-witness",
                      lambda o: o["complex_witness"] is None))
    return Item(name, ["--format", "structured", "decide"] + args,
                json.loads, tests)


def dichotomy_item(name, path, answer):
    tests = [(k, lambda o, k=k: o[k] == answer[k])
             for k in ("p", "nu", "dichotomy")]
    return Item(name, ["--format", "structured", "dichotomy", "--group",
                       path], json.loads, tests)


def _vectors(text):
    return [[int(x) for x in line.split()] for line in text.splitlines()]


def _sign_classes(vs):
    return {tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v)
            for v in vs}


def enumerate_item(name, path, lattice, target, count):
    G, n = lattice["gram"], lattice["rank"]
    tests = [
        ("count", lambda vs: len(vs) == count),
        ("norms", lambda vs: all(_is_vector(v, n) and norm(v, G) == target
                                 for v in vs)),
        ("distinct-up-to-sign", lambda vs: len(_sign_classes(vs)) == len(vs)),
    ]
    return Item(name, ["compute", "enumerate", "--lattice", path, "--norm",
                       str(target)], _vectors, tests)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def skewed_items(seed, k, work):
    """Items of pass k: base inputs conjugated by the draw (seed, k)."""
    answers = _load(os.path.join(INPUTS, "answers.json"))
    d = os.path.join(work, "pass-%d" % k)
    os.makedirs(d, exist_ok=True)
    skew = Skew(22, SKEW_MOVES["rank22"], "%s:%d" % (seed, k))
    items = []
    for name in DECIDE_GROUPS:
        group = skew.group(_load(os.path.join(INPUTS, name + "-group.json")),
                           name)
        path = os.path.join(d, name + "-group.json")
        _write_json(path, group)
        args = ["--group", path]
        iso = os.path.join(INPUTS, name + "-isotypic.json")
        if os.path.exists(iso):
            ipath = os.path.join(d, name + "-isotypic.json")
            _write_json(ipath, skew.isotypic(_load(iso), name))
            args += ["--isotypic", ipath]
        items.append(decide_item("decide-" + name, args, group,
                                 answers["decide"][name]))
    for name in DICHOTOMY_GROUPS:
        items.append(dichotomy_item("dichotomy-" + name,
                                    os.path.join(d, name + "-group.json"),
                                    answers["dichotomy"][name]))
    e8_skew = Skew(8, SKEW_MOVES["e8"], "%s:%d:e8" % (seed, k))
    e8 = e8_skew.lattice(_load(os.path.join(INPUTS, "e8-minus-1.json")))
    path = os.path.join(d, "e8-minus-1.json")
    _write_json(path, e8)
    for target in ENUMERATE_NORMS:
        items.append(enumerate_item("enumerate-e8%d" % target, path, e8,
                                    target, answers["enumerate"][str(target)]))
    skew_info = {"moves": dict(SKEW_MOVES), "max_entry": skew.max_entry,
                 "e8_max_entry": e8_skew.max_entry,
                 "checks": skew.checks + e8_skew.checks}
    return items, skew_info


def workload_items(workload, seed, k, work):
    """(items, skew record) of pass k."""
    if workload == "family-sweep":
        return [scenario_item(n) for n in FAMILY_SWEEP], None
    if workload == "group-actions":
        return [scenario_item(n) for n in GROUP_ACTIONS], None
    return skewed_items(seed, k, work)


# ---------------------------------------------------------------------------
# child processes

def _child_env():
    env = dict(os.environ)
    env.pop("K3R_BUDGET", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, out_path, err_path, timeout):
    """Run argv to completion or timeout; (wall, cpu, rss_mb, code,
    timed_out), wall from spawn to exit as seen by os.wait4."""
    reaped = {}

    def reap(pid):
        _, status, usage = os.wait4(pid, 0)
        reaped.update(t=time.perf_counter(), status=status, usage=usage)

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env())
        waiter = threading.Thread(target=reap, args=(proc.pid,))
        waiter.start()
        try:
            waiter.join(max(timeout, 0))
        finally:
            timed_out = waiter.is_alive()
            if timed_out:
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            waiter.join()
    code = os.waitstatus_to_exitcode(reaped["status"])
    proc.returncode = code       # reaped here; keep Popen from waiting again
    usage = reaped["usage"]
    return (reaped["t"] - t0, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, code, timed_out)


class Runner:
    """Runs items one at a time against a run-wide deadline."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def run(self, item, stats_path=None, audit=False):
        """Result dict of one item run; traced when stats_path is set."""
        self.count += 1
        base = os.path.join(self.work, "%04d" % self.count)
        module = [sys.executable, "-m", "k3lat.cli"]
        if stats_path:
            module = [sys.executable, os.path.join(BENCH, "traced.py"),
                      stats_path] + (["--audit"] if audit else []) + ["--"]
        timeout = min(item.limit_s, self.deadline - time.perf_counter())
        res = {"item": item.name, "traced": bool(stats_path)}
        if timeout <= 0:
            res.update(wall=0.0, cpu=0.0, rss_mb=0.0, code=None, text=None,
                       note="not started: run deadline reached")
        else:
            wall, cpu, rss, code, timed_out = run_child(
                module + item.args, base + ".out", base + ".err", timeout)
            res.update(wall=wall, cpu=cpu, rss_mb=rss, code=code, text=None)
            stderr = _read(base + ".err")
            if timed_out:
                res["note"] = "timed out after %.0f s" % timeout
            elif "SearchBudgetExceeded" in stderr:
                res["note"] = "SearchBudgetExceeded"
            elif code != 0:
                last = stderr.strip().splitlines()[-1:]
                res["note"] = "exit code %d: %s" % (code, "".join(last))
            else:
                res["text"] = _read(base + ".out")
        res["checks"] = item.check(res["text"])
        if res["text"] is not None:
            _note_failed_checks(res)
        return res


def _note_failed_checks(res):
    failed = [n for n, ok in res["checks"] if not ok]
    if failed:
        res["note"] = "failed: " + ", ".join(failed)


def setup_sample(runner):
    """Wall time of one fresh `import k3lat.cli`."""
    base = os.path.join(runner.work, "setup")
    wall, _, _, code, timed_out = run_child(
        [sys.executable, "-c", "import k3lat.cli"], base + ".out",
        base + ".err", ITEM_LIMIT_S)
    if code != 0 or timed_out:
        raise SystemExit("error: `import k3lat.cli` failed: %s"
                         % _read(base + ".err").strip())
    return wall


# ---------------------------------------------------------------------------
# the two kinds of run

def _tally(results):
    attempted = sum(len(r["checks"]) for r in results)
    failed = sum(1 for r in results for _, ok in r["checks"] if not ok)
    notes = ["%s%s: %s" % (r["item"], " (traced)" if r["traced"] else "",
                           r["note"]) for r in results if r.get("note")]
    return attempted, failed, notes


def _generator_result(skew_info):
    """The seeded generator's checks, tallied like an item's."""
    if not skew_info:
        return []
    res = {"item": "skew-generator", "traced": False,
           "checks": skew_info["checks"]}
    _note_failed_checks(res)
    return [res]


def _per_item(results):
    out = {}
    for r in results:
        rec = out.setdefault(r["item"], {"walls_s": [], "cpu_s": []})
        rec["walls_s"].append(r["wall"])
        rec["cpu_s"].append(r["cpu"])
        rec["samples"] = len(rec["walls_s"])
    return out


def end_to_end(make_items, seconds, runner):
    # the first import warms the bytecode cache, as an installed package
    # has it; later samples are spread over the run, one before each item,
    # so their median is not taken in one burst of machine noise
    setup_sample(runner)
    setup = [setup_sample(runner) for _ in range(SETUP_SAMPLES)]
    passes, skews, generated = [], [], []
    t0 = time.perf_counter()
    while True:
        items, skew_info = make_items(len(passes), runner.work)
        results = []
        for item in items:
            setup.append(setup_sample(runner))
            results.append(runner.run(item))
        passes.append(results)
        skews.append(skew_info and {k: v for k, v in skew_info.items()
                                    if k != "checks"})
        generated += _generator_result(skew_info)
        # another pass if it fits in the run; a second one whenever a pass
        # is shorter than the run, so those medians have two samples
        pass_wall = sum(r["wall"] for r in results)
        now = time.perf_counter()
        fits = now - t0 + pass_wall <= seconds or \
            (len(passes) == 1 and pass_wall <= seconds)
        if not fits or now + 2 * pass_wall > runner.deadline:
            break
    results = [r for p in passes for r in p]
    attempted, failed, notes = _tally(results + generated)
    metrics = {
        "wall_s": statistics.median(sum(r["wall"] for r in p)
                                    for p in passes),
        "cpu_s": statistics.median(sum(r["cpu"] for r in p) for p in passes),
        "slowest_item_s": statistics.median(max(r["wall"] for r in p)
                                            for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        "pass_frac": 1 - failed / attempted,
    }
    record = {"passes": len(passes), "setup_s": setup,
              "items": _per_item(results),
              "skew": skews if any(skews) else None}
    return metrics, attempted, failed, notes, record


def _layer_value(name, functions):
    """Per-layer metric from the summed function stats."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        key, stat = ".".join(parts[:cut]), ".".join(parts[cut:])
        if key in functions:
            st = functions[key]
            if stat == "kept_frac":
                return st.get("kept", 0) / max(st.get("enumerated", 0), 1)
            if stat == "found_frac":
                return st.get("found", 0) / max(st["calls"], 1)
            return st.get(stat, 0)
    raise KeyError("no traced function for metric %s" % name)


def _add_stats(total, functions):
    for key, st in functions.items():
        acc = total.setdefault(key, {})
        for stat, v in st.items():
            acc[stat] = max(acc.get(stat, 0), v) if stat == "dim_max" \
                else acc.get(stat, 0) + v


def traced(make_items, runner, audit=False):
    items, skew_info = make_items(0, runner.work)
    results, functions = _generator_result(skew_info), {}
    plain_wall = traced_wall = top_s = 0.0
    per_item = {}
    for item in items:
        plain = runner.run(item)
        stats_path = os.path.join(runner.work, "stats-%s.json" % item.name)
        tr = runner.run(item, stats_path=stats_path, audit=audit)
        same = plain["text"] is not None and tr["text"] == plain["text"]
        tr["checks"].append(("traced-report-equals-untraced", same))
        results += [plain, tr]
        if tr["text"] is None:
            continue
        _note_failed_checks(tr)
        stats = _load(stats_path)
        _add_stats(functions, stats["functions"])
        plain_wall += plain["wall"]
        traced_wall += tr["wall"]
        top_s += stats["top_s"]
        per_item[item.name] = {
            "wall_s": plain["wall"], "traced_wall_s": tr["wall"],
            "overhead_ratio": tr["wall"] / plain["wall"],
            "covered_frac": stats["top_s"] / tr["wall"],
            "top_self_s": sorted(
                ((st["self_s"], k) for k, st in stats["functions"].items()
                 if st["calls"]), reverse=True)[:3],
        }
        if audit:
            missed = {k: (st["calls"], stats["audit_calls"].get(k, 0))
                      for k, st in stats["functions"].items()
                      if st["calls"] != stats["audit_calls"].get(k, 0)}
            tr["checks"].append(("trace-saw-every-call", not missed))
            per_item[item.name]["audit_mismatch"] = missed
            _note_failed_checks(tr)
    attempted, failed, notes = _tally(results)
    metrics = {}
    if functions:
        metrics = {n: _layer_value(n, functions) for n in PER_LAYER
                   if not n.startswith("trace.")}
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        metrics["trace.covered_frac"] = top_s / traced_wall
    record = {"items": per_item, "skew": skew_info, "functions": functions}
    return metrics, attempted, failed, notes, record


# ---------------------------------------------------------------------------
# run record and output

def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "k3lat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_workload(workload, seed, seconds, trace, work, make_items=None,
                 audit=False):
    """Result dict (the contract's JSON) plus the run record. make_items
    (pass index, work dir) -> (items, skew record) defaults to the named
    workload's items."""
    if make_items is None:
        make_items = functools.partial(workload_items, workload, seed)
    os.makedirs(work)
    runner = Runner(work, time.perf_counter() + RUN_DEADLINE_S)
    load_before = os.getloadavg()
    if trace:
        metrics, attempted, failed, notes, extra = traced(
            make_items, runner, audit=audit)
        units = {n: layer_unit(n) for n in PER_LAYER}
    else:
        metrics, attempted, failed, notes, extra = end_to_end(
            make_items, seconds, runner)
        units = dict(END_TO_END)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "commit": _commit(),
              "src_sha256": _src_digest(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
              "fail_frac": failed / max(attempted, 1), "failures": notes}
    record.update(extra)
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    return result, record


def _print_run(result, record):
    print("record: " + json.dumps(record, sort_keys=True))
    print("%s: fail_frac %s (%d of %d checks failed)" % (
        record["workload"], record["fail_frac"], result["failed"],
        result["attempted"]))
    for note in record["failures"]:
        print("  FAILED %s" % note)
    for name, m in result["metrics"].items():
        print("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    if record["trace"]:
        for name, it in record["items"].items():
            print("  item %-28s wall %.2f s traced %.2f s covered_frac %.3f"
                  " top self_s: %s" % (
                      name, it["wall_s"], it["traced_wall_s"],
                      it["covered_frac"], ", ".join(
                          "%s %.2f" % (k, t) for t, k in it["top_self_s"])))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "k3lat", "cli.py")):
        sys.stderr.write("error: %s is not a k3lat checkout (no "
                         "src/k3lat/cli.py)\n" % ROOT)
        return 2
    # a terminated run still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(WORK, "run-%d" % os.getpid())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for i, w in enumerate(workloads):
            result, record = run_workload(w, args.seed, args.seconds,
                                          args.trace,
                                          os.path.join(work, str(i)))
            _print_run(result, record)
            results[w] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(results[workloads[0]] if len(workloads) == 1
                     else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
