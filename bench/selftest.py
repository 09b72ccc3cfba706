"""Self-test of the benchmark, about 10 s. From the repository root:

    python3 bench/selftest.py

Runs defect-table, dehn-twist and one skewed rotation-mode item (decide on
the order-12 rotation), end to end and traced with the call audit, plus an
item that must fail. Checks that
- every output check passes, and each traced report equals the plain one;
- the trace saw every call of every wrapped function;
- every function's self_s <= its s;
- the failing item fails all its checks and the run goes on;
- metric names use only letters, digits, `_`, `.` and `-`, and the
  metrics printed are exactly those of BENCHMARK.json, with their units;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero and prints no result.
Prints each failed check and exits 1 if any failed.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def small_items(k, work):
    items, skew_info = run.skewed_items(1, k, work)
    rotation = [it for it in items if it.name == "decide-rotation12"]
    return ([run.scenario_item("defect-table"),
             run.scenario_item("dehn-twist")] + rotation, skew_info)


def main():
    failures = []

    def expect(what, ok):
        if not ok:
            failures.append(what)

    spec = run._load(os.path.join(run.ROOT, "BENCHMARK.json"))
    declared = {"end_to_end": {m["name"]: m["unit"]
                               for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"]
                              for m in spec["per_layer"]}}
    for group in ("workloads", "end_to_end", "per_layer"):
        for m in spec[group]:
            expect("%s name %r is well formed" % (group, m["name"]),
                   NAME.match(m["name"]))
    expect("workloads match", [w["name"] for w in spec["workloads"]]
           == list(run.WORKLOADS))

    work = os.path.join(run.WORK, "selftest-%d" % os.getpid())
    try:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result, record = run.run_workload(
                "selftest", 1, 0, trace, os.path.join(work, str(trace)),
                make_items=small_items, audit=True)
            for note in record["failures"]:
                failures.append("trace %d: %s" % (trace, note))
            expect("trace %d result correct" % trace, result["correct"])
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            expect("trace %d metrics match BENCHMARK.json %s" % (
                trace, group), printed == declared[group])
        for key, st in record["functions"].items():
            expect("%s self_s <= s" % key, st["self_s"] <= st["s"] + 1e-9)
        for name, item in record["items"].items():
            expect("%s audit saw every call" % name,
                   not item["audit_mismatch"])

        runner = run.Runner(os.path.join(work, "bad"),
                            time.perf_counter() + 60)
        os.makedirs(runner.work)
        missing = os.path.join(runner.work, "missing.json")
        bad = run.Item("bad-input", ["decide", "--group", missing],
                       json.loads, [("a", bool), ("b", bool)])
        res = [runner.run(bad), runner.run(run.scenario_item("dehn-twist"))]
        expect("failing item fails all its checks",
               [ok for _, ok in res[0]["checks"]] == [False, False]
               and "exit code 2" in res[0]["note"])
        expect("run goes on after a failing item",
               all(ok for _, ok in res[1]["checks"]))

        bare = os.path.join(work, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "group-actions",
             "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
            capture_output=True, text=True, timeout=170)
        expect("bare directory: non-zero exit and no result",
               proc.returncode != 0 and not proc.stdout.strip())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    for f in failures:
        print("FAILED " + f)
    print("selftest: %s" % ("ok" if not failures else
                            "%d failed" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
