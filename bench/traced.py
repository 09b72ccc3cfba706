"""Run one k3lat command with every public k3lat function wrapped in a span.

    PYTHONPATH=src python3 bench/traced.py STATS.json [--audit] -- ARGS...

ARGS are the arguments of `python -m k3lat.cli`. The command's standard
output and exit code are those of the untraced command. STATS.json gets,
per wrapped function `<module>.<function>` (class methods as
`<module>.<Class>.<method>`, with `__init__` named `init`): calls,
inclusive seconds `s` (outermost activation only, so recursion is not
counted twice), `self_s` (time minus wrapped children), and the extra
counts named in AFTER below. `top_s` is the time spent inside top-level
spans, for the covered share of the item's wall time.

Every module binding of a wrapped function is patched, including the
copies `from .x import f` makes, so calls between modules are seen.
With --audit a profile hook also counts calls to the original code
objects; the two counts must agree for the trace to have missed nothing.
"""

import importlib
import inspect
import json
import sys
import time

PACKAGE = "k3lat"
# the front end is left out: its spans would cover whole items
MODULES = ("matrix", "polys", "lattice", "standard", "groups", "shortvec",
           "nikulin", "gsignature", "realize", "serialize")
MODES = {"pointwise-fixed-3-plane": "pointwise",
         "rotation-on-3-plane": "rotation",
         "supplied-isotypic": "isotypic"}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []          # wrapped-children time of each open span
        self.active = {}
        self.top_s = 0.0

    def wrap(self, key, fn):
        st = self.stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
        self.active[key] = 0
        stack, active, clock = self.stack, self.active, time.perf_counter
        pre, post = BEFORE.get(key), AFTER.get(key)
        tracer = self

        def span(*args, **kwargs):
            st["calls"] += 1
            outer = active[key] == 0
            active[key] += 1
            stack.append(0.0)
            before = pre(tracer) if pre else None
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                active[key] -= 1
                st["self_s"] += dt - stack.pop()
                if outer:
                    st["s"] += dt
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_s += dt
            if post:
                post(st, args, res, before, tracer)
            return res

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__doc__ = fn.__doc__
        return span


def _count(st, name, n=1):
    st[name] = st.get(name, 0) + n


def _mat_mul(st, args, res, before, tracer):
    A, B = args[0], args[1]
    _count(st, "mults", len(A) * len(B) * (len(B[0]) if B else 0))


def _fincke_pohst(st, args, res, before, tracer):
    _count(st, "vectors", len(res))
    st["dim_max"] = max(st.get("dim_max", 0), len(args[0]))


def _fp_vectors(tracer):
    return tracer.stats["shortvec.fincke_pohst_up_to"].get("vectors", 0)


def _enumerate(st, args, res, before, tracer):
    _count(st, "kept", len(res))
    _count(st, "enumerated", _fp_vectors(tracer) - before)


def _search(st, args, res, before, tracer):
    _count(st, "found", int(res is not None and res is not False))


def _coinvariant(st, args, res, before, tracer):
    _count(st, "mode." + MODES[res.mode])


# counts taken from a call's arguments and result
AFTER = {
    "matrix.mat_mul": _mat_mul,
    "shortvec.fincke_pohst_up_to": _fincke_pohst,
    "shortvec.enumerate_vectors": _enumerate,
    "shortvec.lattice_isometry": _search,
    "shortvec.disc_form_isometry": _search,
    "groups.coinvariant_L_G": _coinvariant,
}
# values read before a call and handed to its AFTER hook
BEFORE = {"shortvec.enumerate_vectors": _fp_vectors}


def _targets(mod):
    """(key, owner, attribute, function) for each public function and
    each public or __init__ method of a public class defined in mod."""
    short = mod.__name__.rsplit(".", 1)[1]
    for name, obj in sorted(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield "%s.%s" % (short, name), mod, name, obj
        elif inspect.isclass(obj):
            for attr, fn in sorted(vars(obj).items()):
                if inspect.isfunction(fn) and (attr == "__init__" or
                                               not attr.startswith("_")):
                    label = "init" if attr == "__init__" else attr
                    yield "%s.%s.%s" % (short, name, label), obj, attr, fn


def install(tracer):
    """Wrap every target; return {original function: key}."""
    mods = [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES]
    importlib.import_module(PACKAGE + ".cli")
    wrapped = {}
    originals = {}
    for mod in mods:
        for key, owner, attr, fn in _targets(mod):
            wrapped[fn] = tracer.wrap(key, fn)
            originals[fn] = key
            if inspect.isclass(owner):
                setattr(owner, attr, wrapped[fn])
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
    return originals


def _audit(originals):
    """Profile hook counting calls of the original code objects."""
    codes = {fn.__code__: key for fn, key in originals.items()}
    seen = {}

    def hook(frame, event, arg):
        if event == "call":
            key = codes.get(frame.f_code)
            if key is not None:
                seen[key] = seen.get(key, 0) + 1

    sys.setprofile(hook)
    return seen


def main(argv):
    stats_path = argv[0]
    audit = argv[1] == "--audit"
    args = argv[argv.index("--") + 1:]
    tracer = Tracer()
    originals = install(tracer)
    seen = _audit(originals) if audit else None
    from k3lat.cli import main as cli_main
    try:
        code = cli_main(args)
    finally:
        sys.setprofile(None)
        sys.stdout.flush()
    out = {"functions": tracer.stats, "top_s": tracer.top_s}
    if seen is not None:
        out["audit_calls"] = seen
    with open(stats_path, "w") as fh:
        json.dump(out, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
