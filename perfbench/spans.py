"""Per-layer tracing from outside the library.

`Tracer.install` wraps every public function of the nine polarith modules,
and the sympy functions they import (`factorint`, `isprime`, `primerange`),
and rebinds each module global that holds one of them, because modules
bind names with `from .exact import valuation` and similar imports.  Each
wrapper call appends a span (function, start, end, parent span) to flat
arrays, which stay in memory until `write` stores them at the end of the
run; self times come from the span tree afterwards.  Nothing under `src/`
knows about this.

Only module-level functions are spans: methods (QuadElem arithmetic,
GramForm.transform, ...) count as time of the function that calls them.
A `primerange` span covers the call, not the iteration of the generator it
returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("cli", "exact", "linalg", "algebras", "quadfield", "forms",
          "lattices_local", "degree_bound", "hecke_classes")
SYMPY_NAMES = ("factorint", "isprime", "primerange")

# (metric, function whose self time it is) and (metric, function counted)
NAMED_SELF = {
    "quadfield.class_group.self_s": "quadfield.class_group",
    "lattices_local.maximal_completion.self_s": "lattices_local.maximal_completion",
    "degree_bound.brute_force_oracle.self_s": "degree_bound.brute_force_oracle",
    "hecke_classes.exhaustive_witness_search.self_s": "hecke_classes.exhaustive_witness_search",
}
NAMED_CALLS = {
    "exact.hilbert_symbol.calls": "exact.hilbert_symbol",
    "exact.valuation.calls": "exact.valuation",
    "sympy.isprime.calls": "sympy.isprime",
    "sympy.factorint.calls": "sympy.factorint",
    "quadfield.class_group.calls": "quadfield.class_group",
    "quadfield.is_principal.calls": "quadfield.is_principal",
    "algebras.rmat_mul.calls": "algebras.rmat_mul",
    "hecke_classes.equivalence_witness.calls": "hecke_classes.equivalence_witness",
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer in LAYERS + ("sympy",):
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += list(NAMED_CALLS) + list(NAMED_SELF)
    names += ["quadfield.is_principal.hit_ratio", "degree_bound.brute_force_oracle.raised",
              "degree_bound.oracle_points", "degree_bound.fallback_ratio",
              "tracing_overhead_ratio"]
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.function"
        self.fn_index: dict[str, int] = {}
        self.func = array("H")              # per span: function id
        self.parent = array("i")            # per span: parent span, -1 at a root
        self.start = array("d")
        self.end = array("d")
        self.raised: Counter = Counter()    # function id -> calls that raised
        self.nonnull: Counter = Counter()   # function id -> calls returning non-None
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}   # id(original) -> wrapper

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, label: str, fn):
        fid = self.fn_index.setdefault(label, len(self.names))
        if fid == len(self.names):
            self.names.append(label)
        func, parent, start, end = self.func, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        raised, nonnull = self.raised, self.nonnull

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[fid] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if result is not None:
                nonnull[fid] += 1
            return result

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"polarith.{m}") for m in LAYERS]
        targets: dict[int, tuple[str, object]] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    targets[id(obj)] = (f"{layer}.{name}", obj)
                elif name in SYMPY_NAMES and getattr(obj, "__module__", "").startswith("sympy"):
                    targets[id(obj)] = (f"sympy.{name}", obj)
        for key, (label, fn) in targets.items():
            self._wrappers[key] = self._wrap(label, fn)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in self._wrappers and not name.startswith("__"):
                    self._originals.append((mod, name, obj))
                    setattr(mod, name, self._wrappers[id(obj)])

    def wrapped(self, fn):
        """The installed wrapper of `fn` (e.g. the CLI entry point)."""
        return self._wrappers[id(fn)]

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._originals):
            setattr(mod, name, obj)
        self._originals.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per function id: total span time minus the time its child spans
        cover (children of a span lie inside it, so this is exclusive time)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        totals = [0.0] * len(self.names)
        start, end, parent, func = self.start, self.end, self.parent, self.func
        for i in range(n - 1, -1, -1):      # children come after their parent
            d = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += d
            totals[func[i]] += d - child[i]
        return totals

    def report(self, requests: list[dict], outputs: list[tuple]) -> dict:
        """Per-layer metrics per traced request, plus the named counters.
        `outputs` holds (exit code, stdout) for each request in order."""
        nreq = max(1, len(requests))
        calls = Counter(self.func)
        selfs = self.self_times()
        by_label_calls = {self.names[f]: c for f, c in calls.items()}
        by_label_self = {self.names[f]: s for f, s in enumerate(selfs)}
        m: dict[str, float] = {}
        for layer in LAYERS + ("sympy",):
            m[f"{layer}.calls"] = sum(c for k, c in by_label_calls.items()
                                      if k.split(".")[0] == layer) / nreq
            m[f"{layer}.self_s"] = sum(s for k, s in by_label_self.items()
                                       if k.split(".")[0] == layer) / nreq
        for metric, label in NAMED_CALLS.items():
            m[metric] = by_label_calls.get(label, 0) / nreq
        for metric, label in NAMED_SELF.items():
            m[metric] = by_label_self.get(label, 0.0) / nreq
        fid = self.fn_index.get("quadfield.is_principal")
        pcalls = calls.get(fid, 0) if fid is not None else 0
        m["quadfield.is_principal.hit_ratio"] = self.nonnull.get(fid, 0) / pcalls if pcalls else 0.0
        fid = self.fn_index.get("degree_bound.brute_force_oracle")
        m["degree_bound.brute_force_oracle.raised"] = (self.raised.get(fid, 0) / nreq
                                                       if fid is not None else 0.0)
        bound = [json.loads(out) for req, (code, out) in zip(requests, outputs)
                 if req["verb"] == "degree-bound" and code == 0]
        m["degree_bound.oracle_points"] = sum(o["notes"].get("explored", 0) for o in bound) / nreq
        m["degree_bound.fallback_ratio"] = (sum("fallback_reason" in o["notes"] for o in bound)
                                            / len(bound) if bound else 0.0)
        return m

    def write(self, path: str) -> None:
        """The raw spans: a JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {"functions": self.names, "spans": len(self.start),
                      "arrays": [["func", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]]}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.func, self.parent, self.start, self.end):
                arr.tofile(fh)
