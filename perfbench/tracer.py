"""Span tracing of calls into pdmkeo's public functions, installed from outside.

`Tracer.install` rebinds each traced function, in every pdmkeo module that
holds a reference to it, to a wrapper that records one span per call:
(name, start, end, parent span, operation id, failed). Calls between the
package's own modules therefore nest, which is what self time needs. The
spans stay in memory until the run ends; `aggregate` turns them into the
per-layer metrics and `write` saves them as JSON lines.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

# module -> traced public functions: every call the workloads make into the
# package, and the calls between its modules that carry the cost
TRACED = {
    "ordering": ("catalog", "spec", "linear_params", "weighted_mean", "check", "validate",
                 "canonicalize"),
    "parser": ("parse", "print_canonical"),
    "classify": ("classify", "invert", "to_duality", "dual", "from_duality", "region_samples"),
    "profiles": ("make_profile",),
    "discretize": ("assemble_terms", "assemble_linear", "equivalence_defect",
                   "effective_potential", "derivative_matrix", "to_csv", "to_json_dict"),
    "spectra": ("make_potential", "hamiltonian", "solve"),
}
MODULES = ("surds", "ordering", "parser", "classify", "profiles", "discretize", "spectra", "cli")


def _irrational_terms(result) -> int:
    return sum(
        any(getattr(v, "is_rational", True) is False for v in (t.w, t.alpha, t.beta, t.gamma))
        for t in result.terms
    )


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.op_id = None
        self._stack: list = []
        self._bindings: list = []  # (module, attribute, original, traced)

    # counts taken at the same boundaries as the spans
    def _count(self, name, args, result):
        if name == "classify.invert":
            self.counters["surds.irrational_terms"] += _irrational_terms(result)
        elif name == "classify.region_samples":
            self.counters["classify.region_samples.points"] += len(result)
        elif name in ("discretize.assemble_terms", "discretize.assemble_linear"):
            self.counters["discretize.matrix_bytes"] += result.matrix.nbytes

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op_id, failed)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if name == "spectra.solve":
                self.counters["spectra.solve.matrix_bytes"] += args[0].matrix.nbytes
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, pk) -> None:
        if not self._bindings:
            modules = [pk] + [importlib.import_module(f"pdmkeo.{m}") for m in MODULES]
            for module_name, names in TRACED.items():
                home = importlib.import_module(f"pdmkeo.{module_name}")
                for fn_name in names:
                    original = getattr(home, fn_name)
                    traced = self._wrap(f"{module_name}.{fn_name}", original)
                    self._bindings += [(module, attr, original, traced) for module in modules
                                       for attr, value in vars(module).items() if value is original]
        for module, attr, _, traced in self._bindings:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def aggregate(self) -> dict:
        """name -> {calls, busy_s, self_s, fail}; self time is the span's
        duration minus the time its child spans cover (children of one span
        run one after another, so their durations add)."""
        covered = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        stats: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "fail": 0})
        for sid, (name, start, end, _, _, failed) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - covered[sid]
            s["fail"] += failed
        return dict(stats)

    def busy_in_ops(self, name: str, op_ids: set) -> float:
        return sum(end - start for n, start, end, _, op, _ in self.spans
                   if n == name and op in op_ids)

    def write(self, path: str) -> None:
        """A header line naming the fields, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op", "failed"]}))
            fh.write("\n")
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")
