"""Span tracer that wraps the public functions of each ``mogpal`` layer.

The wrappers are installed from outside the program: every module of the
package that binds a traced function (``from .linalg import chol_spd`` makes
a second binding in each importer) gets the wrapper in place of the original,
and ``GainEvaluator`` methods are patched on the class.  Spans are kept in
memory and turned into per-layer statistics when the run ends.
"""

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager

# (module, qualified name) of every traced function.  A name that no longer
# resolves is listed in ``Tracer.missing`` and reads zero calls, which the
# silent-zero guard in ``run.py`` reports on the workload that needs it.
TARGETS = (
    ("kernels", "cov_matrix"),
    ("kernels", "latent_cross_matrix"),
    ("kernels", "latent_matrix"),
    ("linalg", "chol_spd"),
    ("pitc", "select_inducing"),
    ("pitc", "build_model"),
    ("pitc", "sparse_cov"),
    ("pitc", "pitc_posterior"),
    ("criterion", "build_cache"),
    ("criterion", "criterion_F"),
    ("criterion", "GainEvaluator.set_state"),
    ("criterion", "GainEvaluator.gains"),
    ("criterion", "GainEvaluator.entropies_given_selected"),
    ("selector", "select_greedy"),
    ("selector", "select_mvar"),
    ("selector", "select_svar"),
    ("selector", "select_smi"),
    ("verify", "random_instance"),
    ("verify", "brute_force_optimum"),
    ("verify", "estimate_epsilon1"),
    ("verify", "check_guarantee"),
    ("experiment", "generate_synthetic"),
    ("experiment", "run_experiment"),
    ("experiment", "verify_sweep"),
    ("data", "normalize"),
    ("data", "split_test"),
    ("config", "load_experiment_config"),
)


def _span_extra(name, args, result):
    """Per-call detail kept on the span: retries for factorizations, pool
    size for gain sweeps."""
    if name == "linalg.chol_spd":
        return int(getattr(result, "jitter", 0.0) > 0)
    if name == "criterion.GainEvaluator.gains":
        return len(args[0].model.candidates)
    return None


class Tracer:
    """Records one span per traced call: id, name, start, end, parent span,
    run id, extra detail and whether the call raised.

    ``callers`` names modules outside the package whose bindings of traced
    functions are patched too (the benchmark's own call sites).
    """

    def __init__(self, package="mogpal", callers=()):
        self.package = package
        self.callers = tuple(callers)
        self.spans = []
        self.run_id = None
        self.enabled = False
        self.missing = []
        self._stack = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [span_id, name, time.perf_counter(), None, parent,
                      tracer.run_id, None, 0]
            tracer.spans.append(record)
            tracer._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[7] = 1
                raise
            finally:
                record[3] = time.perf_counter()
                tracer._stack.pop()
            record[6] = _span_extra(name, args, result)
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        """Patch every binding of every target; restore them all on exit."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(self.package + "."))
        ] + [sys.modules[name] for name in self.callers]
        saved = []
        self.missing = []
        try:
            for mod_name, qual in TARGETS:
                name = f"{mod_name}.{qual}"
                home = sys.modules.get(f"{self.package}.{mod_name}")
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name, None)
                    original = cls.__dict__.get(meth) if cls is not None else None
                    if original is None:
                        self.missing.append(name)
                        continue
                    saved.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(name, original))
                    continue
                original = getattr(home, qual, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def run(self, run_id):
        """Attribute spans recorded inside the block to ``run_id``."""
        previous = self.run_id
        self.run_id = run_id
        try:
            yield
        finally:
            self.run_id = previous

    @contextmanager
    def paused(self):
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous

    def dump(self, path, meta):
        """Write the spans (and run metadata) as gzipped JSON."""
        fields = ["id", "name", "start", "end", "parent", "run", "extra", "error"]
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, fh)


def layer_stats(spans):
    """Per-function statistics of a list of spans.

    ``ms`` is busy time (sum of span durations) and ``self_ms`` that time
    minus the time covered by direct child spans.  ``first10`` / ``last10``
    hold, per parent span, the durations of the first and last ten calls,
    so per-iteration growth inside one selection loop is visible.
    """
    by_id = {s[0]: s for s in spans}
    child_ms = {}
    for s in spans:
        if s[4] in by_id:
            child_ms[s[4]] = child_ms.get(s[4], 0.0) + (s[3] - s[2]) * 1e3
    stats = {}
    groups = {}
    for s in spans:
        ms = (s[3] - s[2]) * 1e3
        st = stats.setdefault(s[1], {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                     "errors": 0, "extra": 0})
        st["calls"] += 1
        st["ms"] += ms
        st["self_ms"] += ms - child_ms.get(s[0], 0.0)
        st["errors"] += s[7]
        st["extra"] += s[6] or 0
        groups.setdefault((s[1], s[4]), []).append(s)
    for (name, _), group in groups.items():
        group.sort(key=lambda s: s[2])
        st = stats[name]
        st.setdefault("first10", []).append([(s[3] - s[2]) * 1e3 for s in group[:10]])
        st.setdefault("last10", []).append([(s[3] - s[2]) * 1e3 for s in group[-10:]])
        st.setdefault("first10_extra", []).append([s[6] or 0 for s in group[:10]])
    return stats
