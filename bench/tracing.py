"""Per-layer tracing from outside the program.

`Tracer` replaces each listed public function of the `ssred` modules with
a timing wrapper.  A function is patched under every module attribute
that refers to it, so `ssred.reps.spin` and `ssred.pipeline.spin` are
caught as well as `ssred.exact.spin`; methods are patched on their class.
Self time is a call's duration minus the time covered by wrapped calls
made inside it.  Total time counts only the outermost call of a
recursive function, so it is never counted twice.
"""

import functools
import importlib
import sys
import time

# (module, qualified name) of every wrapped function, grouped by layer
TARGETS = (
    ("exact", "rref"),
    ("exact", "right_kernel"),
    ("exact", "solve_linear"),
    ("exact", "spin"),
    ("exact", "charpoly"),
    ("exact", "solve_conjugating"),
    ("reps", "enveloping_basis"),
    ("reps", "factor_poly"),
    ("reps", "find_submodule"),
    ("reps", "is_semisimple"),
    ("reps", "composition_series"),
    ("reps", "module_iso"),
    ("reps", "IrreducibleWitness.verify"),
    ("reps", "SemisimpleCertificate.verify"),
    ("flags", "c_lambda"),
    ("flags", "flag_to_cocharacter"),
    ("pipeline", "semisimplify"),
    ("pipeline", "is_gcr_over_k"),
    ("pipeline", "conjugacy_certificate"),
    ("pipeline", "optimal_flag"),
    ("pipeline", "clifford_joint_ss"),
    ("pipeline", "SsResult.verify"),
    ("pipeline", "ConjugacyCertificate.verify"),
    ("oracle", "get_table"),
    ("oracle", "preserved_flags"),
    ("oracle", "OrbitIndex.orbit_id"),
    ("oracle", "OrbitIndex.orbit_members"),
    ("repfile", "parse_rep"),
)

# count metrics beyond calls and times: name -> (unit, better)
EXTRA_METRICS = {
    "exact.rref.cells": ("count", "lower"),
    "exact.rref.max_rows": ("count", "lower"),
    "exact.rref.max_cols": ("count", "lower"),
    "reps.enveloping_basis.algebra_dim_max": ("count", "lower"),
    "oracle.orbit_cache.hit_ratio": ("1", "higher"),
}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for module, qualname in TARGETS:
        key = f"{module}.{qualname}"
        specs += [(f"{key}.calls", "count", "lower"),
                  (f"{key}.total_s", "s", "lower"),
                  (f"{key}.self_s", "s", "lower")]
    specs += [(name, unit, better) for name, (unit, better) in EXTRA_METRICS.items()]
    return specs


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Wraps the TARGETS while installed and accumulates their statistics."""

    def __init__(self):
        self.stats = {f"{m}.{q}": _Stat() for m, q in TARGETS}
        self.rref_cells = 0
        self.rref_max_rows = 0
        self.rref_max_cols = 0
        self.algebra_dim_max = 0
        self._children = []  # time covered by wrapped calls, one slot per open call
        self._patches = []

    def _wrap(self, key, fn):
        stat = self.stats[key]
        children = self._children
        observe_rref = key == "exact.rref"
        observe_algebra = key == "reps.enveloping_basis"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe_rref:
                m = args[0]
                self.rref_cells += m.nrows * m.ncols
                self.rref_max_rows = max(self.rref_max_rows, m.nrows)
                self.rref_max_cols = max(self.rref_max_cols, m.ncols)
            stat.calls += 1
            stat.depth += 1
            children.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = children.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += elapsed
                stat.self_s += elapsed - inner
                if children:
                    children[-1] += elapsed
            if observe_algebra:
                self.algebra_dim_max = max(self.algebra_dim_max, out.algebra_dim)
            return out

        return wrapper

    def install(self):
        """Patch every target wherever a loaded module refers to it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        by_id = {}
        for module, qualname in TARGETS:
            mod = importlib.import_module(f"ssred.{module}")
            key = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(key, original))
            else:
                original = getattr(mod, qualname)
                by_id[id(original)] = (original, self._wrap(key, original))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def metrics(self):
        """Every per-layer metric as {name: value}."""
        out = {}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = st.calls
            out[f"{key}.total_s"] = st.total_s
            out[f"{key}.self_s"] = st.self_s
        out["exact.rref.cells"] = self.rref_cells
        out["exact.rref.max_rows"] = self.rref_max_rows
        out["exact.rref.max_cols"] = self.rref_max_cols
        out["reps.enveloping_basis.algebra_dim_max"] = self.algebra_dim_max
        lookups = self.stats["oracle.OrbitIndex.orbit_id"].calls
        misses = self.stats["oracle.OrbitIndex.orbit_members"].calls
        out["oracle.orbit_cache.hit_ratio"] = 1 - misses / lookups if lookups else 0.0
        return out
