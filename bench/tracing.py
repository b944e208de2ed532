"""Per-layer tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces each traced function (and the ``__init__`` of each
traced class) with a timing wrapper, rebinding every ``ringoid.*`` module
attribute that refers to the original, so ``from .linalg import rref_rows``
call sites and same-module calls are both caught.  Per-function aggregates
(calls, inclusive and self time, useful outcomes) are exact for every call;
full spans (id, parent id, name, start, end) are kept for the first
`SPANS_PER_FUNCTION` calls of each function, because the hot kernels run
into the millions of calls.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import sys
import time

SPANS_PER_FUNCTION = 1000

# Layers are the modules of src/ringoid/.  A name is "module.function" or
# "module.Class" (its constructor).  Besides the functions the per-layer
# metrics name, every layer entry point the CLI calls is wrapped, so that a
# layer's self time is its own and not its caller's.
TRACED = (
    "linalg.rref_rows",
    "linalg.solve",
    "linalg.Mat",
    "category.FinCat",
    "category.catalog",
    "category.validate",
    "category.cat_to_json",
    "category.cat_from_json",
    "category.cat_hash",
    "quiver.parse_quiver_dsl",
    "quiver.path_category",
    "modules.enumerate_modules",
    "modules.is_iso",
    "modules.all_submodules",
    "modules.hom_space",
    "modules.representable",
    "modules.quotient_module",
    "ideals.enumerate_ideals",
    "ideals.enumerate_idempotent_ideals",
    "ideals.is_idempotent",
    "ideals.is_trace_of_projectives",
    "completion.additive_closure",
    "completion.induce_module",
    "completion.idempotent_completion",
    "completion.find_oplus_generator",
    "center.compute_center",
    "center.center_idempotents",
    "center.summand_bijection_check",
    "torsion.ModuleCensus",
    "torsion.enumerate_topologies",
    "torsion.gabriel_roundtrip",
    "torsion.has_fg_basis",
    "torsion.hereditary_closure_oracle",
    "torsion.hereditary_class_sweep",
    "ttf.ttf_from_ideal",
    "ttf.jans_roundtrip",
    "ttf.is_split",
    "ttf.CornerCategory",
    "ttf.recollement_data",
    "ttf.recollement_shadows",
    "cli.main",
)

# Functions whose useful outcomes are distinct argument keys (repeat calls on
# the same category and bound redo work) or distinct results.  Categories are
# keyed by content at report time, not by identity.
DISTINCT_KEYS = {
    "modules.enumerate_modules": lambda a, r: (a["cat"], a["total_dim_bound"]),
    "completion.additive_closure": lambda a, r: (a["base"], a["bound"]),
    "torsion.hereditary_closure_oracle": lambda a, r: (a["cat"], a["bound"], r.census_fingerprint),
}
# Functions whose useful outcome is a True result.
TRUE_RESULTS = {"modules.is_iso"}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "active", "spans", "useful", "keys")

    def __init__(self):
        self.calls = 0
        self.spans = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.useful = 0
        self.keys = []


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in TRACED}
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._cat_to_json = None

    def install(self, modules: dict) -> None:
        """Wrap every name in TRACED; `modules` maps short names to modules."""
        self._cat_to_json = modules["category"].cat_to_json
        for name in TRACED:
            mod_name, attr = name.split(".")
            obj = getattr(modules[mod_name], attr)
            if inspect.isclass(obj):
                obj.__init__ = self._wrap(name, obj.__init__)
                continue
            wrapped = self._wrap(name, obj)
            for mod_key, mod in list(sys.modules.items()):
                if mod_key != "ringoid" and not mod_key.startswith("ringoid."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, wrapped)

    def _wrap(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        key_of = DISTINCT_KEYS.get(name)
        signature = inspect.signature(fn) if key_of else None
        count_true = name in TRUE_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            st.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.active -= 1
                d = t1 - t0
                st.calls += 1
                st.self_s += d - frame[1]
                if not st.active:
                    st.total_s += d
                parent = None
                if stack:
                    stack[-1][1] += d
                    parent = stack[-1][0]
                if st.spans < SPANS_PER_FUNCTION:
                    st.spans += 1
                    spans.append((frame[0], parent, name, t0, t1))
            if count_true and result is True:
                st.useful += 1
            elif key_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                st.keys.append(key_of(bound.arguments, result))
            return result

        return traced

    def _content_key(self, key, memo):
        """Replace category objects in a key by a digest of their JSON."""
        out = []
        for part in key:
            if hasattr(part, "comp") and hasattr(part, "objects"):
                if id(part) not in memo:
                    text = self._cat_to_json(part)
                    memo[id(part)] = hashlib.sha256(text.encode()).hexdigest()
                part = memo[id(part)]
            out.append(part)
        return tuple(out)

    def functions(self) -> dict:
        """Aggregates per traced function, in TRACED order."""
        out = {}
        memo = {}
        for name, st in self.stats.items():
            row = {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
            if name in DISTINCT_KEYS:
                row["useful"] = len({self._content_key(k, memo) for k in st.keys})
            elif name in TRUE_RESULTS:
                row["useful"] = st.useful
            out[name] = row
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def layer_metrics(functions: dict, wanted: dict) -> dict:
    """The per-layer metrics named in `wanted` ({name: unit}) from the
    aggregates of `Tracer.functions`.  "layer.self_s" sums the self time of
    the layer's traced functions; a useful ratio is 0 when its base is 0."""
    layer_self = {}
    for name, row in functions.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    out = {}
    for metric, unit in wanted.items():
        parts = metric.split(".")
        if len(parts) == 2:
            value = layer_self[parts[0]]
        else:
            row = functions[".".join(parts[:2])]
            kind = parts[2]
            if kind in ("calls", "new"):
                value = row["calls"]
            elif kind == "useful_ratio":
                value = row["useful"] / row["calls"] if row["calls"] else 0.0
            else:
                value = row[kind]
        out[metric] = {"value": value, "unit": unit}
    return out
