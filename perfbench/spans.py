"""In-memory spans around calls into qgraph's public functions.

`install` wraps each traced function wherever a qgraph module binds it, so
calls made inside the library are seen as well as calls from the benchmark
(cli -> correspondence -> graphs).  A span is [name, start, end, parent,
size]: parent is the index of the enclosing span or -1, and size is a
computed size for the functions in SIZES, else 0.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> public functions timed in the traced run
TRACED = {
    "cli": ("main",),
    "serialize": ("load_graph", "load_family"),
    "blocks": ("comultiply", "sharp"),
    "graphs": (
        "schur_residual", "is_completely_positive", "indicator_properties",
        "homomorphism_check",
    ),
    "correspondence": (
        "psi_tensor_module", "build_edge_correspondence", "from_spanning",
        "left_kernel", "cp_correspondence", "compact_decomposition_residual",
    ),
    "fock": (
        "build_fock", "interior_tensor", "representation_residuals",
        "canonical_fock_family", "lqck_fock_residuals",
    ),
    "relations": ("lqck_residuals", "qck_residuals", "classical_reduction"),
    "families": ("canonical_lqck_family", "rank_one_graph"),
}

# computed sizes recorded on a span: rows of the spanning family given to
# from_spanning, and the total dimension of a Fock truncation
SIZES = {
    "correspondence.from_spanning": lambda args, kwargs, result: len(
        kwargs["spanning"] if "spanning" in kwargs else args[1]
    ),
    "fock.build_fock": lambda args, kwargs, result: result.total_dim,
}

# per-layer metrics: (name, unit, function, statistic); fewer is better for all
LAYER_METRICS = [
    ("cli.main.s", "s", "cli.main", "total_s"),
    ("serialize.load_graph.self_s", "s", "serialize.load_graph", "self_s"),
    ("serialize.load_family.self_s", "s", "serialize.load_family", "self_s"),
    ("blocks.comultiply.self_s", "s", "blocks.comultiply", "self_s"),
    ("blocks.comultiply.calls", "count", "blocks.comultiply", "calls"),
    ("blocks.sharp.self_s", "s", "blocks.sharp", "self_s"),
    ("graphs.schur_residual.self_s", "s", "graphs.schur_residual", "self_s"),
    ("graphs.schur_residual.calls", "count", "graphs.schur_residual", "calls"),
    ("graphs.is_completely_positive.self_s", "s", "graphs.is_completely_positive", "self_s"),
    ("graphs.is_completely_positive.calls", "count", "graphs.is_completely_positive", "calls"),
    ("graphs.indicator_properties.self_s", "s", "graphs.indicator_properties", "self_s"),
    ("graphs.homomorphism_check.self_s", "s", "graphs.homomorphism_check", "self_s"),
    ("correspondence.psi_tensor_module.self_s", "s", "correspondence.psi_tensor_module", "self_s"),
    ("correspondence.build_edge_correspondence.self_s", "s", "correspondence.build_edge_correspondence", "self_s"),
    ("correspondence.build_edge_correspondence.calls", "count", "correspondence.build_edge_correspondence", "calls"),
    ("correspondence.from_spanning.self_s", "s", "correspondence.from_spanning", "self_s"),
    ("correspondence.from_spanning.calls", "count", "correspondence.from_spanning", "calls"),
    ("correspondence.from_spanning.max_span", "count", "correspondence.from_spanning", "max_size"),
    ("correspondence.left_kernel.self_s", "s", "correspondence.left_kernel", "self_s"),
    ("correspondence.cp_correspondence.self_s", "s", "correspondence.cp_correspondence", "self_s"),
    ("correspondence.compact_decomposition_residual.self_s", "s", "correspondence.compact_decomposition_residual", "self_s"),
    ("fock.build_fock.self_s", "s", "fock.build_fock", "self_s"),
    ("fock.build_fock.calls", "count", "fock.build_fock", "calls"),
    ("fock.interior_tensor.self_s", "s", "fock.interior_tensor", "self_s"),
    ("fock.representation_residuals.self_s", "s", "fock.representation_residuals", "self_s"),
    ("fock.canonical_fock_family.self_s", "s", "fock.canonical_fock_family", "self_s"),
    ("fock.lqck_fock_residuals.self_s", "s", "fock.lqck_fock_residuals", "self_s"),
    ("fock.total_dim", "count", "fock.build_fock", "max_size"),
    ("relations.lqck_residuals.self_s", "s", "relations.lqck_residuals", "self_s"),
    ("relations.lqck_residuals.calls", "count", "relations.lqck_residuals", "calls"),
    ("relations.qck_residuals.self_s", "s", "relations.qck_residuals", "self_s"),
    ("relations.classical_reduction.self_s", "s", "relations.classical_reduction", "self_s"),
    ("families.canonical_lqck_family.self_s", "s", "families.canonical_lqck_family", "self_s"),
    ("families.rank_one_graph.self_s", "s", "families.rank_one_graph", "self_s"),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), None, self._open[-1] if self._open else -1, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    span[4] = size_of(args, kwargs, result)
                return result
            finally:
                span[2] = self.clock()
                self._open.pop()

        return traced

    def take(self) -> list[list]:
        """The spans recorded since the last take."""
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer):
    """Wrap every function in TRACED wherever a loaded qgraph module binds
    it; returns a function that puts the originals back."""
    import qgraph  # noqa: F401  (loads every submodule)

    modules = [m for n, m in list(sys.modules.items()) if n == "qgraph" or n.startswith("qgraph.")]
    undo = []
    for mod_name, names in TRACED.items():
        home = sys.modules[f"qgraph.{mod_name}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        undo.append((m, attr, original))

    def uninstall():
        for m, attr, original in reversed(undo):
            setattr(m, attr, original)

    return uninstall


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per function: calls, total_s, self_s and max_size over `spans`.

    Self time is a span's duration minus the durations of its direct
    children; spans nest because the caller is single-threaded.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, size) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_size": 0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_s[i]
        agg["max_size"] = max(agg["max_size"], size)
    return out


def layer_values(agg: dict[str, dict[str, float]]) -> dict[str, float]:
    """Every per-layer metric from one aggregate; uncalled functions read 0."""
    return {
        name: agg.get(fn, {}).get(stat, 0)
        for name, _unit, fn, stat in LAYER_METRICS
    }
