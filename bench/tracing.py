"""Outside-in tracing of the axial library for the benchmark.

Nothing under src/ is instrumented.  The tracer replaces selected library
functions and methods with wrappers at every place that binds them by name
(the defining module, every ``axial.*`` module that imported the name, and
the class for methods), records nested spans with their parents, and puts
the originals back on ``uninstall``.

Two passes use it:

* ``SpanTracer``: inclusive (busy) and exclusive (self) time, call counts and
  the derived counts behind the per-layer ratios.  Spans are aggregated as
  they close: per function, and per (parent, child) edge of the call tree.
* ``ScalarCounter``: counts of scalar operations, plus a bounded, evenly
  strided sample of the operands for the ns/op timings.  It runs in its own
  pass because counting every scalar operation would inflate span times.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict


# (layer, dotted target inside the axial package, metric key, kind)
#   kind "span":  timed span with parent tracking
#   kind "count": call count only (too hot for a span)
# The metric key is the name used in per-layer metrics (dunder methods get
# their operator name).  Targets with no metric of their own are traced so
# that their time counts as their own layer's self time, not their caller's.
# Targets that a later version of the library no longer has are skipped and
# listed by ``missing``.
PACKAGE = "axial"
SPAN_TARGETS = (
    ("spectral", "spectral.eigen_decompose", "eigen_decompose", "span"),
    ("spectral", "spectral.Eigenbasis.__init__", "Eigenbasis.init", "span"),
    ("spectral", "spectral.Eigenbasis.components", "components", "span"),
    ("spectral", "spectral.check_axis", "check_axis", "span"),
    ("spectral", "spectral.check_axial_algebra", "check_axial_algebra", "span"),
    ("spectral", "spectral.char_poly", "char_poly", "span"),
    ("spectral", "spectral.field_roots", "field_roots", "span"),
    ("spectral", "spectral.minimal_law", "minimal_law", "span"),
    ("extension", "extension.condition1_rows", "condition1_rows", "span"),
    ("extension", "extension.condition2_rows", "condition2_rows", "span"),
    ("extension", "extension.cocycle_space", "cocycle_space", "span"),
    ("extension", "extension.coboundary_space", "coboundary_space", "span"),
    ("extension", "extension.build_extension", "build_extension", "span"),
    ("extension", "extension.extension_axiality", "extension_axiality", "span"),
    ("extension", "extension.is_split", "is_split", "span"),
    ("extension", "extension.normalize_on_axes", "normalize_on_axes", "span"),
    ("extension", "extension.CocycleSpace.contains", "CocycleSpace.contains", "span"),
    ("extension", "extension.CocycleSpace.class_is_zero", "CocycleSpace.class_is_zero", "span"),
    ("linalg", "linalg.RowReducer.add_row", "RowReducer.add_row", "span"),
    ("linalg", "linalg.Matrix.apply", "Matrix.apply", "span"),
    ("linalg", "linalg.Matrix.__mul__", "Matrix.mul", "span"),
    ("linalg", "linalg.Matrix.inverse", "Matrix.inverse", "span"),
    ("linalg", "linalg.Matrix.kernel", "Matrix.kernel", "span"),
    ("linalg", "linalg.Subspace.__init__", "Subspace.init", "span"),
    ("linalg", "linalg.Subspace.intersect", "Subspace.intersect", "span"),
    ("linalg", "linalg.Subspace.contains_vector", "Subspace.contains_vector", "span"),
    ("algebra", "algebra.Algebra.product", "product", "span"),
    ("algebra", "algebra.Algebra.product_sparse", "product_sparse", "count"),
    ("algebra", "algebra.Algebra.jordan_check", "jordan_check", "span"),
    ("algebra", "algebra.Algebra.left_mult_matrix", "left_mult_matrix", "span"),
    ("algebra", "algebra.Algebra.frobenius_space", "frobenius_space", "span"),
    ("algebra", "algebra.Algebra.subalgebra_closure", "subalgebra_closure", "span"),
    ("algebra", "algebra.Algebra.annihilator", "annihilator", "span"),
    ("algebra", "algebra.radical_axial", "radical_axial", "span"),
    ("miyamoto", "miyamoto.tau_automorphism", "tau_automorphism", "span"),
    ("miyamoto", "miyamoto.is_automorphism", "is_automorphism", "span"),
    ("miyamoto", "miyamoto.group_closure", "group_closure", "span"),
    ("miyamoto", "miyamoto.axis_closure", "axis_closure", "span"),
    ("catalog", "catalog.build", "build", "span"),
)

LAYERS = ("spectral", "extension", "linalg", "algebra", "miyamoto", "catalog")

# Scalar operations counted by the counting pass: metric key -> methods.
# "add" covers addition, subtraction and negation.
SCALAR_OPS = {
    "mul": ("__mul__",),
    "add": ("__add__", "__sub__", "__neg__"),
    "inverse": ("inverse",),
    "bool": ("__bool__",),
}
# Methods whose operands are sampled for the ns/op timings.
SAMPLED = {"__mul__": "mul", "__add__": "add", "__bool__": "bool"}
SAMPLE_CAP = 2048
REPEATS = 7  # timings per ns/op figure; the median is reported


def _resolve(dotted):
    """(owner, attribute, object) for 'module.func' or 'module.Class.meth'."""
    parts = dotted.split(".")
    module = sys.modules.get(f"{PACKAGE}.{parts[0]}")
    if module is None:
        return None
    owner = module
    for name in parts[1:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if parts[-1] not in vars(owner):
        return None
    return owner, parts[-1], vars(owner)[parts[-1]]


def _binding_sites(owner, attr, original):
    """Every (namespace, name) in the package's modules bound to original.

    Methods live only on their class; module-level functions are also found
    wherever another module imported them by name."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                sites.append((module, name))
    return sites


class _Patcher:
    """Installs wrappers at binding sites and restores the originals."""

    def __init__(self):
        self._saved = []  # (namespace, name, original)

    def patch(self, sites, original, wrapper):
        for site, name in sites:
            self._saved.append((site, name, original))
            setattr(site, name, wrapper)

    def restore(self):
        for site, name, original in reversed(self._saved):
            setattr(site, name, original)
        self._saved.clear()

    def sites(self):
        return list(self._saved)


class _Wrapping:
    """Base of the two passes: owns the patcher, undoes it on exit."""

    def __init__(self):
        self.missing = []
        self._patcher = _Patcher()

    def uninstall(self):
        self._patcher.restore()

    def sites(self):
        """(namespace, name, original) of every wrapped binding."""
        return self._patcher.sites()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


class SpanStats:
    __slots__ = ("calls", "busy", "self_time")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0


class SpanTracer(_Wrapping):
    """Times spans around library calls; see the module docstring."""

    def __init__(self):
        super().__init__()
        self.stats = defaultdict(SpanStats)      # key -> SpanStats
        self.edges = defaultdict(SpanStats)      # (parent key, key) -> SpanStats
        self.layer_of = {}
        self.stack = []                          # open spans: [key, child time]
        self.counts = defaultdict(int)           # derived counts for the ratios
        self._distinct = set()
        self._keep = []                          # keeps traced algebras alive

    # -- install / uninstall -------------------------------------------------

    def install(self):
        for layer, dotted, key, kind in SPAN_TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, attr, original = found
            name = f"{layer}.{key}"
            self.layer_of[name] = layer
            wrap = self._span if kind == "span" else self._counter
            self._patcher.patch(_binding_sites(owner, attr, original),
                                original, wrap(name, original))
        return self

    # -- wrappers ------------------------------------------------------------

    def _counter(self, name, fn):
        stats = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        stats = self.stats[name]
        stack = self.stack
        edges = self.edges
        hook = getattr(self, "_on_" + name.split(".", 1)[1].replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                stats.calls += 1
                stats.busy += dt
                stats.self_time += dt - frame[1]
                edge = edges[(parent[0] if parent else None, name)]
                edge.calls += 1
                edge.busy += dt
            if hook is not None:
                hook(args, kwargs, result, parent)
            return result
        return wrapper

    # -- hooks for derived counts (called after a span closes normally) -------

    def _on_eigen_decompose(self, args, kwargs, result, parent):
        algebra, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
        self._keep.append(algebra)  # an id stays unique while the algebra lives
        self._distinct.add((id(algebra), tuple(x)))

    def _on_condition1_rows(self, args, kwargs, result, parent):
        self._rows("condition1_rows", result)

    def _on_condition2_rows(self, args, kwargs, result, parent):
        self._rows("condition2_rows", result)

    def _rows(self, key, rows):
        self.counts[key + ".rows"] += len(rows)
        if any(frame[0] == "extension.cocycle_space" for frame in self.stack):
            self.counts["cocycle_space.rows_fed"] += len(rows)

    def _on_cocycle_space(self, args, kwargs, result, parent):
        self.counts["cocycle_space.rank"] += result.space.ambient - result.space.dim

    def _on_RowReducer_add_row(self, args, kwargs, result, parent):
        if result:
            self.counts["add_row.gains"] += 1

    def _on_Matrix_mul(self, args, kwargs, result, parent):
        if parent is not None and parent[0] == "miyamoto.group_closure":
            self.counts["group_closure.products"] += 1

    def _on_Matrix_apply(self, args, kwargs, result, parent):
        if parent is not None and parent[0] == "miyamoto.axis_closure":
            self.counts["axis_closure.images"] += 1

    def _on_group_closure(self, args, kwargs, result, parent):
        self.counts["group_closure.added"] += result.order - 1

    def _on_axis_closure(self, args, kwargs, result, parent):
        axes = args[1] if len(args) > 1 else kwargs["axes"]
        self.counts["axis_closure.added"] += len(result.axes) - len({tuple(a) for a in axes})

    # -- results -------------------------------------------------------------

    def distinct_pairs(self):
        return len(self._distinct)

    def calls(self, name):
        return self.stats[name].calls if name in self.stats else 0

    def busy(self, name):
        return self.stats[name].busy if name in self.stats else 0.0

    def layer_self(self, layer):
        return sum(s.self_time for name, s in self.stats.items()
                   if self.layer_of.get(name) == layer)

    def call_tree(self, limit=25):
        """The heaviest (parent -> child) edges, for a human-readable summary."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1].busy)[:limit]
        return [(parent or "(benchmark)", child, s.calls, s.busy)
                for (parent, child), s in rows]


class ScalarCounter(_Wrapping):
    """Counts scalar operations and samples operands (counting pass)."""

    def __init__(self, scalar_cls):
        super().__init__()
        self.scalar_cls = scalar_cls
        self.counts = {key: 0 for key in SCALAR_OPS}
        self.samples = {op: [] for op in SAMPLED.values()}
        self._stride = {op: 1 for op in SAMPLED.values()}
        self._seen = {op: 0 for op in SAMPLED.values()}

    def install(self):
        for key, methods in SCALAR_OPS.items():
            for meth in methods:
                original = vars(self.scalar_cls).get(meth)
                if original is None:
                    self.missing.append(f"{self.scalar_cls.__name__}.{meth}")
                    continue
                wrapper = self._wrap(key, SAMPLED.get(meth), original)
                self._patcher.patch([(self.scalar_cls, meth)], original, wrapper)
        return self

    def _wrap(self, key, sample_op, fn):
        counts = self.counts
        if sample_op is None:
            @functools.wraps(fn)
            def counting(*args):
                counts[key] += 1
                return fn(*args)
            return counting
        samples = self.samples[sample_op]
        stride = self._stride
        seen = self._seen

        @functools.wraps(fn)
        def sampling(*args):
            counts[key] += 1
            n = seen[sample_op] = seen[sample_op] + 1
            if n % stride[sample_op] == 0:
                samples.append(args)
                if len(samples) >= SAMPLE_CAP:
                    # keep every other sample and halve the sampling rate, so
                    # the sample stays evenly spread over the whole pass
                    del samples[1::2]
                    stride[sample_op] *= 2
            return fn(*args)
        return sampling


_OPS = {
    "mul": lambda pairs: [a * b for a, b in pairs],
    "add": lambda pairs: [a + b for a, b in pairs],
    "bool": lambda pairs: [bool(a) for (a,) in pairs],
}


def ns_per_op(samples, tag):
    """Median ns per operation over the sampled operands of one field.

    Returns 0.0 when the pass sampled no operands of that field."""
    out = {}
    for op, pairs in samples.items():
        chosen = [p for p in pairs if p[0].tag is tag]
        if not chosen:
            out[op] = 0.0
            continue
        # repeat the sample so each timing covers a few thousand operations
        work = chosen * max(1, 4096 // len(chosen))
        fn = _OPS[op]
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn(work)
            times.append(time.perf_counter() - t0)
        out[op] = statistics.median(times) / len(work) * 1e9
    return out
