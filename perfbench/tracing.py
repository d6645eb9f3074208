"""Outside-in tracing of cliffk's layers, for the traced benchmark run.

``Tracer.install`` runs in a forked op child only.  It replaces the
library's public functions in the namespaces that call them (``cli``
calls ``point_k``, ``ktheory`` calls ``restriction_multiplicities``, ``reps``
calls ``kernel.unit_pair_rank``, ...) with wrappers that record one span
per call: (span id, parent span id, name, start ns, end ns, self ns).  Self
time is the span's duration minus the time its child spans cover.  Named
counts and maxima are kept at the same boundaries.  A name the library no
longer has is skipped, so the tracer outlives refactors; the report lists
what was skipped.

Rows reach ``unit_pair_rank`` as a lazy iterator, so the time spent
building them (``reps._emit_rows``) lands inside the unit_pair_rank span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from collections import Counter

# (module under cliffk, or "" for the package itself; attribute; span name)
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_sequence_file", "seqfile.parse_sequence_file"),
    ("cli", "solve_exact", "abgroup.solve_exact"),
    ("cli", "check_exact", "abgroup.check_exact"),
    ("cli", "exactness_indices", "abgroup.exactness_indices"),
    ("cli", "point_k", "ktheory.point_k"),
    ("cli", "reduced_k_rpn", "ktheory.reduced_k_rpn"),
    ("cli", "thom_stability", "ktheory.thom_stability"),
    ("cli", "fiber_twist_check", "ktheory.fiber_twist_check"),
    ("cli", "classify", "structure.classify"),
    ("cli", "untwist_split_check", "reps.untwist_split_check"),
    ("cli", "verify_periodicity_iso", "reps.verify_periodicity_iso"),
    ("", "thom_stability", "ktheory.thom_stability"),
    ("", "verify_classification", "reps.verify_classification"),
    ("ktheory", "restriction_multiplicities", "reps.restriction_multiplicities"),
    ("ktheory", "classify", "structure.classify"),
    ("ktheory", "cokernel", "abgroup.cokernel"),
    ("ktheory", "kernel", "abgroup.kernel"),
    ("reps", "build_rep", "reps.build_rep"),
    ("reps", "classify", "structure.classify"),
    ("reps", "min_faithful_dim", "structure.min_faithful_dim"),
    ("abgroup", "check_exact", "abgroup.check_exact"),
]

# (module, name of its kernel-module global, kernel functions to wrap)
KERNEL_USERS = [
    ("reps", "kernel", ("unit_pair_rank", "sparse_rank")),
    ("abgroup", "_kernel", ("snf",)),
    ("blades", "kernel", ("mul_term_maps",)),
]

# (module, class, method): blade arithmetic is methods, not functions
METHODS = [
    ("blades", "CliffordElement", "__mul__"),
    ("blades", "TensorElement", "__mul__"),
]

# calls whose arguments are remembered, to count repeats within one op
REPEATS = ("reps.restriction_multiplicities", "structure.classify")


class _KernelProxy:
    """Stands in for a kernel module: wrapped functions, the rest as is."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans, counts and maxima of one op, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.skipped: list[str] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._seen: dict[str, set] = {name: set() for name in REPEATS}

    def result(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "maxima": self.maxima, "skipped": self.skipped}

    def _maximum(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, -1):
            self.maxima[name] = value

    def wrap(self, name: str, fn, after=None, rows=False):
        stack, spans, ids = self._stack, self.spans, self._ids
        seen = self._seen.get(name)
        counts = self.counts

        def counted_rows(iterable):
            for row in iterable:
                counts["kernel.unit_pair_rank.rows"] += 1
                yield row

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                key = repr((args, sorted(kwargs.items())))
                if key in seen:
                    counts[name + ".repeats"] += 1
                seen.add(key)
            if rows:
                args = (counted_rows(args[0]),) + args[1:]
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append([frame[0], parent[0] if parent else None, name,
                              start, end, end - start - frame[1]])
            if after is not None:
                after(args, out)
            return out

        return traced

    def install(self, cliffk) -> None:
        """Wrap the layer boundaries of an imported cliffk, in place."""

        def module(name):
            if not name:
                return cliffk
            try:
                return importlib.import_module(f"cliffk.{name}")
            except ImportError:
                return None

        afters = {
            "reps.build_rep": lambda _a, rep: self._maximum(
                "reps.rep_dim.max", rep.dim),
        }
        for mod_name, attr, span in FUNCTIONS:
            mod = module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.skipped.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self.wrap(span, fn, after=afters.get(span)))

        for mod_name, attr, names in KERNEL_USERS:
            mod = module(mod_name)
            kern = getattr(mod, attr, None)
            if kern is None:
                self.skipped.append(f"{mod_name}.{attr}")
                continue
            wrapped = {}
            for fname in names:
                fn = getattr(kern, fname, None)
                if fn is None:
                    self.skipped.append(f"kernel.{fname}")
                    continue
                wrapped[fname] = self.wrap(
                    f"kernel.{fname}", fn,
                    after=self._after_snf if fname == "snf" else None,
                    rows=fname == "unit_pair_rank")
            setattr(mod, attr, _KernelProxy(kern, wrapped))

        for mod_name, cls_name, meth in METHODS:
            cls = getattr(module(mod_name), cls_name, None)
            if cls is None:
                self.skipped.append(f"{mod_name}.{cls_name}")
                continue
            setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}",
                                         getattr(cls, meth)))

        hom = getattr(module("abgroup"), "GroupHom", None)
        if hom is None or not hasattr(hom, "__post_init__"):
            self.skipped.append("abgroup.GroupHom")
        else:
            post_init = hom.__post_init__
            counts = self.counts

            def counted_post_init(obj):
                counts["abgroup.grouphom.built"] += 1
                return post_init(obj)

            hom.__post_init__ = counted_post_init

    def _after_snf(self, args, out) -> None:
        _mat, nrows, ncols = args[:3]
        self._maximum("kernel.snf.max_cells", nrows * ncols)
        bits = 0
        for matrix in (args[0],) + tuple(out):
            for row in matrix:
                for v in row:
                    if v:
                        bits = max(bits, abs(v).bit_length())
        self._maximum("kernel.snf.max_entry_bits", bits)


def span_paths(spans) -> dict[str, list]:
    """Total calls and ms per distinct chain of span names, root first."""
    by_id = {s[0]: s for s in spans}
    paths: dict[str, list] = {}
    for s in spans:
        chain = [s[2]]
        parent = s[1]
        while parent is not None:
            chain.append(by_id[parent][2])
            parent = by_id[parent][1]
        key = " > ".join(reversed(chain))
        entry = paths.setdefault(key, [0, 0.0])
        entry[0] += 1
        entry[1] += (s[4] - s[3]) / 1e6
    return paths
