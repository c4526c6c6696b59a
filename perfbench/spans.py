"""In-memory span tracing around calls into the leibnizlat modules.

The tracer wraps public functions from outside the package: nothing in
``src/`` knows it is being traced. Every wrapped call is a span (name, start,
end, parent). Self time is a span's duration minus the time covered by its
child spans, accumulated per (name, parent) pair when the span closes, so the
self times of all spans add up exactly to the root spans' durations.

Hot leaf calls (``linalg.rref``, ``algebra.product_space`` and friends run
hundreds of thousands of times a lap) are aggregated only; coarse spans are also kept as records
and written out when the benchmark ends. ``LeibnizAlgebra.bracket`` and
``Subspace.leq`` are counted, not timed: their time stays in the caller's self
time, which keeps the wrapper cost on the hottest calls to one counter bump.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# Spans with these names are aggregated without keeping a record each.
AGGREGATE_ONLY = frozenset(
    {
        "linalg.rref",
        "algebra.product_space",
        "algebra.subalgebra_closure",
        "algebra.right_leibniz_check",
    }
)


class Tracer:
    """Span stack, exact self-time accounting and call counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack = []  # frames: [span_id, name, start, child_seconds]
        self._next_id = 1
        self.spans = []  # (span_id, parent_id, name, start, end) of coarse spans
        self.self_s = defaultdict(float)  # (name, parent name) -> seconds
        self.total_s = defaultdict(float)  # (name, parent name) -> seconds, children included
        self.calls = defaultdict(int)  # (name, parent name) -> timed calls
        self.counts = defaultdict(int)  # (name, parent name) -> counted calls
        self.nodes = 0  # lattice nodes returned by enumerate_subalgebras

    def enter(self, name: str):
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def exit(self):
        span_id, name, start, child = self._stack.pop()
        end = self.clock()
        duration = end - start
        parent = None
        parent_id = None
        if self._stack:
            frame = self._stack[-1]
            frame[3] += duration
            parent_id, parent = frame[0], frame[1]
        self.self_s[(name, parent)] += duration - child
        self.total_s[(name, parent)] += duration
        self.calls[(name, parent)] += 1
        if name not in AGGREGATE_ONLY:
            self.spans.append((span_id, parent_id, name, start, end))

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- totals ------------------------------------------------------------

    def total_self(self, name: str) -> float:
        return sum(v for (n, _), v in self.self_s.items() if n == name)

    def total_inclusive(self, name: str) -> float:
        return sum(v for (n, _), v in self.total_s.items() if n == name)

    def total_calls(self, name: str) -> int:
        return sum(v for (n, _), v in self.calls.items() if n == name)

    def total_count(self, name: str, parent=None) -> int:
        return sum(
            v
            for (n, p), v in self.counts.items()
            if n == name and (parent is None or p == parent)
        )

    def self_by_layer(self) -> dict:
        """Self seconds per module prefix ('lattice', 'verify', ..., 'bench')."""
        out = defaultdict(float)
        for (name, _), v in self.self_s.items():
            out[name.split(".", 1)[0]] += v
        return dict(out)

    def total_seconds(self) -> float:
        """Summed duration of the root spans, which equals the sum of all self times."""
        return sum(self.self_s.values())


def _timed(tracer: Tracer, name: str, fn):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts, stack = tracer.counts, tracer._stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[(name, stack[-1][1] if stack else None)] += 1
        return fn(*args, **kwargs)

    return wrapper


def _enumerate_wrapper(tracer: Tracer, fn):
    timed = _timed(tracer, "lattice.enumerate_subalgebras", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        lat = timed(*args, **kwargs)
        tracer.nodes += len(lat.nodes)
        return lat

    return wrapper


# Public LeibnizAlgebra methods that do work worth a span. Generators
# (monic_lines, all_vectors) are left alone: their work runs in the caller.
ALGEBRA_METHODS = (
    "product_space",
    "subalgebra_closure",
    "change_of_basis",
    "is_lie",
    "is_symmetric",
    "lower_central_series",
    "derived_series",
    "is_nilpotent",
    "is_solvable",
    "leibniz_kernel",
    "center",
    "square_zero_vectors",
    "square_zero_subalgebra",
    "is_ideal",
    "largest_ideal_in",
    "quotient",
    "restrict",
    "is_supersolvable",
    "classify_shape",
)

LATTICE_FUNCTIONS = (
    "is_modular",
    "is_upper_semimodular",
    "is_lower_semimodular_lattice",
    "all_subalgebras_wqi",
    "wqi_elementwise",
    "frattini_ideal",
    "lattice_stats",
    "build_structure_report",
)

SPECFILE_FUNCTIONS = ("parse_spec", "emit_spec", "export_dot", "export_json_report")


@contextmanager
def installed(tracer: Tracer, pkg):
    """Wrap the package's public functions for the duration of the block.

    ``pkg`` is the imported ``leibnizlat`` package. Callers inside the package
    reach these names through module globals, class attributes or the
    ``verify.CHECKS`` table, so patching those places reaches every call.
    """
    linalg, algebra, lattice = pkg.linalg, pkg.algebra, pkg.lattice
    verify, specfile, catalog = pkg.verify, pkg.specfile, pkg.catalog
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    try:
        patch(linalg, "rref", _timed(tracer, "linalg.rref", linalg.rref))
        patch(linalg.Subspace, "leq", _counted(tracer, "linalg.leq", linalg.Subspace.leq))
        cls = algebra.LeibnizAlgebra
        patch(cls, "bracket", _counted(tracer, "algebra.bracket", cls.bracket))
        for name in ALGEBRA_METHODS:
            patch(cls, name, _timed(tracer, "algebra." + name, getattr(cls, name)))
        patch(
            algebra,
            "right_leibniz_violation",
            _timed(tracer, "algebra.right_leibniz_check", algebra.right_leibniz_violation),
        )
        patch(
            algebra,
            "check_left_leibniz",
            _timed(tracer, "algebra.check_left_leibniz", algebra.check_left_leibniz),
        )
        enumerate_ = _enumerate_wrapper(tracer, lattice.enumerate_subalgebras)
        patch(lattice, "enumerate_subalgebras", enumerate_)
        for name in LATTICE_FUNCTIONS:
            patch(lattice, name, _timed(tracer, "lattice." + name, getattr(lattice, name)))
        for check_id in list(verify.CHECKS):
            fn = verify.CHECKS[check_id]
            saved.append((verify.CHECKS, check_id, fn))
            verify.CHECKS[check_id] = _timed(tracer, "verify." + check_id, fn)
        patch(verify, "run_suite", _timed(tracer, "verify.run_suite", verify.run_suite))
        patch(
            verify,
            "symmetric_modular_shape",
            _timed(tracer, "verify.symmetric_modular_shape", verify.symmetric_modular_shape),
        )
        for name in SPECFILE_FUNCTIONS:
            patch(specfile, name, _timed(tracer, "specfile." + name, getattr(specfile, name)))
        patch(catalog, "corpus", _timed(tracer, "catalog.corpus", catalog.corpus))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
