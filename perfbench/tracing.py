"""Per-layer spans and work counters, installed from outside the program.

``install`` replaces each public entry point of the six hirzcoh layers
with a timing wrapper.  The wrapper goes in at every attribute where a
caller looks the name up: a function bound by ``from x import f`` in
several modules is replaced in each of them, and methods are replaced on
their class.  No hirzcoh source changes.

Spans are aggregated per name as they close: outermost calls, self time
(span duration minus the time covered by child spans) and inclusive time.
A recursive entry (``_restrict_numeric`` calls itself) folds into its
outermost call.  Work counts are taken at the same boundaries.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from time import perf_counter

#: Every per-layer metric, in report order, with its unit.  BENCHMARK.json
#: lists the same names; a layer a workload does not exercise reads 0.
PER_LAYER = [
    ("verifier.run_full_replay.calls", "count"),
    ("verifier.run_full_replay.self_s", "s"),
    ("verifier.claim3.self_s", "s"),
    ("verifier.claim4.self_s", "s"),
    ("verifier.charp.self_s", "s"),
    ("verifier.remark_t.self_s", "s"),
    ("verifier.restrict.calls", "count"),
    ("verifier.restrict.self_s", "s"),
    ("verifier.evaluations", "count"),
    ("verifier.evaluations_per_s", "1/s"),
    ("p1.sym_power.calls", "count"),
    ("p1.sym_power.self_s", "s"),
    ("p1.sym_power.balanced_calls", "count"),
    ("p1.sym_power.enumerated_calls", "count"),
    ("p1.sym_power.monomials", "count"),
    ("p1.sym_power.distinct_ratio", "ratio"),
    ("p1.twist.calls", "count"),
    ("p1.twist.self_s", "s"),
    ("p1.frobenius_pullback.calls", "count"),
    ("p1.frobenius_pullback.self_s", "s"),
    ("p1.from_pairs.calls", "count"),
    ("p1.from_pairs.self_s", "s"),
    ("p1.classify_extension.calls", "count"),
    ("p1.classify_extension.self_s", "s"),
    ("p1.h0.calls", "count"),
    ("p1.h0.self_s", "s"),
    ("p1.parse_splitting.self_s", "s"),
    ("p1.format_splitting.self_s", "s"),
    ("cohomology.h0.calls", "count"),
    ("cohomology.h0.self_s", "s"),
    ("cohomology.h1.calls", "count"),
    ("cohomology.h1.self_s", "s"),
    ("cohomology.h2.calls", "count"),
    ("cohomology.h2.self_s", "s"),
    ("cohomology.chi_rr.calls", "count"),
    ("cohomology.chi_rr.self_s", "s"),
    ("cohomology.pushforward_splitting.calls", "count"),
    ("cohomology.pushforward_splitting.self_s", "s"),
    ("cohomology.pushforward_splitting.summands", "count"),
    ("cohomology.brute_force_h0.calls", "count"),
    ("cohomology.brute_force_h0.self_s", "s"),
    ("cohomology.brute_force_h0.refused", "count"),
    ("kernels.lattice_point_count.calls", "count"),
    ("kernels.lattice_point_count.self_s", "s"),
    ("kernels.lattice_point_count.points", "count"),
    ("kernels.points_per_s", "1/s"),
    ("hirzebruch.parse_class.calls", "count"),
    ("hirzebruch.parse_class.self_s", "s"),
    ("hirzebruch.intersect.calls", "count"),
    ("hirzebruch.intersect.self_s", "s"),
    ("hirzebruch.cone.calls", "count"),
    ("hirzebruch.cone.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.render_report.self_s", "s"),
    ("cli.python_start_s", "s"),
    ("bench.tracing_overhead_frac", "ratio"),
    ("bench.unattributed_s", "s"),
]

#: The four certificate functions, by the claim id each one emits.
CERTIFICATES = {
    "claim3": "peeling_vanishing_certificate",
    "claim4": "base_row_certificate",
    "charp": "frobenius_certificate",
    "remark_t": "direct_not_psef_certificate",
}


class _Span:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    """Aggregated spans plus work counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = {}
        self.counts: Counter[str] = Counter()
        self.sym_inputs: set = set()
        # one child-time accumulator per open span; the bottom one is a
        # sentinel so a closing span always has a parent to report to
        self._stack: list[list[float]] = [[0.0]]

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result, exc)`` runs after it."""
        span = self.spans.setdefault(name, _Span())
        stack = self._stack

        def traced(*args, **kwargs):
            outermost = span.depth == 0
            span.depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count is not None:
                    count(args, None, exc)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                span.depth -= 1
                span.self_s += dt - frame[0]
                if outermost:
                    span.calls += 1
                    span.incl_s += dt
            if count is not None:
                count(args, result, None)
            return result

        return traced

    def cover(self, seconds: float) -> None:
        """Count ``seconds`` of the open span as covered by spans recorded elsewhere."""
        self._stack[-1][0] += seconds

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        counts["p1.sym_power.distinct"] = counts.get("p1.sym_power.distinct", 0) + len(
            self.sym_inputs
        )
        return {
            "spans": {k: [s.calls, s.self_s, s.incl_s] for k, s in self.spans.items()},
            "counts": counts,
        }

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken elsewhere (a traced child process)."""
        for name, (calls, self_s, incl_s) in snap["spans"].items():
            span = self.spans.setdefault(name, _Span())
            span.calls += calls
            span.self_s += self_s
            span.incl_s += incl_s
        self.counts.update(snap["counts"])

    # -- work counters ------------------------------------------------------

    def _count_sym(self, args, result, exc):
        st, m = args
        pairs = st.pairs
        self.sym_inputs.add((pairs, m))
        if exc is not None or m <= 1 or not pairs:
            return
        if len(pairs) == 1:
            self.counts["p1.sym_power.balanced_calls"] += 1
        else:
            self.counts["p1.sym_power.enumerated_calls"] += 1
            self.counts["p1.sym_power.monomials"] += comb(st.rank + m - 1, m)

    def _count_pushforward(self, args, result, exc):
        if exc is None:
            _ctx, d = args
            self.counts["cohomology.pushforward_splitting.summands"] += d.a + 1

    def _count_oracle(self, args, result, exc):
        if isinstance(exc, ValueError):
            self.counts["cohomology.brute_force_h0.refused"] += 1

    def _count_points(self, args, result, exc):
        if exc is None:
            self.counts["kernels.lattice_point_count.points"] += result

    def _count_evaluations(self, args, result, exc):
        if exc is None:
            self.counts["verifier.evaluations"] += result.details.get("evaluations", 0)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points where hirzcoh's callers look them up."""
        import hirzcoh
        from hirzcoh import _kernels_py, cli, cohomology, hirzebruch, kernels, p1, verifier

        modules = [hirzcoh, hirzebruch, p1, cohomology, kernels, _kernels_py, verifier, cli]

        def function(name, obj, count=None):
            wrapper = self.wrap(name, obj, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, attr, wrapper)

        def method(name, cls, attr, count=None):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, count)))
            else:
                setattr(cls, attr, self.wrap(name, raw, count))

        ctx_cls = hirzebruch.SurfaceContext
        function("hirzebruch.parse_class", hirzebruch.parse_class)
        method("hirzebruch.intersect", ctx_cls, "intersect")
        for cone in ("is_nef", "is_ample", "is_psef", "is_big"):
            method("hirzebruch.cone", ctx_cls, cone)

        st_cls = p1.SplittingType
        method("p1.sym_power", st_cls, "sym_power", self._count_sym)
        method("p1.twist", st_cls, "twist")
        method("p1.frobenius_pullback", st_cls, "frobenius_pullback")
        method("p1.from_pairs", st_cls, "from_pairs")
        method("p1.h0", st_cls, "h0")
        function("p1.classify_extension", p1.classify_extension)
        function("p1.parse_splitting", p1.parse_splitting)
        function("p1.format_splitting", p1.format_splitting)

        for name in ("h0", "h1", "h2", "chi_rr"):
            function(f"cohomology.{name}", getattr(cohomology, name))
        function(
            "cohomology.pushforward_splitting",
            cohomology.pushforward_splitting,
            self._count_pushforward,
        )
        function("cohomology.brute_force_h0", cohomology.brute_force_h0, self._count_oracle)

        # cohomology bound the kernel at import; the pure kernel is also
        # looked up on _kernels_py at call time past the compiled range
        for obj in {cohomology.lattice_point_count, _kernels_py.lattice_point_count}:
            function("kernels.lattice_point_count", obj, self._count_points)

        function("verifier.run_full_replay", verifier.run_full_replay)
        for claim, attr in CERTIFICATES.items():
            function(f"verifier.{claim}", getattr(verifier, attr), self._count_evaluations)
        # the sweep calls the numeric interpreter directly, not restrict_expr
        function("verifier.restrict", verifier._restrict_numeric)

        function("cli.main", cli.main)
        function("cli.render_report", cli.render_report)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def layer_metrics(snap: dict, extra: dict) -> dict:
    """Every PER_LAYER metric from a tracer snapshot and ``extra``; what neither has reads 0."""
    spans, counts = snap["spans"], snap["counts"]

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    derived = {
        "verifier.evaluations_per_s": _rate(
            counts.get("verifier.evaluations", 0),
            sum(span(f"verifier.{claim}")[2] for claim in CERTIFICATES),
        ),
        "kernels.points_per_s": _rate(
            counts.get("kernels.lattice_point_count.points", 0),
            span("kernels.lattice_point_count")[2],
        ),
        "p1.sym_power.distinct_ratio": _rate(
            counts.get("p1.sym_power.distinct", 0), span("p1.sym_power")[0]
        ),
        **extra,
    }
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif field == "calls":
            values[name] = span(base)[0]
        elif field == "self_s":
            values[name] = span(base)[1]
        else:
            values[name] = counts.get(name, 0)
    return values
