"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each traced public function of ``sgmindeg`` by a
wrapper at every module attribute that refers to it, which is the name its
callers look up at call time (``sgmindeg.mindeg.greens``,
``sgmindeg.cli.min_partial_degree``, ...).  A wrapper records one span: name,
start, end, parent span and the id of the operation it ran under.  Functions
that run in the oracle's inner loop get a counter instead of a span.  Time in a
function that is not wrapped, such as ``core.compose_maps`` inside the oracle's
search, counts toward the self time of the nearest wrapped caller.

``layer_metrics`` turns the spans, counters and the oracle's per-degree split
into the per-layer metrics.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs that get a span.
SPANNED = (
    ("fileio", "read_semigroup"),
    ("core", "from_table"),
    ("core", "check_associativity"),
    ("core", "small_generating_set"),
    ("core", "closure_mask"),
    ("core", "greens"),
    ("core", "rees_coordinatize"),
    ("core", "opposite"),
    ("core", "_partition_from_keys"),
    ("congruence", "is_rhodes_semisimple"),
    ("congruence", "rm_irreducible_classes"),
    ("congruence", "column_condition"),
    ("congruence", "min_idempotent_of"),
    ("action", "tensor_action"),
    ("action", "greens_quotient"),
    ("action", "is_faithful"),
    ("action", "faithful_by_criterion"),
    ("action", "coproduct_actions"),
    ("grouptheory", "subgroup_classes"),
    ("grouptheory", "coset_action"),
    ("grouptheory", "coproduct_group_actions"),
    ("grouptheory", "min_degree_faithful_on"),
    ("mindeg", "min_partial_degree"),
    ("mindeg", "left_degrees"),
    ("mindeg", "dj"),
    ("mindeg", "tensor_quotient_size"),
    ("oracle", "brute_min_degree"),
    ("oracle", "generating_set"),
    ("oracle", "verify_embedding"),
)
# Called once per surviving search node: counted, not spanned.
COUNTED = (("oracle", "close_embedding"),)

MODULES = ("cli", "fileio", "core", "congruence", "action", "grouptheory", "mindeg", "oracle")

# Per-layer metrics: name -> unit.  "<f>_s" is the inclusive time of the
# outermost spans of f, "<module>.self_s" the summed self time of the module's
# spans and "<f>_calls" the number of calls.
INCLUSIVE = (
    "fileio.read_semigroup",
    "core.from_table",
    "core.small_generating_set",
    "core.greens",
    "core.rees_coordinatize",
    "congruence.is_rhodes_semisimple",
    "congruence.rm_irreducible_classes",
    "action.tensor_action",
    "action.greens_quotient",
    "action.is_faithful",
    "action.faithful_by_criterion",
    "mindeg.min_partial_degree",
    "mindeg.tensor_quotient_size",
    "grouptheory.subgroup_classes",
    "grouptheory.min_degree_faithful_on",
    "oracle.generating_set",
)
CALLS = (
    "mindeg.min_partial_degree",
    "mindeg.tensor_quotient_size",
    "grouptheory.subgroup_classes",
    "grouptheory.coset_action",
)
LAYER_METRICS = {
    **{f"{name}_s": "s" for name in INCLUSIVE},
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{name}_calls": "count" for name in CALLS},
    "oracle.close_embedding_calls": "count",
    "mindeg.dj_s": "s",  # self time of dj: its branch and bound
    "grouptheory.lattice_classes": "count",
    "oracle.nodes": "count",
    "oracle.find_s": "s",
    "oracle.find_nodes": "count",
    "oracle.refute_s": "s",
    "oracle.refute_nodes": "count",
    "oracle.type_filter_pass_ratio": "ratio",
    "oracle.close_embedding_ok_ratio": "ratio",
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}


class Tracer:
    """In-memory spans ``[name, start, end, parent, op]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.oracle_calls: list[dict] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def region(self, name: str):
        idx = len(self.spans)
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _span_wrapper(self, fn, name: str):
        spans, stack = self.spans, self._stack
        on_result = {
            "grouptheory.subgroup_classes": self._count_lattice_classes,
            "oracle.brute_min_degree": self._record_oracle_call,
        }.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, perf_counter(), None, stack[-1] if stack else None, self.op]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + "_calls"] += 1
            if result is not None:
                counts[name + "_ok"] += 1
            return result

        return wrapper

    def _count_lattice_classes(self, lattice, *args, **kwargs):
        self.counts["grouptheory.lattice_classes"] += len(lattice.classes)

    def _record_oracle_call(self, res, *args, **kwargs):
        self.oracle_calls.append(
            {
                "op": self.op,
                "query": args[0] if args else kwargs["query"],
                "status": res.status,
                "degree": res.degree,
                "nodes": res.nodes,
            }
        )

    def install(self) -> None:
        """Wrap every traced function at each sgmindeg module attribute bound to it."""
        import sgmindeg  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sys.modules.items() if k.startswith("sgmindeg.")]
        targets = [(t, self._span_wrapper) for t in SPANNED]
        targets += [(t, self._count_wrapper) for t in COUNTED]
        for (mod, fname), make in targets:
            orig = getattr(sys.modules[f"sgmindeg.{mod}"], fname)
            wrapped = make(orig, f"{mod}.{fname}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()


def oracle_split(calls: list[dict], budget_secs: float) -> None:
    """Re-run each recorded oracle call one degree at a time (min_n = max_n = n)
    through the public ``brute_min_degree``, untraced.  Adds to each call a
    ``degrees`` list of [n, status, nodes, seconds]; degrees shared by calls on
    the same table and mode are searched once."""
    from sgmindeg.oracle import OracleQuery, brute_min_degree

    done: dict[tuple, list] = {}
    for call in calls:
        q = call.pop("query")
        call["degrees"] = []
        if call["status"] == "timeout":
            continue
        last = call["degree"] if call["status"] == "found" else q.max_n
        for n in range(q.min_n, last + 1):
            key = (q.semigroup.table.tobytes(), q.semigroup.size, q.mode, n)
            if key not in done:
                t0 = perf_counter()
                res = brute_min_degree(
                    OracleQuery(
                        semigroup=q.semigroup, mode=q.mode, min_n=n, max_n=n,
                        generators=q.generators, budget_secs=budget_secs,
                    )
                )
                done[key] = [n, res.status, res.nodes, perf_counter() - t0]
            call["degrees"].append(done[key])


def split_mismatches(calls: list[dict]) -> list[tuple[str, str]]:
    """(op id, reason) for each call whose per-degree split disagrees with the
    single call: nodes that do not sum up, or a status at some degree that
    contradicts the answer."""
    bad = []
    for call in calls:
        if call["status"] == "timeout":
            bad.append((call["op"], "oracle timeout"))
            continue
        degs = call["degrees"]
        found_at = [d[0] for d in degs if d[1] == "found"]
        want = [call["degree"]] if call["status"] == "found" else []
        total = sum(d[2] for d in degs)
        if found_at != want or total != call["nodes"]:
            bad.append((call["op"], f"per-degree nodes {total} found at {found_at}, "
                        f"single call {call['nodes']} {call['status']} at {call['degree']}"))
    return bad


def self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(
    spans: list[list], counts: dict, oracle_calls: list[dict], untraced_pass_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose root span is ``bench.pass``."""
    selfs = self_times(spans)
    by_module: Counter = Counter()
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    dj_self = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        by_module[name.split(".")[0]] += selfs[i]
        calls[name] += 1
        if name == "mindeg.dj":
            dj_self += selfs[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            inclusive[name] += end - start
    (pass_span,) = [s for s in spans if s[0] == "bench.pass"]
    pass_s = pass_span[2] - pass_span[1]

    out: dict[str, float] = {f"{n}_s": inclusive[n] for n in INCLUSIVE}
    out.update({f"{m}.self_s": by_module[m] for m in MODULES})
    out.update({f"{n}_calls": calls[n] for n in CALLS})
    ce_calls = counts.get("oracle.close_embedding_calls", 0)
    out["oracle.close_embedding_calls"] = ce_calls
    out["mindeg.dj_s"] = dj_self
    out["grouptheory.lattice_classes"] = counts.get("grouptheory.lattice_classes", 0)

    nodes = sum(c["nodes"] for c in oracle_calls)
    find_s = find_nodes = refute_s = refute_nodes = 0
    for call in oracle_calls:
        for n, status, n_nodes, secs in call["degrees"]:
            if status == "found":
                find_s, find_nodes = find_s + secs, find_nodes + n_nodes
            else:
                refute_s, refute_nodes = refute_s + secs, refute_nodes + n_nodes
    out.update(
        {
            "oracle.nodes": nodes,
            "oracle.find_s": find_s,
            "oracle.find_nodes": find_nodes,
            "oracle.refute_s": refute_s,
            "oracle.refute_nodes": refute_nodes,
            "oracle.type_filter_pass_ratio": ce_calls / nodes if nodes else 0.0,
            "oracle.close_embedding_ok_ratio": (
                counts.get("oracle.close_embedding_ok", 0) / ce_calls if ce_calls else 0.0
            ),
            "bench.self_s": by_module["bench"],
            "trace.pass_s": pass_s,
            "trace.overhead_s": pass_s - untraced_pass_s,
            "trace.accounted_frac": sum(by_module.values()) / pass_s,
        }
    )
    return out
