"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces module-level bindings (the names callers look up
at call time) with wrappers that record one span per call: name, start,
end, parent span, item id, a small note about the arguments or result, and
the exception type if the call raised.  Nothing in the package changes;
`Tracer.uninstall` puts the original functions back.

Wrappers of `functools.lru_cache` functions forward `cache_info` and
`cache_clear`, because the package's `clear_caches()` functions reach the
caches through the same module names.
"""

from __future__ import annotations

import functools
import json
import time

# Span names that give their descendants a context for attribution.
CONTEXTS = ("prover.search", "prover.check_proof", "cutelim.eliminate_cuts", "finmod.refute")


def _truthy(result, args):
    return bool(result)


def _length(result, args):
    return len(result)


def _gens(result, args):
    return len(args[0])


def _enum_class(result, args):
    return (args[0], args[1], len(result))


# (module attribute, span name, note taken at return).  Both bindings of
# oracle_valid share one span name: cutelim imports it by name.
WRAPPED = (
    ("terms", "parse_sequent", "terms.parse", None),
    ("terms", "parse_term", "terms.parse", None),
    ("prover", "search", "prover.search", None),
    ("prover", "check_proof", "prover.check_proof", _truthy),
    ("prover", "proof_to_json", "prover.json", None),
    ("prover", "proof_from_json", "prover.json", None),
    ("prover", "oracle_valid", "prover.oracle_valid", _truthy),
    ("cutelim", "oracle_valid", "prover.oracle_valid", _truthy),
    ("lg_oracle", "lg_valid_sequent", "lg_oracle.lg_valid_sequent", None),
    ("lg_oracle", "lg_valid_leq_e", "lg_oracle.lg_valid_leq_e", None),
    ("lg_oracle", "semigroup_contains_identity", "lg_oracle.saturation", _gens),
    ("ablg_oracle", "ablg_valid_sequent", "ablg_oracle.ablg_valid_sequent", None),
    ("ablg_oracle", "ablg_valid_leq_e", "ablg_oracle.ablg_valid_leq_e", None),
    ("ablg_oracle", "abelianize", "ablg_oracle.abelianize", _length),
    ("ablg_oracle", "strict_infeasible", "ablg_oracle.fm", _truthy),
    ("cutelim", "eliminate_cuts", "cutelim.eliminate_cuts", None),
    ("finmod", "enumerate_algebras", "finmod.enumerate_algebras", _enum_class),
    ("finmod", "refute", "finmod.refute", lambda r, a: r is not None),
)

# Name of the instant marking that every package cache was cleared.
CLEAR = "bench.clear_caches"

# Span fields.
NAME, START, END, PARENT, ITEM, NOTE, ERROR = range(7)


class Tracer:
    """In-memory span recorder for one process; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.item = -1

    def install(self, modules: dict):
        for mod_name, attr, name, note in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def mark(self, name: str):
        """Record an instant, such as the moment the caches were cleared."""
        now = time.perf_counter()
        self.spans.append([name, now, now, -1, self.item, None, None])

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item, None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            else:
                if note is not None:
                    span[NOTE] = note(result, args)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, item, note, error."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children of one span may not overlap in a single thread, but the union
    is taken anyway (clipped to the parent), so the arithmetic never counts
    a covered instant twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def contexts(spans) -> list[str | None]:
    """For each span, the name of its nearest ancestor listed in CONTEXTS."""
    out: list[str | None] = []
    for s in spans:
        p = s[PARENT]
        if p < 0:
            out.append(None)
        else:
            out.append(spans[p][NAME] if spans[p][NAME] in CONTEXTS else out[p])
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _hit_ratio(info) -> float:
    return _ratio(info[0], info[0] + info[1])


FINMOD_CLASSES = ("rl", "integral", "sirmonoid")


def layer_metrics(spans, caches: dict, items: list[dict], keep=None) -> dict[str, float]:
    """Per-layer metrics from the spans of the items in `keep` (all items
    when None), the summed `cache_info` (hits, misses) of each cached
    function, and the records of the kept items (goals expanded, depth,
    proof nodes, cut counts)."""
    selfs = self_times(spans)
    ctx = contexts(spans)
    ms = {}
    count = {}
    valid = {}
    gens = 0
    cap_errors = 0
    blocks = 0
    search_oracle = [0, 0, 0.0]  # calls, valid answers, ms
    check_oracle = 0
    cut_oracle = 0
    enum_ms = dict.fromkeys(FINMOD_CLASSES, 0.0)
    algebras = dict.fromkeys(FINMOD_CLASSES, 0)
    enumerated = set()  # (size, class) enumerated since the caches were cleared
    for i, s in enumerate(spans):
        if keep is not None and s[ITEM] not in keep:
            continue
        name = s[NAME]
        dur = (s[END] - s[START]) * 1000.0
        ms[name] = ms.get(name, 0.0) + dur
        ms[name + ".self"] = ms.get(name + ".self", 0.0) + selfs[i] * 1000.0
        count[name] = count.get(name, 0) + 1
        if s[NOTE] is True:
            valid[name] = valid.get(name, 0) + 1
        if name == "lg_oracle.saturation" and s[NOTE] is not None:
            gens += s[NOTE]
        elif name == "lg_oracle.lg_valid_leq_e" and s[ERROR] == "GnfSizeError":
            cap_errors += 1
        elif name == "ablg_oracle.abelianize" and s[NOTE] is not None:
            blocks += s[NOTE]
        elif name == "prover.oracle_valid":
            if ctx[i] == "prover.search":
                search_oracle[0] += 1
                search_oracle[1] += s[NOTE] is True
                search_oracle[2] += dur
            elif ctx[i] == "prover.check_proof":
                check_oracle += 1
            elif ctx[i] == "cutelim.eliminate_cuts":
                cut_oracle += 1
        elif name == CLEAR:
            enumerated.clear()
        elif name == "finmod.enumerate_algebras" and s[NOTE] is not None:
            size, cls, n = s[NOTE]
            enum_ms[cls] = enum_ms.get(cls, 0.0) + dur
            if (size, cls) not in enumerated:
                enumerated.add((size, cls))
                algebras[cls] = algebras.get(cls, 0) + n

    def total(key):
        return sum(r.get(key, 0) for r in items)

    out = {
        "terms.parse_ms": ms.get("terms.parse", 0.0),
        "terms.print_term.hit_ratio": _hit_ratio(caches.get("print_term", (0, 0))),
        "lg_oracle.queries": count.get("lg_oracle.lg_valid_leq_e", 0),
        "lg_oracle.queries_distinct": caches.get("lg_valid_leq_e", (0, 0))[1],
        "lg_oracle.leq_e.hit_ratio": _hit_ratio(caches.get("lg_valid_leq_e", (0, 0))),
        "lg_oracle.normal_form_ms": ms.get("lg_oracle.lg_valid_leq_e.self", 0.0),
        "lg_oracle.saturation_ms": ms.get("lg_oracle.saturation", 0.0),
        "lg_oracle.saturation_calls": count.get("lg_oracle.saturation", 0),
        "lg_oracle.saturation.hit_ratio": _hit_ratio(caches.get("semigroup_contains_identity", (0, 0))),
        "lg_oracle.gnf_words": gens,
        "lg_oracle.cap_errors": cap_errors,
        "ablg_oracle.queries": count.get("ablg_oracle.ablg_valid_leq_e", 0),
        "ablg_oracle.queries_distinct": caches.get("ablg_valid_leq_e", (0, 0))[1],
        "ablg_oracle.leq_e.hit_ratio": _hit_ratio(caches.get("ablg_valid_leq_e", (0, 0))),
        "ablg_oracle.abelianize_ms": ms.get("ablg_oracle.abelianize", 0.0),
        "ablg_oracle.blocks": blocks,
        "ablg_oracle.fm_ms": ms.get("ablg_oracle.fm", 0.0),
        "ablg_oracle.fm_calls": count.get("ablg_oracle.fm", 0),
        "ablg_oracle.fm_infeasible_ratio": _ratio(valid.get("ablg_oracle.fm", 0), count.get("ablg_oracle.fm", 0)),
        "prover.goals_expanded": total("goals"),
        "prover.max_depth": max((r.get("depth", 0) for r in items), default=0),
        "prover.search_self_ms": ms.get("prover.search.self", 0.0),
        "prover.oracle_ms": search_oracle[2],
        "prover.oracle_valid_ratio": _ratio(search_oracle[1], search_oracle[0]),
        "prover.check_ms": ms.get("prover.check_proof", 0.0),
        "prover.check_oracle_calls": check_oracle,
        "prover.json_ms": ms.get("prover.json", 0.0),
        "prover.proof_nodes": total("proof_nodes"),
        "cutelim.eliminate_ms": ms.get("cutelim.eliminate_cuts", 0.0),
        "cutelim.cuts_in": total("cuts_in"),
        "cutelim.nodes_out_per_in": _ratio(total("nodes_out"), total("nodes_in")),
        "cutelim.oracle_calls": cut_oracle,
        "finmod.refute_ms": ms.get("finmod.refute", 0.0),
        "finmod.refute_found_ratio": _ratio(valid.get("finmod.refute", 0), count.get("finmod.refute", 0)),
    }
    for cls in FINMOD_CLASSES:
        out[f"finmod.enumerate_ms.{cls}"] = enum_ms[cls]
        out[f"finmod.algebras.{cls}"] = algebras[cls]
    return out


# Units of the per-layer metrics, by name suffix.
def unit_of(name: str) -> str:
    if name.endswith("_ms") or ".enumerate_ms." in name:
        return "ms"
    if name.endswith("ratio") or name.endswith("_frac") or name.endswith("_per_in"):
        return "ratio"
    return "count"
