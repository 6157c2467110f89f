"""Spans and counters recorded around the program's public functions.

Only the traced run installs this.  ``Tracer.install`` replaces each target
function by a wrapper in every loaded ``antinef`` module that holds it, so
calls through a ``from .x import f`` binding are seen too.  Spans stay in
memory as ``(name, start_ns, end_ns, parent)`` tuples and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name); several functions may share one name
SPANS = [
    ("antinef.graph", "validate_graph", "graph.validate_graph"),
    ("antinef.lattice", "canonical_cycle", "lattice.canonical_cycle"),
    ("antinef.lattice", "antinef_closure", "lattice.antinef_closure"),
    ("antinef.lattice", "pair", "lattice.pair"),
    ("antinef.birational", "Tower.pullback", "birational.pullback"),
    ("antinef.birational", "transport_cohom", "birational.transport_cohom"),
    ("antinef.ideals", "represent", "ideals.represent"),
    ("antinef.ideals", "colon_and_core", "ideals.colon_and_core"),
    ("antinef.ideals", "is_good", "ideals.is_good"),
    ("antinef.ideals", "good_closure", "ideals.good_closure"),
    ("antinef.oracle", "enumerate_max_Y", "oracle.enumerate_max_Y"),
    ("antinef.oracle", "fundamental_cycle_bruteforce", "oracle.fundamental_cycle_bruteforce"),
    ("antinef.oracle", "negdef_bruteforce", "oracle.negdef_bruteforce"),
    ("antinef.formats", "parse_graph_document", "formats.parse"),
    ("antinef.formats", "parse_tower_document", "formats.parse"),
    ("antinef.formats", "parse_inline_cycle", "formats.parse"),
    ("antinef.formats", "emit_graph_document", "formats.emit"),
    ("antinef.formats", "emit_tower_document", "formats.emit"),
    ("antinef.cli", "main", "cli.main"),
    ("antinef.corpus", "get", "corpus.get"),
]

# (module, attribute, counter name): calls counted, no span
COUNTS = [
    ("antinef.graph", "dual_graph", "graph.dual_graph_calls"),
    ("antinef.graph", "cycle", "graph.cycle_calls"),
    ("antinef.lattice", "row_pairing", "lattice.row_pairing_calls"),
    ("antinef.birational", "apply_step", "birational.apply_step_calls"),
    ("antinef.birational", "contract", "birational.contract_calls"),
    ("antinef.birational", "Tower.from_steps", "birational.tower_from_steps_calls"),
]

SPAN_NAMES = sorted({name for _, _, name in SPANS})
COUNT_NAMES = [name for _, _, name in COUNTS] + [
    "lattice.closure_raises",
    "ideals.colon_iterations",
    "oracle.candidates_computed",
]


def _box(name: str, args, kwargs) -> int:
    """Candidates an oracle call enumerates, from its box, as the oracle
    sizes it; 0 when its guard refuses the box."""
    oracle = sys.modules["antinef.oracle"]
    if name == "oracle.enumerate_max_Y":
        z = args[0]
        bound = kwargs.get("bound") or (args[2] if len(args) > 2 else None) or oracle.default_bound(z)
        ranges = [min(int(c), bound.max_coeff) + 1 for c in z.vector()]
        n = len(ranges)
    else:
        g, bound = args[0], args[1] if len(args) > 1 else kwargs["bound"]
        n = len(g.vertices)
        width = bound.max_coeff + 1 if name == "oracle.fundamental_cycle_bruteforce" else 2 * bound.max_coeff + 1
        ranges = [width] * n
    total = math.prod(ranges)
    if n > bound.max_vertices or total > bound.max_candidates:
        return 0
    return total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name_id: int, fn, *args, **kwargs):
        """Run fn inside a span."""
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append((name_id, 0, 0, parent))
        self.stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (name_id, start, end, parent)

    def span(self, name: str, fn, *args, **kwargs):
        return self.call(self._name_id(name), fn, *args, **kwargs)

    # --- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        tracer = self

        if name == "lattice.antinef_closure":
            @functools.wraps(fn)
            def closure(d, on_step=None):
                def step(vid, coeff):
                    tracer.counts["lattice.closure_raises"] += 1
                    if on_step is not None:
                        on_step(vid, coeff)
                return tracer.call(name_id, fn, d, on_step=step)
            return closure

        if name.startswith("oracle."):
            @functools.wraps(fn)
            def oracle_call(*args, **kwargs):
                tracer.counts["oracle.candidates_computed"] += _box(name, args, kwargs)
                return tracer.call(name_id, fn, *args, **kwargs)
            return oracle_call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name_id, fn, *args, **kwargs)
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded antinef module that binds it."""
        mods = [m for k, m in sys.modules.items() if k == "antinef" or k.startswith("antinef.")]
        for targets, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for modname, attr, name in targets:
                mod = sys.modules.get(modname)
                if mod is None:
                    continue
                if "." in attr:  # a method or classmethod of a class
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(make(raw.__func__, name)))
                    else:
                        setattr(cls, meth, make(raw, name))
                    continue
                orig = getattr(mod, attr)
                wrapped = make(orig, name)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)

    # --- derived figures ------------------------------------------------

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (busy ms, self ms, calls).  Busy time counts a
        span only when no enclosing span has the same name; self time is a
        span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            dur = end - start
            own[name_id] += dur - child[idx]
            calls[name_id] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != name_id:
                p = self.spans[p][3]
            if p < 0:
                busy[name_id] += dur
        return {
            self.names[i]: (busy[i] / 1e6, own[i] / 1e6, calls[i]) for i in range(len(self.names))
        }

    def busy_under(self, root_ids: list[int]) -> dict[str, float]:
        """Busy ms per span name, restricted to the spans below the given
        root spans."""
        wanted = set(root_ids)
        out: Counter = Counter()
        for idx, (name_id, start, end, parent) in enumerate(self.spans):
            p, top, same = parent, idx, False
            while p >= 0:
                same = same or self.spans[p][0] == name_id
                top, p = p, self.spans[p][3]
            if top in wanted and top != idx and not same:
                out[self.names[name_id]] += (end - start) / 1e6
        return out

    def write(self, path) -> None:
        base = min((s[1] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": [[n, s - base, e - base, p] for n, s, e, p in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )
