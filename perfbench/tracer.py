"""Per-layer spans measured from outside ``blocksynth``.

``Tracer.install`` swaps timing wrappers in for the module attributes that
``blocksynth.synthesis`` looks up at call time, plus ``_Engine.emit``; a few
hot search helpers only get call counters, because a span per call would
cost more than the call.  ``restore`` puts the originals back.  A hook whose
target no longer exists is listed in ``absent`` instead of failing.

A span is ``[name, start, end, parent index, map id]``; spans stay in memory
until the run ends.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

SYNTH_ROOT = "synthesize"
TOOLS_ROOT = "tools"

# (module, attribute, span name) for plain timed calls.
_TIMED = [
    ("synthesis", "_mix_engine", "conditioning.mix"),
    ("synthesis", "_run_preprocess", "conditioning.preprocess"),
    ("synthesis", "_run_general", "reduction.reduce"),
    ("synthesis", "_run_normal", "reduction.reduce"),
    ("synthesis", "verify_identity", "core.verify"),
    ("synthesis", "peephole", "synthesis.peephole"),
    ("synthesis", "search_two_bit", "synthesis.two_bit"),
    ("synthesis", "toffoli_count", "cost.count"),
    ("synthesis", "quantum_cost", "cost.count"),
]
# (module, attribute, counter name) for calls that are only counted.
_COUNTED = [
    ("synthesis", "_pair_gates", "synthesis.candidates_scored"),
    ("synthesis", "_suffix", "synthesis.suffix_nodes"),
    ("synthesis", "_count_free", "synthesis.tiebreak_evals"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._map_id = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, self._map_id]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def root(self, name: str, map_id: int, fn, *args):
        self._map_id = map_id
        return self.call(name, fn, *args)

    # -- hooks -------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, bs) -> None:
        modules = {"synthesis": bs.synthesis, "reduction": bs.reduction}
        for mod, attr, name in _TIMED:
            self._patch(modules[mod], attr, lambda fn, name=name: self._timed(name, fn))
        for mod, attr, name in _COUNTED:
            self._patch(modules[mod], attr, lambda fn, name=name: self._counted(name, fn))
        self._patch(modules["synthesis"], "_make_selector", self._selector_factory)
        engine = getattr(bs.reduction, "_Engine", None)
        if engine is None:
            self.absent.append("reduction._Engine")
        else:
            self._patch(engine, "emit", lambda fn: self._timed("reduction.emit", fn))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _timed(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _selector_factory(self, make_selector):
        """Label each selector call lookahead or tail, as synthesis does:
        tail from position 2^(n-1) - exhaustive_tail on."""
        tracer = self

        def make(engine, kind, phase_end, cfg):
            select = make_selector(engine, kind, phase_end, cfg)
            tail_at = (1 << (engine.n - 1)) - cfg.exhaustive_tail

            def timed_select(i):
                tracer.counts["synthesis.select_calls"] += 1
                name = "synthesis.select_tail" if i >= tail_at else "synthesis.select_lookahead"
                return tracer.call(name, select, i)

            return timed_select

        return make

    def _observe(self, name: str, args, result) -> None:
        counts = self.counts
        if name == "reduction.emit":
            counts["reduction.emit_calls"] += 1
        elif name == "conditioning.mix":
            counts["conditioning.mix_evaluations"] += result.evaluations
            counts["conditioning.mix_fixups"] += result.fixup_gates
        elif name == "core.verify":
            perm, seq = args[0], args[1]
            counts["core.verify_column_visits"] += len(seq) * perm.size
        elif name == "synthesis.peephole":
            counts["synthesis.peephole_removed"] += len(args[0]) - len(result)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds per span name, total seconds per root name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        roots: dict[str, float] = defaultdict(float)
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            own[name] += end - start - child[k]
            if parent < 0:
                roots[name] += end - start
        return dict(own), dict(roots)

    def write(self, path) -> None:
        names = ("name", "start", "end", "parent", "map")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")
