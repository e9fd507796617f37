"""Spans and counters at the public boundaries of each ``tmss`` layer.

``Tracer.install`` replaces the boundary functions and methods listed in
``TARGETS`` with timing wrappers, in every loaded ``tmss`` module that binds
them (``free_reduce`` is imported by name into ``group``, ``algebra`` and
``characters``; ``theta`` into ``algebra`` as ``word_theta``).
``uninstall`` puts the originals back.  Only the traced run installs it.

Each wrapped call pushes a frame; on return its duration is added to the
parent's child time, and duration minus child time is its self time.  Most
names record one span (id, parent span id, query id, name, start, end),
kept in memory and written as CSV when the run ends.  The hottest names
(``free_reduce`` and ``AlgebraElement.__init__``) keep counters only.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

# (layer, owner, attribute, records spans)
TARGETS = (
    ("words", "words", "free_reduce", False),
    ("words", "words", "theta", True),
    ("group", "WreathRecursion", "decompose", True),
    ("group", "WreathRecursion", "is_trivial", True),
    ("algebra", "AlgebraElement", "__init__", False),
    ("algebra", "AlgebraElement", "phi", True),
    ("algebra", "algebra", "is_zero", True),
    ("algebra", "algebra", "sigma", True),
    ("characters", "characters", "spread_char", True),
    ("characters", "characters", "algebra_char", True),
    ("characters", "characters", "group_char", True),
    ("characters", "characters", "count_L", True),
    ("dynamics", "RationalMap", "preimages", True),
    ("dynamics", "dynamics", "julia_points", True),
    ("dynamics", "dynamics", "render", True),
)
SOLVER_SPANS = ("spread_char", "algebra_char", "group_char")

# per-layer metrics with their units, in output order
METRICS = (
    ("words.free_reduce_calls", "count"),
    ("words.free_reduce_letters", "count"),
    ("words.free_reduce_self_s", "s"),
    ("words.self_s", "s"),
    ("group.decompose_calls", "count"),
    ("group.decompose_letters", "count"),
    ("group.decompose_self_s", "s"),
    ("group.decompose_ns_per_letter", "ns"),
    ("group.reduce_letters_per_input_letter", "ratio"),
    ("group.is_trivial_calls", "count"),
    ("group.is_trivial_self_s", "s"),
    ("group.trivial_cache_size", "count"),
    ("group.self_s", "s"),
    ("algebra.phi_calls", "count"),
    ("algebra.phi_terms_in", "count"),
    ("algebra.phi_letters_in", "count"),
    ("algebra.phi_self_s", "s"),
    ("algebra.phi_ns_per_letter", "ns"),
    ("algebra.phi_nonzero_frac", "ratio"),
    ("algebra.elements_built", "count"),
    ("algebra.is_zero_calls", "count"),
    ("algebra.is_zero_self_s", "s"),
    ("algebra.is_zero_depth_mean", "count"),
    ("algebra.self_s", "s"),
    ("characters.self_s", "s"),
    ("characters.solver_calls", "count"),
    ("characters.classes_mean", "count"),
    ("characters.classes_max", "count"),
    ("characters.depth_max", "count"),
    ("dynamics.points_per_s", "1/s"),
    ("dynamics.preimages_calls", "count"),
    ("dynamics.preimages_self_us", "us"),
    ("dynamics.preimage_empty_frac", "ratio"),
    ("dynamics.render_s", "s"),
    ("dynamics.self_s", "s"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self, tm):
        self.tm = tm
        self.qid = -1
        self.spans: list[tuple] = []
        self._next_id = 0
        # frame: [child seconds, enclosing span id, enclosing span name]
        self._stack: list[list] = [[0.0, 0, ""]]
        self._restore: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Clear the counters of one pass; spans are kept for the file."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.classes: list[int] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "tmss" or name.startswith("tmss."))]
        for _layer, owner, attr, span in TARGETS:
            observe = getattr(self, f"_observe_{attr.strip('_')}", None)
            if owner[0].isupper():
                cls = getattr(self.tm, owner)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(attr, original, span, observe))
                continue
            original = getattr(getattr(self.tm, owner), attr)
            wrapper = self._wrap(attr, original, span, observe)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)

    def _set(self, target, name: str, value) -> None:
        self._restore.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        while self._restore:
            target, name, value = self._restore.pop()
            setattr(target, name, value)

    def _wrap(self, name: str, fn, span: bool, observe):
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                self._next_id += 1
                frame = [0.0, self._next_id, name]
            else:
                frame = [0.0, parent[1], parent[2]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                parent[0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                self.total_s[name] += duration
                if span:
                    self.spans.append((frame[1], parent[1], self.qid, name, t0, t1))
            if observe is not None:
                # counting time is charged to nobody's self time
                t2 = perf()
                observe(parent, args, result)
                parent[0] += perf() - t2
            return result

        return wrapper

    # -- counters gathered at the boundaries -------------------------------

    def _observe_free_reduce(self, parent, args, result) -> None:
        n = len(args[0])
        self.counts["free_reduce_letters"] += n
        if parent[2] == "decompose":
            self.counts["decompose_reduce_letters"] += n

    def _observe_decompose(self, parent, args, result) -> None:
        self.counts["decompose_letters"] += len(args[1])

    def _observe_phi(self, parent, args, result) -> None:
        elem = args[0]
        self.counts["phi_terms_in"] += len(elem.terms)
        self.counts["phi_letters_in"] += sum(len(w) for w in elem.terms)
        self.counts["phi_entries"] += elem.q * elem.q
        self.counts["phi_nonzero"] += sum(not e.is_zero_literal
                                          for row in result for e in row)

    def _observe_is_zero(self, parent, args, result) -> None:
        if result.depth is not None:
            self.counts["is_zero_depth_sum"] += result.depth
            self.counts["is_zero_depths"] += 1

    def _observe_algebra_char(self, parent, args, result) -> None:
        if isinstance(result, tuple) and result[1]:
            self.classes.append(result[1]["classes_used"])
            self.counts["depth_max"] = max(self.counts["depth_max"],
                                           result[1]["depth"])

    def _observe_julia_points(self, parent, args, result) -> None:
        self.counts["points"] += len(result)

    def _observe_preimages(self, parent, args, result) -> None:
        self.counts["preimages_empty"] += not result

    # -- metrics of one pass -----------------------------------------------

    def pass_metrics(self, state: dict) -> dict[str, float]:
        c, calls, self_s = self.counts, self.calls, self.self_s
        layer_self = defaultdict(float)
        for layer, _owner, attr, _span in TARGETS:
            layer_self[layer] += self_s[attr]
        recs = state.get("recs", {})
        return {
            "words.free_reduce_calls": calls["free_reduce"],
            "words.free_reduce_letters": c["free_reduce_letters"],
            "words.free_reduce_self_s": self_s["free_reduce"],
            "words.self_s": layer_self["words"],
            "group.decompose_calls": calls["decompose"],
            "group.decompose_letters": c["decompose_letters"],
            "group.decompose_self_s": self_s["decompose"],
            "group.decompose_ns_per_letter":
                _ratio(1e9 * self_s["decompose"], c["decompose_letters"]),
            "group.reduce_letters_per_input_letter":
                _ratio(c["decompose_reduce_letters"], c["decompose_letters"]),
            "group.is_trivial_calls": calls["is_trivial"],
            "group.is_trivial_self_s": self_s["is_trivial"],
            "group.trivial_cache_size":
                sum(len(r._trivial_cache) for r in recs.values()),
            "group.self_s": layer_self["group"],
            "algebra.phi_calls": calls["phi"],
            "algebra.phi_terms_in": c["phi_terms_in"],
            "algebra.phi_letters_in": c["phi_letters_in"],
            "algebra.phi_self_s": self_s["phi"],
            "algebra.phi_ns_per_letter":
                _ratio(1e9 * self_s["phi"], c["phi_letters_in"]),
            "algebra.phi_nonzero_frac": _ratio(c["phi_nonzero"], c["phi_entries"]),
            "algebra.elements_built": calls["__init__"],
            "algebra.is_zero_calls": calls["is_zero"],
            "algebra.is_zero_self_s": self_s["is_zero"],
            "algebra.is_zero_depth_mean":
                _ratio(c["is_zero_depth_sum"], c["is_zero_depths"]),
            "algebra.self_s": layer_self["algebra"],
            "characters.self_s": layer_self["characters"],
            "characters.solver_calls": sum(calls[n] for n in SOLVER_SPANS),
            "characters.classes_mean":
                statistics.fmean(self.classes) if self.classes else 0.0,
            "characters.classes_max": max(self.classes, default=0),
            "characters.depth_max": c["depth_max"],
            "dynamics.points_per_s": _ratio(c["points"], self.total_s["julia_points"]),
            "dynamics.preimages_calls": calls["preimages"],
            "dynamics.preimages_self_us":
                _ratio(1e6 * self_s["preimages"], calls["preimages"]),
            "dynamics.preimage_empty_frac":
                _ratio(c["preimages_empty"], calls["preimages"]),
            "dynamics.render_s": self.total_s["render"],
            "dynamics.self_s": layer_self["dynamics"],
        }

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("span,parent,query,name,start_ns,end_ns\n")
            for sid, parent, qid, name, t0, t1 in self.spans:
                out.write(f"{sid},{parent},{qid},{name},"
                          f"{round((t0 - origin) * 1e9)},{round((t1 - origin) * 1e9)}\n")
