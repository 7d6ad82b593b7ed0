"""Per-layer timing of hfactor from outside the program.

A Tracer swaps public functions for timing wrappers on the module
attributes their callers look up at call time, so nothing inside the
program changes. Every wrapped call is a span with a name, start, end,
parent span and instance id. Spans are kept in memory, aggregated into
self times and counts as they close, and written out when the run ends.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path

STRUCTURED = "pipeline-structured"
MIXED = "pipeline-mixed"
PIPELINES = frozenset({STRUCTURED, MIXED})

# Each wrapped boundary, as (module, attribute), with the workloads on
# which it must fire. The attribute is the name its caller looks up: the
# pipeline's own `find_perfect_packing`, `tidy` and `packing_defect`
# bindings, not the functions' home modules, and the `hfactor.tidy`
# module, which the package attribute of the same name shadows.
BOUNDARIES: dict[tuple[str, str], frozenset[str]] = {
    ("hfactor.solver", "enumerate_copies"): frozenset(
        {"direct-dense", "maxpack-blockers", MIXED}
    ),
    ("hfactor.solver", "find_perfect_packing"): frozenset({"direct-dense"}),
    ("hfactor.solver", "max_packing_size"): frozenset({"maxpack-blockers"}),
    ("hfactor.pipeline", "find_perfect_packing"): frozenset({MIXED}),
    ("hfactor.pipeline", "run_pipeline"): PIPELINES,
    ("hfactor.pipeline", "find_sparse_sets"): PIPELINES,
    ("hfactor.pipeline", "tidy"): PIPELINES,
    ("hfactor.pipeline", "pack_remainder_class"): frozenset({STRUCTURED}),
    ("hfactor.pipeline", "build_auxiliary"): frozenset({STRUCTURED}),
    ("hfactor.pipeline", "pack_apex_multipartite"): frozenset({STRUCTURED}),
    ("hfactor.pipeline", "expand_packing"): frozenset({STRUCTURED}),
    ("hfactor.pipeline", "packing_defect"): PIPELINES,
    ("hfactor.tidy", "classify"): frozenset({STRUCTURED}),
    ("hfactor.tidy", "swap_bad_exceptional"): frozenset({STRUCTURED}),
    ("hfactor.tidy", "adjust_for_divisibility"): frozenset({STRUCTURED}),
    ("hfactor.hall", "star_pack"): frozenset({STRUCTURED}),
    ("hfactor.hall", "contract_stars"): frozenset({STRUCTURED}),
}

SOLVER_ENTRIES = (
    "solver.find_perfect_packing",
    "solver.max_packing_size",
    "pipeline.find_perfect_packing",
)

# Per-layer metric -> span whose summed self time it reports.
SELF_TIMES = {
    "solver.enumerate_s": ("solver.enumerate_copies",),
    "solver.cover_s": SOLVER_ENTRIES,
    "pipeline.dispatch_s": ("pipeline.run_pipeline",),
    "pipeline.sparse_sets_s": ("pipeline.find_sparse_sets",),
    "pipeline.remainder_pack_s": ("pipeline.pack_remainder_class",),
    "pipeline.auxiliary_s": ("pipeline.build_auxiliary",),
    "pipeline.expand_s": ("pipeline.expand_packing",),
    "pipeline.verify_s": ("pipeline.packing_defect",),
    "tidy.self_s": ("pipeline.tidy",),
    "tidy.classify_s": ("tidy.classify",),
    "tidy.swap_s": ("tidy.swap_bad_exceptional",),
    "tidy.divisibility_s": ("tidy.adjust_for_divisibility",),
    "hall.star_pack_s": ("hall.star_pack",),
    "hall.contract_s": ("hall.contract_stars",),
    "hall.pack_s": ("pipeline.pack_apex_multipartite",),
}

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "instance")
FALLBACK_CAUSES = ("tidy_stuck", "remainder_absent", "remainder_timeout", "hall_failure")
STUCK_STAGES = ("relocate", "exceptional", "matching", "useless", "verify", "rebalance", "other")

# The spans a fallback's direct solve and final check open straight under
# run_pipeline; the rest of a fallback instance's time is wasted.
_FALLBACK_TAIL = ("pipeline.find_perfect_packing", "pipeline.packing_defect")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('hfactor.')}.{attr}"


class Tracer:
    """Installs the wrappers for one traced call at a time and aggregates spans."""

    def __init__(self) -> None:
        self.modules = {mod: importlib.import_module(mod) for mod, _ in BOUNDARIES}
        self.originals = {key: getattr(self.modules[key[0]], key[1]) for key in BOUNDARIES}
        self.wrappers = {
            key: self._wrap(span_name(*key), fn) for key, fn in self.originals.items()
        }
        solver = self.modules["hfactor.solver"]
        hall = self.modules["hfactor.hall"]
        self.search_stats = solver.SearchStats
        self.hall_witness = hall.HallWitness
        self.pack_failure = hall.PackFailure
        errors = importlib.import_module("hfactor.errors")
        self.stuck, self.timeout = errors.Stuck, errors.Timeout
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.instance = -1
        self._stack: list[list] = []  # [name, start, child_s, tail_s, span id]
        self._next_id = 0
        self._events: set[str] = set()

    # -- installation -------------------------------------------------------

    def install(self, instance: int) -> None:
        self.instance = instance
        for (mod, attr), wrapper in self.wrappers.items():
            setattr(self.modules[mod], attr, wrapper)

    def uninstall(self) -> None:
        for (mod, attr), fn in self.originals.items():
            setattr(self.modules[mod], attr, fn)
        self._stack.clear()  # left open only when the call cap cut a wrapper short

    def unfired(self, workload: str) -> list[str]:
        """Boundaries meant to fire on this workload that recorded no call."""
        return [
            span_name(*key)
            for key, workloads in BOUNDARIES.items()
            if workload in workloads and not self.calls[span_name(*key)]
        ]

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name: str, fn, args: tuple, kwargs: dict):
        if name in SOLVER_ENTRIES and len(args) < 4 and kwargs.get("stats") is None:
            kwargs["stats"] = self.search_stats()
        if name == "pipeline.run_pipeline":
            self._events = set()
        frame = [name, time.perf_counter(), 0.0, 0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except self.stuck as exc:
            if name == "pipeline.tidy":
                stage = exc.stage.split("-")[0]
                self.counts[f"tidy.stuck.{stage if stage in STUCK_STAGES else 'other'}"] += 1
                self._events.add("tidy_stuck")
            raise
        except self.timeout:
            if name == "pipeline.pack_remainder_class":
                self._events.add("remainder_timeout")
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += duration
                if parent[0] == "pipeline.run_pipeline" and name in _FALLBACK_TAIL:
                    parent[3] += duration
            self.spans.append(
                (frame[4], name, frame[1], end, parent[4] if parent else -1, self.instance)
            )
            self.self_s[name] += duration - frame[2]
            self.calls[name] += 1
            self._observe(name, args, kwargs, result, duration - frame[3])

    def _observe(self, name: str, args: tuple, kwargs: dict, result, structural_s: float) -> None:
        """Counts read off one finished call; `result` is None after an exception."""
        if name == "solver.enumerate_copies" and result is not None:
            self.counts["solver.copies"] += len(result)
        elif name in SOLVER_ENTRIES:
            stats = args[3] if len(args) >= 4 else kwargs["stats"]
            if stats is not None:
                self.counts["solver.nodes"] += stats.nodes
            if isinstance(result, int):
                self.counts["solver.used_copies"] += result
            elif result is not None:
                self.counts["solver.used_copies"] += len(result.copies)
        elif name == "pipeline.run_pipeline" and result is not None:
            self.counts[f"pipeline.route.{result.path}"] += 1
            if result.path == "fallback":
                self.counts["pipeline.wasted_s"] += structural_s
                for cause in FALLBACK_CAUSES:
                    if cause in self._events:
                        self.counts[f"pipeline.fallback.{cause}"] += 1
        elif name == "pipeline.tidy" and result is not None:
            self.counts["tidy.removed_copies"] += len(result.removed)
        elif name == "pipeline.pack_remainder_class" and result is None:
            if "remainder_timeout" not in self._events:
                self._events.add("remainder_absent")
        elif name == "pipeline.pack_apex_multipartite" and isinstance(result, self.pack_failure):
            self._events.add("hall_failure")
        elif name == "hall.star_pack" and isinstance(result, self.hall_witness):
            self.counts["hall.failures"] += 1

    # -- results ------------------------------------------------------------

    def metrics(self, passes: float) -> dict[str, float]:
        """Every per-layer metric, per pass over the corpus."""
        out = {
            metric: sum(self.self_s[s] for s in spans) / passes
            for metric, spans in SELF_TIMES.items()
        }
        out["solver.calls"] = sum(self.calls[s] for s in SOLVER_ENTRIES) / passes
        copies = self.counts["solver.copies"]
        per_pass = ["solver.copies", "solver.nodes"]
        per_pass += [f"pipeline.route.{route}" for route in ("pipeline", "fallback", "direct")]
        per_pass += [f"pipeline.fallback.{cause}" for cause in FALLBACK_CAUSES]
        per_pass += ["pipeline.wasted_s", "tidy.removed_copies"]
        per_pass += [f"tidy.stuck.{stage}" for stage in STUCK_STAGES]
        per_pass += ["hall.failures"]
        out.update({name: self.counts[name] / passes for name in per_pass})
        out["solver.used_copy_ratio"] = self.counts["solver.used_copies"] / copies if copies else 0.0
        decided = self.counts["pipeline.route.pipeline"] + self.counts["pipeline.route.fallback"]
        out["pipeline.route_success_ratio"] = (
            self.counts["pipeline.route.pipeline"] / decided if decided else 0.0
        )
        out["hall.star_pack_calls"] = self.calls["hall.star_pack"] / passes
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")
