"""Spans and counters around the calls into each mcmsat layer.

Nothing under src/ is changed: `install` rebinds the names that
`mcmsat.solve` and `mcmsat.native` look up at call time, plus the
compiled core's `mcm_run`, to wrappers that record a span (name, start,
end, parent) in memory.  A span's name starts with its layer.
"""

from __future__ import annotations

import json
import resource
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

LAYERS = ("model", "encoder", "pb", "refsolver", "native", "solve")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class NullTracer:
    """Stands in for Tracer in the untraced run."""

    def span(self, name):
        return nullcontext()

    def count(self, name, amount=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def current(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def count(self, name, amount=1):
        self.counts[name] += amount

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))

    def metrics(self, rounds: int, wall_per_round: float) -> dict[str, float]:
        """Per-round layer self times and counters, from the recorded spans."""
        children: list[list[int]] = [[] for _ in self.spans]
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(index)

        def length(i):
            return self.spans[i][2] - self.spans[i][1]

        def within(i, name):
            """Time of the spans called `name` at or below span i."""
            own = length(i) if self.spans[i][0] == name else 0.0
            return own + sum(within(c, name) for c in children[i])

        self_time: Counter = Counter()
        for i, (name, _, _, _) in enumerate(self.spans):
            self_time[name] += length(i) - sum(length(c) for c in children[i])
        first_level = 0.0
        for i, (name, _, _, _) in enumerate(self.spans):
            if name == "solve.optimal_mcm":
                levels = [c for c in children[i] if self.spans[c][0] == "solve.level"]
                if levels:
                    first_level += within(levels[0], "native.search")

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for name, t in self_time.items() if name.startswith(layer + ".")
            ) / rounds
        per_name = {
            "encoder.encode_s": ("encoder.encode",),
            "pb.emit_s": ("pb.emit",),
            "pb.parse_s": ("pb.parse",),
            "refsolver.init_s": ("refsolver.init",),
            "native.marshal_s": ("native.run",),
            "native.search_s": ("native.search",),
            "solve.hint_s": ("solve.hint",),
            "solve.decode_s": ("solve.decode",),
            "model.bound_s": ("model.bound", "model.witness"),
            "model.verify_s": ("model.verify",),
        }
        for metric, names in per_name.items():
            out[metric] = sum(self_time[n] for n in names) / rounds
        out["solve.first_level_s"] = first_level / rounds
        for name, value in self.counts.items():
            out[name] = value if name.endswith("maxrss_delta_mb") else value / rounds
        for name in COUNTERS:
            out.setdefault(name, 0)
        levels = out["solve.levels"]
        out["solve.useful_level_ratio"] = (
            (levels - out["solve.levels_implied"]) / levels if levels else 0.0
        )
        search = out["native.search_s"]
        out["native.decisions_per_s"] = out["native.decisions"] / search if search else 0.0
        out["trace.wall_s"] = wall_per_round
        out["trace.remainder_s"] = wall_per_round - sum(
            out[f"{layer}.self_s"] for layer in LAYERS
        )
        return out

    def level_split(self) -> list[float]:
        """Time of the k-th level below the bound, summed over descents."""
        split: list[float] = []
        levels: Counter = Counter()
        for name, start, end, parent in self.spans:
            if name == "solve.level":
                k = levels[parent]
                levels[parent] += 1
                split.extend([0.0] * (k + 1 - len(split)))
                split[k] += end - start
        return split


COUNTERS = (
    "encoder.calls", "encoder.vars", "encoder.rows", "encoder.terms",
    "encoder.maxrss_delta_mb", "pb.opb_bytes", "refsolver.rows",
    "refsolver.maxrss_delta_mb", "native.decisions", "native.propagations",
    "native.conflicts", "native.islands", "solve.levels", "solve.levels_sat",
    "solve.levels_unsat", "solve.levels_implied",
)


def install(tracer: Tracer, solve_mod, native_mod, core) -> None:
    """Rebind the layer entry points that mcmsat looks up at call time."""
    t = tracer
    encode = solve_mod.encode_mcm

    def encode_mcm(inst, cfg):
        before = peak_rss_mb()
        with t.span("encoder.encode"):
            enc = encode(inst, cfg)
        t.count("encoder.maxrss_delta_mb", peak_rss_mb() - before)
        formula = enc.formula
        t.count("encoder.calls")
        t.count("encoder.vars", formula.var_count)
        t.count("encoder.rows", len(formula.constraints))
        t.count("encoder.terms", sum(len(c.terms) for c in formula.constraints))
        return enc

    base = solve_mod.RefSolver

    class RefSolver(base):
        def __init__(self, *args, **kwargs):
            before = peak_rss_mb()
            with t.span("refsolver.init"):
                super().__init__(*args, **kwargs)
            t.count("refsolver.maxrss_delta_mb", peak_rss_mb() - before)
            t.count("refsolver.rows", self.nrows)

        def solve(self, *args, **kwargs):
            with t.span("refsolver.solve"):
                result = super().solve(*args, **kwargs)
            t.count("native.decisions", self.decisions)
            t.count("native.propagations", self.propagations)
            t.count("native.conflicts", self.conflicts)
            t.count("native.islands", self.islands)
            return result

    solve_encoding = solve_mod.solve_encoding

    def traced_solve_encoding(enc, *args, **kwargs):
        # optimal_mcm passes the previous pruned graph as hint_graph only
        # when that graph already fits the level: such a level is implied.
        level = t.current() == "solve.optimal_mcm"
        with t.span("solve.level" if level else "solve.solve_encoding"):
            outcome = solve_encoding(enc, *args, **kwargs)
        if level:
            t.count("solve.levels")
            t.count(f"solve.levels_{outcome.status.lower()}")
            if kwargs.get("hint_graph") is not None:
                t.count("solve.levels_implied")
        return outcome

    solve_mod.encode_mcm = encode_mcm
    solve_mod.RefSolver = RefSolver
    solve_mod.solve_encoding = traced_solve_encoding
    for attr, name in (
        ("optimal_mcm", "solve.optimal_mcm"),
        ("decode_solution", "solve.decode"),
        ("prune_graph", "solve.prune"),
        ("witness_phase_hints", "solve.hint"),
        ("verify_solution", "model.verify"),
        ("csd_upper_bound", "model.bound"),
        ("recoding_witness", "model.witness"),
    ):
        setattr(solve_mod, attr, t.wrap(name, getattr(solve_mod, attr)))
    native_mod.load = t.wrap("native.load", native_mod.load)
    native_mod.run = t.wrap("native.run", native_mod.run)
    core.mcm_run = t.wrap("native.search", core.mcm_run)
