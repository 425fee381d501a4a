"""Solver backends, model decoding, and the descending optimization loop.

A backend is either the bundled reference solver ("internal") or an
external command template run on an OPB file.  `solve` is the one place
that runs them: it races a list of them, and the bundled solver asks a
stop predicate between time slices.  The optimizer starts from a
verified heuristic graph and descends until the first UNSAT proves
optimality, solving only levels its best graph does not fit; a timeout
stops early with the best verified solution so far.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

from . import native
from .encoder import EXACTLY2, KINDS, EncodeResult, EncodingConfig, encode_mcm
from .model import (
    AdderGraph,
    McmError,
    McmInstance,
    csd_upper_bound,
    exact_right_shift,
    find_params,
    heuristic_graph,
    recoding_witness,  # unused here; benchmark/ calls it through this module
    verify_solution,
)
from .pb import RELATIONS, SAT, UNKNOWN, UNSAT, Model, PbFormula, bits_of, parse_solver_output
from .refsolver import RefSolver

SOLVER_ENV_VAR = "MCMSAT_SOLVER"
INTERNAL = "internal"
POLL_S = 0.01  # how often a race with only externals left checks on them


class SolverError(McmError):
    """Backend missing, crashed, or produced unusable output."""


class DecodeError(McmError):
    """Model inconsistent with the encoding (solver or encoder bug)."""


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # SAT / UNSAT / UNKNOWN
    # Present iff status == SAT, except on the levels optimal_mcm records
    # with backend "witness": a known graph fits them, so they carry no model.
    model: Model | None
    elapsed: float
    backend: str


def default_backend() -> str:
    return os.environ.get(SOLVER_ENV_VAR, INTERNAL)


def solve(
    formula: PbFormula,
    backend: str | list[str] = INTERNAL,
    timeout: float | None = None,
    phases: dict | None = None,
) -> SolveOutcome:
    """Race one or more backends on one formula; the first SAT or UNSAT wins.

    An external backend is a command template; `{opb}` is replaced with
    the path of the problem file (appended when absent).  Externals run
    in their own sessions and are killed and reaped before this returns;
    the internal solver runs in this thread until the timeout passes or
    an external answers.  Every SAT model is checked against the formula.
    A missing backend, unusable output or a model violating a row drops
    that backend from the race; its error is raised only when no backend
    answers SAT or UNSAT.
    """
    backends = [backend] if isinstance(backend, str) else list(backend)
    start = time.monotonic()
    deadline = None if timeout is None else start + timeout
    decided: list[SolveOutcome] = []
    errors: list[McmError] = []
    started: list[subprocess.Popen] = []
    running: list[tuple[str, subprocess.Popen, str]] = []  # with output path

    def settle(name, answer):
        """Record one backend's (status, model), produced by `answer()`."""
        try:
            status, model = answer()
            if status == SAT:
                _check_model(formula, model, name)
        except McmError as exc:
            errors.append(exc)
            return
        if status != UNKNOWN:
            decided.append(SolveOutcome(status, model, time.monotonic() - start, name))

    def poll() -> bool:
        """Settle the externals that have exited; True once one decided."""
        for name, proc, out in list(running):
            if proc.poll() is not None:
                running.remove((name, proc, out))
                settle(name, lambda: parse_solver_output(
                    Path(out).read_text(), formula.var_count))
        return bool(decided)

    def stop() -> bool:
        if deadline is not None and time.monotonic() > deadline:
            return True
        return poll()

    externals = [b for b in backends if b != INTERNAL]
    with tempfile.TemporaryDirectory(prefix="mcmsat_") if externals else nullcontext() as tmp:
        try:
            if externals:
                opb = os.path.join(tmp, "formula.opb")
                Path(opb).write_text(formula.emit_opb())
            for i, name in enumerate(externals):
                argv = shlex.split(name)
                if any("{opb}" in a for a in argv):
                    argv = [a.replace("{opb}", opb) for a in argv]
                else:
                    argv.append(opb)
                out = os.path.join(tmp, f"{i}.out")
                try:
                    with open(out, "w") as sink:
                        proc = subprocess.Popen(
                            argv, stdout=sink, stderr=subprocess.DEVNULL,
                            start_new_session=True,
                        )
                except OSError as exc:
                    missing = isinstance(exc, FileNotFoundError)
                    why = "missing" if missing else f"unusable ({exc.strerror})"
                    errors.append(SolverError(f"backend executable {why}: {argv[0]}"))
                    continue
                started.append(proc)
                running.append((name, proc, out))
            if INTERNAL in backends:
                settle(INTERNAL, lambda: RefSolver(formula, phases=phases).solve(stop))
            while not stop() and running:
                time.sleep(POLL_S)
        finally:
            for proc in started:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the group has already exited
                proc.wait()
    if decided:
        return decided[0]
    if errors:
        raise errors[0]
    return SolveOutcome(UNKNOWN, None, time.monotonic() - start, ",".join(backends))


def _check_model(formula: PbFormula, model: Model, backend: str) -> None:
    """Raise SolverError naming the first row `model` violates.

    The check reads the formula's arena, never a solver's own row store,
    so it stays independent of the search.  On the compiled core, when
    one loads, one pass (native.check_model) finds the first violated
    row; the Python loop below is the reference and the fallback: it runs
    from that row, or from row 0 without the core, and words the error.
    """
    first = native.check_model(formula, model.values) or 0
    if first == len(formula.bounds):
        return
    values, ptr = model.values, formula.row_ptr
    terms = islice(zip(formula.coefs, formula.vars), ptr[first], None)
    for idx, (eq, bound) in islice(enumerate(zip(formula.relations, formula.bounds)), first, None):
        lhs = 0
        for coef, var in islice(terms, ptr[idx + 1] - ptr[idx]):
            if values[var]:
                lhs += coef
        if lhs < bound or (eq and lhs != bound):
            raise SolverError(f"backend {backend}: model violates row {idx} "
                              f"({lhs} {RELATIONS[eq]} {bound} required)")


# -- decoding ----------------------------------------------------------------


def decode_solution(res: EncodeResult, model: Model) -> AdderGraph:
    """Rebuild the operations the targets depend on from a satisfying assignment.

    Those are the pinned slots, one bound slot per target and the
    operands of their chosen candidates, followed back; other slots may
    hold any value, 0 included.  Shift amounts are re-derived from the
    decoded values, which tolerates models where several list selectors
    were true.
    """
    max_shift = res.inst.bit_width - 1
    pinned = {p.slot: p for p in res.pinned}
    needed = set(pinned)
    for target, members, sels in res.binding:
        bound = [m for m, sel in zip(members, sels) if model[sel] == 1]
        if not bound:
            raise DecodeError(f"decode failure: target {target} bound to no slot")
        needed.add(bound[-1])
    chosen = {}
    for slot in range(len(res.candidates), 0, -1):
        if slot in needed and slot not in pinned:
            cand = next(
                (c for c in res.candidates[slot - 1] if model[c.cond] == 1), None
            )
            if cand is None:
                raise DecodeError(f"decode failure: slot {slot} selected no candidate")
            chosen[slot] = cand
            needed.update((cand.op1, cand.op2))
    needed.discard(0)

    steps = []
    value_of = {0: 1}  # slot -> value
    for slot in sorted(needed):
        pin = pinned.get(slot)
        if pin is not None:
            steps.append((pin.value, pin.left_value, pin.right_value, pin.params))
            value_of[slot] = pin.value
            continue
        cand = chosen[slot]
        value = model.value_of(res.op_values[slot - 1])
        pre_value = model.value_of(res.pre_shift_values[slot - 1])
        if value < 1 or pre_value < 1:
            raise DecodeError(f"decode failure: slot {slot} holds {value}")
        right_shift = exact_right_shift(pre_value, value, max_shift)
        if right_shift is None:
            raise DecodeError("decode failure: inconsistent right shift")
        u, v = value_of[cand.op1], value_of[cand.op2]
        subtract = cand.kind != EXACTLY2 and KINDS[cand.kind][0]
        found = find_params(u, v, pre_value, max_shift, right_shifts=False,
                            signs=(int(subtract),))
        if found is None:
            raise DecodeError(f"decode failure: slot {slot} value {pre_value}")
        steps.append((value, u, v, replace(found, right_shift=right_shift)))
        value_of[slot] = value
    return AdderGraph.from_steps(steps)


def prune_graph(graph: AdderGraph, targets) -> AdderGraph:
    """Drop operations no target depends on, preserving order."""
    wanted = set(targets)
    keep: set[int] = set()
    for idx in range(len(graph.nodes), 0, -1):
        node = graph.nodes[idx - 1]
        if node.value in wanted or idx in keep:
            keep.update((idx, node.left, node.right))
            wanted.discard(node.value)
    return graph.reindexed(sorted(keep - {0}))


def _reorder_roots_first(graph: AdderGraph) -> AdderGraph | None:
    """Topological reorder with all from-scratch operations leading.

    None when an operand follows the node using it, so no such order
    exists.
    """
    roots = [i for i, n in enumerate(graph.nodes, 1) if n.left == 0 and n.right == 0]
    rest = [i for i, n in enumerate(graph.nodes, 1) if not (n.left == 0 and n.right == 0)]
    try:
        return graph.reindexed(roots + rest)
    except McmError:
        return None


def witness_phase_hints(enc: EncodeResult, graph: AdderGraph) -> dict | None:
    """Translate a known solution into per-variable phase preferences.

    The solver then reaches that solution as its first search leaf and
    remains complete either way; this is a warm start, not a shortcut
    past verification.  Returns None when the graph does not fit the
    encoding (too many operations, right shifts, variant 1, pinned
    slots, or a value outside a slot's candidate set).
    """
    cfg = enc.cfg
    if cfg.variant == 1 or cfg.right_shifts or enc.trivial_verdict is not None:
        return None
    if enc.pinned:
        return None  # pinned prefixes change operand indexing; skip
    if any(n.params is None or n.params.right_shift for n in graph.nodes):
        return None
    graph = _reorder_roots_first(graph)
    if graph is None or len(graph.nodes) > len(enc.op_values):
        return None
    hints = dict(enc.phase_hints)

    def hint_vec(vec, value):
        hints.update(zip(vec, bits_of(value, len(vec))))

    # Node i goes to slot i, so an operand's node index is its slot.
    for slot, node in enumerate(graph.nodes, 1):
        p = node.params
        operands = sorted(
            ((node.left, p.left_shift_1), (node.right, p.left_shift_2)),
            key=lambda o: o[0],
        )
        # Role values as KINDS names them: the powers of two, larger first,
        # and the shifted earlier results in slot order.
        powers = sorted((1 << amt for src, amt in operands if src == 0), reverse=True)
        shifted = [(src, amt) for src, amt in operands if src]
        op1, op2 = ([src for src, _ in shifted] + [0, 0])[:2]
        value = dict(zip(("e1", "e1b"), powers))
        value.update(zip("st", (graph.node_value(src) << amt for src, amt in shifted)))
        amount = dict(zip("st", (amt for _, amt in shifted)))

        def realizes(cand):
            if (cand.op1, cand.op2) != (op1, op2):
                return False
            if cand.kind == EXACTLY2:  # two distinct powers in one vector
                return (value["e1"] | value["e1b"]) == node.value
            subtract, x, y = KINDS[cand.kind]
            return (value[x] - value[y] if subtract else value[x] + value[y]) == node.value

        chosen = next((c for c in enc.candidates[slot - 1] if realizes(c)), None)
        if chosen is None:
            return None
        if chosen.kind == EXACTLY2:
            hint_vec(enc.slot_powers[slot - 1]["e2"], node.value)
        else:
            for role in KINDS[chosen.kind][1:]:
                if role in amount:
                    sels = enc.slot_shifts[slot - 1][op1 if role == "s" else (op1, op2)]
                    for i, var in enumerate(sels):
                        hints[var] = 1 if i == amount[role] else 0
                else:
                    hint_vec(enc.slot_powers[slot - 1][role], value[role])
        for cand in enc.candidates[slot - 1]:
            hints[cand.cond] = 1 if cand is chosen else 0
        hint_vec(enc.op_values[slot - 1], node.value)

    slot_of_value = {}
    for slot, node in enumerate(graph.nodes, 1):
        slot_of_value.setdefault(node.value, slot)
    for target, members, sels in enc.binding:
        slot = slot_of_value.get(target)
        if slot is None or slot not in members:
            return None
        for member, sel in zip(members, sels):
            hints[sel] = 1 if member == slot else 0
    return hints


# -- optimization loop -------------------------------------------------------


@dataclass(frozen=True)
class OptimizationReport:
    optimal_ops: int
    proven: bool
    graph: AdderGraph
    per_level: tuple[tuple[int, SolveOutcome], ...]
    upper_bound: int
    backend: str
    variant: int
    elapsed: float


def solve_encoding(
    enc: EncodeResult,
    backend="internal",
    timeout: float | None = None,
    hint_graph: AdderGraph | None = None,
) -> SolveOutcome:
    """Solve one encoding, optionally warm-started from a known graph."""
    if enc.trivial_verdict is not None:
        model = Model((0,)) if enc.trivial_verdict == SAT else None
        return SolveOutcome(enc.trivial_verdict, model, 0.0, "preprocess")
    phases = enc.phase_hints
    if hint_graph is not None:
        hinted = witness_phase_hints(enc, hint_graph)
        if hinted is not None:
            phases = hinted
    return solve(enc.formula, backend, timeout, phases)


def optimal_mcm(
    inst: McmInstance,
    upper_bound: int | None = None,
    cfg: EncodingConfig | None = None,
    backend: str | list[str] = INTERNAL,
    per_level_timeout: float | None = None,
) -> OptimizationReport:
    """Descend one level at a time until the first UNSAT proves optimality.

    Levels the verified heuristic_graph, or a graph decoded lower down,
    fits are recorded SAT with backend "witness" and are not solved.  The
    upper bound defaults to the CSD bound; when no known graph fits a
    caller's bound, the descent starts at the bound, and McmError is
    raised if no graph within it is found.  On a timeout the report is
    unproven and carries the best verified graph found so far.
    """
    start = time.monotonic()
    if cfg is None:
        cfg = EncodingConfig(ops=1)
    backend_name = ",".join(backend) if isinstance(backend, (list, tuple)) else backend
    if inst.is_empty:
        return OptimizationReport(
            0, True, AdderGraph(()), (), 0, backend_name, cfg.variant,
            time.monotonic() - start,
        )
    ub = csd_upper_bound(inst) if upper_bound is None else upper_bound
    if ub <= 0:
        raise McmError("upper bound must be positive for a non-empty instance")

    seed = heuristic_graph(inst)
    if not verify_solution(inst, seed):
        raise McmError("heuristic produced an invalid graph")
    best_graph = seed if seed.cost <= ub else None
    best_ops = ub
    proven = False
    levels: list[tuple[int, SolveOutcome]] = []
    for level in range(ub if best_graph is None else ub - 1, -1, -1):
        if level == 0:
            # No operations cannot cover a non-empty target set.
            levels.append((0, SolveOutcome(UNSAT, None, 0.0, "preprocess")))
            proven = True
            break
        if best_graph is not None and best_graph.cost <= level:
            # The graph, padded with unused operations, already fits.
            levels.append((level, SolveOutcome(SAT, None, 0.0, "witness")))
            best_ops = level
            continue
        enc = encode_mcm(inst, replace(cfg, ops=level))
        outcome = solve_encoding(enc, backend, per_level_timeout)
        levels.append((level, outcome))
        if outcome.status == SAT:
            best_graph = decode_solution(enc, outcome.model)
            if not verify_solution(inst, best_graph):
                raise DecodeError("decode failure: optimizer produced an invalid graph")
            best_ops = level
            continue
        if outcome.status == UNSAT:
            proven = True
        break
    if best_graph is None:
        raise McmError(f"no graph within the upper bound {ub} was found")
    return OptimizationReport(
        best_ops,
        proven,
        best_graph,
        tuple(levels),
        ub,
        backend_name,
        cfg.variant,
        time.monotonic() - start,
    )
