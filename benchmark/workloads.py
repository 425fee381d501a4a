"""The three workloads: their inputs, their timed calls and their checks.

Every timed call goes through the `mcmsat.solve` module's names, so the
traced run sees it; `tr` is a Tracer or a NullTracer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from mcmsat import EncodingConfig, normalize_targets, parse_opb, predict_size

from checks import check_build, check_optimum, check_refutation

# descent: optimal_mcm over every set below, each round.  The paper's
# worked example; the level-waste case (the graph found at level 8
# prunes to 5 ops, yet levels 7, 6 and 5 are solved again); and the
# first 12 pairs of 8-bit constants drawn by
#     rng = random.Random(2010)
#     sorted(rng.sample(range(129, 256, 2), 2))
# whose descent ends within 5 s.  Draws 10, 11 and 14 are left out for
# the run-time budget; README.md gives their times.
DESCENT_SETS: tuple[tuple[int, ...], ...] = (
    (29, 43),
    (45, 75, 105),
    (163, 253), (187, 245), (241, 243), (183, 193), (177, 191), (197, 231),
    (161, 255), (197, 255), (185, 191), (175, 189), (223, 225), (153, 163),
)

# unsat-proof: the 10-bit constants of CSD bound 5 whose oracle optimum
# is 4 (the oracle table holds the proof), and 731 (bound 4, optimum 4).
# The seed picks one, which is refuted at 3 ops.
UNSAT_CONSTANTS: tuple[int, ...] = (683, 691, 731, 811, 821, 843, 851, 853)
# The self-test's refutation: optimum 3, refuted at 2 ops in milliseconds.
SELF_TEST_CONSTANT = 43

# build-wide: (constants, ops or None for the CSD bound, variant, solve).
# Solved builds take the recoding witness as hint, so search is trivial;
# 731951 at 5 ops is the paper's size comparison and is only built.
BUILDS: tuple[tuple[tuple[int, ...], int | None, int, bool], ...] = (
    ((1701, 709, 1015, 1269), None, 3, True),
    ((731951,), None, 3, True),
    ((731951,), 5, 1, False),
    ((731951,), 5, 2, False),
    ((731951,), 5, 3, False),
)


@dataclass(frozen=True)
class Op:
    kind: str  # "optimize", "refute" or "build"
    constants: tuple[int, ...]
    ops: int | None = None
    variant: int = 3
    solve: bool = False


def _spell(rng: random.Random, constants) -> tuple[int, ...]:
    """Seeded raw spelling: a sign and a power-of-two factor per constant.

    Normalization removes both, so every seed asks the solver the same
    questions and the timings of different seeds compare.
    """
    return tuple(c * rng.choice((1, -1)) << rng.randrange(3) for c in constants)


def make_inputs(workload: str, seed: int, table) -> list[Op]:
    """The seed's inputs: raw spellings, and the constant of unsat-proof.

    The instances and their order are fixed: the order changes how much
    heap an earlier build leaves behind, and so the time of later calls.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "descent":
        return [Op("optimize", _spell(rng, s)) for s in DESCENT_SETS]
    if workload == "unsat-proof":
        constant = rng.choice(UNSAT_CONSTANTS)
        return [Op("refute", _spell(rng, [constant]), table[(constant,)] - 1)]
    if workload == "build-wide":
        return [Op("build", _spell(rng, c), ops, v, s) for c, ops, v, s in BUILDS]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class BuildResult:
    text: str
    parsed: object  # the PbFormula parsed back from text
    size: tuple[int, int]
    bit_width: int
    n_targets: int
    pinned: bool
    ops: int
    status: str | None  # the solver's verdict; None when only built
    graph: object | None


def run(op: Op, mc, tr):
    """One timed operation; `mc` is the mcmsat.solve module."""
    with tr.span("model.normalize"):
        inst = normalize_targets(op.constants)
    if op.kind == "optimize":
        return mc.optimal_mcm(inst)
    if op.kind == "refute":
        enc = mc.encode_mcm(inst, EncodingConfig(ops=op.ops))
        return mc.solve_encoding(enc).status
    ops = mc.csd_upper_bound(inst) if op.ops is None else op.ops
    enc = mc.encode_mcm(inst, EncodingConfig(ops=ops, variant=op.variant))
    with tr.span("pb.emit"):
        text = enc.formula.emit_opb()
    tr.count("pb.opb_bytes", len(text))
    with tr.span("pb.parse"):
        parsed = parse_opb(text)
    # Solve what the parser read, as an external backend would; the
    # encoder's own formula is dropped here.
    enc = replace(enc, formula=parsed)
    status = graph = None
    if op.solve:
        outcome = mc.solve_encoding(enc, hint_graph=mc.recoding_witness(inst))
        status = outcome.status
        if status == "SAT":
            graph = mc.decode_solution(enc, outcome.model)
    else:
        mc.RefSolver(parsed)
    return BuildResult(
        text, parsed, parsed.stats(), inst.bit_width, len(inst.targets),
        bool(enc.pinned), ops, status, graph,
    )


def check(op: Op, result, table) -> None:
    """Raise CheckFailed when `result` disagrees with independent truth."""
    if op.kind == "optimize":
        check_optimum(table, op.constants, result)
    elif op.kind == "refute":
        check_refutation(table, op.constants[0], op.ops, result)
    else:
        predicted = None if result.pinned else predict_size(
            result.ops, result.bit_width, op.variant, result.n_targets
        )
        check_build(
            result.text, result.parsed.emit_opb(), result.size, predicted,
            result.status, result.graph, op.constants, result.ops,
        )
