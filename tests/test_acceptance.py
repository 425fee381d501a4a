"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 5, the
oracle sweep, is the longest.  Criterion 2 uses an external solver from
$MCMSAT_SOLVER when configured, otherwise the bundled solver with a
one-hour budget.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from mcmsat.cli import main as cli_main
from mcmsat.encoder import EncodingConfig, encode_mcm, predict_size, preprocess_trivial
from mcmsat.model import (
    normalize_targets,
    recoding_upper_bounds,
    recoding_witness,
    verify_solution,
)
from mcmsat.oracle import brute_force_optimal
from mcmsat.pb import parse_opb
from mcmsat.solve import decode_solution, optimal_mcm, solve, solve_encoding

EXTERNAL = os.environ.get("MCMSAT_SOLVER")
HOUR = 3600.0


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {text}")


def _solve_enc(enc, timeout, hint_graph=None):
    backend = EXTERNAL or "internal"
    return solve_encoding(enc, backend=backend, timeout=timeout, hint_graph=hint_graph)


def test_criterion_1_worked_example():
    start = time.monotonic()
    inst = normalize_targets([29, 43])
    bounds = recoding_upper_bounds(inst)
    assert bounds.binary == 6
    report_obj = optimal_mcm(
        inst, upper_bound=6, cfg=EncodingConfig(ops=1, variant=3), backend="internal"
    )
    assert report_obj.optimal_ops == 3
    assert report_obj.proven
    assert verify_solution(inst, report_obj.graph)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    report(1, f"binary bound 6, optimum 3 proven in {elapsed:.1f}s, graph verified")


def test_criterion_2_single_constant_ground_truths():
    # SAT sides are warm-started from the recoding witness (the bundled
    # solver stays complete and checks the model through propagation);
    # the UNSAT side is a full refutation, the expensive half.
    inst = normalize_targets([33951])
    enc3 = encode_mcm(inst, EncodingConfig(ops=3, variant=3))
    out_unsat = _solve_enc(enc3, HOUR)
    assert out_unsat.status == "UNSAT", out_unsat
    witness = recoding_witness(inst)
    enc5 = encode_mcm(inst, EncodingConfig(ops=5, variant=3))
    out_sat = _solve_enc(enc5, HOUR, hint_graph=witness)
    assert out_sat.status == "SAT", out_sat
    graph = decode_solution(enc5, out_sat.model)
    assert verify_solution(inst, graph)
    report(
        2,
        f"33951: UNSAT@3 in {out_unsat.elapsed:.0f}s, SAT@5 in "
        f"{out_sat.elapsed:.1f}s ({out_sat.backend})",
    )


@pytest.mark.skipif(
    not os.environ.get("MCMSAT_EXTENDED"),
    reason="extended 731951 ground truths only with MCMSAT_EXTENDED=1 "
    "(paper-scale solve times; configure MCMSAT_SOLVER)",
)
def test_criterion_2_extended_731951():
    inst = normalize_targets([731951])
    enc5 = encode_mcm(inst, EncodingConfig(ops=5, variant=3))
    assert _solve_enc(enc5, 12 * HOUR, hint_graph=recoding_witness(inst)).status == "SAT"
    enc4 = encode_mcm(inst, EncodingConfig(ops=4, variant=3))
    assert _solve_enc(enc4, 12 * HOUR).status == "UNSAT"


def test_criterion_2_derived_sat_at_4():
    # The size table's row pair leaves 4 operations untested; the solver
    # confirms SAT there, so the optimum for 33951 is exactly 4.
    inst = normalize_targets([33951])
    enc4 = encode_mcm(inst, EncodingConfig(ops=4, variant=3))
    out = _solve_enc(enc4, HOUR, hint_graph=recoding_witness(inst))
    assert out.status == "SAT"
    graph = decode_solution(enc4, out.model)
    assert verify_solution(inst, graph)
    report(2, f"33951 SAT@4 confirmed in {out.elapsed:.1f}s (optimum is 4)")


TABLE2 = {
    # (targets, ops) -> variant -> (constraints, variables)
    (33951, 3): {1: (23837, 2214), 3: (8027, 483)},
    (731951, 5): {1: (156096, 11243), 3: (46243, 1840)},
}


def test_criterion_3_size_reproduction():
    deltas = []
    for (target, ops), table in TABLE2.items():
        inst = normalize_targets([target])
        for variant, (exp_cons, exp_vars) in table.items():
            res = encode_mcm(inst, EncodingConfig(ops=ops, variant=variant))
            nvars, ncons = res.formula.stats()
            assert exp_cons / 2 <= ncons <= exp_cons * 2
            assert exp_vars / 2 <= nvars <= exp_vars * 2
            deltas.append(
                f"{target}/ops{ops}/v{variant}: {ncons}/{nvars} vs {exp_cons}/{exp_vars}"
            )
    report(3, "; ".join(deltas))


def test_criterion_4_gadget_exhaustiveness():
    # The exhaustive truth tables live in test_gadgets; re-run them here
    # so the acceptance suite is self-contained.
    import test_gadgets as tg

    checks = 0
    tg.test_xor2_truth_table()
    tg.test_xor3_truth_table()
    tg.test_cond_xor2_truth_table()
    tg.test_cond_xor3_truth_table()
    tg.test_cond_copy_truth_table()
    checks += 5
    for n in (1, 2, 3):
        tg.test_adder_truth_table(n)
        tg.test_subtractor_truth_table(n)
        checks += 2
    for n in (2, 3):
        tg.test_cond_adder_fresh_chain_truth_table(n)
        tg.test_cond_adder_shared_chain_truth_table(n)
        tg.test_cond_subtractor_fresh_chain_truth_table(n)
        tg.test_cond_subtractor_shared_chain_truth_table(n)
        checks += 4
    for n, amount in ((3, 0), (3, 1), (3, 2)):
        tg.test_cond_shift_left_truth_table(n, amount)
        tg.test_cond_shift_right_truth_table(n, amount)
        checks += 2
    for direction in ("left", "right"):
        tg.test_shift_gadget_truth_table(direction)
        checks += 1
    tg.test_exactly_models(1, 4, {1, 2, 4, 8})
    tg.test_exactly_models(2, 3, {3, 5, 6})
    tg.test_exactly_models(0, 3, {0})
    checks += 3
    for n in (1, 2, 3):
        tg.test_const_truth_table(n)
        checks += 1
    report(4, f"{checks} exhaustive truth tables, zero mismatches")


def two_target_instances(count: int, limit: int = 128, seed: int = 2024):
    """Deterministic sample of oracle-solvable two-target instances."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.randrange(3, limit, 2)
        b = rng.randrange(3, limit, 2)
        if a == b:
            continue
        inst = normalize_targets([a, b])
        try:
            cost, _ = brute_force_optimal(inst)
        except Exception:
            continue
        out.append((inst, cost))
    return out


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    singles = 0
    for c in range(3, 256, 2):
        inst = normalize_targets([c])
        cost, _ = brute_force_optimal(inst)
        for variant in (1, 2, 3):
            rep = optimal_mcm(inst, cfg=EncodingConfig(ops=1, variant=variant))
            assert rep.proven and rep.optimal_ops == cost, (c, variant)
            assert verify_solution(inst, rep.graph)
        singles += 1
    pairs = 0
    for inst, cost in two_target_instances(50):
        rep = optimal_mcm(inst, cfg=EncodingConfig(ops=1, variant=3))
        assert rep.proven and rep.optimal_ops == cost, inst.targets
        assert verify_solution(inst, rep.graph)
        pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30 * 60
    report(
        5,
        f"{singles} singletons x 3 variants + {pairs} pairs match the "
        f"oracle exactly in {elapsed:.0f}s",
    )


def seeded_instances(count: int, seed: int = 77):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n_targets = rng.randint(1, 2)
        targets = sorted(
            {rng.randrange(3, 128, 2) for _ in range(n_targets)}
        )
        inst = normalize_targets(targets)
        if inst.bit_width > 8:
            continue
        ops = rng.randint(2, 3)
        if ops < len(inst.targets):
            continue
        out.append((inst, ops))
    return out


def test_criterion_6_variant_agreement_and_size_order():
    agreements = 0
    for inst, ops in seeded_instances(30):
        sizes = {}
        statuses = set()
        for variant in (1, 2, 3):
            enc = encode_mcm(inst, EncodingConfig(ops=ops, variant=variant))
            sizes[variant] = enc.formula.stats()
            if enc.trivial_verdict is not None:
                statuses.add(enc.trivial_verdict)
            else:
                statuses.add(
                    solve(enc.formula, timeout=600, phases=enc.phase_hints).status
                )
        assert len(statuses) == 1 and "UNKNOWN" not in statuses, (
            inst.targets,
            ops,
            statuses,
        )
        trivially_decided = encode_mcm(
            inst, EncodingConfig(ops=ops, variant=3)
        ).trivial_verdict
        if trivially_decided is None:
            assert sizes[3][0] < sizes[2][0] <= sizes[1][0], inst.targets
            assert sizes[2][1] == sizes[3][1] <= sizes[1][1], inst.targets
        agreements += 1
    report(6, f"{agreements} seeded instances: variants agree, sizes ordered")


def test_criterion_7_complexity_scaling():
    a_values = [2, 3, 4, 5, 6]
    sizes = [predict_size(a, 12, 3)[0] for a in a_values]
    xs = [math.log(a) for a in a_values]
    ys = [math.log(s) for s in sizes]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    assert 2.0 <= slope <= 3.5
    grid_points = 0
    for variant in (1, 2, 3):
        for ops in (1, 2, 3, 4):
            for width, target in ((5, 11), (6, 21), (7, 43), (8, 75)):
                inst = normalize_targets([target])
                assert inst.bit_width == width
                cfg = EncodingConfig(ops=ops, variant=variant)
                enc = encode_mcm(inst, cfg)
                assert (
                    predict_size(ops, width, variant, 1, cfg) == enc.formula.stats()
                ), (variant, ops, width)
                grid_points += 1
    report(
        7,
        f"log-vars/log-A slope {slope:.2f} in [2.0, 3.5]; predictions exact "
        f"on {grid_points} grid points",
    )


def test_criterion_8_trivial_instance_handling(tmp_path):
    # Trivially SAT: witness decodes from preprocessing and verifies.
    sat_cases = [([3, 5], 2), ([7, 21], 2), ([3], 1), ([9, 15, 17], 3)]
    for targets, ops in sat_cases:
        inst = normalize_targets(targets)
        enc = encode_mcm(inst, EncodingConfig(ops=ops, variant=3))
        assert enc.trivial_verdict == "SAT", targets
        from mcmsat.pb import Model

        graph = decode_solution(enc, Model((0,)))
        assert verify_solution(inst, graph)
        assert graph.cost <= ops
    # Trivially UNSAT flags are confirmed by the oracle.
    unsat_cases = [([29, 43], 1), ([11, 13, 19], 2), ([11, 45], 1)]
    for targets, ops in unsat_cases:
        inst = normalize_targets(targets)
        pre = preprocess_trivial(inst, ops)
        assert pre.verdict == "UNSAT", targets
        cost, _ = brute_force_optimal(inst)
        assert cost > ops, targets
    # cmd_bench skips flagged instances.
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "trivial_sat.txt").write_text("# ops: 2\n3\n5\n")
    (bench_dir / "trivial_unsat.txt").write_text("# ops: 1\n29\n43\n")
    (bench_dir / "real.txt").write_text("# ops: 3\n29\n43\n")
    out = tmp_path / "report.json"
    result = CliRunner().invoke(
        cli_main, ["bench", str(bench_dir), "--timeout", "300", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    rep = json.loads(out.read_text())
    by_name = {r["instance"]: r for r in rep["instances"]}
    assert by_name["trivial_sat.txt"]["trivial"] == "SAT"
    assert by_name["trivial_sat.txt"]["outcomes"] == {}
    assert by_name["trivial_unsat.txt"]["trivial"] == "UNSAT"
    assert by_name["trivial_unsat.txt"]["outcomes"] == {}
    assert by_name["real.txt"]["trivial"] is None
    assert by_name["real.txt"]["outcomes"]
    report(8, "trivial SAT witnesses verify, UNSAT flags oracle-confirmed, bench skips both")


def test_criterion_9_opb_round_trip():
    count = 0
    for targets, ops in (([29, 43], 2), ([29, 43], 3), ([45], 2), ([75, 101], 3)):
        inst = normalize_targets(targets)
        for variant in (1, 2, 3):
            for right_shifts in (False, True):
                enc = encode_mcm(
                    inst,
                    EncodingConfig(ops=ops, variant=variant, right_shifts=right_shifts),
                )
                text = enc.formula.emit_opb()
                assert parse_opb(text).emit_opb() == text
                count += 1
    report(9, f"{count} encoder outputs re-emit byte-identically")
