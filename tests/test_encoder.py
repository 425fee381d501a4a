import hashlib
import random
from collections import Counter
from dataclasses import replace

import pytest
from conftest import enumerate_models

from mcmsat.encoder import (
    EncodingConfig,
    encode_mcm,
    predict_size,
    preprocess_trivial,
)
from mcmsat.model import McmError, csd_upper_bound, normalize_targets
from mcmsat.oracle import brute_force_optimal
from mcmsat.pb import PbFormula, parse_opb
from mcmsat.solve import solve

# Published size table for the two single-constant regression rows, as
# (constraints, variables) per encoding variant.  Variant 1 matches with
# the non-zero-subtraction reduction off, variants 2/3 with it on; that
# combination reproduces the counts exactly.
SIZE_TABLE = {
    (731951, 5): {1: (156096, 11243), 2: (46243, 3620), 3: (46243, 1840)},
    (33951, 3): {1: (23837, 2214), 2: (8027, 803), 3: (8027, 483)},
}


@pytest.mark.parametrize("target,ops", SIZE_TABLE.keys())
@pytest.mark.parametrize("variant", [1, 2, 3])
def test_published_sizes_reproduced_exactly(target, ops, variant):
    inst = normalize_targets([target])
    cfg = EncodingConfig(ops=ops, variant=variant, nonzero_sub=variant != 1)
    res = encode_mcm(inst, cfg)
    nvars, ncons = res.formula.stats()
    exp_cons, exp_vars = SIZE_TABLE[(target, ops)][variant]
    assert (ncons, nvars) == (exp_cons, exp_vars)


@pytest.mark.parametrize("target,ops", SIZE_TABLE.keys())
@pytest.mark.parametrize("variant", [1, 3])
def test_published_sizes_within_factor_two_at_defaults(target, ops, variant):
    inst = normalize_targets([target])
    res = encode_mcm(inst, EncodingConfig(ops=ops, variant=variant))
    nvars, ncons = res.formula.stats()
    exp_cons, exp_vars = SIZE_TABLE[(target, ops)][variant]
    assert exp_cons / 2 <= ncons <= exp_cons * 2
    assert exp_vars / 2 <= nvars <= exp_vars * 2


@pytest.mark.parametrize("variant", [1, 2, 3])
@pytest.mark.parametrize("ops", [1, 2, 3, 4])
@pytest.mark.parametrize("width", [5, 6, 8])
def test_predict_size_matches_stats(variant, ops, width):
    # Targets chosen odd, not single-operation reachable, of the right
    # width, so preprocessing leaves the instance intact.
    target = {5: 11, 6: 21, 8: 75}[width]
    inst = normalize_targets([target])
    assert inst.bit_width == width
    cfg = EncodingConfig(ops=ops, variant=variant)
    res = encode_mcm(inst, cfg)
    assert res.trivial_verdict is None
    assert predict_size(ops, width, variant, 1, cfg) == res.formula.stats()


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_predict_size_matches_without_improvements(variant):
    inst = normalize_targets([21])
    cfg = EncodingConfig(ops=3, variant=variant).improvements_off()
    res = encode_mcm(inst, cfg)
    assert predict_size(3, 6, variant, 1, cfg) == res.formula.stats()


def test_predict_size_matches_with_right_shifts():
    inst = normalize_targets([21])
    for variant in (1, 2, 3):
        cfg = EncodingConfig(ops=2, variant=variant, right_shifts=True)
        res = encode_mcm(inst, cfg)
        assert predict_size(2, 6, variant, 1, cfg) == res.formula.stats()


def test_size_ordering_across_variants():
    inst = normalize_targets([75, 101])
    sizes = {}
    for variant in (1, 2, 3):
        res = encode_mcm(inst, EncodingConfig(ops=3, variant=variant))
        sizes[variant] = res.formula.stats()
    assert sizes[3][0] < sizes[2][0] <= sizes[1][0]
    assert sizes[2][1] == sizes[3][1] <= sizes[1][1]


def test_variable_growth_is_roughly_cubic():
    a_values = [2, 3, 4, 5, 6]
    sizes = [predict_size(a, 12, 3)[0] for a in a_values]
    ratio = sizes[-1] / sizes[0]
    import math

    slope = math.log(ratio) / math.log(a_values[-1] / a_values[0])
    assert 2.0 <= slope <= 3.5


# -- preprocessing ------------------------------------------------------------


def test_preprocess_both_single_op():
    inst = normalize_targets([3, 5])
    pre = preprocess_trivial(inst, 2)
    assert pre.verdict == "SAT"
    assert [p.value for p in pre.removed] == [3, 5]
    assert pre.ops_left == 0


def test_preprocess_chain_through_removed_targets():
    inst = normalize_targets([7, 21])
    pre = preprocess_trivial(inst, 2)
    assert pre.verdict == "SAT"
    assert [p.value for p in pre.removed] == [7, 21]


def test_preprocess_inconclusive_on_worked_example():
    # 29 and 43 are not single-operation reachable (checked directly),
    # and two operations cannot be ruled out by counting alone.
    from mcmsat.model import one_operation_values

    inst = normalize_targets([29, 43])
    assert 29 not in one_operation_values({1}, inst.bit_width)
    assert 43 not in one_operation_values({1}, inst.bit_width)
    pre = preprocess_trivial(inst, 2)
    assert pre.verdict is None


def test_preprocess_unsat_by_counting():
    inst = normalize_targets([29, 43])
    assert preprocess_trivial(inst, 1).verdict == "UNSAT"


def test_encode_trivially_sat_instance():
    inst = normalize_targets([3])
    res = encode_mcm(inst, EncodingConfig(ops=1))
    assert res.trivial_verdict == "SAT"
    assert res.formula.stats() == (0, 0)


def test_encode_partial_pinning_is_sound():
    # 7 is removed and pinned; 45 still needs a real search.  The pinned
    # slot keeps its candidate structure, so the formula stays SAT at the
    # true joint optimum and UNSAT below it (oracle: {7,45} costs 3).
    inst = normalize_targets([7, 45])
    cost, _ = brute_force_optimal(inst)
    assert cost == 3
    for level, expected in ((3, "SAT"), (2, "UNSAT")):
        res = encode_mcm(inst, EncodingConfig(ops=level, variant=3))
        if res.trivial_verdict is not None:
            assert res.trivial_verdict == expected
            continue
        assert [p.value for p in res.pinned] == [7]
        status = solve(res.formula, phases=res.phase_hints).status
        assert status == expected


def test_encode_requires_positive_ops():
    with pytest.raises(McmError):
        encode_mcm(normalize_targets([29]), EncodingConfig(ops=0))


def test_encode_empty_instance_trivial():
    res = encode_mcm(normalize_targets([8]), EncodingConfig(ops=1))
    assert res.trivial_verdict == "SAT"


# -- solver-facing behaviour ---------------------------------------------------


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_worked_example_sat_and_unsat_levels(variant):
    inst = normalize_targets([29, 43])
    unsat = encode_mcm(inst, EncodingConfig(ops=2, variant=variant))
    assert solve(unsat.formula, phases=unsat.phase_hints).status == "UNSAT"
    sat = encode_mcm(inst, EncodingConfig(ops=3, variant=variant))
    assert solve(sat.formula, phases=sat.phase_hints).status == "SAT"


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_small_scale_completeness(variant):
    # Singleton instances: SAT at the oracle cost, UNSAT one below.
    for target in (7, 11, 21, 29, 45, 51):
        inst = normalize_targets([target])
        cost, _ = brute_force_optimal(inst)
        enc = encode_mcm(inst, EncodingConfig(ops=cost, variant=variant))
        if enc.trivial_verdict is not None:
            assert enc.trivial_verdict == "SAT"
        else:
            assert solve(enc.formula, phases=enc.phase_hints).status == "SAT"
        if cost > 1:
            enc = encode_mcm(inst, EncodingConfig(ops=cost - 1, variant=variant))
            if enc.trivial_verdict is not None:
                assert enc.trivial_verdict == "UNSAT"
            else:
                assert (
                    solve(enc.formula, phases=enc.phase_hints).status == "UNSAT"
                )


def test_monotone_satisfiability():
    inst = normalize_targets([45])  # oracle cost 2
    statuses = []
    for ops in (2, 3, 4):
        enc = encode_mcm(inst, EncodingConfig(ops=ops, variant=3))
        statuses.append(solve(enc.formula, phases=enc.phase_hints).status)
    assert statuses == ["SAT", "SAT", "SAT"]
    enc = encode_mcm(inst, EncodingConfig(ops=1, variant=3))
    assert solve(enc.formula, phases=enc.phase_hints).status == "UNSAT"


def test_nonzero_sub_removes_exactly_zero_value_models():
    # Gadget-scale model-set comparison: the reduction's rows remove the
    # power-difference assignments with equal operands and nothing else.
    from mcmsat import gadgets
    from mcmsat.pb import GE, PbFormula

    def build(nonzero):
        f = PbFormula()
        e1 = gadgets.exactly(f, 1, 4)
        e1b = gadgets.exactly(f, 1, 4)
        if nonzero:
            for i in range(4):
                f.add(((-1, e1[i]), (-1, e1b[i])), GE, -1)
        out = f.new_bitvec(4)
        gadgets.encode_subtractor(f, out, e1, e1b)
        return f, e1, e1b, out

    f_off, e1, e1b, out = build(False)
    f_on, _, _, _ = build(True)
    models_off = {m.values for m in enumerate_models(f_off)}
    models_on = {m.values for m in enumerate_models(f_on)}
    assert models_on <= models_off
    removed = models_off - models_on
    assert removed
    for values in removed:
        from mcmsat.pb import Model

        m = Model(values)
        assert m.value_of(e1) == m.value_of(e1b)
        assert m.value_of(out) == 0


def test_end_to_end_equisatisfiable_with_and_without_nonzero_sub():
    inst = normalize_targets([45])
    for ops, expected in ((2, "SAT"), (1, "UNSAT")):
        for nonzero in (False, True):
            cfg = EncodingConfig(ops=ops, variant=3, nonzero_sub=nonzero)
            enc = encode_mcm(inst, cfg)
            assert solve(enc.formula, phases=enc.phase_hints).status == expected


def test_emitted_opb_round_trips():
    inst = normalize_targets([29, 43])
    for variant in (1, 2, 3):
        res = encode_mcm(inst, EncodingConfig(ops=2, variant=variant))
        text = res.formula.emit_opb()
        assert parse_opb(text).emit_opb() == text


# sha256 of the OPB text of the encodings at 3 ops, per instance and
# variant: right shifts off and on, each at the defaults and with every
# reduction off, plus (for the worked example) the annotated text.  Any
# change to a gadget row, a term order or the variable allocation order
# changes these; a refactor must leave them alone.
GOLDEN_OPB = {
    ((29, 43), 1): "77d5643457c789de39cb2c79127d391dbfe3b9f7790d81bb2d6865eea36b79cf",
    ((29, 43), 2): "1363eb20f792ec2cbf7f95265a2acfcff074f2da5080dfd0056c9a08c23cf6e7",
    ((29, 43), 3): "ca5f1a28ea55460b24d7f768cb7a9ac8d0e4cca8f2fa7341d4b55f1ecc74b4d2",
    ((45, 75, 105), 1): "89bd172c6be4848a087a5dd790b2f52224d2138457ab6b22ab9918aa6806f768",
    ((45, 75, 105), 2): "6b65508a20838bc1f12a2b62e424d69ab9a5af9d9db0be6c5c27c4325bffd68e",
    ((45, 75, 105), 3): "3de6463a2306ac3897c08a6e6f3c5f39206170b250909132e4ae59f489c057f6",
    ((33951,), 1): "4076a2680d7a508191ffd7a9e025aa208fd306669206b21b8a775878ea5afb66",
    ((33951,), 2): "c19e124e98efe29d3ce7585587cb596d77eccbbe63b775ef1893c7098f8a4a4e",
    ((33951,), 3): "a9c03555a5001f2d86dd91b64ecda4ba9269e29bea02c3cc50df2d41c7fab76f",
    # Preprocessing pins slot 1 to 3, so these pin the rows of a pinned slot.
    ((3, 683), 1): "df4a6a26c8635af45d1e72679e62d5e95246fac6b1272a3858cc18c06b51c956",
    ((3, 683), 2): "1753082fd0eae08fbeb091414fcf5571a10eed9b8fc607c4ca8d4eb33dc96ce9",
    ((3, 683), 3): "07788a1d141f9f64c6aa0ae75f291f360c40edd6d8adcd318a957bea4b0471c2",
    # The 21-bit size-comparison builds, at 5 ops: the longest gadget rows.
    ((731951,), 1): "1322a40a943a835f60592261a466d766be7179f18ab9b10073bbfdfe81b8f64f",
    ((731951,), 2): "003bcc37df154e6ce416091d18a9c679b65dc9c734bebdbc26d8d45f06fe86eb",
    ((731951,), 3): "c16ddd3def49b6f2b952ffe613192140bcf6e6dfbaf1f868c6a9defcd2dbd597",
}
GOLDEN_OPS = {(731951,): 5}  # ops of a pinned encoding; 3 when not listed


@pytest.mark.parametrize("targets,variant", GOLDEN_OPB)
def test_emitted_opb_bytes_are_pinned(targets, variant):
    inst = normalize_targets(list(targets))
    digest = hashlib.sha256()
    for right_shifts in (False, True):
        cfg = EncodingConfig(ops=GOLDEN_OPS.get(targets, 3), variant=variant,
                             right_shifts=right_shifts)
        for c in (cfg, cfg.improvements_off()):
            digest.update(encode_mcm(inst, c).formula.emit_opb().encode())
    if targets == (29, 43):
        cfg = EncodingConfig(ops=3, variant=variant, annotate=True)
        text = encode_mcm(inst, cfg).formula.emit_opb(include_annotations=True)
        digest.update(text.encode())
    assert digest.hexdigest() == GOLDEN_OPB[(targets, variant)]


def test_encoding_is_deterministic():
    inst = normalize_targets([29, 43])
    cfg = EncodingConfig(ops=3, variant=3)
    first = encode_mcm(inst, cfg).formula.emit_opb()
    assert encode_mcm(inst, cfg).formula.emit_opb() == first


def test_right_shift_mode_stays_correct():
    inst = normalize_targets([45])
    for ops, expected in ((2, "SAT"), (1, "UNSAT")):
        cfg = EncodingConfig(ops=ops, variant=3, right_shifts=True)
        enc = encode_mcm(inst, cfg)
        assert solve(enc.formula, phases=enc.phase_hints).status == expected


def test_encode_rejects_oversized_width():
    inst = normalize_targets([(1 << 70) + 1])
    with pytest.raises(McmError, match="bit width"):
        encode_mcm(inst, EncodingConfig(ops=2))


def test_encode_more_targets_than_ops_without_preprocessing():
    # Still encodes; the solver answers UNSAT.
    inst = normalize_targets([29, 43])
    cfg = EncodingConfig(ops=1, variant=3, trivial_precompute=False)
    enc = encode_mcm(inst, cfg)
    assert enc.trivial_verdict is None
    assert solve(enc.formula, phases=enc.phase_hints).status == "UNSAT"


def test_annotations_optional_and_off_by_default():
    inst = normalize_targets([29, 43])
    plain = encode_mcm(inst, EncodingConfig(ops=2, variant=3))
    assert not plain.formula.annotations
    noted = encode_mcm(inst, EncodingConfig(ops=2, variant=3, annotate=True))
    assert noted.formula.annotations
    text = noted.formula.emit_opb(include_annotations=True)
    assert any(line.startswith("* slot") for line in text.splitlines())
    # Annotations never change the constraint stream itself.
    assert noted.formula.emit_opb() == plain.formula.emit_opb()


def test_wide_encodings_append_gadgets_whole(monkeypatch):
    # The five formulas of the benchmark's build-wide workload: 912,022
    # rows, which gadget templates write in 5,235 appends, where a block
    # per per-bit loop took 55,826.
    appends = Counter()
    add_rows = PbFormula.add_rows
    monkeypatch.setattr(PbFormula, "add_rows",
                        lambda f, *args: appends.update([id(f)]) or add_rows(f, *args))
    total = rows = 0
    for targets, ops, variant in (((1701, 709, 1015, 1269), None, 3), ((731951,), None, 3),
                                  ((731951,), 5, 1), ((731951,), 5, 2), ((731951,), 5, 3)):
        inst = normalize_targets(targets)
        appends.clear()  # and count the appends of this formula alone, no template's recording
        f = encode_mcm(inst, EncodingConfig(ops=ops or csd_upper_bound(inst), variant=variant)).formula
        total, rows = total + appends[id(f)], rows + len(f.bounds)
    assert rows == 912_022 and total <= 6_000
