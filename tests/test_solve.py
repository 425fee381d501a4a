import hashlib
import importlib
import os
import stat
import sys
import tempfile
import textwrap
import time
from contextlib import nullcontext
from pathlib import Path

import pytest
from conftest import needs_core, python_path
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmsat import native
from mcmsat.encoder import (
    ADD_PAIR,
    ADD_SHIFT_POW,
    EXACTLY2,
    SUB_PAIR,
    EncodingConfig,
    encode_mcm,
)
from mcmsat.model import (
    McmError,
    csd_upper_bound,
    heuristic_graph,
    normalize_targets,
    verify_solution,
)
from mcmsat.pb import EQ, GE, Model, PbFormula
from mcmsat.solve import (
    DecodeError,
    SolverError,
    _check_model,
    decode_solution,
    optimal_mcm,
    prune_graph,
    solve,
    solve_encoding,
)

ADDITIONS = (EXACTLY2, ADD_SHIFT_POW, ADD_PAIR)


def toy_unsat_formula():
    f = PbFormula()
    x = f.new_var()
    f.add(((1, x),), GE, 1)
    f.add(((-1, x),), GE, 0)
    return f


def test_solve_internal_toy_unsat():
    outcome = solve(toy_unsat_formula())
    assert outcome.status == "UNSAT"
    assert outcome.model is None
    assert outcome.backend == "internal"


def test_only_a_race_with_an_external_backend_makes_a_temporary_directory(tmp_path, monkeypatch):
    made = []
    mkdtemp = tempfile.mkdtemp
    monkeypatch.setattr(tempfile, "mkdtemp", lambda *a, **k: made.append(mkdtemp(*a, **k)) or made[-1])
    assert solve(toy_unsat_formula()).status == "UNSAT"
    assert not any(Path(d).name.startswith("mcmsat_") for d in made)
    script = fake_solver_script(tmp_path, "print('s UNSATISFIABLE')\n")
    assert solve(toy_unsat_formula(), backend=[script, "internal"]).status == "UNSAT"
    assert any(Path(d).name.startswith("mcmsat_") for d in made)


def test_solve_worked_example_levels():
    inst = normalize_targets([29, 43])
    sat = encode_mcm(inst, EncodingConfig(ops=3, variant=3))
    out = solve(sat.formula, phases=sat.phase_hints)
    assert out.status == "SAT" and out.model is not None
    unsat = encode_mcm(inst, EncodingConfig(ops=2, variant=3))
    assert solve(unsat.formula, phases=unsat.phase_hints).status == "UNSAT"


# -- external backends ---------------------------------------------------------


def fake_solver_script(tmp_path, body, name="fakesolver"):
    path = tmp_path / f"{name}.py"
    path.write_text(f"#!{sys.executable}\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return f"{sys.executable} {path}"


def test_external_backend_round_trip(tmp_path):
    # A real external process: solves the OPB with this package's own
    # machinery and answers in the standard output protocol.
    script = fake_solver_script(
        tmp_path,
        """
        import sys
        from mcmsat.pb import parse_opb
        from mcmsat.refsolver import RefSolver
        f = parse_opb(open(sys.argv[1]).read())
        status, model = RefSolver(f).solve()
        if status == "SAT":
            print("s SATISFIABLE")
            lits = " ".join(
                ("x%d" % v) if model[v] else ("-x%d" % v)
                for v in range(1, f.var_count + 1)
            )
            print("v " + lits)
        elif status == "UNSAT":
            print("s UNSATISFIABLE")
        else:
            print("s UNKNOWN")
        """,
    )
    inst = normalize_targets([29, 43])
    enc = encode_mcm(inst, EncodingConfig(ops=3, variant=3))
    outcome = solve(enc.formula, backend=script + " {opb}", timeout=300)
    assert outcome.status == "SAT"
    graph = decode_solution(enc, outcome.model)
    assert verify_solution(inst, graph)


def test_internal_timeout_returns_within_slack():
    # 731951 has optimum 5: refuting it at 4 ops takes far longer than 0.5 s.
    enc = encode_mcm(normalize_targets([731951]), EncodingConfig(ops=4))
    start = time.monotonic()
    outcome = solve_encoding(enc, timeout=0.5)
    assert outcome.status == "UNKNOWN"
    assert time.monotonic() - start < 2


def test_external_backend_missing_executable():
    with pytest.raises(SolverError, match="missing"):
        solve(toy_unsat_formula(), backend="/nonexistent/solver-binary")


def test_unrunnable_backend_is_broken(tmp_path):
    script = tmp_path / "not_executable.sh"
    script.write_text("echo 's UNSATISFIABLE'\n")
    with pytest.raises(SolverError, match="Permission denied"):
        solve(toy_unsat_formula(), backend=str(script))
    outcome = solve(toy_unsat_formula(), [str(script), "internal"])
    assert outcome.status == "UNSAT" and outcome.backend == "internal"


def test_external_backend_garbage_output(tmp_path):
    script = fake_solver_script(tmp_path, "print('segfault near line 7')\n")
    from mcmsat.pb import PbError

    with pytest.raises(PbError):
        solve(toy_unsat_formula(), backend=script)


def test_external_backend_timeout(tmp_path):
    script = fake_solver_script(
        tmp_path, "import time\ntime.sleep(60)\nprint('s UNKNOWN')\n"
    )
    outcome = solve(toy_unsat_formula(), backend=script, timeout=0.5)
    assert outcome.status == "UNKNOWN"


def test_portfolio_takes_first_decisive(tmp_path, monkeypatch):
    # The internal solver answers at once; the sleeper must not hold up
    # the race and must be dead and reaped when solve returns.
    pid_file = tmp_path / "sleeper.pid"
    slow = fake_solver_script(
        tmp_path,
        f"""
        import os, time
        open({str(pid_file)!r}, "w").write(str(os.getpid()))
        time.sleep(30)
        print("s UNSATISFIABLE")
        """,
    )
    solve_mod = importlib.import_module("mcmsat.solve")

    class AfterSleeperStarts(solve_mod.RefSolver):
        def solve(self, *args, **kwargs):
            limit = time.monotonic() + 10
            while not pid_file.exists() and time.monotonic() < limit:
                time.sleep(0.01)
            return super().solve(*args, **kwargs)

    monkeypatch.setattr(solve_mod, "RefSolver", AfterSleeperStarts)
    start = time.monotonic()
    outcome = solve(toy_unsat_formula(), ["internal", slow], timeout=60)
    assert time.monotonic() - start < 3
    assert outcome.status == "UNSAT" and outcome.backend == "internal"
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_race_goes_on_without_a_broken_backend(tmp_path):
    junk = fake_solver_script(tmp_path, "print('segfault near line 7')\n", "junk")
    late = fake_solver_script(
        tmp_path, "import time\ntime.sleep(0.5)\nprint('s UNSATISFIABLE')\n", "late"
    )
    outcome = solve(toy_unsat_formula(), [junk, late], timeout=60)
    assert outcome.status == "UNSAT" and outcome.backend == late


def test_race_goes_on_past_an_unreadable_literal(tmp_path):
    bad = fake_solver_script(
        tmp_path, "print('s SATISFIABLE')\nprint('v x1 xfoo')\n", "bad"
    )
    late = fake_solver_script(
        tmp_path, "import time\ntime.sleep(0.5)\nprint('s UNSATISFIABLE')\n", "late"
    )
    outcome = solve(toy_unsat_formula(), [bad, late], timeout=60)
    assert outcome.status == "UNSAT" and outcome.backend == late
    from mcmsat.pb import PbError

    with pytest.raises(PbError, match="unparsable literal"):
        solve(toy_unsat_formula(), backend=bad)


WRONG_SAT = "print('s SATISFIABLE')\nprint('v x1')\n"


def test_wrong_sat_model_is_refused(tmp_path):
    # x1 = 1 violates row 1, -x1 >= 0.
    script = fake_solver_script(tmp_path, WRONG_SAT)
    with pytest.raises(SolverError, match="violates row 1"):
        solve(toy_unsat_formula(), backend=script)


def test_wrong_sat_model_is_refused_on_the_python_path(tmp_path, python_only):
    test_wrong_sat_model_is_refused(tmp_path)


INT64_MAX = 2**63 - 1
COEF = st.one_of(st.integers(-3, 3), st.sampled_from([INT64_MAX, -INT64_MAX]),
                 st.integers(-INT64_MAX, INT64_MAX)).filter(bool)


@st.composite
def checked_models(draw):
    """A formula of random ">=" and "=" rows and a random 0/1 model; most
    bounds lie within 1 of the row's sum under the model, and a row of
    coefficients at +/-(2^63 - 1) sums beyond int64."""
    f = PbFormula()
    nv = draw(st.integers(1, 6))
    f.new_bitvec(nv)
    model = Model((0, *draw(st.lists(st.integers(0, 1), min_size=nv, max_size=nv))))
    for _ in range(draw(st.integers(0, 6))):
        vs = draw(st.lists(st.integers(1, nv), unique=True, max_size=nv))
        terms = [(draw(COEF), v) for v in vs]
        near = sum(c for c, v in terms if model[v]) + draw(st.sampled_from([-1, 0, 0, 1]))
        bound = draw(st.sampled_from([max(-INT64_MAX - 1, min(INT64_MAX, near))] * 3
                                     + [draw(st.integers(-INT64_MAX - 1, INT64_MAX))]))
        f.add(terms, draw(st.sampled_from([GE, EQ])), bound)
    return f, model


def model_check(formula, model, core):
    """_check_model's SolverError text, or None, on one path."""
    with nullcontext() if core else python_path():
        try:
            _check_model(formula, model, "b")
        except SolverError as e:
            return str(e)
    return None


@needs_core
@given(checked_models())
@settings(max_examples=400, deadline=None)
def test_core_and_python_model_checks_agree(case):
    formula, model = case
    assert model_check(formula, model, core=True) == model_check(formula, model, core=False)


def test_wrong_sat_model_loses_the_race(tmp_path, monkeypatch):
    # The internal search starts only after the liar has exited, and
    # refuting 683 at 2 ops takes more than one slice of search, so the
    # race reads the wrong model while the search runs: it must drop it
    # and return the internal verdict.
    marker = tmp_path / "answered"
    liar = fake_solver_script(
        tmp_path, WRONG_SAT + f"open({str(marker)!r}, 'w').close()\n"
    )
    solve_mod = importlib.import_module("mcmsat.solve")

    class AfterLiarAnswers(solve_mod.RefSolver):
        def solve(self, *args, **kwargs):
            limit = time.monotonic() + 10
            while not marker.exists() and time.monotonic() < limit:
                time.sleep(0.01)
            time.sleep(0.2)  # let the liar exit
            return super().solve(*args, **kwargs)

    monkeypatch.setattr(solve_mod, "RefSolver", AfterLiarAnswers)
    enc = encode_mcm(normalize_targets([683]), EncodingConfig(ops=2))
    outcome = solve(enc.formula, [liar, "internal"], timeout=60, phases=enc.phase_hints)
    assert outcome.status == "UNSAT" and outcome.backend == "internal"


# -- decoding ------------------------------------------------------------------


def test_decode_single_op_instance():
    inst = normalize_targets([5])
    enc = encode_mcm(inst, EncodingConfig(ops=1, variant=3, trivial_precompute=False))
    outcome = solve(enc.formula, phases=enc.phase_hints)
    assert outcome.status == "SAT"
    graph = decode_solution(enc, outcome.model)
    assert graph.values() == (5,)
    assert verify_solution(inst, graph)


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_decode_worked_example(variant):
    inst = normalize_targets([29, 43])
    enc = encode_mcm(inst, EncodingConfig(ops=3, variant=variant))
    outcome = solve(enc.formula, phases=enc.phase_hints)
    graph = decode_solution(enc, outcome.model)
    assert verify_solution(inst, graph)
    assert graph.cost == 3
    assert {29, 43} <= set(graph.values())


def test_decode_tampered_model_fails():
    inst = normalize_targets([29, 43])
    enc = encode_mcm(inst, EncodingConfig(ops=3, variant=3))
    outcome = solve(enc.formula, phases=enc.phase_hints)
    values = list(outcome.model.values)
    bit = enc.op_values[0][2]
    values[bit] ^= 1
    with pytest.raises(DecodeError, match="decode failure"):
        decode_solution(enc, Model(tuple(values)))
    # A slot value above its pre-shift value: no right shift gives it.
    enc = encode_mcm(normalize_targets([45]), EncodingConfig(ops=2, right_shifts=True))
    values = list(solve(enc.formula, phases=enc.phase_hints).model.values)
    bits = enc.pre_shift_values[1]
    for i, var in enumerate(bits):
        values[var] = (15 >> (len(bits) - 1 - i)) & 1
    with pytest.raises(DecodeError, match="inconsistent right shift"):
        decode_solution(enc, Model(tuple(values)))


def test_decode_right_shift_mode():
    inst = normalize_targets([45])
    enc = encode_mcm(inst, EncodingConfig(ops=2, variant=3, right_shifts=True))
    outcome = solve(enc.formula, phases=enc.phase_hints)
    assert outcome.status == "SAT"
    graph = decode_solution(enc, outcome.model)
    assert verify_solution(inst, graph)


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_decode_every_candidate_kind(variant):
    # 3 is reachable by every kind at slot 2, so with the target bound
    # there each pinned kind is the one decoded.
    inst = normalize_targets([3])
    cfg = EncodingConfig(ops=2, variant=variant, trivial_precompute=False)
    kinds = []
    for index in range(len(encode_mcm(inst, cfg).candidates[1])):
        enc = encode_mcm(inst, cfg)
        cand = enc.candidates[1][index]
        target, members, sels = enc.binding[0]
        enc.formula.add(((1, cand.cond),), GE, 1)
        enc.formula.add(((1, sels[members.index(2)]),), GE, 1)
        outcome = solve(enc.formula, phases=enc.phase_hints)
        assert outcome.status == "SAT", cand.kind
        graph = decode_solution(enc, outcome.model)
        assert verify_solution(inst, graph), cand.kind
        assert graph.nodes[-1].value == target
        assert graph.nodes[-1].params.sign == (cand.kind not in ADDITIONS)
        kinds.append(cand.kind)
    assert len(set(kinds)) == 8


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_decode_ignores_unused_zero_slot(variant):
    # A model of the unpinned formula: 25 is bound to slot 2, and slot 3
    # computes 3 - 3 = 0 through sub_pair (1, 1).  No target depends on it.
    inst = normalize_targets([25])
    enc = encode_mcm(
        inst, EncodingConfig(ops=3, variant=variant, trivial_precompute=False)
    )
    cand = next(c for c in enc.candidates[2] if (c.kind, c.op1, c.op2) == (SUB_PAIR, 1, 1))
    enc.formula.add(((1, cand.cond),), GE, 1)
    for bit in enc.op_values[2]:  # slot 3 holds 0, whatever the search order
        enc.formula.add(((-1, bit),), GE, 0)
    outcome = solve(enc.formula, phases=enc.phase_hints)
    assert outcome.status == "SAT"
    assert outcome.model.value_of(enc.op_values[2]) == 0
    graph = decode_solution(enc, outcome.model)
    assert verify_solution(inst, graph)
    assert graph.cost == 2


def test_prune_graph_drops_unused():
    inst = normalize_targets([29, 43])
    enc = encode_mcm(inst, EncodingConfig(ops=5, variant=3))
    outcome = solve(enc.formula, phases=enc.phase_hints)
    graph = decode_solution(enc, outcome.model)
    pruned = prune_graph(graph, inst.targets)
    assert verify_solution(inst, pruned)
    assert pruned.cost <= graph.cost


def test_reorder_roots_first():
    from mcmsat.graphio import parse_graph
    from mcmsat.model import AdderGraph, AOperationParams, GraphNode
    from mcmsat.solve import _reorder_roots_first

    graph = parse_graph("7 = 1<<3 - 1\n29 = 7<<2 + 1\n3 = 1<<1 + 1\n43 = 29 + 7<<1\n")
    reordered = _reorder_roots_first(graph)
    assert [n.value for n in reordered.nodes] == [7, 3, 29, 43]
    assert [(n.left, n.right) for n in reordered.nodes] == [(0, 0), (0, 0), (1, 0), (3, 1)]
    # Node 1 reads node 2, a non-root: no order puts every operand first.
    p = AOperationParams(1, 0, 0, 0)
    graph = AdderGraph((GraphNode(15, 2, 0, p), GraphNode(7, 1, 0, p)))
    assert _reorder_roots_first(graph) is None


# -- the optimization loop ------------------------------------------------------


def test_optimal_worked_example_with_binary_bound():
    inst = normalize_targets([29, 43])
    report = optimal_mcm(inst, upper_bound=6)
    assert report.optimal_ops == 3
    assert report.proven
    assert [(ops, oc.status) for ops, oc in report.per_level] == [
        (5, "SAT"),
        (4, "SAT"),
        (3, "SAT"),
        (2, "UNSAT"),
    ]
    assert verify_solution(inst, report.graph)
    assert report.graph.cost == 3


def test_optimal_default_bound_is_recoding():
    inst = normalize_targets([29, 43])
    report = optimal_mcm(inst)
    assert report.upper_bound == csd_upper_bound(inst) == 5
    assert report.optimal_ops == 3 and report.proven


def test_optimal_single_op_constant():
    report = optimal_mcm(normalize_targets([3]), upper_bound=1)
    assert report.optimal_ops == 1
    assert report.proven
    assert report.per_level[-1][0] == 0
    assert report.per_level[-1][1].status == "UNSAT"


def test_optimal_empty_instance():
    report = optimal_mcm(normalize_targets([16]))
    assert report.optimal_ops == 0 and report.proven
    assert report.graph.cost == 0


def test_optimal_upper_bound_zero_rejected():
    with pytest.raises(McmError):
        optimal_mcm(normalize_targets([29]), upper_bound=0)


def test_optimal_timeout_keeps_best_verified(python_only):
    # Tight budget: the result may come back unproven, but whatever comes
    # back must verify.  The pure-Python path makes the timeout certain.
    inst = normalize_targets([29, 43])
    report = optimal_mcm(inst, upper_bound=6, per_level_timeout=5e-3)
    assert verify_solution(inst, report.graph)
    assert report.graph.cost <= report.optimal_ops <= heuristic_graph(inst).cost
    if not report.proven:
        assert report.per_level[-1][1].status == "UNKNOWN"


def test_optimal_skips_levels_the_graph_fits(monkeypatch):
    solve_mod = importlib.import_module("mcmsat.solve")
    solved = []
    real = solve_mod.solve_encoding

    def spy(enc, *args, **kwargs):
        solved.append(enc.cfg.ops)
        return real(enc, *args, **kwargs)

    monkeypatch.setattr(solve_mod, "solve_encoding", spy)
    inst = normalize_targets([45, 75, 105])
    report = optimal_mcm(inst)
    assert solved == [3]
    assert [(ops, oc.status) for ops, oc in report.per_level] == [
        (8, "SAT"), (7, "SAT"), (6, "SAT"), (5, "SAT"), (4, "SAT"), (3, "UNSAT"),
    ]
    witness = [(ops, oc) for ops, oc in report.per_level if ops >= 4]
    assert all(
        oc.backend == "witness" and oc.model is None and oc.elapsed == 0.0
        for _, oc in witness
    )
    assert report.optimal_ops == 4 and report.proven
    assert verify_solution(inst, report.graph)


def test_optimal_trivial_levels_recorded():
    report = optimal_mcm(normalize_targets([3, 5]), upper_bound=2)
    statuses = {ops: oc.backend for ops, oc in report.per_level}
    assert report.optimal_ops == 2 and report.proven
    assert statuses[1] == "preprocess"  # 1 op < 2 targets: counting UNSAT


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_optimal_matches_oracle_small(variant):
    from mcmsat.oracle import brute_force_optimal

    for target in (7, 21, 45, 51, 113):
        inst = normalize_targets([target])
        cost, _ = brute_force_optimal(inst)
        report = optimal_mcm(inst, cfg=EncodingConfig(ops=1, variant=variant))
        assert report.proven and report.optimal_ops == cost, target


def test_optimal_with_pinned_prefix_decodes():
    # 7 is trivially removable; 45 needs a genuine search on top of it.
    inst = normalize_targets([7, 45])
    report = optimal_mcm(inst)
    from mcmsat.oracle import brute_force_optimal

    assert report.optimal_ops == brute_force_optimal(inst)[0] == 3
    assert report.proven
    assert verify_solution(inst, report.graph)


def test_optimal_trivial_sat_level_witness():
    inst = normalize_targets([7, 21])
    report = optimal_mcm(inst)
    assert report.optimal_ops == 2 and report.proven
    assert verify_solution(inst, report.graph)
    level, outcome = report.per_level[0]
    assert outcome.backend == "witness"
    trivial = solve_encoding(encode_mcm(inst, EncodingConfig(ops=level)))
    assert trivial.status == "SAT" and trivial.backend == "preprocess"


@pytest.mark.parametrize(
    "targets, bound", [([187, 245], 4), ([29, 43], 3)], ids=["seed-fits", "no-graph-fits"]
)
def test_optimal_tight_upper_bound(targets, bound):
    from mcmsat.oracle import brute_force_optimal

    inst = normalize_targets(targets)
    report = optimal_mcm(inst, upper_bound=bound)
    assert report.proven and report.upper_bound == bound
    assert report.optimal_ops == brute_force_optimal(inst)[0] == bound
    assert verify_solution(inst, report.graph)


def test_optimal_bound_below_optimum_raises():
    with pytest.raises(McmError, match="no graph within the upper bound 2"):
        optimal_mcm(normalize_targets([29, 43]), upper_bound=2)


def test_optimal_held_out_pair_is_fast():
    # [137, 205] spent about 20 s at level 5 when the descent started from
    # the CSD bound 6; the heuristic graph fits levels 5 and 4.
    from mcmsat.oracle import brute_force_optimal

    inst = normalize_targets([137, 205])
    report = optimal_mcm(inst)
    assert report.proven
    assert report.optimal_ops == brute_force_optimal(inst)[0] == 3
    assert verify_solution(inst, report.graph)


def test_optimal_refutes_the_level_below_quickly():
    # Chronological backtracking took about 6 s and 23 s on these
    # descents, nearly all of it refuting the level below the optimum.
    from mcmsat.oracle import SearchBudgetExceeded, brute_force_optimal

    easy, hard = normalize_targets([149, 201]), normalize_targets([179, 233])
    start = time.monotonic()
    reports = [optimal_mcm(easy), optimal_mcm(hard)]
    if native.load() is not None:  # the Python search takes far longer
        assert time.monotonic() - start < 5
    assert [(r.optimal_ops, r.proven) for r in reports] == [(4, True), (5, True)]
    assert verify_solution(easy, reports[0].graph)
    assert verify_solution(hard, reports[1].graph)
    assert brute_force_optimal(easy)[0] == 4
    with pytest.raises(SearchBudgetExceeded):
        brute_force_optimal(hard)  # no graph within its 4-operation budget


def test_witness_phase_hints_first_leaf():
    from mcmsat.model import recoding_witness
    from mcmsat.refsolver import RefSolver
    from mcmsat.solve import witness_phase_hints

    inst = normalize_targets([29, 43])
    wit = recoding_witness(inst)  # the 6-op binary-style chains fold to 5
    enc = encode_mcm(inst, EncodingConfig(ops=5, variant=3))
    hints = witness_phase_hints(enc, wit)
    assert hints is not None
    solver = RefSolver(enc.formula, phases=hints)
    status, model = solver.solve()
    assert status == "SAT"
    # Warm start: the search commits to the witness with few conflicts.
    assert solver.conflicts < 100
    graph = decode_solution(enc, model)
    assert verify_solution(inst, graph)


def test_witness_hints_bail_out_cleanly():
    from mcmsat.model import recoding_witness
    from mcmsat.solve import witness_phase_hints

    inst = normalize_targets([29, 43])
    wit = recoding_witness(inst)
    # Variant 1 and undersized encodings are not hintable.
    enc_v1 = encode_mcm(inst, EncodingConfig(ops=5, variant=1))
    assert witness_phase_hints(enc_v1, wit) is None
    enc_small = encode_mcm(inst, EncodingConfig(ops=3, variant=3))
    assert witness_phase_hints(enc_small, wit) is None


def test_hinted_solve_agrees_with_unhinted():
    from mcmsat.model import recoding_witness
    from mcmsat.solve import solve_encoding

    for targets, ops in (([45], 2), ([29, 43], 3), ([29, 43], 5)):
        inst = normalize_targets(targets)
        enc = encode_mcm(inst, EncodingConfig(ops=ops, variant=3))
        plain = solve_encoding(enc, timeout=600)
        hinted = solve_encoding(enc, timeout=600, hint_graph=recoding_witness(inst))
        assert plain.status == hinted.status == "SAT"
        for out in (plain, hinted):
            graph = decode_solution(enc, out.model)
            assert verify_solution(inst, graph)


def test_optimal_pair_subtraction_warm_start():
    # The graphs decoded for (93, 99) hold a subtraction of two non-root
    # operands; the descent once crashed warm-starting from them.
    from mcmsat.oracle import brute_force_optimal

    inst = normalize_targets([93, 99])
    report = optimal_mcm(inst, cfg=EncodingConfig(ops=1, variant=3))
    assert report.proven
    assert report.optimal_ops == brute_force_optimal(inst)[0] == 3
    assert verify_solution(inst, report.graph)


@pytest.mark.parametrize(
    "text, kind",
    [
        ("3 = 1<<1 + 1\n7 = 1<<3 - 1\n25 = 7<<2 - 3\n", "sub_pair_rev"),
        ("7 = 1<<3 - 1\n3 = 1<<1 + 1\n25 = 7<<2 - 3\n", "sub_pair"),
    ],
    ids=["sub_pair_rev", "sub_pair"],
)
def test_witness_phase_hints_pair_subtraction(text, kind):
    from mcmsat.graphio import parse_graph
    from mcmsat.refsolver import RefSolver
    from mcmsat.solve import witness_phase_hints

    inst = normalize_targets([25])
    graph = parse_graph(text)
    assert verify_solution(inst, graph)
    enc = encode_mcm(inst, EncodingConfig(ops=3, variant=3))
    hints = witness_phase_hints(enc, graph)
    assert hints is not None
    # Slot 3 computes 28 - 3: the operand in the lower slot is the
    # minuend for sub_pair and the subtrahend for sub_pair_rev.
    chosen = [c for c in enc.candidates[2] if hints[c.cond] == 1]
    assert [(c.kind, c.op1, c.op2) for c in chosen] == [(kind, 1, 2)]
    solver = RefSolver(enc.formula, phases=hints)
    status, model = solver.solve()
    assert status == "SAT"
    assert solver.conflicts < 10
    assert verify_solution(inst, decode_solution(enc, model))


# sha256 of repr([None or sorted(hints.items()) per case]) per graph
# source, over variants 1-3 at the graph's cost - 1, cost and cost + 1,
# at the defaults and (variants 2 and 3) with every reduction off.
GOLDEN_HINTS = {
    "recoding": "1b62207e5700e38e714f085160d3e3cd45b6703c8131c47a5c96b3c9d7ff0740",
    "heuristic": "c762c47cb7756cf32dcbf06253f640c51a47c3b0d8fb32b9f279d4fd0eb18221",
    "oracle": "e4e48a33b09990e829804d7871008dd7ecb1e363f3f4e98cbfc14a2acce72673",
    "hand": "fef0dc9c46760abf6a762fa069fd0d5b4e0a3bde2388ebe6c6305f317da08190",
}
HINT_INSTANCES = ((29, 43), (45,), (21,), (11,), (105,), (3, 5), (7, 9, 23), (25,), (59,))
HAND_GRAPHS = (
    ((25,), "3 = 1<<1 + 1\n7 = 1<<3 - 1\n25 = 7<<2 - 3\n"),  # sub_pair_rev
    ((25,), "7 = 1<<3 - 1\n3 = 1<<1 + 1\n25 = 7<<2 - 3\n"),  # sub_pair
    ((21,), "7 = 1<<3 - 1\n21 = 7<<1 + 7\n"),  # slot 1 used twice
)


def test_witness_phase_hints_are_pinned():
    from mcmsat.graphio import parse_graph
    from mcmsat.model import recoding_witness
    from mcmsat.oracle import brute_force_optimal
    from mcmsat.solve import witness_phase_hints

    encodings = {}

    def cases(targets, graph):
        out = []
        for variant in (1, 2, 3):
            for ops in range(max(1, graph.cost - 1), graph.cost + 2):
                # Variant 1 is never hinted, whatever the reductions.
                for off in (False,) if variant == 1 else (False, True):
                    key = (targets, ops, variant, off)
                    if key not in encodings:
                        cfg = EncodingConfig(ops=ops, variant=variant)
                        inst = normalize_targets(list(targets))
                        encodings[key] = encode_mcm(
                            inst, cfg.improvements_off() if off else cfg
                        )
                    hints = witness_phase_hints(encodings[key], graph)
                    out.append(None if hints is None else sorted(hints.items()))
        return out

    sources = {
        "recoding": recoding_witness,
        "heuristic": heuristic_graph,
        "oracle": lambda inst: brute_force_optimal(inst)[1],
    }
    digests = {}
    for name, make in sources.items():
        found = []
        for targets in HINT_INSTANCES:
            inst = normalize_targets(list(targets))
            assert inst.bit_width <= 9
            found += cases(targets, make(inst))
        digests[name] = hashlib.sha256(repr(found).encode()).hexdigest()
    hand = []
    for targets, text in HAND_GRAPHS:
        hand += cases(targets, parse_graph(text))
    digests["hand"] = hashlib.sha256(repr(hand).encode()).hexdigest()
    assert digests == GOLDEN_HINTS


# sha256 of the concatenated format_graph texts per graph source, over
# HINT_INSTANCES and the benchmark's descent sets; the right-shift and
# variant 1 and 2 sources over HINT_INSTANCES alone.
GOLDEN_GRAPHS = {
    "heuristic": "b08873ae660b55ada50c061100e0ec4f299347561680094d9b2cf79a6d75e014",
    "recoding": "66e474e6722307de80fb9623eada152c6197fc4d5aa02b472321d31110d14cf3",
    "oracle": "94f6ad9ac10015983c4821a0cd16beac4f643c8f5071c2bb90d689c9ece87f52",
    "optimal": "336acdc31bd6d66e7507bf57ee02dae787df308e710a8d228fb000120d61e4f9",
    "oracle_r": "ca4e15148a694f01e169b308492e417f29a10780b448eda4cf4f12a86117f38a",
    "optimal_r": "e009a93f4284f6ab922f3641f4a02d45463792b20d7bf004e2f3a07938cdaaa9",
    "optimal_v1": "74c86084a7909bf0dd95ef3e013e0a450d2da22a23bad4b4adea9b938de711ab",
    "optimal_v2": "fed6c5d6cd5683f8edd0fcc24f6e6a457232373f089f08924487313e34a05e6e",
}
DESCENT_SETS = (
    (29, 43), (45, 75, 105), (163, 253), (187, 245), (241, 243), (183, 193),
    (177, 191), (197, 231), (161, 255), (197, 255), (185, 191), (175, 189),
    (223, 225), (153, 163),
)


def test_graphs_are_pinned():
    from mcmsat.graphio import format_graph
    from mcmsat.model import recoding_witness
    from mcmsat.oracle import brute_force_optimal

    def optimal(**kw):
        return lambda inst: optimal_mcm(inst, cfg=EncodingConfig(ops=1, **kw)).graph

    wide = HINT_INSTANCES + DESCENT_SETS
    sources = {
        "heuristic": (heuristic_graph, wide),
        "recoding": (recoding_witness, wide),
        "oracle": (lambda inst: brute_force_optimal(inst)[1], wide),
        "optimal": (optimal(), wide),
        "oracle_r": (lambda inst: brute_force_optimal(inst, right_shifts=True)[1],
                     HINT_INSTANCES),
        "optimal_r": (optimal(right_shifts=True), HINT_INSTANCES),
        "optimal_v1": (optimal(variant=1), HINT_INSTANCES),
        "optimal_v2": (optimal(variant=2), HINT_INSTANCES),
    }
    digests = {}
    for name, (make, sets) in sources.items():
        texts = [format_graph(make(normalize_targets(list(t)))) for t in sets]
        digests[name] = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digests == GOLDEN_GRAPHS
