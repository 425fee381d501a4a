import copy
import logging
import os
import random
import re
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from itertools import product
from pathlib import Path

import pytest
from conftest import enumerate_models, needs_core, python_path

from mcmsat import native
from mcmsat.encoder import EncodingConfig, encode_mcm
from mcmsat.model import normalize_targets
from mcmsat.pb import EQ, GE, PbError, PbFormula
from mcmsat.refsolver import REDUCE_FIRST, RefSolver

ROOT = Path(__file__).resolve().parent.parent
COMPILER = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
needs_compiler = pytest.mark.skipif(COMPILER is None, reason="no C compiler")


def brute_status(f: PbFormula) -> str:
    rows = list(f.constraints)  # each read of f.constraints builds the records
    for bits in product((0, 1), repeat=f.var_count):
        ok = True
        for c in rows:
            s = sum(coef * bits[var - 1] for coef, var in c.terms)
            if (c.relation == GE and s < c.bound) or (c.relation == EQ and s != c.bound):
                ok = False
                break
        if ok:
            return "SAT"
    return "UNSAT"


def brute_models(f: PbFormula) -> set:
    out = set()
    rows = list(f.constraints)
    for bits in product((0, 1), repeat=f.var_count):
        ok = True
        for c in rows:
            s = sum(coef * bits[var - 1] for coef, var in c.terms)
            if (c.relation == GE and s < c.bound) or (c.relation == EQ and s != c.bound):
                ok = False
                break
        if ok:
            out.add(bits)
    return out


def random_formula(rng: random.Random) -> PbFormula:
    f = PbFormula()
    nv = rng.randint(1, 12)
    for _ in range(nv):
        f.new_var()
    for _ in range(rng.randint(1, 16)):
        width = rng.randint(1, min(5, nv))
        chosen = rng.sample(range(1, nv + 1), width)
        terms = tuple((rng.choice([-3, -2, -1, 1, 2, 3]), v) for v in chosen)
        rel = GE if rng.random() < 0.8 else EQ
        f.add(terms, rel, rng.randint(-4, 4))
    return f


def make_solver(f, on_core, phases=None):
    """A RefSolver that builds and searches on the compiled core, where
    one loads, or in Python."""
    with nullcontext() if on_core else python_path():
        solver = RefSolver(f, phases=phases)
    if not on_core:  # solve() picks its search when it is called
        solver.solve = python_path()(solver.solve)
    return solver


def test_toy_unsat():
    f = PbFormula()
    x = f.new_var()
    f.add(((1, x),), GE, 1)
    f.add(((-1, x),), GE, 0)
    assert RefSolver(f).solve() == ("UNSAT", None)


def test_toy_sat_returns_model():
    f = PbFormula()
    x, y = f.new_var(), f.new_var()
    f.add(((1, x), (1, y)), GE, 2)
    status, model = RefSolver(f).solve()
    assert status == "SAT"
    assert model[x] == 1 and model[y] == 1


def test_empty_formula_is_sat():
    assert RefSolver(PbFormula()).solve()[0] == "SAT"


@pytest.mark.parametrize("on_core", [False, True])
def test_completeness_against_enumeration(on_core):
    rng = random.Random(1234)
    for _ in range(200):
        f = random_formula(rng)
        status, model = make_solver(f, on_core).solve()
        assert status == brute_status(f)
        if model is not None:
            for c in f.constraints:
                s = sum(coef * model[var] for coef, var in c.terms)
                assert s >= c.bound if c.relation == GE else s == c.bound


def counters(solver):
    return solver.decisions, solver.propagations, solver.conflicts


def solve_both(f, phases=None):
    """Verdict, model and counters of the Python and the native path."""
    out = []
    for on_core in (False, True):
        solver = make_solver(f, on_core, phases)
        status, model = solver.solve()
        out.append((status, model and model.values, counters(solver)))
    return out


def test_python_and_native_agree_exactly():
    rng = random.Random(99)
    for _ in range(150):
        f = random_formula(rng)
        phases = {v: rng.randint(0, 1) for v in range(1, f.var_count + 1)}
        py, nat = solve_both(f, phases)
        assert py == nat


def clause_heavy_formula(rng: random.Random, nv: int) -> PbFormula:
    """Four to five rows per variable, most of them clauses of three or four
    literals, near where random 3-SAT turns UNSAT, and with them the rows
    that sit next to clauses in the store: one-literal rows, bound-1 rows
    with a coefficient above 1, repeated clauses, `=` rows whose halves
    are both clauses, and cardinality rows."""
    f = PbFormula()
    for _ in range(nv):
        f.new_var()
    clauses = []
    for _ in range(rng.randint(4 * nv, 5 * nv)):
        kind = rng.random()
        chosen = rng.sample(range(1, nv + 1), min(nv, rng.choice((3, 3, 3, 4))))
        signs = [rng.choice((1, -1)) for _ in chosen]
        lits = tuple(zip(signs, chosen))
        negatives = signs.count(-1)  # a literal -v reads 1 - v
        if kind < 0.80:  # a clause: a sum of literals >= 1
            clauses.append((lits, GE, 1 - negatives))
            f.add(*clauses[-1])
        elif kind < 0.81:  # one literal
            f.add(lits[:1], GE, 1 - (signs[0] < 0))
        elif kind < 0.86:  # 2x + y + z >= 1 and the like
            f.add(((2 * signs[0], chosen[0]),) + lits[1:], GE, 1 - negatives - (signs[0] < 0))
        elif kind < 0.88:  # x + y = 1: both halves are clauses
            f.add(lits[:2], EQ, 1 - signs[:2].count(-1))
        elif kind < 0.94 and clauses:
            f.add(*rng.choice(clauses))
        elif len(lits) > 3:  # a cardinality row: two of four
            f.add(lits, GE, 2 - negatives)
    return f


def test_python_and_native_agree_on_clause_heavy_formulas():
    rng = random.Random(404)
    conflicts = 0
    for i in range(170):
        f = clause_heavy_formula(rng, rng.randint(2, 10) if i < 150 else rng.randint(100, 250))
        phases = {v: rng.randint(0, 1) for v in range(1, f.var_count + 1)}
        py, nat = solve_both(f, phases)
        assert py == nat
        if f.var_count <= 10:
            assert py[0] == brute_status(f)
        conflicts += py[2][2]
    assert conflicts > 1000  # the larger formulas take a real search


def test_a_bound_one_row_is_a_clause_whatever_its_coefficients():
    f = PbFormula()
    x, y, z = f.new_var(), f.new_var(), f.new_var()
    f.add(((2, x), (1, y)), GE, 1)  # x + y >= 1
    f.add(((1, x), (1, z)), EQ, 1)  # x + z >= 1 and -x - z >= -1
    f.add(((1, y),), GE, 1)  # one literal: a counter row
    f.add(((1, x), (1, y), (1, z)), GE, 2)  # a counter row
    for on_core in (False, True):
        solver = make_solver(f, on_core)
        assert list(solver.clause_ptr) == [0, 2, 4, 6]
        assert list(solver.clause_lit) == [1, 2, 1, 3, -3, -1]
        assert solver.nrows == 2 and list(solver.bounds) == [1, 2]


@pytest.mark.parametrize("on_core", [False, True])
def test_solving_twice_repeats_verdict_model_and_counters(on_core):
    # The search copies what it writes, so the row and clause store that
    # a second solve starts from is the one the first solve started from.
    rng = random.Random(11)
    formulas = [clause_heavy_formula(rng, rng.randint(20, 120)) for _ in range(12)]
    for targets, ops in (([29, 43], 3), ([29, 43], 2), ([45], 3)):
        formulas.append(encode_mcm(normalize_targets(targets), EncodingConfig(ops=ops)).formula)
    verdicts = set()
    for f in formulas:
        solver = make_solver(f, on_core)
        store = {name: copy.copy(getattr(solver, name)) for name in STORE}
        first = solver.solve()
        once = counters(solver)
        assert solver.solve() == first and counters(solver) == once
        assert {name: getattr(solver, name) for name in STORE} == store
        verdicts.add(first[0])
    assert verdicts == {"SAT", "UNSAT"}


@pytest.mark.parametrize("on_core", [False, True])
def test_rows_beyond_int32_are_refused(on_core):
    # Truncated to int32, the first row would read 0*x1 + x2 >= 0: SAT.
    f = PbFormula()
    x1, x2 = f.new_var(), f.new_var()
    f.add(((2**32, x1), (1, x2)), GE, 2**32)
    f.add(((-1, x1),), GE, 0)
    with pytest.raises(PbError, match="int32"):
        make_solver(f, on_core).solve()
    # |2^62| + |-2^62| is beyond int64: wrapped to -2^63, the row would
    # read as a root conflict, and this formula is SAT.
    f = PbFormula()
    x1, x2 = f.new_var(), f.new_var()
    f.add(((2**62, x1), (-(2**62), x2)), GE, 0)
    with pytest.raises(PbError, match="int32"):
        make_solver(f, on_core).solve()


def huge_clause_formula():
    """Clauses whose coefficients sum beyond int32 and int64, and one tie."""
    f = PbFormula()
    x = [f.new_var() for _ in range(4)]
    f.add(((2**40, x[0]), (1, x[1])), GE, 1)
    # Literals -x1 (2^63), x2 (5), x3 (2^40) and x4 (2^62): the sort key
    # clamps the three beyond int32 alike, so they go by literal.
    f.add(((-(2**63), x[0]), (5, x[1]), (2**40, x[2]), (2**62, x[3])), GE, 1 - 2**63)
    # x1 true and x2, x4 false: the second clause forces x3.
    f.add(((1, x[0]),), GE, 1)
    f.add(((-1, x[1]),), GE, 0)
    f.add(((-1, x[3]),), GE, 0)
    return f


@pytest.mark.parametrize("on_core", [False, True])
def test_clauses_beyond_int32_are_taken(on_core):
    f = huge_clause_formula()
    solver = make_solver(f, on_core)
    assert list(solver.clause_ptr) == [0, 2, 6]
    assert list(solver.clause_lit) == [1, 2, -1, 3, 4, 2]
    assert solver.nrows == 3
    status, model = solver.solve()
    assert status == brute_status(f) == "SAT"
    assert model.values == (0, 1, 0, 1, 0)
    # The = row's <= half is a counter row of bound 2^40: still refused.
    f.add(((2**40, f.new_var()), (1, f.new_var())), EQ, 1)
    with pytest.raises(PbError, match="int32"):
        make_solver(f, on_core)


@pytest.mark.parametrize("on_core", [False, True])
def test_int64_edge_rows_that_need_no_int32_store(on_core):
    # -2^63 x1 >= -2^63 holds for either value: its >= bound is 0, so
    # the row is dropped before its total (2^63) is checked.
    f = PbFormula()
    x1 = f.new_var()
    f.add(((-(2**63), x1),), GE, -(2**63))
    solver = make_solver(f, on_core)
    assert (solver.nrows, solver.root_conflict) == (0, False)
    assert solver.solve()[0] == "SAT"
    # x1 >= 2^62 cannot hold: its bound exceeds its total, a root conflict.
    f.add(((1, x1),), GE, 2**62)
    solver = make_solver(f, on_core)
    assert (solver.nrows, solver.root_conflict) == (0, True)
    assert solver.solve() == ("UNSAT", None)


STORE = ("row_ptr", "row_coef", "row_lit", "bounds", "maxposs", "pos_ptr", "pos_row",
         "pos_coef", "neg_ptr", "neg_row", "neg_coef", "clause_ptr", "clause_lit",
         "root_conflict")


def assert_same_store(f):
    py, nat = (make_solver(f, n) for n in (False, True))
    for name in STORE:
        assert getattr(py, name) == getattr(nat, name), name
        assert type(getattr(py, name)) is type(getattr(nat, name)), name
    # Clauses live in the clause store alone: no counter row is one, and
    # the occurrence lists name counter rows only.
    sizes = [hi - lo for lo, hi in zip(py.row_ptr, py.row_ptr[1:])]
    assert not any(b == 1 and n > 1 for b, n in zip(py.bounds, sizes))
    assert all(r < py.nrows for r in py.pos_row + py.neg_row)
    assert len(py.pos_row) + len(py.neg_row) == len(py.row_lit)
    assert all(hi - lo > 1 for lo, hi in zip(py.clause_ptr, py.clause_ptr[1:]))


@needs_core
def test_native_and_python_build_the_same_row_store():
    rng = random.Random(7)
    for _ in range(150):
        assert_same_store(random_formula(rng))
        assert_same_store(clause_heavy_formula(rng, rng.randint(2, 12)))
    assert_same_store(PbFormula())
    f = PbFormula()
    x = [f.new_var() for _ in range(8)]  # x[6] and x[7] are in no row
    f.add(((2, x[0]), (-3, x[1]), (1, x[2])), EQ, 1)
    f.add(((-2, x[0]), (-1, x[3])), GE, -2)
    f.add(((3, x[4]), (-3, x[2]), (3, x[1]), (-3, x[5])), GE, 1)  # ties: by literal
    f.add(((1, x[0]), (1, x[1])), GE, 0)  # bound <= 0: dropped
    f.add(((-1, x[2]),), GE, -1)  # dropped too
    f.add(((1, x[3]), (-1, x[4])), EQ, 0)
    f.add(((1, x[5]),), EQ, 2)  # a root conflict, kept rows around it
    assert_same_store(f)
    assert_same_store(huge_clause_formula())
    for variant in (1, 2, 3):
        enc = encode_mcm(normalize_targets([29, 43]), EncodingConfig(ops=3, variant=variant))
        assert_same_store(enc.formula)


def test_compiled_core_loads_where_a_compiler_exists():
    # A failed compile falls back to Python silently, which would send
    # both sides of every Python/native agreement test through Python.
    if os.environ.get("MCMSAT_NO_NATIVE") or COMPILER is None:
        pytest.skip("no C compiler, or the core is switched off")
    assert native.load() is not None


def test_no_native_is_read_once_per_process():
    # A process started with it set runs every site in Python.
    code = ("from mcmsat import native\nfrom mcmsat.pb import PbFormula\n"
            "assert native.load() is None and native.build(PbFormula()) is None\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, MCMSAT_NO_NATIVE="1"),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@needs_core
def test_the_core_refuses_a_row_beyond_int32_itself(monkeypatch):
    monkeypatch.setattr(RefSolver, "_build", lambda *_: pytest.fail("the Python build ran"))
    f = PbFormula()
    x1, x2 = f.new_var(), f.new_var()
    f.add(((2**32, x1), (1, x2)), GE, 2**32)
    with pytest.raises(PbError, match="int32"):
        RefSolver(f)


@needs_core
def test_a_core_that_cannot_start_a_search_raises(monkeypatch):
    # Rather than run the far slower Python search in its place.
    core = native.load()

    class NoContext:
        def __getattr__(self, name):
            return getattr(core, name)

        def mcm_new(self, *_):
            return None  # what the core returns when it cannot allocate

    f = PbFormula()
    x, y = f.new_var(), f.new_var()
    f.add(((1, x), (1, y)), GE, 2)
    solver = RefSolver(f)
    monkeypatch.setattr(native, "load", lambda: NoContext())
    with pytest.raises(MemoryError):
        solver.solve()


@needs_compiler
def test_compiled_core_has_no_warnings(tmp_path):
    proc = subprocess.run(
        [COMPILER, "-Wall", "-Wextra", "-Werror", "-O1", "-shared", "-fPIC", str(native.SOURCE),
         "-o", str(tmp_path / "mcmcore.so")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_one_optimization_boundary_follows_the_search():
    # What runs per search step or per appended block is compiled at -O1,
    # what runs once per formula or search after the one O0 pragma.
    text = native.SOURCE.read_text()
    assert text.count("#pragma GCC optimize") == 1
    boundary = text.index("#pragma GCC optimize")
    defined = {name: re.search(rf"^\w.*\b{name}\(", text, re.M).start()
               for name in ("mcm_run", "propagate", "watch", "analyze", "reduce", "by_key",
                            "mcm_check_block", "mcm_new", "mcm_build", "mcm_emit", "mcm_parse",
                            "mcm_check_model")}
    assert [name for name, at in defined.items() if at < boundary] == [
        "mcm_run", "propagate", "watch", "analyze", "reduce", "by_key", "mcm_check_block"]


@needs_compiler
def test_the_cache_is_named_by_the_compiled_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    source = tmp_path / "core.c"
    source.write_bytes(native.SOURCE.read_bytes())
    monkeypatch.setattr(native, "SOURCE", source)
    first = native._compile()
    source.write_bytes(source.read_bytes().replace(b"/* The", b"/* the", 1))
    second = native._compile()
    assert first and second and first.name != second.name
    # Compiled in place: the cache holds the two libraries and nothing else.
    assert {p.name for p in (tmp_path / "cache" / "mcmsat").iterdir()} == {first.name, second.name}


@needs_compiler
def test_a_failed_compile_logs_why(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    broken = tmp_path / "broken.c"
    broken.write_text("int f(void) {\n    return undeclared_name;\n}\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    with caplog.at_level(logging.INFO, logger=native.log.name):
        assert native._compile() is None
    # once per compiler executable: where cc is gcc, gcc is not tried again
    compilers = {os.path.realpath(path) for path in map(shutil.which, ("cc", "gcc", "clang")) if path}
    assert caplog.text.count("undeclared_name") == len(compilers) > 0
    assert list((tmp_path / "mcmsat").iterdir()) == []  # no temporary library left


def test_core_c_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "core.c" in config["tool"]["setuptools"]["package-data"]["mcmsat"]


@needs_core
def test_standalone_driver_repeats_the_core_search(tmp_path):
    store = subprocess.run([sys.executable, str(ROOT / "tools" / "dump_store.py"), "3", "821"],
                           capture_output=True, check=True, timeout=120).stdout
    driver = tmp_path / "core_driver"
    subprocess.run([COMPILER, "-O1", "-Wall", "-Wextra", "-Werror", str(ROOT / "tools" / "core_driver.c"),
                    "-o", str(driver)], capture_output=True, check=True, timeout=120)
    verdict, *counters = subprocess.run([str(driver)], input=store, capture_output=True,
                                        check=True, timeout=120).stdout.decode().split()
    enc = encode_mcm(normalize_targets([821]), EncodingConfig(ops=3))
    solver = RefSolver(enc.formula, phases=enc.phase_hints)
    assert solver.solve()[0] == verdict == "UNSAT"
    assert counters[:3] == [f"decisions={solver.decisions}", f"propagations={solver.propagations}",
                            f"conflicts={solver.conflicts}"]


def test_int32_max_coefficient_solves_on_both_paths():
    big = 2**31 - 1
    f = PbFormula()
    x1, x2 = f.new_var(), f.new_var()
    f.add(((big, x1),), GE, big)
    f.add(((-big, x2),), GE, 0)
    results = [make_solver(f, n).solve() for n in (False, True)]
    assert results[0] == results[1]
    assert results[0][0] == "SAT" and results[0][1].values == (0, 1, 0)
    f.add(((big, x2),), GE, 1)
    assert [make_solver(f, n).solve()[0] for n in (False, True)] == ["UNSAT"] * 2


def test_enumerate_models_is_exhaustive():
    rng = random.Random(5)
    for _ in range(60):
        f = random_formula(rng)
        if f.var_count > 10:
            continue
        got = {m.values[1:] for m in enumerate_models(f)}
        assert got == brute_models(f)


def test_enumerate_models_limit():
    f = PbFormula()
    vec = f.new_bitvec(4)
    f.add(tuple((1, v) for v in vec), GE, 0)
    assert len(enumerate_models(f, limit=5)) == 5


def test_budget_exhaustion_returns_unknown():
    # A hard-ish satisfiable formula, stopped at the first check.
    f = PbFormula()
    vs = [f.new_var() for _ in range(30)]
    for i in range(0, 28):
        f.add(((1, vs[i]), (1, vs[i + 1]), (-1, vs[(i + 2) % 30])), GE, 0)
    f.add(tuple((1, v) for v in vs), EQ, 15)
    status, model = make_solver(f, False).solve(stop=lambda: True)
    assert status in ("UNKNOWN", "SAT", "UNSAT")  # must not hang or crash


def test_timeout_returns_unknown():
    import time

    f = PbFormula()
    vs = [f.new_var() for _ in range(60)]
    # Pigeonhole-flavored: 31 disjoint pairs forced, parity twisted.
    f.add(tuple((1, v) for v in vs), EQ, 31)
    for i in range(0, 60, 2):
        f.add(((1, vs[i]), (1, vs[i + 1])), EQ, 1)
    start = time.monotonic()
    deadline = start + 0.2
    status, _ = make_solver(f, False).solve(
        stop=lambda: time.monotonic() > deadline
    )
    assert time.monotonic() - start < 30
    # 30 pairs x exactly one = 30 total, but 31 required: UNSAT, and small
    # enough that even the slow path may finish; both outcomes valid here.
    assert status in ("UNSAT", "UNKNOWN")


def test_deterministic_repeat():
    rng = random.Random(7)
    f = random_formula(rng)
    first = RefSolver(f).solve()
    for _ in range(3):
        assert RefSolver(f).solve() == first


def test_completeness_up_to_twenty_vars():
    # A few larger formulas against exhaustive enumeration.
    rng = random.Random(2718)
    for _ in range(3):
        f = PbFormula()
        for _ in range(rng.randint(16, 20)):
            f.new_var()
        for _ in range(rng.randint(6, 20)):
            width = rng.randint(1, 5)
            chosen = rng.sample(range(1, f.var_count + 1), width)
            terms = tuple((rng.choice([-2, -1, 1, 2]), v) for v in chosen)
            f.add(terms, GE if rng.random() < 0.8 else EQ, rng.randint(-3, 3))
        assert RefSolver(f).solve()[0] == brute_status(f)


def test_python_and_native_agree_on_encodings():
    for targets, ops, variant in (
        ([29, 43], 2, 3),
        ([29, 43], 3, 1),
        ([45], 2, 2),
        ([21], 2, 3),
    ):
        enc = encode_mcm(normalize_targets(targets), EncodingConfig(ops=ops, variant=variant))
        py, nat = solve_both(enc.formula, enc.phase_hints)
        assert py == nat, (targets, ops, variant)


def test_python_and_native_agree_past_restarts_and_reduction():
    # Optimum 5: refuting 4 ops takes about 3,000 conflicts, so the search
    # restarts more than ten times and deletes learned clauses once.
    enc = encode_mcm(normalize_targets([137, 171, 227]), EncodingConfig(ops=4))
    py, nat = solve_both(enc.formula, enc.phase_hints)
    assert py == nat
    assert py[0] == "UNSAT" and REDUCE_FIRST < py[2][2] < 5000


@needs_core
def test_ten_bit_constants_refuted_at_three_ops():
    # Each has optimum 4; chronological backtracking took 4.65M decisions
    # to refute any of them at 3 ops.
    for constant in (683, 691, 731, 811, 821, 843, 851, 853):
        enc = encode_mcm(normalize_targets([constant]), EncodingConfig(ops=3))
        start = time.monotonic()
        assert RefSolver(enc.formula, phases=enc.phase_hints).solve()[0] == "UNSAT"
        assert time.monotonic() - start < 5, constant


@needs_core
def test_core_search_counters_are_pinned():
    # About 10,000 conflicts each, so the activities pass a rescale
    # (after about 4,500 conflicts), which the agreement tests never reach.
    for constant, counters in ((821, (16570, 342395, 9672)), (683, (17420, 362196, 10412))):
        enc = encode_mcm(normalize_targets([constant]), EncodingConfig(ops=3))
        solver = RefSolver(enc.formula, phases=enc.phase_hints)
        assert solver.solve()[0] == "UNSAT"
        assert (solver.decisions, solver.propagations, solver.conflicts) == counters, constant
