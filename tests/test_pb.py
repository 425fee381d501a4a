import logging

import pytest

from mcmsat.pb import (
    EQ,
    GE,
    Model,
    PbConstraint,
    PbError,
    PbFormula,
    parse_opb,
    parse_solver_output,
)


def test_bitvec_dense_allocation():
    f = PbFormula()
    vec = f.new_bitvec(4)
    assert vec.bits == (1, 2, 3, 4)


def test_bitvec_no_reuse():
    f = PbFormula()
    assert f.new_bitvec(2).bits == (1, 2)
    assert f.new_bitvec(2).bits == (3, 4)


def test_decode_big_endian():
    f = PbFormula()
    vec = f.new_bitvec(4)
    model = Model((0, 1, 0, 1, 0))
    assert model.value_of(vec) == 10


def test_add_constraint_validates_range():
    f = PbFormula()
    f.new_bitvec(4)
    with pytest.raises(PbError):
        f.add(((1, 999),), GE, 0)


def test_add_constraint_rejects_duplicates_and_zero_coef():
    f = PbFormula()
    a = f.new_var()
    with pytest.raises(PbError):
        f.add(((1, a), (2, a)), GE, 0)
    with pytest.raises(PbError):
        f.add(((0, a),), GE, 0)


def test_duplicate_constraints_are_kept():
    f = PbFormula()
    a = f.new_var()
    f.add(((1, a),), GE, 1)
    f.add(((1, a),), GE, 1)
    assert f.stats() == (1, 2)


def test_emit_single_constraint():
    f = PbFormula()
    a, b = f.new_var(), f.new_var()
    f.add(((-1, a), (-1, b)), GE, -1)
    text = f.emit_opb()
    assert text.splitlines()[1] == "-1 x1 -1 x2 >= -1 ;"


def test_emit_empty_formula():
    f = PbFormula()
    assert f.emit_opb() == "* #variable= 0 #constraint= 0\n"


def test_emit_equality_and_header():
    f = PbFormula()
    vec = f.new_bitvec(3)
    f.add(tuple((1, v) for v in vec.bits), EQ, 1)
    lines = f.emit_opb().splitlines()
    assert lines[0] == "* #variable= 3 #constraint= 1"
    assert lines[1] == "+1 x1 +1 x2 +1 x3 = 1 ;"


def test_opb_round_trip_is_byte_identical():
    f = PbFormula()
    vec = f.new_bitvec(5)
    f.add(((3, vec[0]), (-2, vec[3])), GE, -1)
    f.add(tuple((1, v) for v in vec.bits), EQ, 2)
    text = f.emit_opb()
    assert parse_opb(text).emit_opb() == text


def test_parse_opb_rejects_garbage():
    with pytest.raises(PbError):
        parse_opb("nonsense\n")
    with pytest.raises(PbError):
        parse_opb("* #variable= 1 #constraint= 1\n+1 x1\n")


def test_stats_counts():
    f = PbFormula()
    assert f.stats() == (0, 0)
    f.new_bitvec(17)
    for _ in range(3):
        f.add(((1, 1),), GE, 0)
    assert f.stats() == (17, 3)


def test_parse_solver_output_unsat():
    assert parse_solver_output("s UNSATISFIABLE\n", 3) == ("UNSAT", None)


def test_parse_solver_output_sat_with_literals():
    status, model = parse_solver_output("s SATISFIABLE\nv x1 -x2\n", 2)
    assert status == "SAT"
    assert (model[1], model[2]) == (1, 0)


def test_parse_solver_output_defaults_missing_to_zero(caplog):
    with caplog.at_level(logging.WARNING):
        status, model = parse_solver_output("s SATISFIABLE\nv x1\n", 3)
    assert status == "SAT"
    assert (model[1], model[2], model[3]) == (1, 0, 0)
    assert any("unassigned" in r.message for r in caplog.records)


def test_parse_solver_output_garbage_raises():
    with pytest.raises(PbError):
        parse_solver_output("segmentation fault\n", 2)
    with pytest.raises(PbError):
        parse_solver_output("s MAYBE\n", 2)


def test_constraint_validation():
    with pytest.raises(PbError):
        PbConstraint(((1, 1),), "<=", 0).validate()
