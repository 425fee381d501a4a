import ctypes
import logging
import os
import subprocess
import sys
import tracemalloc
from array import array
from contextlib import suppress
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcmsat.pb
from mcmsat.encoder import EncodingConfig, encode_mcm
from mcmsat.model import normalize_targets
from mcmsat.pb import (
    EQ,
    GE,
    PAIRWISE_MAX,
    Model,
    PbError,
    PbFormula,
    _lines,
    bits_of,
    parse_opb,
    parse_solver_output,
)


def test_bitvec_dense_allocation():
    f = PbFormula()
    vec = f.new_bitvec(4)
    assert vec == (1, 2, 3, 4)


def test_bitvec_no_reuse():
    f = PbFormula()
    assert f.new_bitvec(2) == (1, 2)
    assert f.new_bitvec(2) == (3, 4)


def test_decode_big_endian():
    f = PbFormula()
    vec = f.new_bitvec(4)
    model = Model((0, 1, 0, 1, 0))
    assert model.value_of(vec) == 10


def test_bits_of_is_the_inverse_of_value_of():
    assert bits_of(10, 4) == (1, 0, 1, 0)
    assert bits_of(10, 6) == (0, 0, 1, 0, 1, 0)
    vec = PbFormula().new_bitvec(5)
    for value in range(32):
        assert Model((0,) + bits_of(value, 5)).value_of(vec) == value


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
    f.add(tuple((1, v) for v in vec), EQ, 1)
    lines = f.emit_opb().splitlines()
    assert lines[0] == "* #variable= 3 #constraint= 1"
    assert lines[1] == "+1 x1 +1 x2 +1 x3 = 1 ;"


def test_opb_round_trip_is_byte_identical():
    f = PbFormula()
    vec = f.new_bitvec(5)
    f.add(((3, vec[0]), (-2, vec[3])), GE, -1)
    f.add(tuple((1, v) for v in vec), EQ, 2)
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
    f = PbFormula()
    f.new_var()
    with pytest.raises(PbError):
        f.add(((1, 1),), "<=", 0)
    assert f.stats() == (1, 0)


def test_constraints_view_builds_records_on_read():
    f = PbFormula()
    a, b = f.new_var(), f.new_var()
    f.add(((1, a), (-2, b)), GE, -1)
    f.add(((1, b),), EQ, 1)
    rows = f.constraints
    assert len(rows) == 2
    assert rows[0] == (((1, a), (-2, b)), GE, -1)
    assert rows[-1].terms == ((1, b),) and rows[-1].relation == EQ and rows[-1].bound == 1
    with pytest.raises(IndexError):
        rows[2]
    assert [c.bound for c in rows] == [-1, 1]


HEADER = "* #variable= 2 #constraint= 1\n"


def test_parse_opb_reads_unsigned_coefficients():
    f = parse_opb(HEADER + "3 x1 >= 1 ;\n")
    assert list(f.constraints) == [(((3, 1),), GE, 1)]
    assert f.emit_opb() == HEADER + "+3 x1 >= 1 ;\n"


@pytest.mark.parametrize(
    "row",
    [
        "+1 x1 +1 y2 >= 1 ;",
        "+1 x1 +1 x2 <= 1 ;",
        ">= 1 junk ;",
        ">= 1.5 ;",
        "+1 x1 >= 1",
        "+1 x1 x2 >= 1 ;",
        "+1 x3 >= 1 ;",
        "+1 x1 -1 x1 >= 0 ;",
        "+0 x1 >= 0 ;",
    ],
)
def test_parse_opb_refuses_a_line_it_cannot_read_whole(row):
    with pytest.raises(PbError, match="line 3"):
        parse_opb(HEADER + "* a comment\n" + row + "\n")


def test_parse_opb_refuses_less_or_equal_rather_than_reading_equal():
    # Read as "= 1", the first row would make this satisfiable formula UNSAT.
    text = "* #variable= 2 #constraint= 3\n+1 x1 +1 x2 <= 1 ;\n-1 x1 >= 0 ;\n-1 x2 >= 0 ;\n"
    with pytest.raises(PbError, match="line 2"):
        parse_opb(text)


INT64_MAX, INT64_MIN = 2**63 - 1, -(2**63)


@pytest.mark.parametrize("coef, bound", [(INT64_MAX, 0), (INT64_MIN, 0), (1, INT64_MAX), (1, INT64_MIN)])
def test_int64_edges_are_kept(coef, bound):
    f = PbFormula()
    f.add(((coef, f.new_var()),), GE, bound)
    text = f.emit_opb()
    assert text.splitlines()[1] == f"{coef:+d} x1 >= {bound} ;"
    assert parse_opb(text).emit_opb() == text


@pytest.mark.parametrize("coef, bound", [(2**63, 0), (INT64_MIN - 1, 0), (1, 2**63), (1, INT64_MIN - 1)])
def test_beyond_int64_is_refused_never_truncated(coef, bound):
    f = PbFormula()
    a, b = f.new_var(), f.new_var()
    f.add(((1, a),), GE, 0)
    before = f.emit_opb()
    with pytest.raises(PbError, match="int64"):
        f.add(((1, a), (coef, b)), GE, bound)
    assert f.emit_opb() == before  # nothing of the refused row stays
    f.add(((1, b),), GE, 1)
    assert f.constraints[1] == (((1, b),), GE, 1)
    with pytest.raises(PbError, match="line 2.*int64"):
        parse_opb(f"{HEADER}+1 x1 {coef:+d} x2 >= {bound} ;\n")


@pytest.mark.parametrize("line", ["v xfoo", "v x", "v x1 xfoo", "v -x", "v x-1", "v x0", "v 1"])
def test_parse_solver_output_unreadable_literal_raises(line):
    with pytest.raises(PbError, match="unparsable literal"):
        parse_solver_output(f"s SATISFIABLE\n{line}\n", 2)


def test_parsed_formula_memory_per_term():
    # 731951 at 5 ops, variant 1: 156,180 rows.  Flat arrays hold a term
    # in 12 bytes and a row in 17, so the whole formula stays well under
    # 24 bytes per term; one object per row or term would not.  The 4.8 MB
    # text is split into lines one slice at a time: holding all its lines
    # at once took the parse's peak 14 MB beyond what it keeps.
    text = encode_mcm(normalize_targets([731951]), EncodingConfig(ops=5, variant=1)).formula.emit_opb()
    tracemalloc.start()
    try:
        f = parse_opb(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(f.bounds) == 156180
    assert retained / len(f.coefs) < 24
    assert peak - retained < 5 * 2**20
    assert f.emit_opb() == text


@pytest.mark.parametrize("size", range(8))
def test_lines_split_in_slices_as_splitlines_does(size):
    for text in ("", "\n", "a", "a\r\nb\r\n\r\nc", "ab\rcd\n\n\x0cef\n", "\r\n\r\n"):
        assert list(_lines(text, size)) == text.splitlines()


def test_emit_opb_holds_one_block_of_lines_at_a_time():
    # The text, its blocks and one block's lines: about twice the text.
    # Holding every line until the final join took 3.7 times the text.
    f = PbFormula()
    xs = f.new_bitvec(40)
    for i in range(20000):
        f.add(((i + 1, xs[i % 40]), (-3, xs[(i + 7) % 40]), (1, xs[(i + 13) % 40])), GE, i)
    tracemalloc.start()
    try:
        text = f.emit_opb()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


_MAPPED_AFTER_FREE = """
import ctypes
import mcmsat.pb

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
big = bytearray(8 << 20)
del big
before = libc.mallinfo2().hblkhd
buf = bytearray(1 << 20)
print(libc.mallinfo2().hblkhd - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2"), reason="glibc 2.33 or later only")
def test_large_buffers_stay_mapped_after_a_larger_one_is_freed():
    # glibc would raise its mmap threshold to 8 MiB when the first buffer
    # is freed and serve the second from the heap, which keeps its pages;
    # importing mcmsat.pb holds the threshold, so the second is mapped too.
    # In a fresh process: free heap space left by other tests would hold it.
    src = Path(mcmsat.pb.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _MAPPED_AFTER_FREE], env=env,
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) >= 1 << 20


COEFS = st.one_of(
    st.integers(-3, 3), st.sampled_from([INT64_MAX, INT64_MIN, INT64_MIN + 1]), st.integers(INT64_MIN, INT64_MAX)
).filter(bool)


@st.composite
def formulas(draw):
    f = PbFormula()
    nv = draw(st.integers(0, 8))
    for _ in range(nv):
        f.new_var()
    for _ in range(draw(st.integers(0, 6))):
        vs = draw(st.lists(st.integers(1, nv), unique=True, max_size=nv)) if nv else []
        note = draw(st.sampled_from([None, "a note"]))
        relation = draw(st.sampled_from([GE, EQ]))
        f.add([(draw(COEFS), v) for v in vs], relation, draw(st.integers(INT64_MIN, INT64_MAX)), note)
    return f


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_opb_round_trip_property(f):
    text = f.emit_opb()
    parsed = parse_opb(text)
    assert parsed.emit_opb() == text
    assert list(parsed.constraints) == list(f.constraints)
    assert parse_opb(f.emit_opb(include_annotations=True)).emit_opb() == text


def arena(f):
    """Everything a formula holds, copied."""
    return (f.var_count, f.coefs.tolist(), f.vars.tolist(), f.row_ptr.tolist(), f.bounds.tolist(),
            bytes(f.relations), dict(f.annotations))


DEFECTS = ["zero coefficient", "repeated variable", "variable 0", "variable beyond var_count",
           "coefficient at 2^63", "bound at 2^63", "bad relation"]


@st.composite
def blocks(draw):
    """A block of m rows of k terms over nv variables, valid or with one defect."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(0, 50))
    nv = draw(st.integers(k, k + 3))
    coefs = [draw(COEFS) for _ in range(k * m)]
    vs = [v for _ in range(m) for v in draw(st.permutations(range(1, nv + 1)))[:k]]
    bounds = [draw(st.integers(INT64_MIN, INT64_MAX)) for _ in range(m)]
    relation = draw(st.sampled_from([GE, EQ]))
    defect = draw(st.sampled_from([None] * 3 + DEFECTS)) if m else None
    if defect:
        r = m // 2 if defect in ("coefficient at 2^63", "bound at 2^63") else draw(st.integers(0, m - 1))
        at = k * r + draw(st.integers(0, k - 1))  # a term of row r
    if defect == "zero coefficient":
        coefs[at] = 0
    elif defect == "repeated variable" and k > 1:
        vs[at] = vs[k * r + draw(st.sampled_from([p for p in range(k) if k * r + p != at]))]
    elif defect == "variable 0":
        vs[at] = 0
    elif defect == "variable beyond var_count":
        vs[at] = nv + 1
    elif defect == "coefficient at 2^63":
        coefs[at] = draw(st.sampled_from([2**63, -(2**63), INT64_MIN - 1]))
    elif defect == "bound at 2^63":
        bounds[r] = draw(st.sampled_from([2**63, -(2**63), INT64_MIN - 1]))
    elif defect == "bad relation":
        relation = draw(st.sampled_from(["<=", ">", "=="]))
    return nv, k, coefs, vs, bounds, relation, draw(st.sampled_from([None, "a note"]))


def outcome(write):
    try:
        write()
    except PbError as e:
        return str(e)
    return None


@given(blocks())
@settings(max_examples=300, deadline=None)
def test_add_rows_agrees_with_one_row_add(block):
    nv, k, coefs, vs, bounds, relation, note = block
    one, many = PbFormula(), PbFormula()
    for f in (one, many):
        f.new_bitvec(nv)
        f.add(((1, 1),), EQ, 1, note="first")  # so the named row index counts from 1

    def row_by_row():
        for r in range(len(bounds)):
            terms = zip(coefs[k * r:k * r + k], vs[k * r:k * r + k])
            one.add(terms, relation, bounds[r], note if r == 0 else None)

    before = arena(many)
    refused = outcome(row_by_row)
    assert outcome(lambda: many.add_rows(k, coefs, vs, bounds, relation, note)) == refused
    # A refused block leaves nothing behind; an accepted one is the rows one by one.
    assert arena(many) == (before if refused else arena(one))


@st.composite
def ragged_blocks(draw):
    """A block of rows of 0 to 6 terms each over nv variables, valid or
    with one defect; each of coefs, vs and bounds a list, or an array of
    the arena's typecode where its values fit one."""
    lengths = draw(st.lists(st.integers(0, 6), max_size=40))
    nv = max([1, *lengths]) + draw(st.integers(0, 3))
    starts = list(accumulate(lengths, initial=0))
    coefs = [draw(COEFS) for _ in range(starts[-1])]
    vs = [v for k in lengths for v in draw(st.permutations(range(1, nv + 1)))[:k]]
    bounds = [draw(st.integers(INT64_MIN, INT64_MAX)) for _ in lengths]
    relation = draw(st.sampled_from([GE, EQ]))
    defect = draw(st.sampled_from([None] * 3 + DEFECTS)) if starts[-1] else None
    if defect:
        r = draw(st.sampled_from([r for r, k in enumerate(lengths) if k]))  # a row with terms
        at = draw(st.integers(starts[r], starts[r + 1] - 1))
    if defect == "zero coefficient":
        coefs[at] = 0
    elif defect == "repeated variable" and lengths[r] > 1:
        vs[at] = vs[draw(st.sampled_from([p for p in range(starts[r], starts[r + 1]) if p != at]))]
    elif defect == "variable 0":
        vs[at] = 0
    elif defect == "variable beyond var_count":
        vs[at] = nv + 1
    elif defect == "coefficient at 2^63":
        coefs[at] = draw(st.sampled_from([2**63, -(2**63), INT64_MIN - 1]))
    elif defect == "bound at 2^63":
        bounds[r] = draw(st.sampled_from([2**63, -(2**63), INT64_MIN - 1]))
    elif defect == "bad relation":
        relation = draw(st.sampled_from(["<=", ">", "=="]))
    columns = []
    for values, typecode in (coefs, "q"), (vs, "i"), (bounds, "q"):
        if draw(st.booleans()):
            with suppress(OverflowError):
                values = array(typecode, values)
        columns.append(values)
    return nv, lengths, *columns, relation, draw(st.sampled_from([None, "a note"]))


@given(ragged_blocks())
@settings(max_examples=300, deadline=None)
def test_ragged_add_rows_agrees_with_one_row_add(block):
    nv, lengths, coefs, vs, bounds, relation, note = block
    one, many = PbFormula(), PbFormula()
    for f in (one, many):
        f.new_bitvec(nv)
        f.add(((1, 1),), EQ, 1, note="first")  # so the named row index counts from 1
    starts = list(accumulate(lengths, initial=0))

    def row_by_row():
        for r, lo, hi in zip(range(len(lengths)), starts, starts[1:]):
            one.add(zip(coefs[lo:hi], vs[lo:hi]), relation, bounds[r], note if r == 0 else None)

    before = arena(many)
    refused = outcome(row_by_row)
    assert outcome(lambda: many.add_rows(lengths, coefs, vs, bounds, relation, note)) == refused
    assert arena(many) == (before if refused else arena(one))


def test_add_rows_refuses_lengths_that_do_not_fit_the_block():
    f = PbFormula()
    a, b = f.new_var(), f.new_var()
    with pytest.raises(PbError, match="one length of at least 0 per row"):
        f.add_rows([2], [1, 1], [a, b], [0, 0])
    with pytest.raises(PbError, match="one length of at least 0 per row"):
        f.add_rows([3, -1], [1, 1], [a, b], [0, 0])
    with pytest.raises(PbError, match="need 3 coefficients and variables"):
        f.add_rows([1, 2], [1, 1], [a, b], [0, 0])
    assert f.stats() == (2, 0) and f.add_rows([0, 2], [1, -1], [a, b], [-1, 0]) == 0
    assert list(f.constraints) == [((), GE, -1), (((1, a), (-1, b)), GE, 0)]


def test_add_rows_names_the_first_bad_row():
    f = PbFormula()
    a, b = f.new_var(), f.new_var()
    with pytest.raises(PbError, match=r"^row 1 \[\(1, 2\), \(2, 2\)\] '>=' 0: a repeated variable$"):
        f.add_rows(2, [1, 1, 1, 2, 0, 1], [a, b, b, b, a, b], [0, 0, 0])
    with pytest.raises(PbError, match="3 rows of 2 terms need 6"):
        f.add_rows(2, [1, 1], [a, b], [0, 0, 0])
    assert f.stats() == (2, 0) and f.add_rows(2, [1, 1, 1, -1], [a, b, b, a], [1, 0], EQ, "n") == 0
    assert list(f.constraints) == [(((1, a), (1, b)), EQ, 1), (((1, b), (-1, a)), EQ, 0)]
    assert f.annotations == {0: "n"}


@pytest.mark.parametrize("column", range(3))
@pytest.mark.parametrize("value", [2.0, None, "2"])
def test_a_value_not_an_integer_is_refused_whole(column, value):
    # A float passed every row check and then failed the arena's own
    # append partway, so the terms appended before it stayed behind.
    f = PbFormula()
    a, b = f.new_var(), f.new_var()
    f.add(((1, a), (1, b)), GE, 1, note="first")
    block = [[1, 1, 1, 1], [a, b, b, a], [0, 1]]
    block[column][2 if column < 2 else 1] = value  # in row 2, the second of the block
    before = arena(f)
    with pytest.raises(PbError, match=r"^row 2 .*: a value not an integer$"):
        f.add_rows(2, *block)
    assert arena(f) == before
    f.add(((1, a),), GE, 1)
    assert f.emit_opb() == "* #variable= 2 #constraint= 2\n+1 x1 +1 x2 >= 1 ;\n+1 x1 >= 1 ;\n"


def test_long_rows_are_checked_for_repeats():
    # The core checks rows of up to PAIRWISE_MAX terms for repeats, and
    # Python checks longer ones: either way a repeat is found anywhere.
    for k in (PAIRWISE_MAX, PAIRWISE_MAX + 1):
        f = PbFormula()
        vs = list(f.new_bitvec(k))
        for at in (0, k - 2):
            bad = vs[:k - 1] + [vs[at]]
            with pytest.raises(PbError, match="^row 1 .*: a repeated variable$"):
                f.add_rows(k, [1] * 2 * k, vs + bad, [0, 0])
        assert f.add_rows(k, [1] * 2 * k, vs + vs[::-1], [0, 0]) == 0 and len(f.bounds) == 2


@pytest.mark.parametrize("header", [
    "* #variable= 2 #constraint= 1 and then anything",
    "*#variable=2#constraint=1;;;",
    "* #variable= 2 #constraint= 1 #equal=",
])
def test_parse_opb_reads_the_header_line_whole(header):
    with pytest.raises(PbError, match="line 1 is not an OPB header"):
        parse_opb(header + "\n+1 x1 >= 1 ;\n")


def test_parse_opb_reads_further_header_fields():
    f = parse_opb("* #variable= 2 #constraint= 1 #equal= 0 #intsize= 1 \n+1 x1 >= 1 ;\n")
    assert f.stats() == (2, 1) and f.emit_opb() == HEADER + "+1 x1 >= 1 ;\n"
