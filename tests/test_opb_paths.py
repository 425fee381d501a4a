"""The OPB writer and reader, and the arena's block check, on the
compiled core and in Python.

The Python writer and reader are the reference: the core must write the
same bytes, and read a strict subset of the texts the Python reader
reads, to the same arena; any text it refuses goes to the Python reader.
The Python row checks of `PbFormula.add_rows` are the reference for the
core's block check; they word every refusal on both paths.
"""

import ctypes
from contextlib import nullcontext

import pytest
import test_encoder
import test_pb
from conftest import needs_core, python_path
from hypothesis import given, settings
from hypothesis import strategies as st
from test_pb import COEFS, INT64_MAX, INT64_MIN

from mcmsat import native
from mcmsat.pb import EQ, GE, INT32_MAX, SAT, PbError, PbFormula, parse_opb
from mcmsat.solve import solve

@pytest.mark.parametrize("targets,variant", test_encoder.GOLDEN_OPB)
def test_pinned_bytes_from_the_python_writer(python_only, targets, variant):
    test_encoder.test_emitted_opb_bytes_are_pinned(targets, variant)


def test_round_trip_property_on_the_python_path(python_only):
    test_pb.test_opb_round_trip_property()


@pytest.mark.parametrize("coef, bound", [(INT64_MAX, 0), (INT64_MIN, 0), (1, INT64_MAX), (1, INT64_MIN)])
def test_int64_edges_on_the_python_path(python_only, coef, bound):
    test_pb.test_int64_edges_are_kept(coef, bound)


@pytest.mark.parametrize("coef, bound", [(2**63, 0), (INT64_MIN - 1, 0), (1, 2**63), (1, INT64_MIN - 1)])
def test_beyond_int64_on_the_python_path(python_only, coef, bound):
    test_pb.test_beyond_int64_is_refused_never_truncated(coef, bound)


@pytest.mark.parametrize("header", ["* #variable= 2 #constraint= 1 and then anything", "*#variable=2#constraint=1;;;"])
def test_header_line_read_whole_on_the_python_path(python_only, header):
    test_pb.test_parse_opb_reads_the_header_line_whole(header)


def test_further_header_fields_on_the_python_path(python_only):
    test_pb.test_parse_opb_reads_further_header_fields()


def test_add_rows_agrees_with_one_row_add_on_the_python_path(python_only):
    test_pb.test_add_rows_agrees_with_one_row_add()


def test_ragged_add_rows_agrees_with_one_row_add_on_the_python_path(python_only):
    test_pb.test_ragged_add_rows_agrees_with_one_row_add()


def test_add_rows_names_the_first_bad_row_on_the_python_path(python_only):
    test_pb.test_add_rows_names_the_first_bad_row()


@pytest.mark.parametrize("column", range(3))
@pytest.mark.parametrize("value", [2.0, None, "2"])
def test_a_value_not_an_integer_on_the_python_path(python_only, column, value):
    test_pb.test_a_value_not_an_integer_is_refused_whole(column, value)


def test_long_rows_on_the_python_path(python_only):
    test_pb.test_long_rows_are_checked_for_repeats()


CORE_CALLS = ("mcm_check_block", "mcm_emit", "mcm_parse", "mcm_build", "mcm_new", "mcm_run",
              "mcm_stats", "mcm_free", "mcm_check_model")


@needs_core
def test_a_substituted_load_sends_all_five_sites_to_python(monkeypatch):
    core, calls = native.load(), []
    for name in CORE_CALLS:
        real = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))

    def five_sites():
        """Append a block, write and read OPB text, make and run a
        solver, and check its model."""
        f = PbFormula()
        f.add(((3, f.new_var()),), GE, 1)
        text = f.emit_opb()
        assert arena(parse_opb(text)) == arena(f)
        assert solve(f).status == SAT
        return text

    text = five_sites()
    assert list(dict.fromkeys(calls)) == list(CORE_CALLS)
    assert calls.count("mcm_parse") == 1  # one pass over the text
    calls.clear()
    with python_path():
        assert five_sites() == text
    assert calls == []


def arena(f):
    return f.var_count, f.coefs, f.vars, f.row_ptr, f.bounds, f.relations


def read(text, core):
    """parse_opb's arena, or the text of its PbError, on one path."""
    with nullcontext() if core else python_path():
        try:
            return arena(parse_opb(text))
        except PbError as e:
            return str(e)


def edge_formulas():
    """Numbers on each side of every digit count, of uint32 and of int64:
    as coefficients and bounds, then as variable indices up to INT32_MAX
    (var_count set directly, no variables allocated)."""
    values = PbFormula()
    a, b = values.new_var(), values.new_var()
    for v in [m for k in range(1, 19) for m in (10**k - 1, 10**k)] + [2**32 - 1, 2**32, INT64_MAX]:
        for x in (v, -v):
            values.add(((x, a), (1, b)), GE, x)
            values.add(((x, b),), EQ, -x)
    values.add(((INT64_MIN, a), (INT64_MIN, b)), GE, INT64_MIN)
    indices = PbFormula()
    indices.var_count = INT32_MAX
    for v in [m for k in range(1, 10) for m in (10**k - 1, 10**k)] + [INT32_MAX]:
        indices.add(((1, 1), (-1, v)), EQ, 0)
    return values, indices


@needs_core
@pytest.mark.parametrize("f", edge_formulas(), ids=["values", "indices"])
def test_the_core_writes_numbers_of_every_length(f):
    core, n = native.load(), len(f.bounds)
    counted = core.mcm_emit(0, n, *native._arena(f), None)
    out = ctypes.create_string_buffer(b"#" * (counted + 1))
    assert core.mcm_emit(0, n, *native._arena(f), out) == counted
    assert out.raw[counted:] == b"#\0"  # not a byte beyond the count
    text = f.emit_opb()
    with python_path():
        assert f.emit_opb() == text
    assert text.endswith(out.raw[:counted].decode())
    assert read(text, core=True) == read(text, core=False) == arena(f)


@needs_core
def test_every_single_edit_reads_alike_on_both_paths():
    f = PbFormula()
    x = f.new_bitvec(12)
    f.add(((1, x[0]), (-2, x[2])), GE, -1)
    f.add(((1, x[1]),), EQ, 1)
    f.add(((12, x[11]), (1, x[0]), (-1, x[9])), GE, -10)
    f.add(((-7, x[3]), (30, x[4])), EQ, 23)
    f.add(((5, x[10]), (1, x[5]), (1, x[6]), (1, x[7])), GE, 2)
    f.add(((100, x[7]), (-3, x[8]), (1, x[11])), GE, 99)
    f.add(((2, x[5]), (1, x[9])), EQ, 0)
    f.annotations[3] = "note"
    text = f.emit_opb(include_annotations=True)
    for i in range(len(text) + 1):
        for edited in [text[:i] + text[i + 1:]] + [text[:i] + c + text[j:] for c in " \t\n+-=>;x*0123456789<"
                                                   for j in (i, i + 1)]:
            assert read(edited, core=True) == read(edited, core=False), edited


BLANK = st.sampled_from([" ", "\t", "  ", " \t "])
MAYBE_BLANK = st.sampled_from(["", "", " ", "\t"])
ZEROS = st.sampled_from(["", "", "0", "00"])


@st.composite
def numbers(draw, value, sign=False):
    """value in decimal, with or without '+', with leading zeros or not."""
    plus = draw(st.sampled_from(["+"] if sign else ["", "+"]))
    return ("-" if value < 0 else plus) + draw(ZEROS) + str(abs(value))


@st.composite
def rows(draw, coefs, vs, relation, bound):
    line = draw(MAYBE_BLANK)
    for coef, var in zip(coefs, vs):
        line += draw(numbers(coef, draw(st.booleans()))) + draw(MAYBE_BLANK) + "x"
        line += draw(ZEROS) + str(var) + draw(BLANK)
    return line + relation + draw(MAYBE_BLANK) + draw(numbers(bound)) + draw(MAYBE_BLANK) + ";" + draw(MAYBE_BLANK)


BAD_ROWS = ["zero coefficient", "repeated variable", "variable beyond the header", "beyond int64"]
BAD_TEXTS = ["<=", "no ;", "\r\n", "\x0c", "\xa0", "wrong count"]


@st.composite
def opb_texts(draw):
    """OPB texts written in the varied ways the Python reader reads,
    perturbed or not by one fault it refuses."""
    nvars = draw(st.integers(1, 5))
    specs = []
    for _ in range(draw(st.integers(0, 5))):
        vs = draw(st.lists(st.integers(1, nvars), unique=True, max_size=nvars))
        specs.append(([draw(COEFS) for _ in vs], vs, draw(st.sampled_from(["=", ">="])),
                      draw(st.integers(INT64_MIN, INT64_MAX))))
    fault = draw(st.sampled_from([None] * 6 + BAD_ROWS + BAD_TEXTS))
    bad = {
        "zero coefficient": ([0], [1], ">=", 0),
        "repeated variable": ([1, 2], [1, 1], ">=", 1),
        "variable beyond the header": ([1], [nvars + 1], ">=", 1),
        "beyond int64": ([draw(st.sampled_from([1, 2**63, INT64_MIN - 1]))], [1], "=",
                         draw(st.sampled_from([2**63, INT64_MIN - 1]))),
    }
    if fault in bad:
        specs.insert(draw(st.integers(0, len(specs))), bad[fault])
    lines, row_lines = [], []
    for spec in specs:
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", "* a comment", " *\tnote", "*",
                                                "* +1 x1 >= 1 ;", "*x;x"]), max_size=2))
        row_lines.append(len(lines))
        lines.append(draw(rows(*spec)))
    count = len(specs) + (draw(st.sampled_from([-1, 1])) if fault == "wrong count" else 0)
    header = ("*" + draw(MAYBE_BLANK) + "#variable=" + draw(MAYBE_BLANK) + draw(ZEROS) + str(nvars)
              + draw(BLANK) + "#constraint=" + draw(MAYBE_BLANK) + str(count) + draw(MAYBE_BLANK))
    text = "\n".join([header] + lines) + draw(st.sampled_from(["\n", ""]))
    if fault in ("<=", "no ;") and specs:
        n = draw(st.sampled_from(row_lines))
        if fault == "no ;":
            lines[n] = lines[n].replace(";", "")
        else:
            lines[n] = lines[n].replace(">=" if ">=" in lines[n] else "=", "<=")
        text = "\n".join([header] + lines) + "\n"
    elif fault == "\r\n":
        text = text.replace("\n", "\r\n", draw(st.integers(1, 3)))
    elif fault in ("\x0c", "\xa0"):
        old = "\n" if fault == "\x0c" else " "
        spots = [i for i, c in enumerate(text) if c == old]
        if spots:
            i = draw(st.sampled_from(spots))
            text = text[:i] + fault + text[i + 1:]
    return text


@needs_core
@given(opb_texts())
@settings(max_examples=400, deadline=None)
def test_core_and_python_readers_agree(text):
    python = read(text, core=False)
    assert read(text, core=True) == python
    # What the core's own reader accepts, the Python reader accepts alike.
    read_on_core = native.parse(text, PbFormula())
    if read_on_core is not None:
        assert arena(read_on_core) == python


def append(block, core):
    """add_rows's arena, or the text of its PbError, on one path."""
    nv, k, coefs, vs, bounds, relation, note = block
    f = PbFormula()
    f.new_bitvec(nv)
    with nullcontext() if core else python_path():
        return test_pb.outcome(lambda: f.add_rows(k, coefs, vs, bounds, relation, note)) or test_pb.arena(f)


@needs_core
@given(test_pb.blocks())
@settings(max_examples=300, deadline=None)
def test_core_and_python_block_checks_agree(block):
    assert append(block, core=True) == append(block, core=False)


@needs_core
@pytest.mark.parametrize("text", [
    "* #variable= 3 #constraint= 2\n+1 x1 -2 x3 >= -1 ;\n+1 x2 = 1 ;\n",
    "*#variable=3\t#constraint=002  \n\n  * a comment\n\t3x1  -02\tx03 >=+1;\t\n = -0 ;",
    "* #variable= 0 #constraint= 0",
    f"* #variable= 1 #constraint= 2\n{INT64_MIN} x1 >= {INT64_MAX} ;\n{INT64_MAX} x1 = {INT64_MIN} ;\n",
    "* #variable= 2 #constraint= 1\n* x1 x2 ; x ;;\n+1 x1 +1 x2 >= 1 ;\n*x\n",
    # The largest declared count, of which the text holds only two variables.
    "* #variable= 2147483647 #constraint= 1\n+1 x1 +1 x2 >= 1 ;\n",
    # The largest variable, whose repeat check takes no memory by its index.
    "* #variable= 2147483647 #constraint= 1\n+1 x2147483647 >= 1 ;\n",
    # A row longer than PAIRWISE_MAX terms, checked for repeats in a sorted copy.
    "* #variable= 200 #constraint= 1\n" + "".join(f"+1 x{v} " for v in range(200, 0, -2)) + ">= 1 ;\n",
])
def test_the_core_reads_the_texts_it_should(text):
    # The core reads these itself rather than handing them to Python.
    read_on_core = native.parse(text, PbFormula())
    assert read_on_core is not None and arena(read_on_core) == read(text, core=False)


@needs_core
@pytest.mark.parametrize("declared", [0, 2])
def test_a_header_count_that_misses_the_rows_is_refused_on_both_paths(declared):
    # One row, and a comment whose ";" would make room for a second.
    text = f"* #variable= 1 #constraint= {declared}\n* x1 >= 1 ;\n+1 x1 >= 1 ;\n"
    assert native.parse(text, PbFormula()) is None
    assert read(text, core=True) == read(text, core=False) == f"header declares {declared} constraints, found 1"


@needs_core
def test_a_repeat_after_the_stamp_grows_is_refused_on_both_paths():
    # A repeat around a larger variable, in a short row.
    text = "* #variable= 9 #constraint= 1\n+1 x1 +1 x9 +1 x1 >= 1 ;\n"
    assert native.parse(text, PbFormula()) is None
    assert read(text, core=True) == read(text, core=False)
    assert "repeat" in read(text, core=False)


@needs_core
@pytest.mark.parametrize("first", [1, 199])
def test_a_repeat_in_a_row_longer_than_pairwise_max_is_refused_on_both_paths(first):
    # 101 terms, found repeated in the core's sorted copy of the row.
    row = "".join(f"+1 x{v} " for v in range(200, 0, -2))
    text = f"* #variable= 200 #constraint= 1\n+1 x{first} {row}+1 x{first} >= 1 ;\n"
    assert native.parse(text, PbFormula()) is None
    assert read(text, core=True) == read(text, core=False)
    assert "repeat" in read(text, core=False)
