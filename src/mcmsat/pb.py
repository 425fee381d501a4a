"""Pseudo-Boolean formulas: 0-1 variables, linear constraints, OPB text I/O.

Variables are dense 1-based integers.  A constraint is a list of
(coefficient, variable) terms, a relation (">=" or "="), and an integer
bound.  A formula keeps all rows in one append-only arena of flat arrays
(after MiniSat+ and RoundingSat): row i is coefs[j], vars[j] for j in
row_ptr[i]:row_ptr[i + 1], bound bounds[i], relation RELATIONS[relations[i]].
Every row enters the arena through one checked append, `add_rows`, which
takes a block of rows of one length or of a list of lengths, as flat
lists or typed arrays (`add` is its one-row case); the gadget templates
and the Python OPB reader append through it too.  A coefficient or bound
beyond int64, or a value that is no integer, is refused with PbError,
never truncated, and a refused block leaves the arena as it was.  A
block is appended first, its row starts included, the arrays' own
appends checking each value's type and range, and then its rows are
checked: in one core pass (native.check_block), or by `_refusal` where
no core loads; a refused block is cut off again (`cut`).  `_refusal` is
the reference and the fallback, and words every refusal on both paths.
Appending keeps counts and OPB output reproducible byte for byte.
"""

from __future__ import annotations

import ctypes
import logging
import re
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat

from . import native
from .model import McmError

log = logging.getLogger(__name__)

GE = ">="
EQ = "="
RELATIONS = (GE, EQ)  # by the relation code kept in the arena
INT64_MIN, INT64_MAX, INT32_MAX = -1 << 63, (1 << 63) - 1, (1 << 31) - 1
PAIRWISE_MAX = 64  # longest row whose repeats the core checks, pairwise

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


def _keep_mmap_threshold() -> None:
    """Hold glibc's mmap threshold at its default of 128 KiB.

    By default glibc raises the threshold to the size of each mapped block
    that is freed, up to 32 MiB.  Once a formula's arrays and OPB text have
    been freed, the next formula's buffers then grow the heap, which keeps
    their pages after they are freed: building a second wide formula
    peaked 20-30 MB above building one.  Setting the threshold turns that
    adjustment off, so a buffer of 128 KiB or more that the heap's free
    space cannot hold is mapped on its own, and its pages go back to the
    system when it is freed.
    """
    try:
        ctypes.CDLL(None).mallopt(-3, 128 * 1024)  # -3: M_MMAP_THRESHOLD
    except (AttributeError, OSError, TypeError):
        pass  # not glibc: no such setting


_keep_mmap_threshold()


class PbError(McmError):
    """Malformed constraint, out-of-range variable, or unparsable text."""


BitVec = tuple[int, ...]  # a vector of variables, the most significant bit first


def bits_of(value: int, width: int) -> tuple[int, ...]:
    """The `width` low bits of value, the most significant first."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


@dataclass(frozen=True)
class Model:
    """Total assignment: values[v] for v in 1..var_count (index 0 unused)."""

    values: tuple[int, ...]

    def __getitem__(self, var: int) -> int:
        return self.values[var]

    def value_of(self, vec: BitVec) -> int:
        out = 0
        for bit in vec:
            out = (out << 1) | self.values[bit]
        return out


Row = namedtuple("Row", "terms relation bound")  # terms: ((coefficient, variable), ...)


class PbFormula:
    """Mutable builder for a pseudo-Boolean decision instance."""

    def __init__(self) -> None:
        self.var_count = 0
        self.coefs, self.vars, self.row_ptr = array("q"), array("i"), array("q", [0])
        self.bounds, self.relations = array("q"), bytearray()
        self.annotations: dict[int, str] = {}

    def new_var(self) -> int:
        self.var_count += 1
        return self.var_count

    def new_bitvec(self, width: int) -> BitVec:
        """Allocate `width` fresh variables; the first is the most significant bit."""
        if width < 1:
            raise PbError("bitvec width must be >= 1")
        base = self.var_count
        self.var_count += width
        return tuple(range(base + 1, base + 1 + width))

    @property
    def constraints(self) -> Sequence[Row]:
        """The rows as (terms, relation, bound) records, built on access."""
        return _Rows(self)

    def add(self, terms, relation=GE, bound=0, note=None) -> int:
        """Append one row of (coefficient, variable) terms; its index."""
        coefs, vs = tuple(zip(*terms)) or ((), ())
        return self.add_rows(len(vs), list(coefs), list(vs), [bound], relation, note)

    def add_rows(self, k, coefs, vs, bounds, relation=GE, note=None) -> int:
        """Append a block of rows; the index of the first.

        k is every row's length, or a list of each row's length, and row
        r is the next k or k[r] terms of coefs and vs, bound bounds[r].
        coefs, vs and bounds are lists, tuples or arrays; an array of the
        arena's typecode ('q' for coefs and bounds, 'i' for vs) is appended
        by copying its memory.  The block is checked whole and appended
        whole; a refused block leaves nothing behind, and its PbError,
        worded by `_refusal`, names the first bad row.
        """
        idx, m = len(self.bounds), len(bounds)
        if isinstance(k, int):
            lengths, terms = [k] * m, k * m
        elif len(k) != m or min(k, default=0) < 0:
            raise PbError(f"{m} bounds for lengths {list(k)}: one length of at least 0 per row")
        else:
            lengths, terms = k, sum(k)
        if len(coefs) != terms or len(vs) != terms:
            shape = f"{m} rows of {k} terms" if isinstance(k, int) else f"rows of lengths {k}"
            raise PbError(f"{shape} need {terms} coefficients and variables")
        if m and not self._append(lengths, coefs, vs, bounds, relation):
            starts = list(accumulate(lengths, initial=0))
            for r, lo, hi in zip(range(m), starts, starts[1:]):
                if why := self._refusal(lengths[r:r + 1], coefs[lo:hi], vs[lo:hi], bounds[r:r + 1],
                                        relation):
                    raise PbError(f"row {idx + r} {list(zip(coefs[lo:hi], vs[lo:hi]))} "
                                  f"{relation!r} {bounds[r]}: {why}")
            raise AssertionError("a block was refused that _refusal takes row by row")
        self.relations += bytes([relation == EQ]) * m
        if note is not None and m:  # the note of the block's first row
            self.annotations[idx] = note
        return idx

    def _append(self, lengths, coefs, vs, bounds, relation) -> bool:
        """Append the block's terms, bounds and row starts, then check
        them; cut them off again and return False if the block is refused.

        The arrays' own appends check each value's type and range (int64
        coefficients and bounds, int32 variables); native.check_block
        checks the rest, or `_refusal` where no core loads, for rows longer
        than PAIRWISE_MAX terms and for a relation not in RELATIONS.
        """
        nrows = len(self.bounds)
        try:
            for arena, values in (self.coefs, coefs), (self.vars, vs), (self.bounds, bounds):
                same = isinstance(values, array) and values.typecode == arena.typecode
                arena.extend(values if same else array(arena.typecode, values))
            self.row_ptr[-1:] = array("q", accumulate(lengths, initial=self.row_ptr[-1]))
            first = (native.check_block(self, nrows)
                     if max(lengths) <= PAIRWISE_MAX and relation in RELATIONS else None)
            if first == len(bounds) or first is None and not self._refusal(
                    lengths, coefs, vs, bounds, relation):
                return True
        except (TypeError, OverflowError):
            pass  # a value that is no integer or beyond its array's range
        self.cut(nrows)
        return False

    def cut(self, nrows: int) -> None:
        """Drop every row from index nrows on; the annotations stay."""
        end = self.row_ptr[nrows]
        del self.coefs[end:], self.vars[end:], self.row_ptr[nrows + 1:]
        del self.bounds[nrows:], self.relations[nrows:]

    def _refusal(self, lengths, coefs, vs, bounds, relation) -> str | None:
        """Why the rows of the given lengths cannot enter the arena, or None."""
        if relation not in RELATIONS:
            return "a relation not '>=' or '='"
        if not all(hasattr(t, "__index__") for t in set(map(type, chain(coefs, vs, bounds)))):
            return "a value not an integer"  # what the arena's arrays refuse to take
        if 0 in coefs:
            return "a zero coefficient"
        if vs and not (min(vs) >= 1 and max(vs) <= min(self.var_count, INT32_MAX)):
            return "a variable not allocated"
        row_of = chain.from_iterable(map(repeat, range(len(lengths)), lengths))
        if len(set(zip(row_of, vs))) < len(vs):
            return "a repeated variable"  # within one row
        if not (INT64_MIN <= min(bounds) and max(bounds) <= INT64_MAX
                and (not coefs or INT64_MIN <= min(coefs) and max(coefs) <= INT64_MAX)):
            return "a coefficient or bound beyond int64"
        return None

    def stats(self) -> tuple[int, int]:
        return self.var_count, len(self.bounds)

    def emit_opb(self, include_annotations: bool = False) -> str:
        """Serialize to OPB text, byte-for-byte reproducible.

        Written on the compiled core when one loads; the Python writer
        below is the reference and the fallback.
        """
        notes = self.annotations if include_annotations else {}
        if (text := native.emit(self, notes)) is not None:
            return text
        coefs, vs, ptr, rels = self.coefs, self.vars, self.row_ptr, self.relations
        blocks = [f"* #variable= {self.var_count} #constraint= {len(self.bounds)}"]
        formats = {}  # by row length: "%+d x%d " per term, then relation and bound
        # In blocks of 512 rows, each joined into one string, to bound `flat`
        # and the line strings held at once.
        for start in range(0, len(self.bounds), 512):
            rows = range(start, min(start + 512, len(self.bounds)))
            base, top = ptr[start], ptr[rows[-1] + 1]
            flat = list(chain.from_iterable(zip(coefs[base:top], vs[base:top])))  # coef, var, ...
            lines = []
            for i in rows:
                if i in notes:
                    lines.append(f"* {notes[i]}")
                lo, k = ptr[i] - base, ptr[i + 1] - ptr[i]
                fmt = formats.get(k) or formats.setdefault(k, "%+d x%d " * k + "%s %d ;")
                lines.append(fmt % (*flat[2 * lo:2 * (lo + k)], RELATIONS[rels[i]], self.bounds[i]))
            blocks.append("\n".join(lines))
        blocks.append("")  # the text ends in a newline, without a copy of it
        return "\n".join(blocks)


@dataclass(frozen=True)
class _Rows(Sequence):
    """Read-only view of a formula's rows, each record built when read."""

    f: PbFormula

    def __len__(self) -> int:
        return len(self.f.bounds)

    def __iter__(self):
        f, terms = self.f, zip(self.f.coefs, self.f.vars)
        for lo, hi, rel, bound in zip(f.row_ptr, f.row_ptr[1:], f.relations, f.bounds):
            yield Row(tuple(islice(terms, hi - lo)), RELATIONS[rel], bound)

    def __getitem__(self, i: int) -> Row:
        f, i = self.f, range(len(self.f.bounds))[i]
        lo, hi = f.row_ptr[i], f.row_ptr[i + 1]
        return Row(tuple(zip(f.coefs[lo:hi], f.vars[lo:hi])), RELATIONS[f.relations[i]], f.bounds[i])


# The whole header line: the two counts, then only further "#name= <int>"
# fields such as the PB-competition "#equal=" and "#intsize=".
_HEADER_RE = re.compile(r"\*\s*#variable=\s*(\d+)\s*#constraint=\s*(\d+)(?:\s*#\w+=\s*\d+)*\s*", re.ASCII)
# One whole row: terms "[+|-]coef xvar", the relation, the bound and ";".
_ROW_RE = re.compile(r"((?:[+-]?\d+\s*x\d+\s+)*)(>=|=)\s*([+-]?\d+)\s*;", re.ASCII)


def _lines(text: str, size: int = 1 << 20):
    """text.splitlines(), split from slices of about `size` characters
    that end at a newline, so the lines of one slice at a time are held."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_opb(text: str) -> PbFormula:
    """Inverse of emit_opb; emit(parse(emit(f))) is byte-identical.

    A line is read whole or refused with PbError naming it: the relation
    "<=", a non-integer bound or any other text is not a row.  The
    compiled core, when one loads, reads a strict subset of the texts
    read here; the Python reader below is the reference and decides every
    text the core refuses.
    """
    if (f := native.parse(text, PbFormula())) is not None:
        return f
    lines = _lines(text)
    header = next(lines, "")
    m = _HEADER_RE.fullmatch(header)
    if not m:
        raise PbError(f"line 1 is not an OPB header: {header!r}")
    f = PbFormula()
    f.var_count = int(m.group(1))
    for n, line in enumerate(lines, 2):
        line = line.strip()
        if not line or line[0] == "*":
            continue
        r = _ROW_RE.fullmatch(line)
        if r is None:
            raise PbError(f"line {n} is not a '>=' or '=' row: {line!r}")
        nums = list(map(int, r[1].replace("x", " ").split()))  # coef, var, coef, ...
        try:
            f.add_rows(len(nums) // 2, nums[::2], nums[1::2], [int(r[3])], r[2])
        except PbError as e:
            raise PbError(f"line {n}: {e}") from None
    if int(m[2]) != len(f.bounds):
        raise PbError(f"header declares {m[2]} constraints, found {len(f.bounds)}")
    return f


_STATUS = {"SATISFIABLE": SAT, "UNSATISFIABLE": UNSAT, "UNKNOWN": UNKNOWN}
_LITERAL_RE = re.compile(r"(-?)x([1-9][0-9]*)")


def parse_solver_output(text: str, var_count: int):
    """Parse standard PB solver output.

    Returns (status, model): status is SAT/UNSAT/UNKNOWN and model is a
    Model for SAT, else None.  Variables not mentioned on the v-lines
    default to 0 (with a warning).
    """
    status = None
    values: dict[int, int] = {}  # by variable, of those within var_count
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            status = _STATUS.get(line[2:].strip())
            if status is None:
                raise PbError(f"unparsable solver status: {line!r}")
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                lit = _LITERAL_RE.fullmatch(tok)
                if lit is None:
                    raise PbError(f"unparsable literal {tok!r}")
                if int(lit[2]) <= var_count:
                    values[int(lit[2])] = int(not lit[1])
    if status is None:
        raise PbError("unparsable solver output: no status line")
    if status != SAT:
        return status, None
    if len(values) < var_count:
        log.warning("solver model left %d variable(s) unassigned; defaulting to 0",
                    var_count - len(values))
    return status, Model(tuple([0] + [values.get(v, 0) for v in range(1, var_count + 1)]))
