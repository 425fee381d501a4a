"""Pseudo-Boolean formulas: 0-1 variables, linear constraints, OPB text I/O.

Variables are dense 1-based integers.  A constraint is a list of
(coefficient, variable) terms, a relation (">=" or "="), and an integer
bound.  Construction is append-only so that constraint counts and OPB
output are reproducible byte for byte.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .model import McmError

log = logging.getLogger(__name__)

GE = ">="
EQ = "="

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


class PbError(McmError):
    """Malformed constraint, out-of-range variable, or unparsable text."""


@dataclass(frozen=True)
class PbConstraint:
    terms: tuple[tuple[int, int], ...]  # (coefficient, variable)
    relation: str = GE
    bound: int = 0

    def validate(self) -> None:
        if self.relation not in (GE, EQ):
            raise PbError(f"bad relation {self.relation!r}")
        seen = set()
        for coef, var in self.terms:
            if coef == 0:
                raise PbError(f"zero coefficient on x{var}")
            if var <= 0:
                raise PbError(f"bad variable index {var}")
            if var in seen:
                raise PbError(f"duplicate variable x{var} in constraint")
            seen.add(var)


@dataclass(frozen=True)
class BitVec:
    """Fixed-width unsigned value; bits[0] is the most significant bit."""

    bits: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, i: int) -> int:
        return self.bits[i]


@dataclass(frozen=True)
class Model:
    """Total assignment: values[v] for v in 1..var_count (index 0 unused)."""

    values: tuple[int, ...]

    @property
    def var_count(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, var: int) -> int:
        return self.values[var]

    def value_of(self, vec: BitVec) -> int:
        out = 0
        for bit in vec.bits:
            out = (out << 1) | self.values[bit]
        return out


class PbFormula:
    """Mutable builder for a pseudo-Boolean decision instance."""

    def __init__(self) -> None:
        self.var_count = 0
        self.constraints: list[PbConstraint] = []
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
        return BitVec(tuple(base + 1 + i for i in range(width)))

    def add_constraint(self, c: PbConstraint, note: str | None = None) -> int:
        c.validate()
        for _, var in c.terms:
            if var > self.var_count:
                raise PbError(f"constraint references unallocated x{var}")
        self.constraints.append(c)
        idx = len(self.constraints) - 1
        if note is not None:
            self.annotations[idx] = note
        return idx

    def add(self, terms, relation=GE, bound=0, note=None) -> int:
        return self.add_constraint(
            PbConstraint(tuple(terms), relation, bound), note=note
        )

    def stats(self) -> tuple[int, int]:
        return self.var_count, len(self.constraints)

    def emit_opb(self, include_annotations: bool = False) -> str:
        """Serialize to OPB text, byte-for-byte reproducible."""
        lines = [f"* #variable= {self.var_count} #constraint= {len(self.constraints)}"]
        for idx, c in enumerate(self.constraints):
            if include_annotations and idx in self.annotations:
                lines.append(f"* {self.annotations[idx]}")
            parts = [f"{coef:+d} x{var}" for coef, var in c.terms]
            parts.append(c.relation)
            parts.append(str(c.bound))
            lines.append(" ".join(parts) + " ;")
        return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"\*\s*#variable=\s*(\d+)\s*#constraint=\s*(\d+)")
_TERM_RE = re.compile(r"([+-]\d+)\s+x(\d+)")


def parse_opb(text: str) -> PbFormula:
    """Inverse of emit_opb; emit(parse(emit(f))) is byte-identical."""
    lines = text.splitlines()
    if not lines:
        raise PbError("empty OPB text")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise PbError("missing OPB header line")
    f = PbFormula()
    f.var_count = int(m.group(1))
    for line in lines[1:]:
        line = line.strip()
        if not line or line.startswith("*"):
            continue
        if not line.endswith(";"):
            raise PbError(f"constraint line missing terminator: {line!r}")
        body = line[:-1].strip()
        if GE in body:
            lhs, _, bound = body.rpartition(GE)
            relation = GE
        elif "=" in body:
            lhs, _, bound = body.rpartition("=")
            relation = EQ
        else:
            raise PbError(f"no relation in line: {line!r}")
        terms = tuple(
            (int(coef), int(var)) for coef, var in _TERM_RE.findall(lhs)
        )
        f.add_constraint(PbConstraint(terms, relation, int(bound)))
    declared = int(m.group(2))
    if declared != len(f.constraints):
        raise PbError(
            f"header declares {declared} constraints, found {len(f.constraints)}"
        )
    return f


def parse_solver_output(text: str, var_count: int):
    """Parse standard PB solver output.

    Returns (status, model): status is SAT/UNSAT/UNKNOWN and model is a
    Model for SAT, else None.  Variables not mentioned on the v-lines
    default to 0 (with a warning).
    """
    status = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            word = line[2:].strip()
            if word == "SATISFIABLE":
                status = SAT
            elif word == "UNSATISFIABLE":
                status = UNSAT
            elif word == "UNKNOWN":
                status = UNKNOWN
            else:
                raise PbError(f"unparsable solver status: {line!r}")
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                neg = tok.startswith("-")
                name = tok[1:] if neg else tok
                if not name.startswith("x"):
                    raise PbError(f"unparsable literal {tok!r}")
                var = int(name[1:])
                literals.append(-var if neg else var)
    if status is None:
        raise PbError("unparsable solver output: no status line")
    if status != SAT:
        return status, None
    values = [0] * (var_count + 1)
    seen = set()
    for lit in literals:
        var = abs(lit)
        if var <= var_count:
            values[var] = 1 if lit > 0 else 0
            seen.add(var)
    missing = var_count - len(seen)
    if missing:
        log.warning("solver model left %d variable(s) unassigned; defaulting to 0", missing)
    return status, Model(tuple(values))
