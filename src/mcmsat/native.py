"""Loader of the optional compiled core and its ctypes callers.

The core holds the bundled solver's search (core_search.c) and the
passes over a formula's arena (core_arena.c): the row-store build, the
OPB writer and reader and the arena checks; core.h holds what both
share.  The Python code stays the reference and the fallback of each.
This module imports nothing from the package.  Each entry point calls
`load` itself and returns None when no core loads, for its caller's
Python path to run.  `load` decides once per process, on its first
call: the two units are compiled then, in place, at -O1 and at the same
time, with whatever C compiler is around, and linked into one library
cached under `$XDG_CACHE_HOME/mcmsat` (by default `~/.cache/mcmsat`);
when MCMSAT_NO_NATIVE is set at that call, or the compile fails, every
later call returns None.
"""

from __future__ import annotations

import ctypes
import logging
import os
import selectors
import shutil
import signal
import subprocess
import tempfile
import time
import zlib
from array import array
from pathlib import Path

log = logging.getLogger(__name__)

RUNNING, C_SAT, C_UNSAT, C_NOMEM = 0, 1, 2, 3  # mcm_run's returns
C_WIDE = 1  # mcm_build's return for a counter row beyond int32
SLICE = 0.05  # seconds per mcm_run call: the stop predicate is asked in between
# The core's sources: a header and two units, compiled at the same time
HEADER = Path(__file__).with_name("core.h")
UNITS = (HEADER.with_name("core_search.c"), HEADER.with_name("core_arena.c"))
TIMEOUT = 120  # seconds per compile, and for the link

_UNDECIDED = object()
_core = _UNDECIDED  # the handle or None, once load has decided


def _cache_dir() -> Path:
    path = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mcmsat"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_together(commands) -> str | None:
    """Run the commands at once; None when each exits 0, else the first
    failure's first error line, once every other command is killed and
    reaped."""
    procs = {}  # by stderr's descriptor: the process and what it printed
    try:
        for command in commands:
            # Each in its own process group, so a kill reaches its children too.
            proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, start_new_session=True)
            procs[proc.stderr.fileno()] = proc, []
        deadline = time.monotonic() + TIMEOUT
        with selectors.DefaultSelector() as sel:
            for fd in procs:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                if not (ready := sel.select(deadline - time.monotonic())):
                    return f"timed out after {TIMEOUT} s"
                for key, _ in ready:
                    proc, err = procs[key.fd]
                    if chunk := os.read(key.fd, 65536):
                        err.append(chunk)
                        continue
                    sel.unregister(key.fd)  # stderr closed: the command is over
                    if proc.wait():
                        lines = (b"".join(err).decode(errors="replace").splitlines()
                                 or [f"exit status {proc.returncode}"])
                        return next((line for line in lines if "error" in line), lines[0])
        return None
    finally:
        for proc, _ in procs.values():
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stderr.close()


def _compile() -> Path | None:
    # Named by a checksum and the length of the sources: hashlib would
    # load OpenSSL, several MB of resident memory in every process.  Each
    # source's length enters the checksum too, so no text moved from one
    # file to the next keeps the name.
    crc = size = 0
    for path in (HEADER, *UNITS):
        source = path.read_bytes()
        crc = zlib.crc32(b"%d\n%s" % (len(source), source), crc)
        size += len(source)
    so_path = _cache_dir() / f"mcmcore_{crc:08x}_{size}.so"
    if so_path.exists():
        return so_path
    tried = set()
    for compiler in ("cc", "gcc", "clang"):
        # cc is often gcc or clang by another name: each executable once.
        found = shutil.which(compiler)
        if found is None or (found := os.path.realpath(found)) in tried:
            continue
        tried.add(found)
        # Built in a temporary directory beside the cached library, then
        # renamed, so no process opens a half-written one; the object
        # files go with the directory.
        with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
            objects = [str(Path(tmp) / f"{unit.stem}.o") for unit in UNITS]
            out = Path(tmp) / so_path.name
            try:
                # Both units at once, each at -O1: -O2 compiles the core
                # about 1.5x slower for a search only 5-10% faster, and a
                # first use pays both.  Then one link.
                failed = (_run_together([[compiler, "-O1", "-fPIC", "-c", str(unit), "-o", obj]
                                         for unit, obj in zip(UNITS, objects)])
                          or _run_together([[compiler, "-shared", *objects, "-o", str(out)]]))
            except OSError as exc:
                log.info("%s could not compile the core: %s", compiler, exc)
                continue
            if failed is None:
                out.replace(so_path)
                return so_path
            log.info("%s failed to compile the core: %s", compiler, failed)
    return None


def load():
    """The compiled core's handle, or None for the Python paths."""
    global _core
    if _core is _UNDECIDED:  # assigned once decided: concurrent first calls each compile
        _core = None if os.environ.get("MCMSAT_NO_NATIVE") else _open()
    return _core


class Store(ctypes.Structure):
    """The C Store: RefSolver's row-store arrays, by attribute name."""

    _fields_ = [(name, ctypes.c_void_p) for name in (
        "row_ptr", "row_coef", "row_lit", "bounds", "maxposs", "pos_ptr", "pos_row",
        "pos_coef", "neg_ptr", "neg_row", "neg_coef", "clause_ptr", "clause_lit")]


def _open():
    try:
        so_path = _compile()
        if so_path is None:
            log.info("no C compiler built the core; using the Python solver")
            return None
        lib = ctypes.CDLL(str(so_path))
        store = ctypes.POINTER(Store)
        lib.mcm_new.restype = ctypes.c_void_p
        lib.mcm_new.argtypes = [ctypes.c_int32] * 3 + [store] + [ctypes.c_void_p] * 4
        lib.mcm_run.restype = ctypes.c_int
        lib.mcm_run.argtypes = [ctypes.c_void_p, ctypes.c_int64]
        lib.mcm_free.argtypes = [ctypes.c_void_p]
        lib.mcm_stats.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
        lib.mcm_build.restype = ctypes.c_int
        lib.mcm_build.argtypes = ([ctypes.c_int64] + [ctypes.c_void_p] * 5
                                  + [ctypes.c_int32, ctypes.c_void_p, store])
        lib.mcm_emit.restype = ctypes.c_int64
        lib.mcm_emit.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 6
        lib.mcm_parse.restype = ctypes.c_int
        lib.mcm_parse.argtypes = [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 6
        lib.mcm_check_block.restype = lib.mcm_check_model.restype = ctypes.c_int64
        lib.mcm_check_block.argtypes = ([ctypes.c_int64] + [ctypes.c_void_p] * 3
                                        + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64])
        lib.mcm_check_model.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 6
        return lib
    except Exception as exc:  # pragma: no cover - environment specific
        log.info("compiled solver core unavailable (%s); using Python", exc)
        return None


def _arena(formula) -> list[int]:
    """Addresses of the formula's coefs, vars, row_ptr, bounds and relations."""
    rel = formula.relations
    arena = [a.buffer_info()[0] for a in (formula.coefs, formula.vars, formula.row_ptr,
                                          formula.bounds)]
    arena.append(ctypes.addressof((ctypes.c_char * len(rel)).from_buffer(rel)))
    return arena


def _store(arrays) -> Store:
    """A Store of the named arrays; an empty one's address is 0, never read."""
    return Store(*(arrays[name].buffer_info()[0] for name, _ in Store._fields_))


# A new ASCII str of a given length, and the address of a str's
# characters: for an ASCII str, its own buffer, read and filled in place.
_new_str = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_ssize_t, ctypes.c_uint32)(
    ("PyUnicode_New", ctypes.pythonapi))
_chars = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_void_p)(
    ("PyUnicode_AsUTF8AndSize", ctypes.pythonapi))


def emit(formula, notes) -> str | None:
    """PbFormula.emit_opb's text, written on the core into the new str.

    A first core call sums the digits of the rows' numbers to size the
    str; then the core writes each run of rows between the noted rows
    into it in one pass, and Python writes the header and the `* note`
    lines.  None when no core loads or a note is not ASCII, for the
    Python writer to write.
    """
    n = len(formula.bounds)
    cuts = sorted(i for i in notes if 0 <= i < n)
    heads = [f"* #variable= {formula.var_count} #constraint= {n}\n",
             *(f"* {notes[i]}\n" for i in cuts)]
    if (lib := load()) is None or not all(map(str.isascii, heads)):
        return None
    arena = _arena(formula)
    text = _new_str(sum(map(len, heads)) + lib.mcm_emit(0, n, *arena, None), 127)
    at = _chars(text, None)
    for lo, hi, head in zip([0, *cuts], [*cuts, n], heads):
        ctypes.memmove(at, head.encode(), len(head))
        at += len(head)
        at += lib.mcm_emit(lo, hi, *arena, at)
    return text


def parse(text: str, f):
    """parse_opb's formula, read on the core into the empty PbFormula f
    from the str's own buffer, in one pass.

    Every row ends in ";" and every term holds "x", so Python allocates
    the arena for as many rows and terms as the text holds of each, and
    cuts it to what the core read.  None when no core loads or the core
    refuses the text, which the Python reader then decides.
    """
    if (lib := load()) is None or not text.isascii():
        return None
    nrows, nterms = text.count(";"), text.count("x")
    sizes = array("q", [0, nrows, nterms])  # variables, rows, terms
    f.coefs, f.vars = array("q", [0]) * nterms, array("i", [0]) * nterms
    f.row_ptr, f.bounds, f.relations = array("q", [0]) * (nrows + 1), array("q", [0]) * nrows, bytearray(nrows)
    if lib.mcm_parse(_chars(text, None), len(text), sizes.buffer_info()[0], *_arena(f)):
        return None
    f.var_count, nrows, nterms = sizes
    del f.coefs[nterms:], f.vars[nterms:], f.row_ptr[nrows + 1:], f.bounds[nrows:], f.relations[nrows:]
    return f


def check_block(formula, first: int, vals=None) -> int | None:
    """The first of the rows appended to the arena from row `first` on
    that has a zero coefficient, an unallocated variable or a repeated
    one, counted from `first`; the number of those rows when none; None
    when no core loads.

    One core pass reads the rows' lengths from the arena's row_ptr, after
    row `first`'s start, and sums them there into the rows' ends.  With
    vals, each variable v of the rows is a placeholder, which the pass
    replaces by vals[v] before it checks the row; a v outside vals refuses
    the row.
    The arrays' own appends have checked each value's type and range;
    PbFormula._refusal words the error.
    """
    if (lib := load()) is None:
        return None
    vals = None if vals is None else array("i", vals)  # held until the call returns
    return lib.mcm_check_block(len(formula.bounds) - first, formula.coefs.buffer_info()[0],
                               formula.vars.buffer_info()[0],
                               formula.row_ptr.buffer_info()[0] + 8 * first, formula.var_count,
                               *(vals.buffer_info() if vals is not None else (None, 0)))


def check_model(formula, values) -> int | None:
    """The first row of the formula that the model's values violate; the
    row count when none.  None, for Python to decide from the first row,
    when no core loads or the values do not fit int8 or do not cover
    every variable."""
    try:
        vals = array("b", values)
    except (OverflowError, TypeError):
        return None
    if (lib := load()) is None or len(vals) <= formula.var_count:
        return None
    return lib.mcm_check_model(len(formula.bounds), *_arena(formula), vals.buffer_info()[0])


def build(formula):
    """RefSolver's row store, built on the core from the formula's arena:
    its arrays by Store field name, and root_conflict.  C_WIDE when a
    counter row sums beyond int32; None when no core loads.

    Python allocates every array at the length a counting pass reports
    and the core fills them.
    """
    if (lib := load()) is None:
        return None
    # the length of each Store array, then the longest row and the root conflict
    sizes = array("q", [0]) * (len(Store._fields_) + 2)
    args = (len(formula.bounds), *_arena(formula), formula.var_count, sizes.buffer_info()[0])
    if lib.mcm_build(*args, None):
        return C_WIDE
    store = {name: array("i", [0]) * n for (name, _), n in zip(Store._fields_, sizes)}
    if lib.mcm_build(*args, _store(store)):
        raise MemoryError("the compiled solver core ran out of memory")
    store["root_conflict"] = bool(sizes[-1])
    return store


def run(solver, stop):
    """Search the solver's row store on the compiled core, in time slices,
    and leave the search's counters on the solver.

    Returns the model's values (index 0 unused) on SAT, C_UNSAT, or
    RUNNING once `stop()` (asked after each slice) is True; None when no
    core loads.
    """
    if (lib := load()) is None:
        return None
    nv, nr = solver.nvars, solver.nrows
    # The search state is copied, the clauses by the core; the row store
    # is read in place.  -1 marks an unassigned variable, as UNASSIGNED does.
    maxposs = array("i", solver.maxposs)
    satsum = array("i", [0]) * nr
    assigned = array("b", [-1]) * (nv + 1)
    ctx = lib.mcm_new(nv, nr, len(solver.clause_ptr) - 1, _store(vars(solver)),
                      *(a.buffer_info()[0] for a in (solver.phases, maxposs, satsum, assigned)))
    if not ctx:
        raise MemoryError("the compiled solver core ran out of memory")
    stats = (ctypes.c_int64 * 3)()
    budget = 1000
    try:
        while True:
            start = time.perf_counter()
            rc = lib.mcm_run(ctx, budget)
            elapsed = time.perf_counter() - start
            lib.mcm_stats(ctx, stats)
            solver.decisions, solver.propagations, solver.conflicts = stats
            if rc == C_SAT:
                return (0,) + tuple(assigned[1:])
            if rc == C_NOMEM:
                raise MemoryError("the compiled solver core ran out of memory")
            if rc == C_UNSAT or stop is not None and stop():
                return rc
            # Aim the next call at SLICE seconds from this call's step rate,
            # growing at most tenfold since step costs drift during a search.
            budget = max(1, int(budget * min(10.0, SLICE / max(elapsed, 1e-9))))
    finally:
        lib.mcm_free(ctx)
