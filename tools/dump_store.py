"""Write one level's RefSolver row store to stdout for core_driver.c:

    PYTHONPATH=src python tools/dump_store.py OPS CONSTANT... > level.store

The thirteen Store arrays in field order, then the phase hints, each as
its int64 length and then its elements.
"""

import sys
from array import array

from mcmsat import native
from mcmsat.encoder import EncodingConfig, encode_mcm
from mcmsat.model import normalize_targets
from mcmsat.refsolver import RefSolver

if __name__ == "__main__":
    ops, *constants = map(int, sys.argv[1:])
    enc = encode_mcm(normalize_targets(constants), EncodingConfig(ops=ops))
    solver = RefSolver(enc.formula, phases=enc.phase_hints)
    if solver.root_conflict:
        sys.exit("UNSAT at the root: there is no search to run")
    for a in [getattr(solver, name) for name, _ in native.Store._fields_] + [solver.phases]:
        array("q", [len(a)]).tofile(sys.stdout.buffer)
        a.tofile(sys.stdout.buffer)
