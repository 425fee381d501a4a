"""Command-line front end: encode, optimize, verify, stats, gen-fir, bench."""

from __future__ import annotations

import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import click

from .encoder import IMPROVEMENTS, EncodingConfig, encode_mcm, predict_size
from .graphio import format_graph, format_instance, parse_graph, parse_instance
from .model import (
    McmError,
    check_solution,
    csd_upper_bound,
    heuristic_graph,
    normalize_targets,
    recoding_upper_bounds,
    verify_solution,
)
from .pb import SAT, UNKNOWN, UNSAT
from .solve import DecodeError, decode_solution, default_backend, optimal_mcm, solve_encoding

IMPROVEMENT_STATES = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def _load_instance(path: str):
    values, directives = parse_instance(Path(path).read_text())
    if not values:
        raise McmError(f"no constants in {path}")
    return normalize_targets(values), directives


def _config(ops, encoding, right_shifts, no_improvements, improvement, annotate=False):
    cfg = EncodingConfig(
        ops=ops, variant=encoding, right_shifts=right_shifts, annotate=annotate
    )
    if no_improvements:
        cfg = cfg.improvements_off()
    for item in improvement:
        name, _, state = item.partition("=")
        if name not in IMPROVEMENTS:
            raise click.BadParameter(
                f"unknown improvement {name!r}; choose from {', '.join(IMPROVEMENTS)}"
            )
        if state.lower() not in IMPROVEMENT_STATES:
            raise click.BadParameter(
                f"bad state {state!r} for {name}; choose from "
                f"{', '.join(IMPROVEMENT_STATES)}"
            )
        cfg = replace(cfg, **{name: IMPROVEMENT_STATES[state.lower()]})
    return cfg


_encoding_option = click.option("--encoding", type=click.IntRange(1, 3), default=3,
                                show_default=True, help="Constraint encoding variant.")


def _reduction_options(fn):
    fn = click.option("--right-shifts", is_flag=True, help="Model right shifts too.")(fn)
    fn = click.option(
        "--no-improvements", is_flag=True, help="Disable all encoding reductions."
    )(fn)
    fn = click.option(
        "--improvement", multiple=True, metavar="NAME=on|off",
        help="Toggle one reduction, e.g. --improvement nonzero_sub=off.",
    )(fn)
    return fn


class _Main(click.Group):
    """Reports a domain error as one `Error: ...` line and exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except McmError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(package_name="mcmsat")
def main():
    """Exact minimal-adder constant multiplication via 0-1 constraint solving."""


@main.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--ops", type=int, required=True, help="Operation budget to encode.")
@_reduction_options
@_encoding_option
@click.option("--annotate", is_flag=True, help="Comment constraints in the OPB file.")
@click.option("--out", type=click.Path(dir_okay=False), help="Output OPB path.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable stats.")
def encode(instance, ops, encoding, right_shifts, no_improvements, improvement, annotate, out, as_json):
    """Write the decision formula for INSTANCE as an OPB file."""
    inst, _ = _load_instance(instance)
    if inst.is_empty:
        click.echo("cost 0, nothing to encode")
        return
    cfg = _config(ops, encoding, right_shifts, no_improvements, improvement, annotate)
    res = encode_mcm(inst, cfg)
    data = res.formula.emit_opb(include_annotations=annotate).encode()
    out = out or str(Path(instance).with_suffix(f".e{encoding}.opb"))
    Path(out).write_bytes(data)
    nvars, ncons = res.formula.stats()
    info = {
        "out": out,
        "variant": encoding,
        "ops": ops,
        "variables": nvars,
        "constraints": ncons,
        "bytes": len(data),
        "trivial": res.trivial_verdict,
    }
    if as_json:
        click.echo(json.dumps(info))
    else:
        click.echo(
            f"{out}: variant {encoding}, ops {ops}: "
            f"{ncons} constraints, {nvars} variables, {info['bytes']} bytes"
            + (f" (trivially {res.trivial_verdict})" if res.trivial_verdict else "")
        )


def _report_json(inst, report):
    return {
        "targets": list(inst.targets),
        "bit_width": inst.bit_width,
        "upper_bound": report.upper_bound,
        "optimal_ops": report.optimal_ops,
        "proven": report.proven,
        "variant": report.variant,
        "backend": report.backend,
        "elapsed": round(report.elapsed, 3),
        "levels": [
            {
                "ops": ops,
                "status": oc.status,
                "elapsed": round(oc.elapsed, 3),
                "backend": oc.backend,
            }
            for ops, oc in report.per_level
        ],
        "graph": format_graph(report.graph).splitlines(),
    }


@main.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@_reduction_options
@_encoding_option
@click.option("--upper-bound", type=int, help="Override the recoding upper bound.")
@click.option("--backend", multiple=True, help="Backend; repeat to race several (default internal).")
@click.option("--timeout", type=float, default=300.0, show_default=True,
              help="Per-level wall clock limit in seconds.")
@click.option("--out", type=click.Path(dir_okay=False), help="Write the graph here.")
@click.option("--json", "as_json", is_flag=True, help="Emit the full JSON report.")
def optimize(instance, encoding, right_shifts, no_improvements, improvement,
             upper_bound, backend, timeout, out, as_json):
    """Find the provably minimal operation count for INSTANCE.

    Exit code 0 when optimality was proven, 2 when a timeout left the
    result unproven.
    """
    inst, _ = _load_instance(instance)
    cfg = _config(1, encoding, right_shifts, no_improvements, improvement)
    report = optimal_mcm(
        inst,
        upper_bound=upper_bound,
        cfg=cfg,
        backend=list(backend) or [default_backend()],
        per_level_timeout=timeout,
    )
    if out:
        Path(out).write_text(format_graph(report.graph))
    if as_json:
        click.echo(json.dumps(_report_json(inst, report)))
    else:
        word = "proven" if report.proven else "not proven optimal (timeout)"
        click.echo(f"optimal_ops {report.optimal_ops} ({word})")
        for line in format_graph(report.graph).splitlines():
            click.echo(f"  {line}")
    sys.exit(0 if report.proven else 2)


@main.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
def verify(instance, graph):
    """Check that GRAPH realizes every constant of INSTANCE."""
    inst, _ = _load_instance(instance)
    parsed = parse_graph(Path(graph).read_text())
    ok, problems = check_solution(inst, parsed)
    if ok:
        click.echo(f"pass: {parsed.cost} operations cover {len(inst.targets)} targets")
        return
    click.echo("fail:")
    for p in problems:
        click.echo(f"  {p}")
    sys.exit(1)


@main.command()
@click.argument("instance", type=click.Path(exists=True, dir_okay=False))
@click.option("--ops", type=int, required=True)
@_reduction_options
@click.option("--json", "as_json", is_flag=True)
def stats(instance, ops, right_shifts, no_improvements, improvement, as_json):
    """Measured and predicted formula sizes for every variant."""
    inst, _ = _load_instance(instance)
    bounds = recoding_upper_bounds(inst)
    heuristic = heuristic_graph(inst).cost
    rows = []
    for variant in (1, 2, 3):
        cfg = _config(ops, variant, right_shifts, no_improvements, improvement)
        res = encode_mcm(inst, cfg)
        nvars, ncons = res.formula.stats()
        pred = predict_size(ops, inst.bit_width, variant, len(inst.targets), cfg)
        rows.append(
            {
                "variant": variant,
                "variables": nvars,
                "constraints": ncons,
                "predicted_variables": pred[0],
                "predicted_constraints": pred[1],
            }
        )
    info = {
        "targets": list(inst.targets),
        "bit_width": inst.bit_width,
        "ops": ops,
        "upper_bound_csd": bounds.csd,
        "upper_bound_binary": bounds.binary,
        "upper_bound_heuristic": heuristic,
        "encodings": rows,
    }
    if as_json:
        click.echo(json.dumps(info))
        return
    click.echo(f"targets {list(inst.targets)}  bit width {inst.bit_width}  ops {ops}")
    click.echo(f"upper bounds: signed-digit {bounds.csd}, binary {bounds.binary}, "
               f"heuristic {heuristic}")
    for row in rows:
        click.echo(
            f"  variant {row['variant']}: {row['constraints']} constraints, "
            f"{row['variables']} variables (predicted "
            f"{row['predicted_constraints']} / {row['predicted_variables']})"
        )


@main.command("gen-fir")
@click.option("--bits", type=click.IntRange(min=1), required=True,
              help="Coefficient width in bits.")
@click.option("--taps", type=click.IntRange(min=1), required=True,
              help="Number of coefficients.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--pair", is_flag=True,
              help="Also write <out>.sat/.unsat with ops pinned at the upper "
                   "bound and one below it.")
def gen_fir(bits, taps, seed, out, pair):
    """Draw random filter coefficients and write them as an instance."""
    rng = random.Random(seed)
    coeffs = [rng.randint(1, (1 << bits) - 1) for _ in range(taps)]
    inst = normalize_targets(coeffs)
    meta = {
        "generator": "gen-fir",
        "bits": bits,
        "taps": taps,
        "seed": seed,
        "raw": " ".join(str(c) for c in coeffs),
    }
    Path(out).write_text(format_instance(inst.targets, meta))
    click.echo(f"{out}: {len(inst.targets)} targets from {taps} draws")
    if pair:
        ub = csd_upper_bound(inst)
        base = Path(out)
        for suffix, ops in ((".sat", ub), (".unsat", ub - 1)):
            path = base.with_suffix(base.suffix + suffix)
            meta_pair = dict(meta, ops=ops)
            path.write_text(format_instance(inst.targets, meta_pair))
            click.echo(f"{path}: ops {ops}")


def _bench_one(path: Path, backends, timeout, encoding):
    values, directives = parse_instance(path.read_text())
    inst = normalize_targets(values)
    if "ops" not in directives:
        raise McmError(f"{path.name}: missing '# ops:' directive")
    ops = int(directives["ops"])
    record = {"instance": path.name, "ops": ops, "variant": encoding}
    if inst.is_empty:
        record.update(trivial=SAT, outcomes={})
        return record
    enc = encode_mcm(inst, EncodingConfig(ops=ops, variant=encoding))
    if enc.trivial_verdict is not None:
        record.update(trivial=enc.trivial_verdict, outcomes={})
        return record
    nvars, ncons = enc.formula.stats()
    outcomes = {}
    for b in backends:
        oc = solve_encoding(enc, b, timeout)
        if oc.status == SAT and not verify_solution(inst, decode_solution(enc, oc.model)):
            raise DecodeError(f"{path.name}: backend {b} gave a graph that does not verify")
        outcomes[b] = {"status": oc.status, "elapsed": round(oc.elapsed, 3)}
    decisive = [o for o in outcomes.values() if o["status"] != UNKNOWN]
    vbs = (
        min(decisive, key=lambda o: o["elapsed"])
        if decisive
        else {"status": UNKNOWN, "elapsed": timeout}
    )
    record.update(
        trivial=None, variables=nvars, constraints=ncons, outcomes=outcomes, vbs=vbs
    )
    return record


def _mean_elapsed(outcomes):
    return round(sum(o["elapsed"] for o in outcomes) / len(outcomes), 3) if outcomes else None


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--backend", multiple=True, help="Backend; repeat to run several in turn (default internal).")
@click.option("--timeout", type=float, default=300.0, show_default=True)
@_encoding_option
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Instances solved concurrently.")
@click.option("--out", type=click.Path(dir_okay=False), help="Report JSON path.")
@click.option("--json", "as_json", is_flag=True)
def bench(directory, backend, timeout, encoding, jobs, out, as_json):
    """Run every *.txt instance in DIRECTORY on each backend in turn.

    Every SAT model is decoded and its graph verified.  Instances
    decided by preprocessing are marked trivial and skipped.
    """
    backends = list(backend) or [default_backend()]
    paths = sorted(Path(directory).glob("*.txt"))
    if not paths:
        raise click.ClickException(f"no *.txt instances in {directory}")
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(
                pool.map(lambda p: _bench_one(p, backends, timeout, encoding), paths)
            )
    else:
        records = [_bench_one(p, backends, timeout, encoding) for p in paths]

    solved = [r for r in records if r["trivial"] is None]
    aggregates = {}
    for b in backends:
        decided = [r["outcomes"][b] for r in solved if r["outcomes"][b]["status"] != UNKNOWN]
        aggregates[b] = {
            "solved": len(decided),
            "sat": sum(1 for o in decided if o["status"] == SAT),
            "unsat": sum(1 for o in decided if o["status"] == UNSAT),
            "avg_time": _mean_elapsed(decided),
            # as fast as the virtual best solver, ties included
            "best": sum(1 for r in solved if r["outcomes"][b]["status"] != UNKNOWN
                        and r["outcomes"][b]["elapsed"] == r["vbs"]["elapsed"]),
        }
    decided = [r["vbs"] for r in solved if r["vbs"]["status"] != UNKNOWN]
    report = {
        "instances": records,
        "trivial": {
            "sat": sum(1 for r in records if r["trivial"] == SAT),
            "unsat": sum(1 for r in records if r["trivial"] == UNSAT),
        },
        "aggregates": aggregates,
        "vbs": {"solved": len(decided), "avg_time": _mean_elapsed(decided)},
    }
    text = json.dumps(report, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    if as_json or not out:
        click.echo(text)
    else:
        click.echo(f"wrote {out}: {len(records)} instances, "
                   f"{report['trivial']['sat']} trivially SAT, "
                   f"{report['trivial']['unsat']} trivially UNSAT")


if __name__ == "__main__":
    main()
