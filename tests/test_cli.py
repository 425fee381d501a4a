import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from mcmsat.cli import main
from mcmsat.graphio import parse_graph, parse_instance
from mcmsat.model import normalize_targets, verify_solution


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("29\n43\n")
    return str(path)


def test_encode_writes_opb_and_stats(runner, instance_file, tmp_path):
    out = str(tmp_path / "inst.opb")
    result = runner.invoke(
        main, ["encode", instance_file, "--ops", "3", "--encoding", "3", "--out", out, "--json"]
    )
    assert result.exit_code == 0, result.output
    info = json.loads(result.output)
    text = Path(out).read_text()
    assert text.startswith("* #variable=")
    assert info["variables"] > 0 and info["constraints"] > 0
    assert info["bytes"] == len(text.encode())


def test_encode_deterministic(runner, instance_file, tmp_path):
    outs = []
    for name in ("a.opb", "b.opb"):
        out = str(tmp_path / name)
        runner.invoke(main, ["encode", instance_file, "--ops", "3", "--out", out])
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]


def test_encode_empty_instance(runner, tmp_path):
    path = tmp_path / "pow2.txt"
    path.write_text("8\n16\n")
    result = runner.invoke(main, ["encode", str(path), "--ops", "1"])
    assert result.exit_code == 0
    assert "cost 0, nothing to encode" in result.output


def test_encode_improvement_toggle(runner, instance_file, tmp_path):
    base = runner.invoke(
        main, ["encode", instance_file, "--ops", "3", "--out", str(tmp_path / "x.opb"), "--json"]
    )
    off = runner.invoke(
        main,
        ["encode", instance_file, "--ops", "3", "--out", str(tmp_path / "y.opb"),
         "--improvement", "nonzero_sub=off", "--json"],
    )
    assert json.loads(off.output)["constraints"] < json.loads(base.output)["constraints"]


def test_encode_unknown_improvement_rejected(runner, instance_file):
    result = runner.invoke(
        main, ["encode", instance_file, "--ops", "3", "--improvement", "bogus=off"]
    )
    assert result.exit_code != 0


@pytest.mark.parametrize("state", ["of", "", "no"])
def test_encode_unknown_improvement_state_rejected(runner, instance_file, state):
    result = runner.invoke(
        main, ["encode", instance_file, "--ops", "3", "--improvement", f"nonzero_sub={state}"]
    )
    assert result.exit_code == 2
    assert "bad state" in result.output
    assert "Traceback" not in result.output


def test_optimize_worked_example_json(runner, instance_file, tmp_path):
    graph_path = str(tmp_path / "solution.graph")
    result = runner.invoke(
        main,
        ["optimize", instance_file, "--upper-bound", "6", "--json", "--out", graph_path],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["optimal_ops"] == 3
    assert report["proven"] is True
    assert [lvl["status"] for lvl in report["levels"]] == ["SAT", "SAT", "SAT", "UNSAT"]
    graph = parse_graph(Path(graph_path).read_text())
    assert verify_solution(normalize_targets([29, 43]), graph)
    # The JSON report round-trips.
    assert json.loads(json.dumps(report)) == report


def test_optimize_trivial_single_op(runner, tmp_path):
    path = tmp_path / "seven.txt"
    path.write_text("7\n")
    result = runner.invoke(main, ["optimize", str(path), "--json"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["optimal_ops"] == 1 and report["proven"] is True


def test_optimize_unproven_exit_code(runner, instance_file, python_only):
    result = runner.invoke(
        main, ["optimize", instance_file, "--upper-bound", "6", "--timeout", "0.004", "--json"]
    )
    report = json.loads(result.output)
    if report["proven"]:
        assert result.exit_code == 0
    else:
        assert result.exit_code == 2
        graph = parse_graph("\n".join(report["graph"]))
        assert verify_solution(normalize_targets([29, 43]), graph)


@pytest.mark.parametrize(
    "text, extra, message",
    [
        ("29\nabc\n", [], "Error: bad instance line 2: 'abc'"),
        ("29\n43\n", ["--backend", "/nonexistent/solver"],
         "Error: backend executable missing: /nonexistent/solver"),
        ("29\n43\n", ["--upper-bound", "2"],
         "Error: no graph within the upper bound 2 was found"),
    ],
    ids=["bad-line", "missing-backend", "bound-below-optimum"],
)
def test_errors_print_one_line(runner, tmp_path, text, extra, message):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    result = runner.invoke(main, ["optimize", str(path), *extra])
    assert result.exit_code == 1
    assert result.output.splitlines() == [message]
    assert "Traceback" not in result.output


def test_verify_pass(runner, instance_file, tmp_path):
    graph = tmp_path / "ok.graph"
    graph.write_text("7 = 1<<3 - 1\n29 = 7<<2 + 1\n43 = 7<<1 + 29\n")
    result = runner.invoke(main, ["verify", instance_file, str(graph)])
    assert result.exit_code == 0
    assert "pass" in result.output


def test_verify_accepts_suboptimal_shared_pattern(runner, instance_file, tmp_path):
    # The four-operation sharing-based decomposition: 3 and 5 reused.
    graph = tmp_path / "cse.graph"
    graph.write_text(
        "3 = 1<<1 + 1\n5 = 1<<2 + 1\n29 = 3<<3 + 5\n43 = 5<<3 + 3\n"
    )
    result = runner.invoke(main, ["verify", instance_file, str(graph)])
    assert result.exit_code == 0, result.output


def test_verify_fail_reports_node(runner, instance_file, tmp_path):
    graph = tmp_path / "bad.graph"
    graph.write_text("7 = 1<<3 - 1\n30 = 7<<2 + 1\n43 = 7<<1 + 30\n")
    result = runner.invoke(main, ["verify", instance_file, str(graph)])
    assert result.exit_code == 1
    assert "node 2" in result.output or "target 29" in result.output


def test_stats_reports_all_variants(runner, instance_file):
    result = runner.invoke(main, ["stats", instance_file, "--ops", "3", "--json"])
    assert result.exit_code == 0, result.output
    info = json.loads(result.output)
    assert info["upper_bound_binary"] == 6
    assert info["upper_bound_heuristic"] == 4
    assert len(info["encodings"]) == 3
    for row in info["encodings"]:
        assert row["variables"] == row["predicted_variables"]
        assert row["constraints"] == row["predicted_constraints"]


def test_stats_takes_no_encoding(runner, instance_file):
    # stats reports every variant; an --encoding it would ignore is refused.
    result = runner.invoke(main, ["stats", instance_file, "--ops", "3", "--encoding", "2"])
    assert result.exit_code == 2
    assert "--encoding" in result.output


def test_gen_fir_deterministic(runner, tmp_path):
    args = ["gen-fir", "--bits", "10", "--taps", "14", "--seed", "1"]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
    assert a.read_text() == b.read_text()


def test_gen_fir_range_and_normalization(runner, tmp_path):
    out = tmp_path / "small.txt"
    result = runner.invoke(
        main, ["gen-fir", "--bits", "4", "--taps", "3", "--seed", "9", "--out", str(out)]
    )
    assert result.exit_code == 0
    values, directives = parse_instance(out.read_text())
    assert directives["bits"] == "4"
    for v in values:
        assert v % 2 == 1 and 3 <= v < 16
    raw = [int(x) for x in directives["raw"].split()]
    assert len(raw) == 3 and all(1 <= r < 16 for r in raw)


@pytest.mark.parametrize(
    "args",
    [["--bits", "0", "--taps", "3"], ["--bits", "-4", "--taps", "3"],
     ["--bits", "6", "--taps", "0"]],
    ids=["zero-bits", "negative-bits", "zero-taps"],
)
def test_gen_fir_rejects_nonpositive_sizes(runner, tmp_path, args):
    result = runner.invoke(main, ["gen-fir", *args, "--out", str(tmp_path / "x.txt")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # a usage error, not a crash
    assert "Traceback" not in result.output
    assert not (tmp_path / "x.txt").exists()


def test_gen_fir_pair_mode(runner, tmp_path):
    out = tmp_path / "fir.txt"
    result = runner.invoke(
        main,
        ["gen-fir", "--bits", "6", "--taps", "2", "--seed", "4", "--out", str(out), "--pair"],
    )
    assert result.exit_code == 0, result.output
    sat_file = tmp_path / "fir.txt.sat"
    unsat_file = tmp_path / "fir.txt.unsat"
    _, sat_meta = parse_instance(sat_file.read_text())
    _, unsat_meta = parse_instance(unsat_file.read_text())
    assert int(sat_meta["ops"]) == int(unsat_meta["ops"]) + 1


def test_table1_fir_row_accepted(runner, tmp_path):
    constants = [1701, 709, 1015, 1269, 1203, 683, 201, 565, 1653, 681, 17, 261, 4621, 3435]
    path = tmp_path / "fir_row.txt"
    path.write_text("# ops: 17\n" + "\n".join(str(c) for c in constants) + "\n")
    values, directives = parse_instance(path.read_text())
    inst = normalize_targets(values)
    assert len(inst.targets) == 14
    assert directives["ops"] == "17"
    result = runner.invoke(main, ["stats", str(path), "--ops", "17", "--json"])
    assert result.exit_code == 0


def test_bench_aggregates_and_trivial_exclusion(runner, tmp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "easy.txt").write_text("# ops: 2\n3\n5\n")
    (bench_dir / "worked.txt").write_text("# ops: 3\n29\n43\n")
    (bench_dir / "short.txt").write_text("# ops: 1\n29\n43\n")
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["bench", str(bench_dir), "--timeout", "120", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["trivial"] == {"sat": 1, "unsat": 1}
    by_name = {r["instance"]: r for r in report["instances"]}
    assert by_name["easy.txt"]["trivial"] == "SAT"
    assert by_name["easy.txt"]["outcomes"] == {}  # not run by any solver
    assert by_name["short.txt"]["trivial"] == "UNSAT"
    worked = by_name["worked.txt"]
    assert worked["trivial"] is None
    assert worked["outcomes"]["internal"]["status"] == "SAT"
    assert worked["vbs"]["status"] == "SAT"
    agg = report["aggregates"]["internal"]
    assert agg["solved"] == 1 and agg["sat"] == 1 and agg["unsat"] == 0
    # Aggregates recompute exactly from the records.
    assert agg["avg_time"] == worked["outcomes"]["internal"]["elapsed"]


def test_bench_verifies_sat_graphs(runner, tmp_path, monkeypatch):
    import mcmsat.cli

    checked = []

    def refuse(inst, graph):
        checked.append(graph)
        return False

    monkeypatch.setattr(mcmsat.cli, "verify_solution", refuse)
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "worked.txt").write_text("# ops: 3\n29\n43\n")
    result = runner.invoke(main, ["bench", str(bench_dir), "--timeout", "60"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: worked.txt: backend internal gave a graph that does not verify"
    ]
    assert len(checked) == 1 and checked[0].cost <= 3


def test_bench_vbs_minimum_over_backends(runner, tmp_path, monkeypatch):
    import sys, stat, textwrap

    script = tmp_path / "echo_unknown.py"
    script.write_text("print('s UNKNOWN')\n")
    backend = f"{sys.executable} {script}"
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "worked.txt").write_text("# ops: 3\n29\n43\n")
    out = tmp_path / "r.json"
    result = runner.invoke(
        main,
        ["bench", str(bench_dir), "--backend", "internal", "--backend", backend,
         "--timeout", "120", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    rec = report["instances"][0]
    assert rec["outcomes"][backend]["status"] == "UNKNOWN"
    assert rec["vbs"]["status"] == "SAT"
    assert report["vbs"]["solved"] == 1
    assert report["aggregates"][backend]["solved"] == 0


def test_bench_all_backends_unknown_vbs_unknown(runner, tmp_path):
    import sys

    script = tmp_path / "unknown.py"
    script.write_text("print('s UNKNOWN')\n")
    backend = f"{sys.executable} {script}"
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "worked.txt").write_text("# ops: 3\n29\n43\n")
    out = tmp_path / "r.json"
    result = runner.invoke(
        main,
        ["bench", str(bench_dir), "--backend", backend, "--timeout", "60",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["instances"][0]["vbs"]["status"] == "UNKNOWN"
    assert report["vbs"]["solved"] == 0


def test_bench_parallel_jobs(runner, tmp_path):
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "a.txt").write_text("# ops: 2\n45\n")
    (bench_dir / "b.txt").write_text("# ops: 2\n3\n5\n")
    out = tmp_path / "r.json"
    result = runner.invoke(
        main, ["bench", str(bench_dir), "--jobs", "2", "--timeout", "60", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert len(report["instances"]) == 2
