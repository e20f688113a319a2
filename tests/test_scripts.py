import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from surfmatch import harness

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_reports_builds_graph_once(tmp_path, monkeypatch, capsys):
    builds = []

    def counting(*args):
        builds.append(args)
        return build(*args)

    build = harness.build_decoding_graph
    monkeypatch.setattr(harness, "build_decoding_graph", counting)
    out = tmp_path / "reports.json"
    code = load_script("run_reports").main(
        ["--distance", "5", "--shots-per-k", "5", "--out", str(out),
         "--predecoders", "adaptive", "greedy", "none"])
    assert code == 0
    assert len(builds) == 1
    doc = json.loads(out.read_text())
    assert set(doc) == {"adaptive", harness.GREEDY_LABEL, "none"}
    for reports in doc.values():
        samples = {reports[name]["samples"] for name in ("hw", "latency", "steps")}
        assert len(samples) == 1 and samples.pop() > 0
    assert "wrote" in capsys.readouterr().out


def test_run_ler_sweep_reproducible(tmp_path, capsys):
    lers = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        code = load_script("run_ler_sweep").main(
            ["--distances", "3", "--shots-per-k", "20", "--k-max", "4",
             "--master-seed", "5", "--out", str(out)])
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["distance"], r["p"]) for r in rows] == [("3", "0.001")]
        lers.append([r["ler"] for r in rows])
    assert lers[0] == lers[1]
    assert float(lers[0][0]) > 0.0
    assert "wrote" in capsys.readouterr().out


def test_run_ler_sweep_validates_grid_first(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = load_script("run_ler_sweep").main(
        ["--distances", "3", "4", "--shots-per-k", "20", "--k-max", "4",
         "--out", str(out)])
    assert code == 2
    printed = capsys.readouterr()
    assert printed.out == ""  # not even the header: d=3 never ran
    assert printed.err.startswith("error:") and "distance" in printed.err
    assert not out.exists()


def test_run_ler_sweep_bad_shots_exits_2(capsys):
    code = load_script("run_ler_sweep").main(["--distances", "3", "--shots-per-k", "0"])
    assert code == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("error:")


@pytest.mark.parametrize("bad", [["--distance", "4"], ["--shots-per-k", "0"],
                                 ["--p", "0.6"]])
def test_run_reports_bad_input_exits_2(tmp_path, capsys, bad):
    out = tmp_path / "reports.json"
    code = load_script("run_reports").main(
        ["--distance", "3", "--p", "0.01", "--out", str(out), *bad])
    assert code == 2
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.startswith("error:")
    assert not out.exists()


def test_run_reports_has_no_hw_target_flag(tmp_path, capsys):
    out = tmp_path / "reports.json"
    with pytest.raises(SystemExit) as exc:
        load_script("run_reports").main(
            ["--distance", "3", "--p", "0.01", "--out", str(out), "--hw-target", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --hw-target" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ bench_record
#
# The aggregation runs on canned perfbench output; no subprocess is started.

END_TO_END = [{"name": "shots_per_s", "better": "higher"},
              {"name": "setup_s", "better": "lower"}]


def perfbench_stdout(rate, setup, sha, trace=0, correct=True):
    """The stdout lines of one ``perfbench/run.py`` run, shortened."""
    lines = [{"machine": {"nproc": 2, "cpu_model": "X"}, "scope": "s",
              "run": {"workload": "direct-d5", "trace": trace}}]
    if trace:
        lines.append({"spans": {}})
        lines.append({"fingerprint": {"pass0": {}, "counts": {"records": 7}},
                      "sha256": sha})
    else:
        lines.append({"fingerprint": {"pass0": {}}, "sha256": sha})
        lines.append({"unscaled": {"passes": 3}})
    metrics = ({"trace.coverage": {"value": 1.0, "unit": "ratio"}} if trace else
               {"shots_per_s": {"value": rate, "unit": "1/s"},
                "setup_s": {"value": setup, "unit": "s"}})
    lines.append({"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
                  "metrics": metrics})
    return "\n".join(json.dumps(line) for line in lines) + "\nnot json\n"


def test_bench_record_parses_perfbench_and_pytest_output():
    bench = load_script("bench_record")
    run = bench.parse_run(perfbench_stdout(100.0, 0.5, "ab"))
    assert run["sha256"] == "ab" and run["correct"] and run["counts"] is None
    assert run["metrics"] == {"shots_per_s": 100.0, "setup_s": 0.5}
    assert run["machine"]["nproc"] == 2
    assert not bench.parse_run(perfbench_stdout(1.0, 1.0, "ab", correct=False))["correct"]
    with pytest.raises(ValueError, match="lacks"):
        bench.parse_run("Traceback (most recent call last):\n")
    log = ("==== test session starts ====\n"
           "======= 229 passed, 2 failed in 97.25s (0:01:37) =======\n")
    assert bench.parse_tier1(log) == {"passed": 229, "failed": 2, "seconds": 97.25}
    with pytest.raises(ValueError, match="summary"):
        bench.parse_tier1("no summary")


def test_bench_record_alternates_sides_and_aggregates():
    bench = load_script("bench_record")
    # (side, seed) -> (shots_per_s, setup_s, sha) of the untraced run
    canned = {("parent", 5): (100.0, 0.50, "s5"), ("change", 5): (190.0, 0.40, "s5"),
              ("parent", 6): (110.0, 0.30, "s6"), ("change", 6): (200.0, 0.60, "s6"),
              ("parent", 7): (120.0, 0.40, "s7"), ("change", 7): (100.0, 0.45, "sX")}
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed, trace))
        if trace:
            return perfbench_stdout(0.0, 0.0, f"t-{checkout}", trace=1)
        return perfbench_stdout(*canned[(checkout, seed)])

    doc = bench.collect({"parent": "parent", "change": "change"}, ["direct-d5"],
                        END_TO_END, pairs=3, seed=5, seconds=36.0, traced_seed=3001,
                        traced_seconds=12.0, run=run, log=lambda msg: None)
    assert calls == [("parent", 5, 0), ("change", 5, 0), ("change", 6, 0),
                     ("parent", 6, 0), ("parent", 7, 0), ("change", 7, 0),
                     ("parent", 3001, 1), ("change", 3001, 1)]
    wl = doc["untraced"]["workloads"]["direct-d5"]
    assert wl["pairs"] == 3 and wl["seeds"] == [5, 6, 7]
    rate = wl["shots_per_s"]
    assert rate["parent"]["values"] == [100.0, 110.0, 120.0]
    assert rate["parent"]["median"] == 110.0 and rate["change"]["median"] == 190.0
    assert (rate["parent"]["q1"], rate["parent"]["q3"]) == (105.0, 115.0)
    assert rate["change_over_parent"] == 190.0 / 110.0
    assert rate["change_better_pairs"] == 2
    assert rate["parent_iqr_over_median"] == 10.0 / 110.0
    setup = wl["setup_s"]
    assert setup["change_better_pairs"] == 1  # lower is better: 0.40 < 0.50
    assert wl["sha256"] == {"parent": ["s5", "s6", "s7"], "change": ["s5", "s6", "sX"]}
    assert wl["fingerprints_equal"] is False and wl["correct"] is True
    traced = doc["traced"]["workloads"]["direct-d5"]
    assert traced["change"] == {"sha256": "t-change", "counts": {"records": 7},
                                "correct": True, "metrics": {"trace.coverage": 1.0}}
    assert doc["machine"] == {"nproc": 2, "cpu_model": "X"}
    assert doc["traced"]["seed"] == 3001 and doc["untraced"]["seconds"] == 36.0


def test_bench_record_prints_the_pairs_a_change_needs():
    # parent shots_per_s 96..104 (IQR/median 0.04, so sigma 0.04/1.349) and a
    # change 1% faster: 2 sigma sqrt(2/n) < 0.01 first holds at n = 71
    bench = load_script("bench_record")
    rates = {"parent": [96.0, 98.0, 100.0, 102.0, 104.0], "change": [101.0] * 5}

    def run(checkout, workload, seed, seconds, trace):
        if trace:
            return perfbench_stdout(0.0, 0.0, "t", trace=1)
        return perfbench_stdout(rates[checkout][seed], 0.5, f"s{seed}")

    lines = []
    doc = bench.collect({"parent": "parent", "change": "change"}, ["rare-d5"], END_TO_END,
                        pairs=5, seed=0, seconds=1.0, traced_seed=3001, traced_seconds=1.0,
                        run=run, log=lines.append)
    wl = doc["untraced"]["workloads"]["rare-d5"]
    rate = wl["shots_per_s"]
    assert rate["change_over_parent"] == 1.01 and rate["parent_iqr_over_median"] == 0.04
    assert rate["pairs_needed"] == 71
    sigma = 0.04 / 1.349
    assert 2 * sigma * (2 / 71) ** 0.5 < 0.01 < 2 * sigma * (2 / 70) ** 0.5
    # an unchanged metric needs no pair count: none would show a change of 0
    assert wl["setup_s"]["change_over_parent"] == 1.0 and wl["setup_s"]["pairs_needed"] is None
    assert "rare-d5 shots_per_s: change/parent 1.0100, better in 3 of 5 pairs, " \
        "pairs needed 71" in lines
    assert "rare-d5 setup_s: change/parent 1.0000, better in 0 of 5 pairs, " \
        "pairs needed None" in lines
    # a change far outside the spread shows in one pair; a zero spread too
    assert bench.pairs_needed(190.0 / 110.0, 10.0 / 110.0) == 1
    assert bench.pairs_needed(0.98, 0.0) == 1


def test_bench_record_names_the_failed_run():
    bench = load_script("bench_record")

    def run(checkout, workload, seed, seconds, trace):
        return "Traceback (most recent call last):\n"

    with pytest.raises(RuntimeError, match="parent checkout p, workload direct-d5, "
                                           "seed 5, trace 0: perfbench output lacks"):
        bench.collect({"parent": "p", "change": "c"}, ["direct-d5"], END_TO_END,
                      pairs=1, seed=5, seconds=1.0, traced_seed=3001,
                      traced_seconds=1.0, run=run, log=lambda msg: None)


def test_bench_record_takes_run_length_from_benchmark(tmp_path, monkeypatch, capsys):
    bench = load_script("bench_record")
    seen = {}

    def collect(checkouts, workloads, end_to_end, **kwargs):
        seen.update(kwargs, workloads=workloads)
        return {}

    monkeypatch.setattr(bench, "collect", collect)
    out = tmp_path / "bench.json"
    assert bench.main(["--pr", "7", "--parent", str(tmp_path), "--out", str(out)]) == 0
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    assert seen["seconds"] == spec["run_seconds"]
    assert seen["workloads"] == [w["name"] for w in spec["workloads"]]
    assert (seen["pairs"], seen["traced_seed"]) == (10, 3001)
    assert json.loads(out.read_text())["pr"] == 7
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("workload", ["direct-d5", "rare-d5", "heavy-d11"])
def test_perfbench_runs(workload):
    # a one-second traced run of each benchmark workload: it goes through the
    # public API the benchmark calls (the graph builder, run_chain, the
    # traced functions) and checks every decode it makes
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
