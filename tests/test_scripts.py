import csv
import importlib.util
import json
from pathlib import Path

import pytest

from surfmatch import harness

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
