import importlib.util
import json
from pathlib import Path

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
