import json

import pytest

from surfmatch import MAX_HW_CAP, DetectorGraph, build_decoding_graph
from surfmatch.cli import main

from patterns import find_adjacent_pair


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------- build-graph


def test_build_graph_stdout(capsys):
    code, out, _ = run_cli(capsys, "build-graph", "--distance", "3",
                           "--rounds", "2", "--p", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert len(doc["nodes"]) == 8
    assert any(e["v"] == -1 for e in doc["edges"])
    graph = DetectorGraph.from_json(out)
    assert (graph.distance, graph.rounds, graph.p) == (3, 2, 0.01)


def test_build_graph_to_file(capsys, tmp_path):
    path = tmp_path / "graph.json"
    code, out, _ = run_cli(capsys, "build-graph", "--distance", "3",
                           "--out", str(path))
    assert code == 0 and out == ""
    graph = DetectorGraph.from_json(path.read_text())
    assert graph.distance == 3 and graph.rounds == 3


# --------------------------------------------------------------- decode


def test_decode_flipped_pair(capsys):
    g = build_decoding_graph(3, 2, 0.01)
    u, v = find_adjacent_pair(g)
    code, out, _ = run_cli(capsys, "decode", "--distance", "3", "--rounds", "2",
                           "--p", "0.01", "--flipped", f"{u},{v}", "--obs", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["pre_hw"] == 2 and doc["post_hw"] == 2
    assert doc["failure"] is False and doc["aborted"] is False
    assert doc["pairs"] == [[u, v]]
    assert doc["predicted_observable"] == 0
    assert doc["total_ns"] == pytest.approx(4.0)


def test_decode_flipped_wrong_observable_fails(capsys):
    g = build_decoding_graph(3, 2, 0.01)
    u, v = find_adjacent_pair(g)
    code, out, _ = run_cli(capsys, "decode", "--distance", "3", "--rounds", "2",
                           "--flipped", f"{u},{v}", "--obs", "1")
    assert code == 0
    assert json.loads(out)["failure"] is True


def test_decode_errors_list(capsys):
    g = build_decoding_graph(3, 3, 0.01)
    u, v = find_adjacent_pair(g)
    eid = g.edge_between(u, v).id
    code, out, _ = run_cli(capsys, "decode", "--distance", "3",
                           "--errors", str(eid))
    assert code == 0
    doc = json.loads(out)
    assert doc["failure"] is False
    assert doc["correction_edges"] == [eid]


def test_decode_inject_k_deterministic(capsys):
    argv = ("decode", "--distance", "3", "--inject-k", "2", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["pre_hw"] <= 4


def test_decode_sources_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--distance", "3", "--errors", "0", "--flipped", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["decode", "--distance", "3"])  # a syndrome source is required


def test_decode_csv(capsys):
    code, out, _ = run_cli(capsys, "decode", "--distance", "3",
                           "--inject-k", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert {"failure", "pre_hw", "post_hw", "predecoder"} <= keys
    assert "pairs" not in keys  # lists have no place in the key,value form


def test_decode_rejects_out_of_range_ids(capsys):
    code, _, err = run_cli(capsys, "decode", "--distance", "3",
                           "--errors", "99999")
    assert code == 2
    assert err.startswith("error:")


# --------------------------------------------------------- estimate-ler


def test_estimate_ler_direct_json(capsys):
    code, out, _ = run_cli(capsys, "estimate-ler", "direct", "--distance", "3",
                           "--rounds", "2", "--p", "0.01", "--shots", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "direct" and doc["shots"] == 50
    assert 0.0 <= doc["ler"] <= 1.0
    assert "stderr" in doc


def test_estimate_ler_rare_json(capsys):
    code, out, _ = run_cli(capsys, "estimate-ler", "rare", "--distance", "3",
                           "--p", "0.01", "--shots-per-k", "20", "--k-max", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "rare"
    assert doc["k_max"] == 4 and len(doc["per_k"]) == 5
    assert doc["per_k"][0]["shots"] == 0
    assert doc["ler"] == pytest.approx(
        sum(s["p_occ"] * s["p_fail"] for s in doc["per_k"]))
    assert doc["truncation"] > 0.0


def test_estimate_ler_rare_csv(capsys):
    code, out, _ = run_cli(capsys, "estimate-ler", "rare", "--distance", "3",
                           "--shots-per-k", "10", "--k-max", "3",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,p_occ,p_fail,failures,shots"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] == "0"


# -------------------------------------------------------------- reports


def test_hw_dist_json(capsys):
    code, out, _ = run_cli(capsys, "hw-dist", "--distance", "3", "--p", "0.01",
                           "--shots-per-k", "40", "--k-max", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["predecoder"] == "adaptive"
    assert set(doc) >= {"pre", "post", "abort_rate", "samples"}


def test_hw_dist_csv(capsys):
    code, out, _ = run_cli(capsys, "hw-dist", "--distance", "3",
                           "--shots-per-k", "20", "--k-max", "8",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "which,hw,frequency"


def test_latency_report(capsys):
    code, out, _ = run_cli(capsys, "latency", "--distance", "3",
                           "--shots-per-k", "20", "--k-max", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["budget_ns"] == 960.0
    assert {"predecode_max_ns", "total_max_ns", "abort_rate"} <= set(doc)

    code, out, _ = run_cli(capsys, "latency", "--distance", "3",
                           "--shots-per-k", "20", "--k-max", "8",
                           "--format", "csv")
    assert out.splitlines()[0] == "key,value"


def test_steps_report(capsys):
    code, out, _ = run_cli(capsys, "steps", "--distance", "3",
                           "--shots-per-k", "40", "--k-max", "10",
                           "--predecoder", "greedy")
    assert code == 0
    doc = json.loads(out)
    assert doc["predecoder"] == "greedy-nosafety"
    assert isinstance(doc["steps"], dict)

    code, out, _ = run_cli(capsys, "steps", "--distance", "3",
                           "--shots-per-k", "20", "--k-max", "8",
                           "--format", "csv")
    assert out.splitlines()[0] == "step,fraction"


# ------------------------------------------------------------ plumbing


def test_validation_failure_exits_2(capsys):
    code, _, err = run_cli(capsys, "decode", "--distance", "4",
                           "--errors", "0")
    assert code == 2
    assert err.startswith("error:")


def test_main_hw_cap_over_matcher_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "decode", "--distance", "3", "--errors", "0",
                           "--main-hw-cap", str(MAX_HW_CAP + 1))
    assert code == 2
    assert "main_hw_cap" in err


def test_hw_target_takes_6_8_or_10(capsys):
    code, _, _ = run_cli(capsys, "decode", "--distance", "3", "--errors", "0",
                         "--hw-target", "6")
    assert code == 0
    code, _, err = run_cli(capsys, "decode", "--distance", "3", "--errors", "0",
                           "--hw-target", "7")
    assert code == 2 and "hw_target" in err
    with pytest.raises(SystemExit) as exc:  # the "adaptive" alias is gone
        main(["decode", "--distance", "3", "--errors", "0", "--hw-target", "adaptive"])
    assert exc.value.code == 2


def test_build_graph_has_no_csv_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-graph", "--distance", "3", "--format", "csv"])
    assert exc.value.code == 2


def test_out_file(capsys, tmp_path):
    path = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "decode", "--distance", "3",
                           "--inject-k", "1", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["schema_version"] == 1
