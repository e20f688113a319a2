import hashlib
import json
import math

import pytest

from surfmatch import (MAX_HW_CAP, ExperimentConfig, build_decoding_graph,
                       inject_k_errors, run_chain, syndrome_from_errors, trial_seed)
from surfmatch.cli import main

from oracles import edge_between, graph_from_json
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
    # p is written once, at the top; an edge has no prior or weight of its own
    assert all(set(e) == {"id", "u", "v", "obs"} for e in doc["edges"])
    graph = graph_from_json(out)
    assert (graph.distance, graph.rounds, graph.p) == (3, 2, 0.01)


def test_build_graph_to_file(capsys, tmp_path):
    path = tmp_path / "graph.json"
    code, out, _ = run_cli(capsys, "build-graph", "--distance", "3",
                           "--out", str(path))
    assert code == 0 and out == ""
    graph = graph_from_json(path.read_text())
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
    eid = edge_between(g, u, v).id
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


def test_decode_output_pinned(capsys):
    # The JSON of 24 decodes, byte for byte, as the correction-building
    # decoder wrote it; correction_edges is listed in its set's iteration
    # order, so this also pins how the on-read correction is built.
    digest = hashlib.sha256()
    for d in (5, 11):
        for k in (4, 9, 14, 20):
            for seed in (1, 2, 3):
                code, out, _ = run_cli(capsys, "decode", "--distance", str(d),
                                       "--inject-k", str(k), "--seed", str(seed))
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == (
        "12a41925cc0ee622b82478c7af99e06ed7cf28d8fdb7a988cf4084e0cf97d9d4")


def test_decode_sources_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--distance", "3", "--errors", "0", "--flipped", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["decode", "--distance", "3"])  # a syndrome source is required


@pytest.mark.parametrize("source", [["--errors", "14,7"], ["--inject-k", "2"]])
def test_decode_obs_without_flipped_exits_2(capsys, source):
    code, out, err = run_cli(capsys, "decode", "--distance", "3", "--p", "0.01",
                             *source, "--obs", "1")
    assert code == 2 and out == ""
    assert "--obs" in err


def test_decode_flipped_obs_defaults_to_0(capsys):
    g = build_decoding_graph(3, 2, 0.01)
    u, v = find_adjacent_pair(g)
    argv = ("decode", "--distance", "3", "--rounds", "2", "--flipped", f"{u},{v}")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["failure"] is False
    code, out, _ = run_cli(capsys, *argv, "--obs", "1")
    assert code == 0 and json.loads(out)["failure"] is True


def test_decode_adaptive_shrinks_to_low_cap(capsys):
    # HW 7 would fit the budget, but not --main-hw-cap 4, so the predecoder
    # goes on until the residual is within the cap
    code, out, _ = run_cli(capsys, "decode", "--distance", "5", "--main-hw-cap", "4",
                           "--flipped", "0,2,4,6,8,10,12")
    assert code == 0
    doc = json.loads(out)
    assert doc["pre_hw"] == 7 and doc["post_hw"] <= 4
    assert doc["aborted"] is False and doc["predecode_cycles"] > 0
    assert doc["total_ns"] <= 960.0 and "pairs" in doc


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


@pytest.mark.parametrize("predecoder", ["adaptive", "greedy", "none"])
@pytest.mark.parametrize("flipped", ["0,999", "0,1,2,3,4,5,6,7,8,9,10,999"])
def test_decode_rejects_out_of_range_detector_ids(capsys, predecoder, flipped):
    # HW 2 bypasses to the matcher; HW 12 is above the cap of 10, where
    # "none" aborts and the others predecode: each path refuses the id
    code, out, err = run_cli(capsys, "decode", "--distance", "5", "--rounds", "2",
                             "--p", "0.01", "--predecoder", predecoder,
                             "--flipped", flipped)
    assert code == 2 and out == ""
    assert err == "error: flipped ids outside detector range: [999]\n"


@pytest.mark.parametrize("flag", ["--errors", "--flipped"])
def test_decode_refuses_repeated_ids(capsys, flag):
    # two flips of one edge cancel, and a detector is flipped once or not
    # at all, so a repeated id is refused rather than read as a set
    code, out, err = run_cli(capsys, "decode", "--distance", "3", flag, "3,1,3")
    assert code == 2 and out == ""
    assert err == f"error: {flag} repeats ids [3]\n"


@pytest.mark.parametrize("k", [1, 6, 14])
def test_decode_weight_is_hops_times_minus_log_p(capsys, k):
    p = 0.004
    code, out, _ = run_cli(capsys, "decode", "--distance", "5", "--p", str(p),
                           "--inject-k", str(k), "--seed", "3")
    assert code == 0
    cfg = ExperimentConfig(distance=5, p=p, k_max=0)
    graph, table = cfg.build()
    errors = inject_k_errors(graph, k, trial_seed(3, 0, k))
    rec = run_chain(graph, table, syndrome_from_errors(graph, errors), cfg)
    hops = rec.outcome.total_weight
    assert type(hops) is int and hops > 0
    assert json.loads(out)["weight"] == hops * -math.log(p)


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


def test_estimate_ler_rare_json_pinned(capsys):
    """The rare-mode JSON byte for byte; digest taken when the matcher came
    to compare integer hop counts, so the per-k failures are those of the
    same run at p = 1e-3 (k = 6: 7 of 40, where float ties gave 8)."""
    argv = ("estimate-ler", "rare", "--distance", "5", "--shots-per-k", "40",
            "--k-max", "6", "--master-seed", "9", "--p")
    code, out, _ = run_cli(capsys, *argv, "0.003")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "53d7c2aa21c2c1b652965a2edb82697e315ef7b5bc6e13c86966216fd2d618a1")
    _, at_1e3, _ = run_cli(capsys, *argv, "0.001")
    failures = [[s["failures"] for s in json.loads(doc)["per_k"]] for doc in (out, at_1e3)]
    assert failures[0] == failures[1] == [0, 0, 0, 0, 0, 1, 7]


def test_estimate_ler_direct_json_pinned(capsys):
    """The direct-mode JSON byte for byte, 27 failures in 3,000 shots over
    three blocks.  Re-pinned when the i.i.d. sampler came to draw the gaps
    between flips: that draws other trials from the same block seeds, so
    the count moved from 22 (one uniform per edge); 27 is what
    ``oracles.direct_failures`` counts when it decodes every trial of
    ``oracles.iid_stream``, error-free ones included."""
    code, out, _ = run_cli(capsys, "estimate-ler", "direct", "--distance", "3",
                           "--rounds", "2", "--p", "0.01", "--shots", "3000",
                           "--master-seed", "5")
    assert code == 0
    assert json.loads(out)["ler"] == 27 / 3000
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ad9a40b99d1789e2c3b73111551b8eca3118ad6d4f4407155efa69be81631026")


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


@pytest.mark.parametrize("flag", ["--budget-ns", "--clock-mhz"])
def test_nan_timing_exits_2(capsys, flag):
    code, out, err = run_cli(capsys, "decode", "--distance", "7", "--p", "0.001",
                             "--inject-k", "9", "--seed", "3", flag, "nan")
    assert code == 2 and out == ""
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("command, shots",
                         [("hw-dist", "0"), ("latency", "-5"), ("steps", "0")])
def test_report_nonpositive_shots_exits_2(capsys, command, shots):
    code, out, err = run_cli(capsys, command, "--distance", "3", "--p", "0.01",
                             "--shots-per-k", shots)
    assert code == 2 and out == ""
    assert "shots_per_k" in err


def test_main_hw_cap_over_matcher_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "decode", "--distance", "3", "--errors", "0",
                           "--main-hw-cap", str(MAX_HW_CAP + 1))
    assert code == 2
    assert "main_hw_cap" in err


def test_hw_target_flag_is_gone(capsys):
    # the residual target is --main-hw-cap; --hw-target is an unknown flag
    for value in ("6", "10"):
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--distance", "3", "--errors", "0", "--hw-target", value])
        assert exc.value.code == 2
        assert "unrecognized arguments: --hw-target" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (("--inject-k", "-2"), "--inject-k must be >= 0, got -2"),
    (("--inject-k", "2", "--seed", "-1"), "--seed must be >= 0, got -1")],
    ids=["inject-k", "seed"])
def test_decode_negative_seed_or_k_exits_2(capsys, flags, message):
    code, out, err = run_cli(capsys, "decode", "--distance", "3", *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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
