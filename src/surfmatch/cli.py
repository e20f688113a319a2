"""Command-line interface.

Subcommands:

* ``build-graph``   — write the decoding graph as JSON
* ``decode``        — run the full chain on one syndrome
* ``estimate-ler``  — ``direct`` Monte-Carlo or ``rare`` stratified estimate
* ``hw-dist``       — syndrome-weight histograms before/after predecoding
* ``latency``       — modeled latency report
* ``steps``         — deepest-step usage report

All structured output carries ``schema_version`` so downstream tooling can
detect format changes.  Validation problems exit with status 2.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .graph import build_decoding_graph
from .harness import (PREDECODERS, SCHEMA_VERSION, ExperimentConfig,
                      report_hw_distribution, report_latency, report_step_usage,
                      run_chain, run_direct, run_rare_event)
from .maindecoder import DEFAULT_HW_CAP
from .noise import ErrorSet, Syndrome, inject_k_errors, syndrome_from_errors, trial_seed


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--distance", type=int, default=3, help="code distance (odd, >= 3)")
    p.add_argument("--rounds", type=int, default=None,
                   help="measurement rounds (default: distance)")
    p.add_argument("--p", type=float, default=1e-3, help="uniform edge flip probability")


def _add_chain_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--predecoder", choices=PREDECODERS, default="adaptive")
    p.add_argument("--main-hw-cap", type=int, default=DEFAULT_HW_CAP,
                   help="largest syndrome the exact matching stage accepts")
    p.add_argument("--budget-ns", type=float, default=960.0)
    p.add_argument("--clock-mhz", type=float, default=250.0)


def _add_out_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(distance=args.distance, rounds=args.rounds, p=args.p)
    for name in ("predecoder", "main_hw_cap", "budget_ns", "clock_mhz", "k_max"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "master_seed", None) is not None:
        cfg.master_seed = args.master_seed
    cfg.validate()
    return cfg


def _emit(args: argparse.Namespace, payload: dict, rows: list[list] | None) -> None:
    if args.format == "csv":
        if rows is None:
            raise ValueError("this subcommand has no CSV form; use --format json")
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build_graph(args: argparse.Namespace) -> int:
    graph = build_decoding_graph(args.distance, args.rounds, args.p)
    payload = json.loads(graph.to_json())
    payload["schema_version"] = SCHEMA_VERSION
    _emit(args, payload, None)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    if args.obs is not None and args.flipped is None:
        raise ValueError("--obs goes with --flipped only")
    for flag, value in (("--inject-k", args.inject_k), ("--seed", args.seed)):
        if value is not None and value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    # Two flips of one edge cancel and one detector is flipped or not, so a
    # repeated id is a mistake, not a set to deduplicate.
    for flag, ids in (("--errors", args.errors), ("--flipped", args.flipped)):
        if ids is not None and len(set(ids)) != len(ids):
            twice = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"{flag} repeats ids {twice}")
    cfg = _config(args)
    cfg.k_max = 0  # single-shot decode samples nothing by stratum
    graph, table = cfg.build()
    if args.inject_k is not None:
        errors = inject_k_errors(graph, args.inject_k,
                                 trial_seed(args.seed, 0, args.inject_k))
        syndrome = syndrome_from_errors(graph, errors)
    elif args.errors is not None:
        syndrome = syndrome_from_errors(graph, ErrorSet(frozenset(args.errors)))
    else:
        syndrome = Syndrome(frozenset(args.flipped), args.obs or 0)
    rec = run_chain(graph, table, syndrome, cfg)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "distance": cfg.distance,
        "rounds": graph.rounds,
        "p": cfg.p,
        "predecoder": cfg.predecoder_label,
        "pre_hw": rec.pre_hw,
        "post_hw": rec.post_hw,
        "aborted": rec.aborted,
        "failure": rec.failure,
        "predecode_cycles": rec.predecode_cycles,
        "predecode_ns": rec.predecode_ns,
        "total_ns": rec.total_ns,
    }
    if rec.outcome is not None:
        out = rec.outcome
        payload.update({
            "predicted_observable": out.predicted_observable,
            "pairs": [list(p) for p in out.matching.pairs],
            "boundary": list(out.matching.boundary_matches),
            "weight": out.total_weight * -math.log(cfg.p),
            "correction_edges": list(out.correction_edges),
            "cycles_total": out.cycles_total,
        })
    rows = [["key", "value"]] + [[k, v] for k, v in payload.items()
                                 if not isinstance(v, list)]
    _emit(args, payload, rows)
    return 0


def _cmd_estimate_ler(args: argparse.Namespace) -> int:
    cfg = _config(args)
    if args.mode == "direct":
        cfg.shots_direct = args.shots
        cfg.k_max = 0  # unused by direct sampling; keep tiny graphs valid
        est = run_direct(cfg)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "direct",
            "distance": cfg.distance,
            "p": cfg.p,
            "predecoder": cfg.predecoder_label,
            "shots": cfg.shots_direct,
            "ler": est.ler,
            "stderr": est.stderr,
        }
        rows = [["ler", "stderr", "shots"], [est.ler, est.stderr, cfg.shots_direct]]
    else:
        cfg.shots_per_k = args.shots_per_k
        cfg.k_max = args.k_max
        est = run_rare_event(cfg)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "mode": "rare",
            "distance": cfg.distance,
            "p": cfg.p,
            "predecoder": cfg.predecoder_label,
            "shots_per_k": cfg.shots_per_k,
            "k_max": cfg.k_max,
            **est.to_dict(),
        }
        rows = [["k", "p_occ", "p_fail", "failures", "shots"]]
        rows += [[s.k, repr(s.p_occ), repr(s.p_fail), s.failures, s.shots]
                 for s in est.per_k]
    _emit(args, payload, rows)
    return 0


def _cmd_hw_dist(args: argparse.Namespace) -> int:
    cfg = _config(args)
    report = report_hw_distribution(cfg, shots_per_k=args.shots_per_k)
    payload = {"schema_version": SCHEMA_VERSION, **report}
    rows = [["which", "hw", "frequency"]]
    rows += [["pre", hw, repr(f)] for hw, f in report["pre"].items()]
    rows += [["post", hw, repr(f)] for hw, f in report["post"].items()]
    _emit(args, payload, rows)
    return 0


def _cmd_latency(args: argparse.Namespace) -> int:
    cfg = _config(args)
    report = report_latency(cfg, shots_per_k=args.shots_per_k)
    payload = {"schema_version": SCHEMA_VERSION, **report}
    rows = [["key", "value"]] + [[k, v] for k, v in report.items()]
    _emit(args, payload, rows)
    return 0


def _cmd_steps(args: argparse.Namespace) -> int:
    cfg = _config(args)
    report = report_step_usage(cfg, shots_per_k=args.shots_per_k)
    payload = {"schema_version": SCHEMA_VERSION, **report}
    rows = [["step", "fraction"]]
    rows += [[step, repr(f)] for step, f in report["steps"].items()]
    _emit(args, payload, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="surfmatch",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="write the decoding graph as JSON")
    _add_graph_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build_graph, format="json")

    p = sub.add_parser("decode", help="decode one syndrome")
    _add_graph_args(p)
    _add_chain_args(p)
    _add_out_args(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--inject-k", type=int, default=None,
                     help="sample a syndrome with exactly K errors")
    src.add_argument("--errors", type=_int_list, default=None,
                     help="comma-separated edge ids to flip")
    src.add_argument("--flipped", type=_int_list, default=None,
                     help="comma-separated detector ids")
    p.add_argument("--obs", type=int, choices=(0, 1), default=None,
                   help="true observable bit accompanying --flipped (default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("estimate-ler", help="estimate the logical error rate")
    mode = p.add_subparsers(dest="mode", required=True)
    for name in ("direct", "rare"):
        m = mode.add_parser(name)
        _add_graph_args(m)
        _add_chain_args(m)
        _add_out_args(m)
        m.add_argument("--master-seed", type=int, default=0)
        if name == "direct":
            m.add_argument("--shots", type=int, default=100_000)
        else:
            m.add_argument("--shots-per-k", type=int, default=100_000)
            m.add_argument("--k-max", type=int, default=24)
        m.set_defaults(func=_cmd_estimate_ler)

    for name, func, blurb in (
            ("hw-dist", _cmd_hw_dist, "syndrome-weight histograms"),
            ("latency", _cmd_latency, "modeled latency report"),
            ("steps", _cmd_steps, "deepest-step usage report")):
        p = sub.add_parser(name, help=blurb)
        _add_graph_args(p)
        _add_chain_args(p)
        _add_out_args(p)
        p.add_argument("--shots-per-k", type=int, default=1000)
        p.add_argument("--k-max", type=int, default=24,
                       help="largest error count sampled for the corpus")
        p.add_argument("--master-seed", type=int, default=0)
        p.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
