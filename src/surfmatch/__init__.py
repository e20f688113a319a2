"""Surface-code decoding toolkit: adaptive predecoding in front of exact
minimum-weight matching, with rare-event logical-error-rate estimation.
"""
from .graph import (BOUNDARY_JSON_ID, DetectorGraph, Edge, PathTable,
                    build_decoding_graph, build_path_table, reconstruct_boundary_path,
                    reconstruct_path)
from .harness import (ExperimentConfig, KStratum, LerEstimate, TrialRecord,
                      report_hw_distribution, report_latency, report_step_usage,
                      run_chain, run_direct, run_rare_event)
from .maindecoder import (DEFAULT_HW_CAP, MAX_HW_CAP, DecodeOutcome, MatchingSet,
                          brute_force_mwpm, decode, matching_search_size)
from .noise import (ErrorSet, Syndrome, inject_k_errors, make_rng,
                    occurrence_probability, occurrence_tail, sample_iid,
                    syndrome_from_errors, trial_seed)
from .predecoder import (GREEDY_LABEL, DecodingSubgraph, Prematch, PredecodeConfig,
                         PredecodeResult, Step, adaptive_predecode, build_subgraph,
                         creates_singleton, greedy_baseline, scan_candidates,
                         step3_singleton_path)

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_JSON_ID", "DetectorGraph", "Edge", "PathTable",
    "build_decoding_graph", "build_path_table", "reconstruct_path",
    "reconstruct_boundary_path",
    "ErrorSet", "Syndrome", "make_rng", "trial_seed", "sample_iid",
    "inject_k_errors", "syndrome_from_errors", "occurrence_probability",
    "occurrence_tail",
    "Step", "Prematch", "DecodingSubgraph", "PredecodeConfig", "PredecodeResult",
    "build_subgraph", "creates_singleton", "scan_candidates", "step3_singleton_path",
    "adaptive_predecode", "GREEDY_LABEL", "greedy_baseline",
    "DEFAULT_HW_CAP", "MAX_HW_CAP", "MatchingSet", "DecodeOutcome",
    "matching_search_size", "brute_force_mwpm", "decode",
    "ExperimentConfig", "TrialRecord", "KStratum", "LerEstimate", "run_chain",
    "run_direct", "run_rare_event", "report_hw_distribution", "report_latency",
    "report_step_usage",
]
