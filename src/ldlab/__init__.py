"""ldlab: finite-field Hamming geometry, random linear codes,
list-decodability checkers, and constructive shattering / increasing-chain
machinery with brute-force oracles."""

__version__ = "0.1.0"

from .errors import ParameterError, ResourceBudgetError
from .gfq import FieldTable, VecQ, all_vectors, field_new, rank_of
from .hamming import (BallSpec, ball_points, ball_volume,
                      ball_weight_class_sizes, entropy_q, radius_of,
                      sample_ball_uniform)
from .codes import (Code, LdSampleDistribution, LdVerdict, check_ld_exact,
                    check_ld_montecarlo, format_code, parse_code, random_code)
from .chains import (Chain, ShatterWitness, chain_find, chain_length_bound,
                     chain_verify, format_chain, format_vector_set,
                     format_witness, longest_chain_oracle,
                     oracle_best_translate, parse_chain, parse_vector_set,
                     parse_witness, shatter_find, shatter_threshold,
                     shatter_verify)
from .experiments import (BallSampleConfig, PairSumConfig, SpanTrialConfig,
                          SweepConfig, exact_pair_sum_probability,
                          pair_sum_count_closed_form, regenerate_sweep_code,
                          run_ball_samples, run_pair_sum_experiment,
                          run_rate_sweep, run_span_experiment)
from .seeding import derive_stream

__all__ = [
    "__version__",
    "ParameterError", "ResourceBudgetError",
    "FieldTable", "VecQ", "all_vectors", "field_new", "rank_of",
    "BallSpec", "ball_points", "ball_volume", "ball_weight_class_sizes",
    "entropy_q", "radius_of", "sample_ball_uniform",
    "Code", "LdSampleDistribution", "LdVerdict", "check_ld_exact",
    "check_ld_montecarlo", "format_code", "parse_code", "random_code",
    "Chain", "ShatterWitness", "chain_find", "chain_length_bound",
    "chain_verify", "format_chain", "format_vector_set", "format_witness",
    "longest_chain_oracle", "oracle_best_translate", "parse_chain",
    "parse_vector_set", "parse_witness", "shatter_find", "shatter_threshold",
    "shatter_verify",
    "BallSampleConfig", "PairSumConfig", "SpanTrialConfig", "SweepConfig",
    "exact_pair_sum_probability", "pair_sum_count_closed_form",
    "regenerate_sweep_code", "run_ball_samples", "run_pair_sum_experiment",
    "run_rate_sweep", "run_span_experiment",
    "derive_stream",
]
