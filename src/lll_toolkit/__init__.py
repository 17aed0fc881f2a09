"""Exact-arithmetic toolkit for constraint resampling: the minimal-index
resampling solver, witness trees and their branching-process bounds, stable
output prefixes of event streams, and substring-avoiding sequences."""

__version__ = "0.1.0"

from .errors import (BudgetRefused, ContractViolation, EngineError,
                     ExtractionTimeout, FamilyError, ModelError, TapeExhausted,
                     VerificationError)
from .model import (ConditionEntry, ConditionReport, ConstraintSystem, Event,
                    LLLParams, StreamParams, VariableSpec,
                    avoiding_assignments, avoiding_probability,
                    check_computable_lll, check_finite_lll, check_lll,
                    clause_event, event_probability, expected_steps_bound,
                    neighbors, uniform_bit)
from .tape import Tape
from .engine import (ResampleLog, RunResult, Step, first_k_stable_time,
                     log_from_event_sequence, replay, run_finite, run_stream,
                     stable_times, suggested_max_steps)
from .witness import (WitnessTree, build_witness_tree,
                      crosscheck_tape_positions, reconstruct_tape_positions,
                      tree_of_events, tree_probability_bound, trees_for_run,
                      validate_tree)
from .exhaustive import census_runs, check_tree_lemma, enumerate_runs
from .galton_watson import check_mt_vs_gw, gw_sample, gw_tree_probability
from .layerwise import (PrefixResult, StabilityCertificate, SystemQOracle,
                        TableQOracle, approx_output_distribution,
                        compute_assignment_prefix,
                        extract_from_positive_probability,
                        extract_positive_branch, stability_horizon)
from .families import (ChainCnfFamily, FiniteFamily, ForbiddenSubstringFamily,
                       InfiniteFamily, TrimmedFamily)
from .corollaries import (build_avoiding_sequence, compute_beta_M,
                          fixed_cnf_params, forbidden_substrings_to_family,
                          scan_for_substrings, trim_clauses,
                          verify_dyadic_weights)
from .fireworks import (BeatResult, ConstantOracle, DivergeAtOracle,
                        GameConfig, IdentityOracle, beat_function, beat_many,
                        beat_with_k, loss_probability, play_game,
                        play_with_k, sequential_take_distribution,
                        win_probability_exact)
from .corpus import CorpusEntry, toy_corpus
