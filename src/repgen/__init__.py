"""Deterministic generation games over ultimately periodic subsets of the
naturals: exact set algebra, hypothesis closure, group-weight tracking,
dimension search, feasibility decisions, generator constructions, adversary
constructions, and a scenario harness with byte-stable traces.
"""

from .adversaries import (ConstantQueryFree, ConstantSession, GreedyQuerier,
                          MembershipOracle, QueryAdversaryState,
                          QueryBudgetExceeded, QueryThenEmit, ViolationReport,
                          gc_witness_adversary, geometric_adversary,
                          query_adversary, verify_report)
from .dimension import (Condition1, Condition2, GcResult, check_witness,
                        gc_depth, gc_dimension)
from .errors import ConfigError, InvariantViolation, ScenarioError
from .generators import (FeasibilityEntry, FeasibilityWitness,
                         GeneratorSession, is_feasible, limit_emit,
                         nonuniform_emit, nonuniform_thresholds, uniform_emit)
from .groups import (BlockPartition, FiniteGroups, GroupCollection,
                     ValidationReport, finite_support_size)
from .harness import (GameTrace, StepRecord, evaluate_asserts, parse_trace,
                      run_game, trace_lines)
from .hypotheses import Hypothesis, HypothesisClass
from .measures import (GroupTally, RationalDist, empirical, format_fraction,
                       group_empirical, is_alpha_representative,
                       parse_fraction)
from .periodic import (ALL, EMPTY, EVENS, ODDS, PeriodicSet, format_set,
                       from_finite, from_threshold, interval, multiples,
                       parse_set)
from .scenario import (Scenario, StreamSpec, build_session, load_scenario,
                       materialize_stream, parse_scenario)

__version__ = "0.1.0"
