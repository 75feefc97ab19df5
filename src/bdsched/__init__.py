"""Exact simulation and certification of 2-bounded delay packet scheduling
with one-step lookahead.

The package simulates an online transmission policy whose guards compare
profit ratios against constants in Q(sqrt17), computes clairvoyant and
partial offline optima with a canonical tie-breaking rule, partitions both
timelines into comparable intervals, and certifies -- in exact arithmetic --
that the optimum never earns more than (1+sqrt17)/4 times the policy on any
checked instance.
"""

from .model import (
    ALPHA,
    InfeasibleScheduleError,
    Instance,
    InstanceFormatError,
    Packet,
    Quad17,
    R,
    Rat,
    Violation,
    dump_instance,
    instance_hash,
    load_instance,
    parse_value,
    profit,
    quad_cmp,
    render_decimal,
    render_value,
    validate_instance,
)
from .offline import (
    DPOracle,
    InternalInvariantError,
    PSet,
    QueryEngine,
    dp_partial,
    opt_full,
)
from .cp import (
    CaseTrace,
    StepRecord,
    classify_case,
    run_cp,
    trace_records,
    trace_to_jsonl,
)
from .analysis import (
    Finding,
    Interval,
    IntervalReport,
    PartitionError,
    build_intervals,
    check_forced_opt,
    check_inclusions,
    check_interval_bounds,
    check_lemma_bounds,
    partition_cp,
)
from .generators import (
    DEFAULT_VALUE_GRID,
    GridSpec,
    RandomConfig,
    chain_family,
    count_bases,
    count_instances,
    enumerate_bases,
    enumerate_instances,
    gen_random,
    greedy_baseline,
    greedy_killer,
    tight_family,
)
from .harness import (
    CheckConfig,
    InstanceResult,
    Report,
    Summary,
    check_instance,
    compare_algorithms,
    cross_check_queries,
    minimize_witness,
    run_exhaustive,
    run_fuzz,
)

__version__ = "0.1.0"
