"""k-server testbed.

The work function algorithm with dense exact-integer work vectors, an
offline optimum with cost-realizing trace extraction, an independent
brute-force oracle, stabilizing anchor sequences, and a harness that
mechanically verifies the anchored-sequence properties (P1 through T1)
and the strict competitive ratio on concrete instances.

The package defines only what the command line and its own modules
call, plus the oracle and ``measure_strict_ratio`` for callers outside
it; the tests keep their reference loops and trace validity check.
"""

from .anchor import AnchorSpec, compute_anchor
from .execution import ExecutionTrace, Move, Round
from .harness import (
    CHECK_DESCRIPTIONS,
    CHECK_IDS,
    CampaignRow,
    CheckResult,
    ExperimentReport,
    PropertyReport,
    RatioRow,
    generate_instance,
    measure_strict_ratio,
    report_to_csv,
    resolve_alpha,
    run_campaign,
    validate_campaign_config,
    verify_anchored_properties,
)
from .metric import (
    AxiomViolation,
    Configuration,
    InputError,
    Instance,
    MetricSpace,
    MetricValidation,
    canonical_configuration,
    instance_to_json,
    matching_assignment,
    matching_cost,
    min_pairwise_distance,
    random_metric,
    validate_metric,
)
from .offline import (
    OracleGuardExceeded,
    extract_trace,
    opt_cost,
    opt_trace,
    oracle_opt,
    oracle_schedule_costs,
    oracle_work_vector,
    work_vector_history,
)
from .rng import SplitMix64
from .workfunction import (
    ConfigurationSpace,
    History,
    WorkVector,
    configuration_space,
    final_work_vector,
    initial_work_vector,
    run_wfa,
    update_work_vector,
    wfa_decide,
)

__version__ = "0.1.0"
