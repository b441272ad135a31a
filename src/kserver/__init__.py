"""k-server testbed.

The work function algorithm with dense exact-integer work vectors, an
offline optimum with cost-realizing trace extraction, an independent
brute-force oracle, stabilizing anchor sequences, and a harness that
mechanically verifies the anchored-sequence properties (P1 through T1)
and the strict competitive ratio on concrete instances.
"""

from .anchor import AnchorSpec, compute_anchor
from .execution import ExecutionTrace, Move, Round, trace_violations
from .harness import (
    CHECK_DESCRIPTIONS,
    CHECK_IDS,
    DEFAULT_CAMPAIGN,
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
    configuration_distance,
    instance_from_json,
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
    opt_cost_to,
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
    work_vector_to_json,
)

__version__ = "0.1.0"
