"""Online convex mixture of two experts, with a verifiable regret guarantee.

The combiner mixes two expert predictions through a sigmoid-parameterized
weight updated along the gradient of the squared error.  The package also
ships the hindsight oracle the guarantee compares against, the full
constant set of the guarantee, per-step progress audits, worst-case
stress tests, benchmark sequences, and CSV/SVG tooling.
"""

from .audit import (
    WITNESS_COLUMNS,
    LemmaBounds,
    construction_instances,
    evaluate_instance,
    lemma_bounds,
    search_violations,
)
from .bounds import (
    RegretBound,
    SufficiencyRoots,
    TheoremConstants,
    constant_identity_errors,
    constants_from_eps,
    constants_from_mu,
    eps_from_mu,
    kl,
    loss_factor,
    mu_supremum,
    per_step_margin,
    per_step_margins,
    regret_and_bound,
    requirement_sides,
    sufficiency_roots,
    z_of,
)
from .mixture import (
    MixtureParams,
    MixtureState,
    NumericError,
    Trajectory,
    logistic,
    logit,
    multiplicative_lambda,
    multiplicative_lambdas,
    run,
    sample_columns,
    state_from_lambda,
    step,
)
from .oracle import (
    BestBeta,
    GridBest,
    OracleStats,
    accumulate,
    best_beta,
    best_betas,
    grid_best_beta,
    loss_at_beta,
    prefix_stats,
    stats_from,
)
from .report import RunSummary, summarize
from .signals import (
    KINDS,
    TRAJECTORY_COLUMNS,
    ParseError,
    SequenceSpec,
    clip_samples,
    generate,
    load_csv,
    load_sequence,
    read_trajectory,
    resolve,
    write_trajectory,
)
from .verify import run_verification

__version__ = "0.1.0"
