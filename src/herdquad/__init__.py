"""Greedy kernel quadrature toolkit.

Select a small weighted subset of a candidate pool whose kernel mean
embedding matches a target distribution, by weighted herding (WKH),
sequential Bayesian quadrature (SBQ), uniform-weight herding, or a random
baseline, on one machine or partitioned across shared-nothing workers.
"""

from .diagnostics import (
    OracleSubset,
    RateFit,
    brute_force_best_subset,
    check_approx_guarantee,
    estimate_rsc_rss,
    fit_rate,
    orthogonality_residual,
    realizability_fixtures,
    verify_realizability,
)
from .distributed import DistributedResult, partition, run_distributed
from .kernels import (
    CandidatePool,
    Kernel,
    NormalizedFeatureKernel,
    RBFKernel,
)
from .selectors import (
    Method,
    RunTrace,
    UniformAccumulator,
    run_greedy,
    sbq_select,
    wkh_select,
)
from .state import QuadratureState, new_state
from .summarization import (
    LogisticModel,
    SummarizeReport,
    fisher_embed_many,
    summarize,
    train_logistic,
)
from .targets import (
    DiscreteTarget,
    GaussianMixtureTarget,
    mc_mean_embed,
    mc_self_energy,
)

__version__ = "0.1.0"

__all__ = [
    "CandidatePool",
    "DiscreteTarget",
    "DistributedResult",
    "GaussianMixtureTarget",
    "Kernel",
    "LogisticModel",
    "Method",
    "NormalizedFeatureKernel",
    "OracleSubset",
    "QuadratureState",
    "RBFKernel",
    "RateFit",
    "RunTrace",
    "SummarizeReport",
    "UniformAccumulator",
    "brute_force_best_subset",
    "check_approx_guarantee",
    "estimate_rsc_rss",
    "fisher_embed_many",
    "fit_rate",
    "mc_mean_embed",
    "mc_self_energy",
    "new_state",
    "orthogonality_residual",
    "partition",
    "realizability_fixtures",
    "run_distributed",
    "run_greedy",
    "sbq_select",
    "summarize",
    "train_logistic",
    "verify_realizability",
    "wkh_select",
]
