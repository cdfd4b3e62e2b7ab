"""Greedy kernel quadrature toolkit.

Select a small weighted subset of a candidate pool whose kernel mean
embedding matches a target distribution, by weighted herding (WKH),
sequential Bayesian quadrature (SBQ), uniform-weight herding, or a random
baseline, on one machine or partitioned across shared-nothing workers.

The empirical audits (rate fits, the exhaustive oracle, the guarantee
check) are read from ``herdquad.diagnostics``, which this package does not
import, so that no selection process loads them.
"""

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
    UniformResult,
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
    "QuadratureState",
    "RBFKernel",
    "RunTrace",
    "SummarizeReport",
    "UniformResult",
    "fisher_embed_many",
    "mc_mean_embed",
    "mc_self_energy",
    "new_state",
    "partition",
    "run_distributed",
    "run_greedy",
    "sbq_select",
    "summarize",
    "train_logistic",
    "wkh_select",
]
