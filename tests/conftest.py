import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


@pytest.fixture
def rbf_unit():
    from herdquad.kernels import RBFKernel

    return RBFKernel(1.0)


@pytest.fixture
def two_point_discrete(rbf_unit):
    """Uniform discrete target on {(0), (2)} under the unit RBF kernel."""
    from herdquad.targets import DiscreteTarget

    support = np.array([[0.0], [2.0]])
    return DiscreteTarget.uniform(support, rbf_unit)


@pytest.fixture
def std_normal_target(rbf_unit):
    from herdquad.targets import GaussianMixtureTarget

    return GaussianMixtureTarget(
        weights=np.array([1.0]),
        means=np.zeros((1, 1)),
        covs=np.ones((1, 1, 1)),
        kernel=rbf_unit,
    )


def unchecked_matrix_kernel(matrix):
    """A ``PrecomputedKernel`` built without its unit-diagonal check: a
    deliberately non-standardized fixture."""
    from herdquad.kernels import PrecomputedKernel

    class UncheckedMatrixKernel(PrecomputedKernel):
        def __post_init__(self):
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))

    return UncheckedMatrixKernel(matrix)


def random_mixture(rng, components=3, dim=2):
    from herdquad.kernels import RBFKernel
    from herdquad.targets import GaussianMixtureTarget

    weights = rng.dirichlet(np.ones(components))
    means = rng.uniform(-2.0, 2.0, size=(components, dim))
    covs = np.stack([np.diag(rng.uniform(0.1, 0.6, size=dim)) for _ in range(components)])
    return GaussianMixtureTarget(weights, means, covs, RBFKernel(1.0))
