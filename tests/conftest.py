import numpy as np
import pytest

from levy_sigkernel.tensor_algebra import TruncatedTensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_tensor(rng, dim, depth, scale=0.5, zero_scalar=False):
    levels = [rng.normal(size=dim**n) * scale / (n + 1) for n in range(depth + 1)]
    if zero_scalar:
        levels[0][:] = 0.0
    return TruncatedTensor(dim, levels)


def random_velocity_tensor(rng, dim, depth, scale=0.4):
    """Zero-scalar tensor with per-level scaling that keeps T^1 mass ~ scale."""
    levels = [np.zeros(1)]
    for n in range(1, depth + 1):
        arr = rng.uniform(-1.0, 1.0, size=dim**n)
        norm = np.linalg.norm(arr)
        if norm > 0:
            arr *= scale / (norm * 2**n)
        levels.append(arr)
    return TruncatedTensor(dim, levels)


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff: a product of
    k factors (1 + delta_i), |delta_i| <= u, lies within gamma_k of 1."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)
