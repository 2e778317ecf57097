import numpy as np
import pytest

from torusflow.spectral import Field, make_grid, stack

TWO_PI = 2.0 * np.pi


def sample_scalar(grid, fn):
    X, Y = grid.mesh
    return Field(grid, fn(X, Y))


def sample_vector(grid, f1, f2):
    return stack([sample_scalar(grid, f1), sample_scalar(grid, f2)])


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16, 16)


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, 32)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, 64)
