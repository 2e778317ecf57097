from fractions import Fraction

import numpy as np
import pytest

from torusflow.spectral import Field, make_grid, stack

TWO_PI = 2.0 * np.pi


def sample_scalar(grid, fn):
    X, Y = grid.mesh
    return Field(grid, fn(X, Y))


def sample_vector(grid, f1, f2):
    return stack([sample_scalar(grid, f1), sample_scalar(grid, f2)])


def count_transforms(monkeypatch, call, padded):
    """Spy on numpy.fft while call() runs: the complex transforms of padded
    arrays, the complex 2D transforms of any shape, and the real transforms
    of the padded grid counted in 2D planes, a row block counting as its
    share of a plane.
    """
    complex_padded, complex_2d, real_planes = [], [], Fraction(0)

    def spy(name, original):
        def wrapped(a, *args, **kwargs):
            nonlocal real_planes
            out = original(a, *args, **kwargs)
            on_padded = padded in (np.shape(a)[-2:], np.shape(out)[-2:])
            samples = np.shape(a if name.startswith("rfft") else out)
            if name in ("fft2", "ifft2", "fftn", "ifftn"):
                complex_2d.append(name)
            if name.startswith(("rfft", "irfft")):
                if samples[-1] == padded[1] and samples[-2] <= padded[0]:
                    real_planes += Fraction(int(np.prod(samples[:-1])), padded[0])
            elif on_padded:
                complex_padded.append(name)
            return out
        return wrapped

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, spy(name, getattr(np.fft, name)))
    call()
    return complex_padded, complex_2d, real_planes


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16, 16)


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32, 32)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(64, 64)
