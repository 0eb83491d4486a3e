"""The NumPy digamma and trigamma against ``scipy.special`` (test-only import)."""

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma
from scipy.special import polygamma

from repro.models._special import digamma, trigamma

#: |ours - scipy| <= BOUND * max(|scipy|, 1).
BOUND = 4e-15
#: The positive root of digamma.
PSI_ROOT = 1.4616321449683622


def _points() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.concatenate([
        np.logspace(-3, 6, 5000),
        np.exp(rng.uniform(np.log(1e-3), np.log(1e6), 5000)),
        np.arange(1.0, 11.0),
        PSI_ROOT + np.linspace(-1e-3, 1e-3, 201),
    ])


@pytest.mark.parametrize(
    "ours, reference",
    [(digamma, scipy_digamma), (trigamma, lambda x: polygamma(1, x))],
    ids=["digamma", "trigamma"],
)
def test_matches_scipy(ours, reference):
    x = _points()
    want = reference(x)
    error = np.abs(ours(x) - want) / np.maximum(np.abs(want), 1.0)
    assert error.max() <= BOUND, x[error.argmax()]


def test_scalars_and_shapes():
    assert isinstance(digamma(0.5), np.floating)
    assert isinstance(trigamma(2.0), np.floating)
    assert digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-15)
    assert trigamma(1.0) == pytest.approx(np.pi**2 / 6.0, abs=1e-15)
    grid = np.full((4, 3), 2.5)
    assert digamma(grid).shape == trigamma(grid).shape == (4, 3)
    assert abs(digamma(PSI_ROOT)) < 1e-15
