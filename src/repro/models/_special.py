"""Digamma and trigamma in NumPy, for the variational LDA fit.

Both shift the argument up by ``_SHIFT`` with the recurrences

    psi(x)  = psi(x + 10)  - sum_{k=0..9} 1 / (x + k)
    psi'(x) = psi'(x + 10) + sum_{k=0..9} 1 / (x + k)**2

and evaluate the shifted value with the Bernoulli asymptotic series, whose
truncated tail is below 1e-16 at ``x + 10 >= 10``.  They are defined for
``x > 0``, the only domain the fit reaches (variational Dirichlet
parameters and the prior).  Against ``scipy.special`` they agree within
``4e-15 * max(|value|, 1)`` (``tests/test_special.py``); doing without SciPy
keeps ``scipy.special`` out of every process that fits LDA.
"""

from __future__ import annotations

import numpy as np

__all__ = ["digamma", "trigamma"]

_SHIFT = 10
# B_2n / (2n) for n = 1..7: psi(y) ~ ln y - 1/(2y) - sum_n c_n / y**(2n).
_PSI_SERIES = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
    1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0,
)
# B_2n for n = 1..7: psi'(y) ~ 1/y + 1/(2y**2) + sum_n B_2n / y**(2n+1).
_TRIGAMMA_SERIES = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0,
)


def _series(coefficients: tuple[float, ...], w: np.ndarray) -> np.ndarray:
    """``sum_n coefficients[n-1] * w**n`` by Horner's rule."""
    total = np.full_like(w, coefficients[-1])
    for c in coefficients[-2::-1]:
        total *= w
        total += c
    total *= w
    return total


def _recurrence_sum(x: np.ndarray, power: int) -> np.ndarray:
    """``sum_{k < _SHIFT} (x + k)**-power`` for ``power`` 1 or 2."""
    total = np.reciprocal(x)
    if power == 2:
        total *= total
    term = np.empty_like(x)
    for k in range(1, _SHIFT):
        np.add(x, k, out=term)
        np.reciprocal(term, out=term)
        if power == 2:
            term *= term
        total += term
    return total


def digamma(x):
    """psi(x) = d/dx ln Gamma(x), elementwise, for ``x > 0``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x + _SHIFT
    inv = np.reciprocal(shifted)
    asymptotic = np.log(shifted) - 0.5 * inv - _series(_PSI_SERIES, inv * inv)
    return asymptotic - _recurrence_sum(x, 1)


def trigamma(x):
    """psi'(x), the derivative of :func:`digamma`, elementwise, for ``x > 0``."""
    x = np.asarray(x, dtype=np.float64)
    inv = np.reciprocal(x + _SHIFT)
    w = inv * inv
    asymptotic = inv + 0.5 * w + inv * _series(_TRIGAMMA_SERIES, w)
    return asymptotic + _recurrence_sum(x, 2)
