"""Elementwise formulas shared by the training and evaluation losses."""

import numpy as np


def softplus(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) as max(t, 0) + log1p(exp(-|t|)), which cannot overflow (Mächler 2012).

    It equals ``np.logaddexp(0, t)`` to within a few ulp, but runs on numpy's vectorized
    ``exp`` and ``log1p`` instead of a libm call per value, and keeps the dtype of ``t``.
    """
    return np.maximum(t, 0) + np.log1p(np.exp(-np.abs(t)))
