import warnings

import numpy as np
import pytest

from edgewalk.numerics import softplus


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_softplus_matches_logaddexp(dtype):
    # Both signs of every decade up to 1e308 (1e38 at float32), dense around 0 and
    # where exp(-|t|) underflows, plus the smallest values and the infinities.
    info = np.finfo(dtype)
    top = int(np.log10(info.max))
    grid = np.concatenate([np.logspace(-30, top, 4000), np.linspace(0, 800, 4001),
                           [info.tiny, info.smallest_subnormal, np.inf]])
    t = np.concatenate([grid, -grid]).astype(dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = softplus(t)
        want = np.logaddexp(dtype(0), t)
    assert got.dtype == dtype
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    ulp = np.spacing(np.maximum(abs(want[finite]), info.smallest_subnormal))
    assert (abs(got[finite] - want[finite]) <= 4 * ulp).all()
    assert softplus(np.array(np.nan, dtype)).dtype == dtype and np.isnan(softplus(dtype(np.nan)))
