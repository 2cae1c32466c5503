import numpy as np
import pytest

from evl_lab.processes import PathEngine


def ks_against(values, cdf):
    """One-sample Kolmogorov-Smirnov distance of `values` against `cdf`."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    fx = np.asarray(cdf(x), dtype=np.float64)
    return float(
        max(
            np.abs(np.arange(1, n + 1) / n - fx).max(),
            np.abs(np.arange(0, n) / n - fx).max(),
        )
    )


def dense_mask_chunks(ens, event, extra=0, chunk=256):
    """(trial ids, dense (trials, length + extra) exceedance mask) per chunk of
    ``chunk`` trials, each from one whole-horizon engine sweep: the plain
    reference of the keys that ``Ensemble.mask_chunks`` builds window by window."""
    L = ens.length + extra
    for lo in range(0, ens.trials, chunk):
        ids = np.arange(lo, min(lo + chunk, ens.trials), dtype=np.uint64)
        yield ids, PathEngine(ens.spec, ens.seed, ids).masks(0, L, event)


@pytest.fixture
def ks():
    return ks_against
