import inspect
import sys

import pytest

from sixsphere import octonion
from sixsphere.sampling import rng_from_seed


@pytest.fixture
def rng():
    return rng_from_seed(0xC0FFEE)


def _clear_package_caches():
    """Empty every cache of the package, those of cached methods included:
    some hold matrices built from the table (`cstruct`'s L_e1, its
    recovery constants and the standard structure)."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("sixsphere") and mod is not None:
            for obj in vars(mod).values():
                for fn in (obj, *(vars(obj).values() if inspect.isclass(obj) else ())):
                    if hasattr(fn, "cache_clear"):
                        fn.cache_clear()


@pytest.fixture
def bent_table(monkeypatch):
    """A bent multiplication table: the signs of e3 e5 and e5 e3 flipped,
    and every constant built from the table (`octonion.TABLE_CONSTANTS`:
    the product, the defect and multiplication-matrix gathers, the float
    `batch_mul` gather, the companion's quadratic forms) rebuilt from it.
    The package's caches are emptied on the way in and out, so no matrix
    built under one table outlives it."""
    sign = [row[:] for row in octonion.MUL_SIGN]
    sign[3][5] = -sign[3][5]
    sign[5][3] = -sign[5][3]
    _clear_package_caches()
    for name, value in zip(octonion.TABLE_CONSTANTS,
                           octonion._table_constants(octonion.MUL_INDEX, sign)):
        monkeypatch.setattr(octonion, name, value)
    yield
    _clear_package_caches()


@pytest.fixture
def gathers(monkeypatch):
    """The dtype of every `octonion._gather` call made while the test runs:
    float64 for float rows, int64 for exact rows that took the int64 path."""
    dtypes = []
    gather = octonion._gather

    def spy(x, y, dtype):
        dtypes.append(dtype)
        return gather(x, y, dtype)

    monkeypatch.setattr(octonion, "_gather", spy)
    return dtypes
