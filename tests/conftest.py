import pytest

from sixsphere import octonion
from sixsphere.sampling import rng_from_seed


@pytest.fixture
def rng():
    return rng_from_seed(0xC0FFEE)


@pytest.fixture
def bent_table(monkeypatch):
    """A bent multiplication table: the signs of e3 e5 and e5 e3 flipped,
    the product recompiled from it."""
    sign = [row[:] for row in octonion.MUL_SIGN]
    sign[3][5] = -sign[3][5]
    sign[5][3] = -sign[5][3]
    monkeypatch.setattr(octonion, "MUL_SIGN", sign)
    monkeypatch.setattr(octonion, "_product", octonion._compile_product())
