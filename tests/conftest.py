import pytest

from mdlab import (
    exponential,
    make_classical_sums,
    make_coupon,
    make_gumbel_maxima,
    make_minima,
    make_replacement,
    uniform01,
    weibull,
)


@pytest.fixture(scope="session")
def fam_classical():
    return make_classical_sums(1.0)


@pytest.fixture(scope="session")
def fam_minima_exp():
    return make_minima(exponential(1.0))


@pytest.fixture(scope="session")
def fam_minima_uniform():
    return make_minima(uniform01())


@pytest.fixture(scope="session")
def fam_gumbel_weibull2():
    return make_gumbel_maxima(weibull(2.0))


@pytest.fixture(scope="session")
def fam_coupon():
    return make_coupon()


@pytest.fixture(scope="session")
def fam_replacement():
    return make_replacement(exponential(1.0), exponential(2.0), t=1.0, beta=0.4)
