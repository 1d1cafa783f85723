import pytest
from hypothesis import settings

from instantons.fields import GF32003, QQ
from instantons.families import sample_corank2, sample_full, sample_instanton

# property tests draw the same examples on every run and are not timed per
# example (exact elimination on a drawn tensor can take a second)
settings.register_profile("workbench", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("workbench")


@pytest.fixture(scope="session")
def F():
    return GF32003


@pytest.fixture(scope="session")
def Q():
    return QQ


@pytest.fixture(scope="session")
def chain52(F):
    return sample_instanton(5, 2, F, 7)


@pytest.fixture(scope="session")
def full36(F):
    return sample_full(3, F, 0)


@pytest.fixture(scope="session")
def corank2_n2(F):
    return sample_corank2(2, F, 0)


@pytest.fixture(scope="session")
def corank2_n3(F):
    return sample_corank2(3, F, 0)
