import os

import pytest
from hypothesis import settings

from triality8.exterior import Multivector

# In CI a failing property example prints the blob that reproduces it
# (@reproduce_failure); example counts and deadlines stay the defaults.
# Hypothesis ships a derandomized "ci" profile, which this one replaces so
# that each CI run draws new examples.
settings.register_profile("ci", print_blob=True, derandomize=False)
if os.environ.get("CI"):
    settings.load_profile("ci")
from triality8.structures import canonical_omega, canonical_rho


@pytest.fixture(scope="session")
def rho():
    return canonical_rho()


@pytest.fixture(scope="session")
def omega():
    return canonical_omega()


@pytest.fixture(scope="session")
def e():
    return Multivector.blade
