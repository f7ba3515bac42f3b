import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from knotopt import default_catalog


_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Give hypothesis a temporary home directory outside the checkout.

    Even with ``database=None``, hypothesis caches the literals it parses
    from local source files in its home directory, at collection time.
    ``pytest_unconfigure`` removes the directory.
    """
    home = tempfile.mkdtemp(prefix="knotopt-hypothesis-")
    config.stash[_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def catalog_by_name(catalog):
    return {entry.name: entry for entry in catalog}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
