import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from knotopt import default_catalog


def pytest_configure(config):
    """Put hypothesis's home directory inside pytest's cache directory.

    Even with ``database=None``, hypothesis caches the literals it parses
    from local source files in its home directory, at collection time.
    """
    if config.pluginmanager.has_plugin("cacheprovider"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def catalog_by_name(catalog):
    return {entry.name: entry for entry in catalog}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
