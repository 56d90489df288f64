import numpy as np
import pytest

from fluxtem import optics
from fluxtem.cli import optics_config
from fluxtem.config import load_config


@pytest.fixture(scope="session")
def small_cfg():
    """Quarter-scale beam path (64 x 64) with the same pixel geometry as default."""
    return optics_config(load_config(None, ["optics.n=64", "optics.pitch=4e-7"]))


@pytest.fixture(scope="session")
def small_detector(small_cfg):
    det = optics.build_detector(small_cfg)
    det.validate()
    return det


@pytest.fixture(scope="session")
def default_cfg():
    return optics_config(load_config())


@pytest.fixture(scope="session")
def default_detector(default_cfg):
    det = optics.build_detector(default_cfg)
    det.validate()
    return det


def assert_states_close(actual, expected, tol=1e-12):
    """Equality of two-amplitude states up to a global phase."""
    va = np.array([actual.amp0, actual.amp1])
    ve = np.array([expected.amp0, expected.amp1])
    overlap = abs(np.vdot(va, ve))
    assert overlap == pytest.approx(1.0, abs=tol), f"states differ: overlap {overlap}"
