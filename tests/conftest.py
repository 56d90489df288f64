import math

import numpy as np
import pytest

from fluxtem import detector as det_mod
from fluxtem import optics
from fluxtem.config import load_config
from fluxtem.errors import PreconditionError

# quarter-scale beam path (64 x 64) with the same pixel geometry as default
SMALL_OPTICS = ["optics.n=64", "optics.pitch=4e-7"]


@pytest.fixture(scope="session")
def small_cfg():
    return load_config(None, SMALL_OPTICS)


@pytest.fixture(scope="session")
def small_detector(small_cfg):
    det = optics.build_detector(optics.trace_beam(small_cfg)[2])
    validate_detector(det)
    return det


@pytest.fixture(scope="session")
def default_cfg():
    return load_config()


@pytest.fixture(scope="session")
def default_detector(default_cfg):
    det = optics.build_detector(optics.trace_beam(default_cfg)[2])
    validate_detector(det)
    return det


def assert_states_close(actual, expected, tol=1e-12):
    """Equality of two-amplitude states up to a global phase."""
    va = np.array([actual.amp0, actual.amp1])
    ve = np.array([expected.amp0, expected.amp1])
    overlap = abs(np.vdot(va, ve))
    assert overlap == pytest.approx(1.0, abs=tol), f"states differ: overlap {overlap}"


def validate_detector(det, tolerance=1e-6, phase=math.pi):
    """Check a detector's invariants, raising PreconditionError on failure.

    Each branch carries unit power, and every non-boundary pixel has
    branch moduli equal within `tolerance` of the largest |a_j|.  Unless
    `phase` is None, every non-boundary beta_j must also sit within 1e-6
    of 0 (outside the shadow) or of the Aharonov-Bohm `phase` (inside).
    """
    for name, p in (("a", np.abs(det.a) ** 2), ("b", np.abs(det.b) ** 2)):
        total = p.sum()
        if abs(total - 1.0) > 1e-10:
            raise PreconditionError(f"detector {name} power {total!r} is not 1 within 1e-10")
    ok = ~det.boundary_mask
    if ok.any():
        scale = np.abs(det.a).max()
        diff = np.abs(np.abs(det.a[ok]) - np.abs(det.b[ok]))
        worst = diff.max() / scale
        if worst > tolerance:
            raise PreconditionError(f"non-boundary pixel moduli differ by {worst:.3e} (tolerance {tolerance:.3e})")
        if phase is not None:
            worst_beta = det.beta_law_deviation(phase)
            if worst_beta > 1e-6:
                raise PreconditionError(f"non-boundary beta deviates from {{0, {phase!r}}} by {worst_beta:.3e}")


def two_region(n_outside, n_inside):
    """Synthetic shadow detector: b_j = -a_j on the inside block (beta_j = pi)."""
    n = n_outside + n_inside
    if n_outside < 0 or n_inside < 0 or n < 1:
        raise ValueError("pixel counts must be non-negative and sum to >= 1")
    a = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    b = a.copy()
    b[n_outside:] *= -1.0
    beta = np.zeros(n)
    beta[n_outside:] = np.pi
    region = np.full(n, det_mod.OUTSIDE_SHADOW, dtype=np.int8)
    region[n_outside:] = det_mod.INSIDE_SHADOW
    return det_mod.DetectorModel(a=a, b=b, beta=beta, region=region)


def degenerate_two_pixel():
    """Pathological detector a = (1, 0), b = (0, 1): every pixel is boundary."""
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    region = np.full(2, det_mod.BOUNDARY, dtype=np.int8)
    return det_mod.DetectorModel(a=a, b=b, beta=np.zeros(2), region=region)


def parity(grid):
    """Point reflection through the grid center: out[i, j] = in[-i mod n, -j mod n]."""
    return np.roll(grid[::-1, ::-1], (1, 1), axis=(0, 1))
