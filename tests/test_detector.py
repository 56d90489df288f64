import csv
import math
import tracemalloc

import numpy as np
import pytest

from fluxtem import detector as det_mod
from fluxtem.errors import InvalidStateError


def test_trivial_detector_invariants():
    det = det_mod.trivial(10)
    det.validate()
    assert det.n_pixels == 10
    assert det.boundary_power_fraction() == 0.0
    np.testing.assert_array_equal(det.a, det.b)
    assert np.all(det.beta == 0.0)


def test_two_region_detector():
    det = det_mod.two_region(6, 2)
    det.validate()
    np.testing.assert_allclose(det.beta[6:], math.pi)
    np.testing.assert_allclose(det.b[6:], -det.a[6:])
    assert det.power_a.sum() == pytest.approx(1.0)
    assert det.power_b.sum() == pytest.approx(1.0)


def test_degenerate_detector_flags_everything_boundary():
    det = det_mod.degenerate_two_pixel()
    assert det.boundary_mask.all()
    assert det.boundary_power_fraction() == 1.0
    det.validate()  # boundary pixels are exempt from the moduli law


def test_validate_rejects_unequal_moduli():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.8, 0.6], dtype=complex)
    det = det_mod.DetectorModel(
        a=a, b=b, beta=np.zeros(2), region=np.zeros(2, dtype=np.int8), tolerance=1e-6
    )
    with pytest.raises(InvalidStateError):
        det.validate()


def test_validate_rejects_off_law_beta():
    n = 4
    amp = np.full(n, 0.5, dtype=complex)
    det = det_mod.DetectorModel(
        a=amp,
        b=amp * np.exp(0.3j),
        beta=np.full(n, 0.3),
        region=np.zeros(n, dtype=np.int8),
    )
    with pytest.raises(InvalidStateError):
        det.validate(check_beta_law=True)
    det.validate(check_beta_law=False)


def test_validate_rejects_unnormalized_power():
    amp = np.array([1.0, 1.0], dtype=complex)
    det = det_mod.DetectorModel(
        a=amp, b=amp, beta=np.zeros(2), region=np.zeros(2, dtype=np.int8)
    )
    with pytest.raises(InvalidStateError):
        det.validate()


def test_csv_round_trip(tmp_path):
    det = det_mod.two_region(5, 3)
    path = tmp_path / "det.csv"
    det.to_csv(path)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["pixel", "re_a", "im_a", "re_b", "im_b", "beta", "region"]
    assert [int(row[0]) for row in rows] == list(range(det.n_pixels))
    a = np.array([complex(float(row[1]), float(row[2])) for row in rows])
    b = np.array([complex(float(row[3]), float(row[4])) for row in rows])
    np.testing.assert_array_equal(a, det.a)
    np.testing.assert_array_equal(b, det.b)
    np.testing.assert_array_equal([float(row[5]) for row in rows], det.beta)
    assert [row[6] for row in rows] == [det_mod.REGION_NAMES[r] for r in det.region.tolist()]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_to_csv_matches_a_csv_writer_reference_across_block_edges(tmp_path, n):
    rng = np.random.default_rng(n)
    det = det_mod.DetectorModel(
        a=rng.normal(size=n) + 1j * rng.normal(size=n),
        b=rng.normal(size=n) * 1e-300 + 1j * rng.normal(size=n) * 1e200,
        beta=rng.uniform(-np.pi, np.pi, size=n),
        region=rng.integers(0, 3, size=n),
    )
    det.to_csv(tmp_path / "det.csv")
    regions = (det_mod.REGION_NAMES[r] for r in det.region)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pixel", "re_a", "im_a", "re_b", "im_b", "beta", "region"])
        writer.writerows(zip(range(n), det.a.real, det.a.imag, det.b.real, det.b.imag, det.beta, regions))
    assert (tmp_path / "det.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_to_csv_converts_a_block_at_a_time(tmp_path):
    # converting whole columns to Python objects holds about 10 MB here
    det = det_mod.trivial(65_536)
    det_mod.trivial(1).to_csv(tmp_path / "warm.csv")  # leave the first-use fileio import out of the peak
    tracemalloc.start()
    try:
        det.to_csv(tmp_path / "det.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_equal_weight_power_and_boundary_fraction():
    det = det_mod.DetectorModel(
        a=np.array([0.6, 0.8, 0.0], dtype=complex),
        b=np.array([0.6, 0.0, 0.8], dtype=complex),
        beta=np.zeros(3),
        region=np.array([det_mod.OUTSIDE_SHADOW, det_mod.BOUNDARY, det_mod.BOUNDARY], dtype=np.int8),
    )
    np.testing.assert_allclose(det.equal_weight_power, [0.36, 0.32, 0.32], rtol=1e-15)
    assert det.boundary_power_fraction() == pytest.approx(0.64, rel=1e-15)
    assert det.boundary_power_fraction() is det.boundary_power_fraction()


def test_equal_weight_cumulative_normalized():
    det = det_mod.two_region(7, 9)
    cum = det.equal_weight_cumulative
    assert cum[-1] == 1.0
    assert np.all(np.diff(cum) >= 0.0)


def test_mismatched_arrays_rejected():
    with pytest.raises(InvalidStateError):
        det_mod.DetectorModel(
            a=np.ones(3, dtype=complex),
            b=np.ones(2, dtype=complex),
            beta=np.zeros(3),
            region=np.zeros(3, dtype=np.int8),
        )
