import csv
import math
import os
import tracemalloc

import numpy as np
import pytest

from fluxtem import detector as det_mod
from fluxtem.errors import PreconditionError
from fluxtem.hexcsv import HEX_BLOCK_ROWS

from conftest import degenerate_two_pixel, two_region, validate_detector


def test_trivial_detector_invariants():
    det = det_mod.trivial(10)
    validate_detector(det)
    assert det.n_pixels == 10
    assert det.boundary_power_fraction() == 0.0
    np.testing.assert_array_equal(det.a, det.b)
    assert np.all(det.beta == 0.0)


def test_two_region_detector():
    det = two_region(6, 2)
    validate_detector(det)
    np.testing.assert_allclose(det.beta[6:], math.pi)
    np.testing.assert_allclose(det.b[6:], -det.a[6:])
    assert (np.abs(det.a) ** 2).sum() == pytest.approx(1.0)
    assert (np.abs(det.b) ** 2).sum() == pytest.approx(1.0)


def test_degenerate_detector_flags_everything_boundary():
    det = degenerate_two_pixel()
    assert det.boundary_mask.all()
    assert det.boundary_power_fraction() == 1.0
    validate_detector(det)  # boundary pixels are exempt from the moduli law


def test_validate_rejects_unequal_moduli():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.8, 0.6], dtype=complex)
    det = det_mod.DetectorModel(a=a, b=b, beta=np.zeros(2), region=np.zeros(2, dtype=np.int8))
    with pytest.raises(PreconditionError):
        validate_detector(det)


def test_validate_rejects_off_law_beta():
    n = 4
    amp = np.full(n, 0.5, dtype=complex)
    det = det_mod.DetectorModel(
        a=amp,
        b=amp * np.exp(0.3j),
        beta=np.full(n, 0.3),
        region=np.zeros(n, dtype=np.int8),
    )
    with pytest.raises(PreconditionError):
        validate_detector(det)
    validate_detector(det, phase=None)


def test_beta_law_deviation_measures_inside_pixels_against_the_phase():
    phase = 0.9
    beta = np.array([0.0, 1e-12, phase, phase - 1e-12])
    amp = np.full(4, 0.5, dtype=complex)
    region = np.array([det_mod.OUTSIDE_SHADOW] * 2 + [det_mod.INSIDE_SHADOW] * 2, dtype=np.int8)
    det = det_mod.DetectorModel(a=amp, b=amp * np.exp(1j * beta), beta=beta, region=region)
    assert det.beta_law_deviation(phase) == pytest.approx(1e-12, abs=1e-15)
    assert det.beta_law_deviation(math.pi) == pytest.approx(math.pi - phase + 1e-12)
    # the distance is taken around the circle: -pi + 1e-9 is 2e-9 from pi - 1e-9
    wrapped = np.array([0.0, 0.0, -math.pi + 1e-9, -math.pi + 1e-9])
    det = det_mod.DetectorModel(a=amp, b=amp * np.exp(1j * wrapped), beta=wrapped, region=region)
    assert det.beta_law_deviation(math.pi - 1e-9) == pytest.approx(2e-9, abs=1e-15)


def _beta_law_deviation_of_masked_copies(det, phase):
    """beta_law_deviation as it read before it took the outside shadow's maximum without a copy."""
    ok = ~det.boundary_mask
    beta = det.beta[ok]
    inside = det.region[ok] == det_mod.INSIDE_SHADOW
    return max(np.abs(beta[~inside]).max(initial=0.0), np.abs(det_mod.wrap_angle(beta[inside] - phase)).max(initial=0.0))


def _random_detector(rng, n, regions):
    """n pixels with angles in (-pi, pi], some exact zeros of either sign, in the given region codes."""
    beta = det_mod.wrap_angle(rng.uniform(-4.0, 4.0, n))
    beta[rng.random(n) < 0.2] = 0.0
    beta[rng.random(n) < 0.2] = -0.0
    amp = np.full(n, 1.0 / math.sqrt(n), dtype=complex)
    region = rng.choice(np.array(regions, dtype=np.int8), n)
    return det_mod.DetectorModel(a=amp, b=amp, beta=beta, region=region)


@pytest.mark.parametrize(
    "regions",
    [
        (det_mod.OUTSIDE_SHADOW, det_mod.INSIDE_SHADOW, det_mod.BOUNDARY),
        (det_mod.INSIDE_SHADOW, det_mod.BOUNDARY),
        (det_mod.OUTSIDE_SHADOW, det_mod.BOUNDARY),
    ],
    ids=["all-regions", "no-outside", "no-inside"],
)
@pytest.mark.parametrize("seed", range(6))
def test_beta_law_deviation_has_the_bits_of_the_masked_copies(regions, seed):
    rng = np.random.default_rng(seed)
    det = _random_detector(rng, int(rng.integers(1, 3000)), regions)
    for phase in (math.pi, 0.0, -0.0, float(rng.uniform(-math.pi, math.pi))):
        got, want = det.beta_law_deviation(phase), _beta_law_deviation_of_masked_copies(det, phase)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_beta_law_deviation_of_signed_zeros_is_plus_zero():
    # the SIMD max of -0.0 and the initial 0.0 can be -0.0; np.abs of the masked copy never is
    for n in (1, 7, 64, 1000):
        det = det_mod.DetectorModel(
            a=np.ones(n, dtype=complex), b=np.ones(n, dtype=complex), beta=np.full(n, -0.0), region=np.zeros(n, dtype=np.int8)
        )
        assert np.float64(det.beta_law_deviation(0.0)).tobytes() == np.float64(0.0).tobytes()


def test_validate_rejects_unnormalized_power():
    amp = np.array([1.0, 1.0], dtype=complex)
    det = det_mod.DetectorModel(
        a=amp, b=amp, beta=np.zeros(2), region=np.zeros(2, dtype=np.int8)
    )
    with pytest.raises(PreconditionError):
        validate_detector(det)


def test_csv_round_trip(tmp_path):
    det = two_region(5, 3)
    path = tmp_path / "det.csv"
    det.to_csv(path)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["pixel", "re_a", "im_a", "re_b", "im_b", "beta", "region"]
    assert [int(row[0]) for row in rows] == list(range(det.n_pixels))
    a = np.array([complex(float.fromhex(row[1]), float.fromhex(row[2])) for row in rows])
    b = np.array([complex(float.fromhex(row[3]), float.fromhex(row[4])) for row in rows])
    np.testing.assert_array_equal(a, det.a)
    np.testing.assert_array_equal(b, det.b)
    np.testing.assert_array_equal([float.fromhex(row[5]) for row in rows], det.beta)
    assert [row[6] for row in rows] == [det_mod.REGION_NAMES[r] for r in det.region.tolist()]


def test_the_readme_loader_reads_detector_csv_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * HEX_BLOCK_ROWS + 3
    det = det_mod.DetectorModel(
        a=rng.normal(size=n) + 1j * rng.normal(size=n),
        b=rng.normal(size=n) * 1e-310 + 1j * rng.normal(size=n) * 1e300,
        beta=np.where(rng.random(n) < 0.3, -0.0, rng.uniform(-np.pi, np.pi, size=n)),
        region=rng.integers(0, 3, size=n),
    )
    det.to_csv(tmp_path / "det.csv")
    table = np.loadtxt(tmp_path / "det.csv", delimiter=",", skiprows=1, usecols=range(1, 6), converters=float.fromhex)
    want = np.stack([det.a.real, det.a.imag, det.b.real, det.b.imag, det.beta], axis=1)
    assert table.tobytes() == want.tobytes()


def _no_fork():
    raise AssertionError("to_csv forked a child")


@pytest.mark.parametrize("n", [1, HEX_BLOCK_ROWS - 1, HEX_BLOCK_ROWS, HEX_BLOCK_ROWS + 1, 2 * HEX_BLOCK_ROWS + 1, 10 * HEX_BLOCK_ROWS + 7])
def test_to_csv_matches_a_csv_writer_reference_across_block_edges(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    det = det_mod.DetectorModel(
        a=rng.normal(size=n) + 1j * rng.normal(size=n),
        b=rng.normal(size=n) * 1e-300 + 1j * rng.normal(size=n) * 1e200,
        beta=rng.uniform(-np.pi, np.pi, size=n),
        region=rng.integers(0, 3, size=n),
    )
    regions = (det_mod.REGION_NAMES[r] for r in det.region)
    columns = (det.a.real, det.a.imag, det.b.real, det.b.imag, det.beta)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pixel", "re_a", "im_a", "re_b", "im_b", "beta", "region"])
        writer.writerows(zip(range(n), *([float.hex(float(x)) for x in col] for col in columns), regions))
    # the table is written in this process, whatever the CPU count
    for cpus in (1, 3):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            patch.setattr(os, "fork", _no_fork)
            det.to_csv(tmp_path / "det.csv")
        assert (tmp_path / "det.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), f"{cpus} CPUs"


def test_to_csv_converts_a_block_at_a_time(tmp_path):
    # the whole table as padded text would hold about 10 MB here
    det = det_mod.trivial(65_536)
    det_mod.trivial(1).to_csv(tmp_path / "warm.csv")  # leave the first-use hexcsv import out of the peak
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


@pytest.mark.parametrize("name", ["trivial", "small-optics"])
def test_equal_weight_power_has_the_bits_of_its_three_temporary_form(name, request):
    det = det_mod.trivial() if name == "trivial" else request.getfixturevalue("small_detector")
    want = 0.5 * (np.abs(det.a) ** 2 + np.abs(det.b) ** 2)
    assert det.equal_weight_power.tobytes() == want.tobytes()
    # the boundary fraction and the cumulative are both read from one such array
    fresh = det_mod.DetectorModel(a=det.a, b=det.b, beta=det.beta, region=det.region)
    assert fresh.boundary_power_fraction() == float(want[det.boundary_mask].sum() / want.sum())
    cum = np.cumsum(want)
    cum /= cum[-1]
    cum[-1] = 1.0
    assert fresh.equal_weight_cumulative.tobytes() == cum.tobytes()


def test_equal_weight_cumulative_normalized():
    det = two_region(7, 9)
    cum = det.equal_weight_cumulative
    assert cum[-1] == 1.0
    assert np.all(np.diff(cum) >= 0.0)


def test_mismatched_arrays_rejected():
    with pytest.raises(PreconditionError, match="equal length"):
        det_mod.DetectorModel(
            a=np.ones(3, dtype=complex),
            b=np.ones(2, dtype=complex),
            beta=np.zeros(3),
            region=np.zeros(3, dtype=np.int8),
        )
