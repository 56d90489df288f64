import math
import tracemalloc

import numpy as np
import pytest

from fluxtem import detector as det_mod
from fluxtem import optics as O
from fluxtem.config import load_config
from fluxtem.errors import PreconditionError

from conftest import SMALL_OPTICS, parity, power, validate_detector


def _gaussian_field(n, sigma):
    dy, dx = np.meshgrid(np.arange(n) - n // 2, np.arange(n) - n // 2, indexing="ij")
    return O.WaveField(np.exp(-(dx**2 + dy**2) / (2 * sigma**2)).astype(complex))


def _small(*overrides):
    """The small beam path with `key=value` overrides, each float written as its repr."""
    return load_config(None, [*SMALL_OPTICS, *overrides])


def _flux(f, turns=1):
    return _small(f"ring.flux_fraction={f!r}", f"ring.turns={turns}")


def _mask(*overrides):
    """The stencil on a unit-pitch grid."""
    return O.build_mask(load_config(None, ["optics.pitch=1.0", *overrides]))


@pytest.fixture(scope="module")
def small_beam(small_cfg):
    return O.trace_beam(small_cfg)[2]


def _branches(beam):
    """Specimen-plane waves of qubit branches 0 and 1."""
    inside, outside = beam.inside.grid, beam.outside.grid
    return outside + inside, outside + O.branch_factor(beam.cfg) * inside


def _assert_same_bits(got, want):
    """Equal element for element through the float64 view, and byte for byte, which also tells -0.0 from 0.0."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.float64), want.view(np.float64))
    assert got.tobytes() == want.tobytes()


def _ring_plane(grid):
    """The ring-plane wave whose transform is this specimen-plane wave (two transforms are a parity).

    A copy is transformed, as propagate overwrites its input and `grid` may belong to a shared Beam.
    """
    return parity(O.propagate(O.WaveField(grid.copy())).grid)


# ---------------------------------------------------------------------------
# masks


class TestBuildMask:
    def test_annulus_area_matches_closed_form(self):
        inner, outer = 40.0, 60.0
        width = math.radians(10.0)
        field = _mask(
            "optics.n=256",
            f"mask.inner_radius={inner!r}",
            f"mask.outer_radius={outer!r}",
            "mask.gap_angles=0.3,2.5",
            f"mask.gap_width={width!r}",
            "mask.disc_radius=0.0",
        )
        count = int(np.count_nonzero(field.grid))
        annulus_area = math.pi * (outer**2 - inner**2)
        expected = annulus_area * (1.0 - 2 * width / (2 * math.pi))
        # one pixel-row of error along every edge: circumferences plus strut sides
        edge_budget = 2 * math.pi * (inner + outer) + 4 * (outer - inner)
        assert abs(count - expected) <= edge_budget

    @pytest.mark.parametrize("width, opened", [("0", 2413), ("10deg", 2341)])
    def test_gap_width_sets_the_open_pixel_count(self, width, opened):
        # at the default gaps (90 and 270 deg) 16 annulus pixels lie exactly on a gap angle,
        # and a zero width keeps them: it opens the whole disc and annulus
        mask = O.build_mask(load_config(None, [f"mask.gap_width={width}"]))
        assert int(np.count_nonzero(mask.grid)) == opened

    def test_disc_plus_annulus(self):
        # a zero-width gap cuts nothing
        field = _mask(
            "optics.n=128",
            "mask.inner_radius=30.0",
            "mask.outer_radius=40.0",
            "mask.gap_angles=0.3",
            "mask.gap_width=0.0",
            "mask.disc_radius=10.0",
        )
        count = int(np.count_nonzero(field.grid))
        expected = math.pi * (10.0**2 + 40.0**2 - 30.0**2)
        assert abs(count - expected) <= 2 * math.pi * (10 + 30 + 40)

    def test_zero_transmission_blocks_downstream(self):
        field = _mask("optics.n=32", "mask.inner_radius=0.0", "mask.outer_radius=0.0", "mask.disc_radius=0.0")
        assert power(field) == 0.0
        with pytest.raises(PreconditionError, match="zero power"):
            O.propagate(field)

    def test_oversized_geometry_rejected(self):
        with pytest.raises(PreconditionError, match="mask geometry exceeds the grid"):
            _mask("optics.n=64", "mask.inner_radius=0.0", "mask.outer_radius=40.0", "mask.disc_radius=0.0")


# ---------------------------------------------------------------------------
# propagation


class TestPropagate:
    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    def test_bits_of_the_out_of_place_transform(self, n):
        rng = np.random.default_rng(n)
        grid = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        before = grid.copy()
        out = O.propagate(O.WaveField(grid)).grid
        _assert_same_bits(out, np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(before), norm="ortho")))
        # the transform is computed in the input's grid, so no step of the chain holds a second one
        assert np.shares_memory(out, grid)

    @pytest.mark.parametrize("n", [2, 4, 64, 256])
    def test_radius_grid_has_the_bits_of_the_meshgrid_form(self, n):
        dy, dx = np.meshgrid(np.arange(n) - n // 2, np.arange(n) - n // 2, indexing="ij")
        _assert_same_bits(O._radius_grid(n), np.hypot(dy, dx))

    def test_parseval(self):
        field = _gaussian_field(128, 9.0)
        out = O.propagate(O.WaveField(field.grid.copy()))
        assert abs(power(out) - power(field)) / power(field) < 1e-10

    def test_double_transform_is_parity(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        twice = O.propagate(O.propagate(O.WaveField(grid.copy())))
        np.testing.assert_allclose(twice.grid, parity(grid), atol=1e-10)

    def test_gaussian_reciprocal_width(self):
        n, sigma = 256, 12.0
        out = O.propagate(_gaussian_field(n, sigma))
        # oracle: continuous transform pair exp(-x^2 / 2 s^2) -> exp(-w^2 s^2 / 2)
        # with angular frequency w = 2 pi u / n, i.e. width n / (2 pi s) pixels
        dy, dx = np.meshgrid(np.arange(n) - n // 2, np.arange(n) - n // 2, indexing="ij")
        sigma_k = n / (2 * math.pi * sigma)
        expected = np.exp(-(dx**2 + dy**2) / (2 * sigma_k**2))
        expected *= np.abs(out.grid).max()
        np.testing.assert_allclose(np.abs(out.grid), expected, atol=1e-6 * expected.max())

    def test_central_point_gives_uniform_modulus(self):
        n = 32
        grid = np.zeros((n, n), dtype=complex)
        grid[n // 2, n // 2] = 1.0
        out = O.propagate(O.WaveField(grid))
        np.testing.assert_allclose(np.abs(out.grid), 1.0 / n, atol=1e-12)


# ---------------------------------------------------------------------------
# aperture


class TestAperture:
    def test_oversized_radius_is_identity(self):
        field = O.propagate(_gaussian_field(64, 6.0))
        out = O.apply_aperture(field, radius=64.0)  # beyond the grid diagonal
        np.testing.assert_array_equal(out.grid, field.grid)

    def test_zero_radius_keeps_single_pixel(self):
        field = O.propagate(_gaussian_field(64, 6.0))
        out = O.apply_aperture(field, radius=0.0)
        assert np.count_nonzero(out.grid) == 1
        assert out.grid[32, 32] == field.grid[32, 32]

    def test_power_only_decreases(self):
        field = O.propagate(_gaussian_field(64, 2.0))
        out = O.apply_aperture(field, radius=5.0)
        assert power(out) <= power(field)

    def test_aperture_smooths_ring_plane(self, small_cfg):
        """Total variation of the ring-plane intensity drops when the aperture acts."""

        def ring_plane_tv(aperture_radius):
            intensity = O.trace_beam(_small(f"optics.aperture_radius={aperture_radius!r}"))[1]
            tv = np.abs(np.diff(intensity, axis=0)).sum() + np.abs(np.diff(intensity, axis=1)).sum()
            return tv / intensity.sum()

        open_radius = small_cfg["optics.n"] * small_cfg["optics.pitch"]  # passes everything
        assert ring_plane_tv(small_cfg["optics.aperture_radius"]) < ring_plane_tv(open_radius)


# ---------------------------------------------------------------------------
# ring interaction


class TestAbPhase:
    def test_no_flux_branches_identical(self, small_cfg, small_beam):
        # no flux and every even flux wrap to a phase of exactly 0
        for f, turns in [(0.0, 1), (2.0, 1), (1.0, 2), (0.4, 5)]:
            cfg = _flux(f, turns)
            assert O.branch_factor(cfg) == 1.0
            map0, map1, _ = O.specimen_maps(O.Beam(cfg, small_beam.inside, small_beam.outside))
            np.testing.assert_array_equal(map0, map1)

    def test_single_flux_negates_inside(self, small_cfg, small_beam):
        assert abs(O.branch_factor(small_cfg) + 1.0) < 1e-15
        _, f1 = _branches(small_beam)
        inside, outside = small_beam.inside.grid, small_beam.outside.grid
        np.testing.assert_allclose(f1, outside - inside, atol=1e-15)
        _, map1, _ = O.specimen_maps(small_beam)
        expected = np.abs(outside - inside) ** 2
        np.testing.assert_allclose(map1, expected / expected.sum(), atol=1e-15)

    def test_overlap_equals_power_difference(self):
        """Oracle: <f0|f1> = P_out - P_in for a single flux quantum."""
        beam = O.trace_beam(_small("optics.balance=False"))[2]
        p_in, p_out = power(beam.inside), power(beam.outside)
        assert p_in + p_out == pytest.approx(1.0, abs=1e-12)
        overlap = O.specimen_maps(beam)[2]
        assert overlap.real == pytest.approx(p_out - p_in, rel=1e-12)
        assert abs(overlap.imag) < 1e-12

    def test_phase_additivity(self):
        def factor(f, turns=1):
            return O.branch_factor(_flux(f, turns))

        assert factor(0.5, 2) == factor(1.0, 1)
        assert factor(0.25, 4) == factor(1.0, 1)
        for f1, f2 in [(0.3, 0.4), (0.9, 0.8), (1.7, -0.2)]:
            assert abs(factor(f1) * factor(f2) - factor(f1 + f2)) < 1e-14

    def test_body_annulus_blocked_for_both_branches(self, small_cfg, small_beam):
        inside, body, outside = O.ring_regions(small_cfg)
        for branch in _branches(small_beam):
            ring_plane = _ring_plane(branch)
            assert np.abs(ring_plane[body]).max() < 1e-12 * np.abs(ring_plane).max()
        # the split is at the inner edge: each part is dark on the other side
        assert np.abs(_ring_plane(small_beam.inside.grid)[~inside]).max() < 1e-12
        assert np.abs(_ring_plane(small_beam.outside.grid)[~outside]).max() < 1e-12

    def test_phase_only_on_cleared_annulus(self, small_beam):
        """The parts have disjoint support, so the factor leaves each branch's power unchanged."""
        assert abs(np.vdot(small_beam.inside.grid, small_beam.outside.grid)) < 1e-12
        for f in (0.25, 0.5, 0.9, 1.0, 1.7):
            cfg = _flux(f)
            assert abs(abs(O.branch_factor(cfg)) - 1.0) <= 2 * np.finfo(float).eps
            f0, f1 = _branches(O.Beam(cfg, small_beam.inside, small_beam.outside))
            assert np.sum(np.abs(f1) ** 2) == pytest.approx(np.sum(np.abs(f0) ** 2), abs=1e-12)


def test_balanced_branches_orthogonal(small_beam):
    assert abs(O.specimen_maps(small_beam)[2]) < 1e-10


def test_unbalanced_overlap_matches_power_mismatch():
    # <0|1> = P_out + exp(i phi) P_in at any flux; a single flux quantum gives P_out - P_in
    beam = O.trace_beam(_small("optics.balance=False"))[2]
    for f in (0.25, 0.5, 0.9, 1.0):
        cfg = _small("optics.balance=False", f"ring.flux_fraction={f!r}")
        overlap = O.specimen_maps(O.Beam(cfg, beam.inside, beam.outside))[2]
        expected = power(beam.outside) + O.branch_factor(cfg) * power(beam.inside)
        assert abs(overlap - expected) < 1e-12


# ---------------------------------------------------------------------------
# specimen maps


class TestSpecimenIntensity:
    def test_no_flux_maps_identical(self):
        map0, map1, _ = O.specimen_maps(O.trace_beam(_flux(0.0))[2])
        np.testing.assert_array_equal(map0, map1)

    def test_single_flux_maps_distinct(self, small_beam):
        map0, map1, _ = O.specimen_maps(small_beam)
        assert O.normalized_cross_correlation(map0, map1) < 0.9
        assert np.unravel_index(map0.argmax(), map0.shape) != np.unravel_index(map1.argmax(), map1.shape)

    @pytest.mark.parametrize("flux", [1.0, 0.25])
    def test_maps_built_a_block_of_rows_at_a_time_have_the_whole_grid_bits(self, small_beam, flux):
        beam = O.Beam(_flux(flux), small_beam.inside, small_beam.outside)
        map0, map1, overlap = O.specimen_maps(beam)
        inside, outside = beam.inside.grid, beam.outside.grid
        branch0, branch1 = outside + inside, O.branch_one(beam.cfg, inside, outside)
        for got, branch in ((map0, branch0), (map1, branch1)):
            want = np.abs(branch) ** 2
            want /= want.sum()
            _assert_same_bits(got, want)
        # the sum's order differs from BLAS's, so only the last bits may
        p0, p1 = (np.sum(np.abs(b) ** 2) for b in (branch0, branch1))
        assert abs(overlap - np.vdot(branch0, branch1) / np.sqrt(p0 * p1)) < 1e-15

    def test_maps_are_normalized(self, small_beam):
        map0, map1, _ = O.specimen_maps(small_beam)
        assert map0.sum() == pytest.approx(1.0)
        assert map1.sum() == pytest.approx(1.0)

    def test_mirror_symmetric_mask_gives_mirror_symmetric_maps(self, small_beam):
        map0, map1, _ = O.specimen_maps(small_beam)  # struts at 90/270 degrees
        for m in (map0, map1):
            mirrored = np.roll(m[:, ::-1], 1, axis=1)  # reflection about the center column
            np.testing.assert_allclose(m, mirrored, atol=1e-10 * m.max())
            mirrored_v = np.roll(m[::-1, :], 1, axis=0)
            np.testing.assert_allclose(m, mirrored_v, atol=1e-10 * m.max())


# ---------------------------------------------------------------------------
# detector construction


class TestBuildDetector:
    def test_beta_law_single_flux(self, small_detector):
        det = small_detector
        ok = ~det.boundary_mask
        inside = det.region[ok] == det_mod.INSIDE_SHADOW
        beta = det.beta[ok]
        assert inside.any() and (~inside).any()
        assert np.abs(beta[~inside]).max() < 1e-6
        assert np.abs(np.abs(beta[inside]) - math.pi).max() < 1e-6
        assert det.beta_law_deviation(math.pi) < 1e-6

    @pytest.mark.parametrize("f", [0.25, 0.5, 0.9, 1.7])
    def test_beta_law_at_any_flux(self, f):
        cfg = _flux(f)
        det = O.build_detector(O.trace_beam(cfg)[2])
        phase = O.branch_phase(cfg)
        assert -math.pi < phase <= math.pi
        inside = (det.region == det_mod.INSIDE_SHADOW) & ~det.boundary_mask
        np.testing.assert_allclose(det.beta[inside], phase, atol=1e-9)
        assert det.beta_law_deviation(phase) < 1e-9
        assert det.beta_law_deviation(math.pi) > 0.1
        validate_detector(det, phase=phase)

    def test_amplitude_law_on_lit_pixels(self, small_detector):
        det = small_detector
        power = det.equal_weight_power
        lit = (power > 1e-16 * power.max()) & ~det.boundary_mask
        residual = np.abs(det.a[lit] - det.b[lit] * np.exp(-1j * det.beta[lit]))
        assert (residual / np.abs(det.a[lit])).max() < 1e-6

    def test_no_flux_detector_trivial(self):
        det = O.build_detector(O.trace_beam(_flux(0.0))[2])
        np.testing.assert_array_equal(det.a, det.b)
        assert np.all(det.beta == 0.0)
        assert int(det.boundary_mask.sum()) == 0

    def test_ideal_reimage_has_no_boundary_power(self, small_detector):
        assert small_detector.boundary_power_fraction() == 0.0

    def test_blurred_reimage_reports_boundary_power(self, small_cfg):
        cfg = _small(f"optics.detector_aperture_radius={24 * small_cfg['optics.pitch']!r}", "optics.tolerance=0.05")
        det = O.build_detector(O.trace_beam(cfg)[2])
        frac = det.boundary_power_fraction()
        assert 0.0 < frac < 0.5
        # region power sums are an independent oracle for the reported fraction
        p = 0.5 * (np.abs(det.a) ** 2 + np.abs(det.b) ** 2)
        assert frac == pytest.approx(float(p[det.boundary_mask].sum() / p.sum()))

    def test_beta_map_invariant_under_global_phase(self, small_beam, small_detector):
        rotation = np.exp(0.77j)
        rotated = O.Beam(
            small_beam.cfg,
            O.WaveField(small_beam.inside.grid * rotation),
            O.WaveField(small_beam.outside.grid * rotation),
        )
        det = O.build_detector(rotated)
        det_ref = small_detector
        lit = det_ref.equal_weight_power > 1e-12
        np.testing.assert_allclose(np.cos(det.beta[lit]), np.cos(det_ref.beta[lit]), atol=1e-9)
        np.testing.assert_array_equal(det.region, det_ref.region)

    def test_the_small_detector_meets_the_detector_invariants(self, small_detector):
        validate_detector(small_detector, phase=math.pi)


# ---------------------------------------------------------------------------
# in-place kernels and memory


def test_in_place_kernels_have_the_bits_of_their_plain_forms(small_beam):
    cfg = _flux(0.3)  # a factor with two nonzero parts, so operand order can matter
    inside, outside = small_beam.inside.grid, small_beam.outside.grid
    _assert_same_bits(O.intensity_of(inside), np.abs(inside) ** 2)
    want = outside + O.branch_factor(cfg) * inside
    _assert_same_bits(O.branch_one(cfg, inside, outside), want)
    written = inside.copy()
    assert O.branch_one(cfg, written, outside, out=written) is written
    _assert_same_bits(written, want)


def test_the_chain_holds_few_grids_at_its_peak():
    """tracemalloc peaks of trace_beam and build_detector, counted in complex grids of n^2 x 16 bytes."""
    n = 128
    cfg = load_config(None, [f"optics.n={n}"])
    O.build_detector(O.trace_beam(cfg)[2])  # the first run makes one-time allocations
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        beam = O.trace_beam(cfg)[2]
        trace_peak = (tracemalloc.get_traced_memory()[1] - start) / (n * n * 16)
        tracemalloc.reset_peak()
        O.build_detector(beam)
        detector_peak = (tracemalloc.get_traced_memory()[1] - start) / (n * n * 16)
    finally:
        if not tracing:
            tracemalloc.stop()
    # each bound is the measured peak plus 0.07 grid (18 KB) of headroom for small objects; propagate
    # transforms in place, so neither step holds a transform's copy
    # 3.44: the two returned intensities (1), the ring-plane grid and the carried inside wave (2),
    # the quadrant that propagate swaps through (0.25), and the three ring masks (0.19)
    assert trace_peak <= 3.51
    # 3.69: the Beam's two waves, transformed in their own grids (2), their two intensities (1), the
    # product dominance * p_out (0.5), and the dark, region and comparison masks (0.19); the test's
    # reference to the spent Beam holds no grid
    assert detector_peak <= 3.76


@pytest.mark.parametrize("overrides", [(), ("optics.detector_aperture_radius=9.6e-6",)], ids=["ideal", "aperture"])
def test_a_spent_beam_cannot_be_read_again(overrides):
    beam = O.trace_beam(_small(*overrides))[2]
    O.build_detector(beam)
    for read in (O.specimen_maps, O.build_detector):
        with pytest.raises(AttributeError, match="grid"):
            read(beam)


# ---------------------------------------------------------------------------
# whole-chain invariants


def test_four_plane_chain_unitarity(default_cfg):
    # propagate overwrites its input, so each plane is transformed from a copy and read again after
    mask = O.build_mask(default_cfg)
    image = O.propagate(O.WaveField(mask.grid.copy()))
    assert abs(power(image) - power(mask)) / power(mask) < 1e-10
    apertured = O.apply_aperture(image, default_cfg["optics.aperture_radius"] / default_cfg["optics.pitch"])
    ring_plane = O.propagate(O.WaveField(apertured.grid.copy()))
    assert abs(power(ring_plane) - power(apertured)) / power(apertured) < 1e-10
    mask_intensity, ring_intensity, beam = O.trace_beam(default_cfg)
    np.testing.assert_array_equal(mask_intensity, np.abs(mask.grid) ** 2)
    np.testing.assert_array_equal(ring_intensity, np.abs(ring_plane.grid) ** 2)
    # the ring-plane field is normalised, and the specimen parts keep its unit power
    assert power(beam.inside) + power(beam.outside) == pytest.approx(1.0, abs=1e-10)
    for f in (beam.inside, beam.outside):
        detector_plane = O.propagate(O.WaveField(f.grid.copy()))
        assert abs(power(detector_plane) - power(f)) / power(f) < 1e-10


def test_chain_double_transforms_are_parity(default_cfg):
    beam = O.trace_beam(default_cfg)[2]
    for f in (beam.inside, beam.outside):
        twice = O.propagate(O.propagate(O.WaveField(f.grid.copy())))
        np.testing.assert_allclose(twice.grid, parity(f.grid), atol=1e-10)
