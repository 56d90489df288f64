import math
from dataclasses import replace

import numpy as np
import pytest

from fluxtem import detector as det_mod
from fluxtem import optics as O
from fluxtem.errors import EmptyFieldError, GeometryError, PlaneMismatchError


def _gaussian_field(n, sigma):
    dy, dx = np.meshgrid(np.arange(n) - n // 2, np.arange(n) - n // 2, indexing="ij")
    return O.WaveField(np.exp(-(dx**2 + dy**2) / (2 * sigma**2)).astype(complex))


@pytest.fixture(scope="module")
def small_beam(small_cfg):
    return O.trace_beam(small_cfg)


# ---------------------------------------------------------------------------
# masks


class TestBuildMask:
    def test_annulus_area_matches_closed_form(self):
        n, pitch = 256, 1.0
        inner, outer = 40.0, 60.0
        width = math.radians(10.0)
        spec = O.MaskSpec(
            inner_radius=inner, outer_radius=outer, gap_angles=(0.3, 2.5), gap_width=width, disc_radius=0.0
        )
        field = O.build_mask(spec, n, pitch)
        count = int(np.count_nonzero(field.grid))
        annulus_area = math.pi * (outer**2 - inner**2)
        expected = annulus_area * (1.0 - 2 * width / (2 * math.pi))
        # one pixel-row of error along every edge: circumferences plus strut sides
        edge_budget = 2 * math.pi * (inner + outer) + 4 * (outer - inner)
        assert abs(count - expected) <= edge_budget

    def test_disc_plus_annulus(self):
        n = 128
        spec = O.MaskSpec(inner_radius=30.0, outer_radius=40.0, gap_angles=(), gap_width=0.0, disc_radius=10.0)
        field = O.build_mask(spec, n, 1.0)
        count = int(np.count_nonzero(field.grid))
        expected = math.pi * (10.0**2 + 40.0**2 - 30.0**2)
        assert abs(count - expected) <= 2 * math.pi * (10 + 30 + 40)

    def test_zero_transmission_blocks_downstream(self):
        spec = O.MaskSpec(inner_radius=0.0, outer_radius=0.0, gap_angles=(), gap_width=0.0, disc_radius=0.0)
        field = O.build_mask(spec, 32, 1.0)
        assert field.power == 0.0
        with pytest.raises(EmptyFieldError):
            O.propagate(field)

    def test_oversized_geometry_rejected(self):
        with pytest.raises(GeometryError):
            O.build_mask(O.MaskSpec(inner_radius=0.0, outer_radius=40.0, gap_angles=(), gap_width=0.0, disc_radius=0.0), 64, 1.0)


# ---------------------------------------------------------------------------
# propagation


class TestPropagate:
    def test_parseval(self):
        field = _gaussian_field(128, 9.0)
        out = O.propagate(field)
        assert abs(out.power - field.power) / field.power < 1e-10

    def test_plane_kind_toggles(self):
        field = _gaussian_field(64, 5.0)
        assert field.plane_kind == O.PLANE_DIFFRACTION
        once = O.propagate(field)
        assert once.plane_kind == O.PLANE_IMAGE
        assert O.propagate(once).plane_kind == O.PLANE_DIFFRACTION

    def test_double_transform_is_parity(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        field = O.WaveField(grid)
        twice = O.propagate(O.propagate(field))
        np.testing.assert_allclose(twice.grid, O.parity(grid), atol=1e-10)

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

    def test_non_power_of_two_rejected(self):
        with pytest.raises(GeometryError):
            O.WaveField(np.ones((20, 20), dtype=complex))


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
        assert out.power <= field.power

    def test_wrong_plane_rejected(self):
        field = _gaussian_field(64, 6.0)  # diffraction plane
        with pytest.raises(PlaneMismatchError):
            O.apply_aperture(field, radius=5.0)

    def test_aperture_smooths_ring_plane(self, small_cfg):
        """Total variation of the ring-plane intensity drops when the aperture acts."""

        def ring_plane_tv(aperture_radius):
            cfg = replace(small_cfg, aperture_radius=aperture_radius)
            intensity = np.abs(O.trace_beam(cfg).incident.grid) ** 2
            tv = np.abs(np.diff(intensity, axis=0)).sum() + np.abs(np.diff(intensity, axis=1)).sum()
            return tv / intensity.sum()

        open_radius = small_cfg.n * small_cfg.pitch  # passes everything
        assert ring_plane_tv(small_cfg.aperture_radius) < ring_plane_tv(open_radius)


# ---------------------------------------------------------------------------
# ring interaction


class TestAbPhase:
    def test_no_flux_branches_identical(self, small_cfg, small_beam):
        ring = replace(small_cfg.ring, flux_fraction=0.0)
        incident = small_beam.incident
        f0 = O.apply_ab_phase(incident, ring, 0)
        f1 = O.apply_ab_phase(incident, ring, 1)
        np.testing.assert_array_equal(f0.grid, f1.grid)

    def test_single_flux_negates_inside(self, small_cfg, small_beam):
        incident = small_beam.incident
        f0 = O.apply_ab_phase(incident, small_cfg.ring, 0)
        f1 = O.apply_ab_phase(incident, small_cfg.ring, 1)
        inside, _, _ = O.ring_regions(small_cfg.n, small_cfg.ring, small_cfg.pitch)
        np.testing.assert_allclose(f1.grid[inside], -f0.grid[inside], atol=1e-15)
        np.testing.assert_array_equal(f1.grid[~inside], f0.grid[~inside])

    def test_overlap_equals_power_difference(self, small_cfg, small_beam):
        """Oracle: <f0|f1> = P_out - P_in for a single flux quantum."""
        incident = small_beam.incident
        f0 = O.apply_ab_phase(incident, small_cfg.ring, 0)
        f1 = O.apply_ab_phase(incident, small_cfg.ring, 1)
        p_in, p_out = O.inside_outside_powers(f0, small_cfg.ring)
        overlap = complex(np.vdot(f0.grid, f1.grid))
        assert overlap.real == pytest.approx(p_out - p_in, rel=1e-12)
        assert abs(overlap.imag) < 1e-12 * f0.power

    def test_phase_additivity(self, small_cfg, small_beam):
        incident = small_beam.incident
        half_double = replace(small_cfg.ring, flux_fraction=0.5, turns=2)
        full_single = replace(small_cfg.ring, flux_fraction=1.0, turns=1)
        g1 = O.apply_ab_phase(incident, half_double, 1)
        g2 = O.apply_ab_phase(incident, full_single, 1)
        np.testing.assert_allclose(g1.grid, g2.grid, atol=1e-15)

    def test_body_annulus_blocked_for_both_branches(self, small_cfg, small_beam):
        incident = small_beam.incident
        _, body, _ = O.ring_regions(small_cfg.n, small_cfg.ring, small_cfg.pitch)
        for branch in (0, 1):
            out = O.apply_ab_phase(incident, small_cfg.ring, branch)
            assert np.all(out.grid[body] == 0.0)

    def test_phase_only_on_cleared_annulus(self, small_cfg, small_beam):
        """On a field already zero over the body, the ring op preserves power exactly."""
        incident = O.apply_ab_phase(small_beam.incident, small_cfg.ring, 0)
        phased = O.apply_ab_phase(incident, small_cfg.ring, 1)
        assert phased.power == incident.power

    def test_wrong_plane_rejected(self, small_cfg):
        image_plane = O.propagate(_gaussian_field(small_cfg.n, 5.0))
        with pytest.raises(PlaneMismatchError):
            O.apply_ab_phase(image_plane, small_cfg.ring, 0)


def test_balanced_branches_orthogonal(small_beam):
    assert abs(O.branch_overlap(small_beam)) < 1e-10


def test_unbalanced_overlap_matches_power_mismatch(small_cfg):
    beam = O.trace_beam(replace(small_cfg, balance=False))
    p_in, p_out = O.inside_outside_powers(beam.branch0, beam.cfg.ring)
    overlap = O.branch_overlap(beam)
    assert overlap.real == pytest.approx(p_out - p_in, abs=1e-12)


# ---------------------------------------------------------------------------
# specimen maps


class TestSpecimenIntensity:
    def test_no_flux_maps_identical(self, small_cfg):
        cfg = replace(small_cfg, ring=replace(small_cfg.ring, flux_fraction=0.0))
        map0, map1 = O.specimen_intensity(O.trace_beam(cfg))
        np.testing.assert_array_equal(map0, map1)

    def test_single_flux_maps_distinct(self, small_beam):
        map0, map1 = O.specimen_intensity(small_beam)
        assert O.normalized_cross_correlation(map0, map1) < 0.9
        assert np.unravel_index(map0.argmax(), map0.shape) != np.unravel_index(map1.argmax(), map1.shape)

    def test_maps_are_normalized(self, small_beam):
        map0, map1 = O.specimen_intensity(small_beam)
        assert map0.sum() == pytest.approx(1.0)
        assert map1.sum() == pytest.approx(1.0)

    def test_mirror_symmetric_mask_gives_mirror_symmetric_maps(self, small_beam):
        map0, map1 = O.specimen_intensity(small_beam)  # struts at 90/270 degrees
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
        assert np.abs(beta[~inside]).max() < 1e-6
        assert np.abs(np.abs(beta[inside]) - math.pi).max() < 1e-6

    def test_amplitude_law_on_lit_pixels(self, small_detector):
        det = small_detector
        power = 0.5 * (det.power_a + det.power_b)
        lit = (power > 1e-16 * power.max()) & ~det.boundary_mask
        residual = np.abs(det.a[lit] - det.b[lit] * np.exp(-1j * det.beta[lit]))
        assert (residual / np.abs(det.a[lit])).max() < 1e-6

    def test_no_flux_detector_trivial(self, small_cfg):
        cfg = replace(small_cfg, ring=replace(small_cfg.ring, flux_fraction=0.0))
        det = O.build_detector(cfg)
        np.testing.assert_array_equal(det.a, det.b)
        assert np.all(det.beta == 0.0)
        assert int(det.boundary_mask.sum()) == 0

    def test_ideal_reimage_has_no_boundary_power(self, small_detector):
        assert small_detector.boundary_power_fraction() == 0.0

    def test_blurred_reimage_reports_boundary_power(self, small_cfg):
        cfg = replace(small_cfg, detector_aperture_radius=24 * small_cfg.pitch, tolerance=0.05)
        det = O.build_detector(cfg)
        frac = det.boundary_power_fraction()
        assert 0.0 < frac < 0.5
        # region power sums are an independent oracle for the reported fraction
        p = 0.5 * (det.power_a + det.power_b)
        assert frac == pytest.approx(float(p[det.boundary_mask].sum() / p.sum()))

    def test_beta_map_invariant_under_global_phase(self, small_cfg, small_beam, small_detector):
        # multiply the source by a constant phase through a custom chain
        det_ref = small_detector
        base = small_beam.branch0
        rotated = O.WaveField(base.grid * np.exp(0.77j), base.pitch, base.plane_kind)
        inside, _, _ = O.ring_regions(small_cfg.n, small_cfg.ring, small_cfg.pitch)
        d_in = O.propagate(O.propagate(O.WaveField(np.where(inside, rotated.grid, 0), base.pitch, base.plane_kind)))
        d_out = O.propagate(O.propagate(O.WaveField(np.where(~inside, rotated.grid, 0), base.pitch, base.plane_kind)))
        a = (d_out.grid + d_in.grid).ravel()
        b = (d_out.grid + np.exp(1j * small_cfg.ring.branch_phase) * d_in.grid).ravel()
        beta = np.angle(b) - np.angle(a)
        beta -= 2 * math.pi * np.round(beta / (2 * math.pi))
        lit = 0.5 * (det_ref.power_a + det_ref.power_b) > 1e-12
        np.testing.assert_allclose(
            np.cos(beta[lit]), np.cos(det_ref.beta[lit]), atol=1e-9
        )

    def test_validate_passes(self, small_detector):
        small_detector.validate(check_beta_law=True)


# ---------------------------------------------------------------------------
# weak phase objects


class TestWeakPhase:
    def test_zero_phase_is_identity(self, small_cfg, small_beam):
        s0 = O.propagate(small_beam.branch0)
        out = O.weak_phase_specimen(np.zeros((small_cfg.n, small_cfg.n)), s0)
        np.testing.assert_array_equal(out.grid, s0.grid)

    def test_uniform_phase_is_global(self, small_cfg, small_beam):
        s0 = O.propagate(small_beam.branch0)
        out = O.weak_phase_specimen(np.full((small_cfg.n, small_cfg.n), 0.7), s0)
        np.testing.assert_allclose(out.grid, s0.grid * np.exp(0.7j), atol=1e-15)
        # downstream intensity unchanged
        i_ref = np.abs(O.propagate(s0).grid) ** 2
        i_out = np.abs(O.propagate(out).grid) ** 2
        np.testing.assert_allclose(i_out, i_ref, atol=1e-12 * i_ref.max())

    def test_power_preserved_exactly(self, small_cfg, small_beam):
        s0 = O.propagate(small_beam.branch0)
        rng = np.random.default_rng(2)
        phase = rng.uniform(-0.2, 0.2, size=(small_cfg.n, small_cfg.n))
        out = O.weak_phase_specimen(phase, s0)
        assert out.power == pytest.approx(s0.power, rel=1e-14)

    def test_shape_mismatch_rejected(self, small_cfg, small_beam):
        s0 = O.propagate(small_beam.branch0)
        with pytest.raises(GeometryError):
            O.weak_phase_specimen(np.zeros((4, 4)), s0)

    def test_wrong_plane_rejected(self, small_cfg, small_beam):
        with pytest.raises(PlaneMismatchError):  # branch 0 lies at the ring's diffraction plane
            O.weak_phase_specimen(np.zeros((small_cfg.n, small_cfg.n)), small_beam.branch0)


# ---------------------------------------------------------------------------
# whole-chain invariants


def test_four_plane_chain_unitarity(default_cfg):
    mask = O.build_mask(default_cfg.mask, default_cfg.n, default_cfg.pitch)
    image = O.propagate(mask)
    assert abs(image.power - mask.power) / mask.power < 1e-10
    apertured = O.apply_aperture(image, default_cfg.aperture_radius)
    ring_plane = O.propagate(apertured)
    assert abs(ring_plane.power - apertured.power) / apertured.power < 1e-10
    beam = O.trace_beam(default_cfg)
    np.testing.assert_array_equal(beam.incident.grid, ring_plane.grid)
    for f in (beam.branch0, beam.branch1):
        specimen = O.propagate(f)
        assert abs(specimen.power - f.power) / f.power < 1e-10
        detector_plane = O.propagate(specimen)
        assert abs(detector_plane.power - specimen.power) / specimen.power < 1e-10


def test_chain_double_transforms_are_parity(default_cfg):
    f0 = O.trace_beam(default_cfg).branch0
    twice = O.propagate(O.propagate(f0))
    np.testing.assert_allclose(twice.grid, O.parity(f0.grid), atol=1e-10)
