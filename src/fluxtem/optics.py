"""Scalar Fourier-optics chain for the flux-qubit beam shaper.

The beam path alternates between diffraction and image planes, adjacent
planes being related by a unitary centered Fourier transform:

    stencil mask (diffraction) -> aperture (image) -> qubit ring
    (diffraction) -> specimen (image) -> area detector (diffraction)

The stencil mask carves the beam into a central disc (through the ring)
plus an outer annulus (around it) so no electrons hit the ring body.
The aperture low-passes the beam, smoothing its footprint on the ring.
At the ring plane the superconducting body blocks its own annulus, and
a trapped flux multiplies the inside-ring wave by the Aharonov-Bohm
phase.  The detector plane is an exact conjugate of the ring plane, so
the ring's shadow separates inside and outside waves again and each
pixel carries a compensation angle of 0 or pi.

Lengths are in meters with a pixel pitch, but the chain itself is
scale-free: lens excitations can map the same grids to any physical
size, so the pitch is metadata only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import BOUNDARY, INSIDE_SHADOW, OUTSIDE_SHADOW, DetectorModel
from .errors import EmptyFieldError, GeometryError, PlaneMismatchError
from .protocol import wrap_angle

PLANE_DIFFRACTION = "diffraction"
PLANE_IMAGE = "image"

# Pixels whose total detected power falls below this fraction of the
# brightest pixel are dark shadow; they are unreachable in sampling and
# get region = outside, beta = 0 rather than a meaningless phase.
DARK_POWER_FLOOR = 1e-16


@dataclass
class WaveField:
    """2-D complex scalar field on a square power-of-two grid."""

    grid: np.ndarray
    pitch: float = 1.0
    plane_kind: str = PLANE_DIFFRACTION

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=complex)
        n = self.grid.shape[0]
        if self.grid.ndim != 2 or self.grid.shape[1] != n:
            raise GeometryError(f"field must be square, got {self.grid.shape}")
        if n < 2 or (n & (n - 1)) != 0:
            raise GeometryError(f"grid size must be a power of two >= 2, got {n}")
        if self.plane_kind not in (PLANE_DIFFRACTION, PLANE_IMAGE):
            raise ValueError(f"unknown plane kind {self.plane_kind!r}")
        if not math.isfinite(self.power):
            raise ValueError("field power must be finite")

    @property
    def n(self) -> int:
        return self.grid.shape[0]

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.grid) ** 2))


@dataclass(frozen=True)
class MaskSpec:
    """Binary stencil: open central disc plus an open annulus with strut gaps.

    The gap wedges model the silicon beams that hold the ring body; each
    is centered on an entry of `gap_angles` with full width `gap_width`.
    A zero radius leaves that part closed.
    """

    inner_radius: float
    outer_radius: float
    gap_angles: tuple[float, ...]
    gap_width: float
    disc_radius: float


@dataclass(frozen=True)
class RingSpec:
    """SQUID ring footprint and trapped-flux state.

    flux_fraction f is the flux difference between the qubit states in
    units of the flux quantum; a wave threading the loop picks up the
    phase pi * f * turns relative to the outside wave.
    """

    ring_inner: float
    ring_outer: float
    flux_fraction: float
    turns: int

    def __post_init__(self):
        if not 0.0 < self.ring_inner < self.ring_outer:
            raise GeometryError("need 0 < ring_inner < ring_outer")
        if self.turns < 1:
            raise ValueError("turns must be >= 1")

    @property
    def branch_phase(self) -> float:
        """Aharonov-Bohm phase of the inside-ring wave in branch 1 [rad]."""
        return math.pi * self.flux_fraction * self.turns


def _coords(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel offsets from the grid center n//2, as (dy, dx) index grids."""
    c = n // 2
    idx = np.arange(n) - c
    return np.meshgrid(idx, idx, indexing="ij")


def _radius_grid(n: int) -> np.ndarray:
    dy, dx = _coords(n)
    return np.hypot(dy, dx)


def ring_regions(n: int, ring: RingSpec, pitch: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean grids (inside, body, outside) partitioning every pixel."""
    r = _radius_grid(n)
    ri = ring.ring_inner / pitch
    ro = ring.ring_outer / pitch
    if ro >= n / 2:
        raise GeometryError("ring does not fit in the grid")
    inside = r < ri
    body = (r >= ri) & (r <= ro)
    outside = r > ro
    return inside, body, outside


def build_mask(spec: MaskSpec, n: int, pitch: float) -> WaveField:
    """Rasterize the stencil as a binary-amplitude field at a diffraction plane."""
    r = _radius_grid(n)
    ri = spec.inner_radius / pitch
    ro = spec.outer_radius / pitch
    rd = spec.disc_radius / pitch
    if max(ro, rd) >= n / 2:
        raise GeometryError("mask geometry exceeds the grid")
    open_px = (r <= rd) if rd > 0.0 else np.zeros((n, n), dtype=bool)
    if ro > 0.0:
        annulus = (r >= ri) & (r <= ro)
        if spec.gap_angles:
            dy, dx = _coords(n)
            theta = np.arctan2(dy, dx)
            for center in spec.gap_angles:
                delta = np.angle(np.exp(1j * (theta - center)))
                annulus &= np.abs(delta) > 0.5 * spec.gap_width
        open_px = open_px | annulus
    return WaveField(open_px.astype(complex), pitch, PLANE_DIFFRACTION)


def propagate(fieldv: WaveField) -> WaveField:
    """Unitary centered 2-D Fourier transform to the conjugate plane.

    Toggles the plane kind and preserves total power (Parseval) to
    floating-point accuracy.  Applying it twice reproduces the input
    mirrored through the grid center (parity).
    """
    if fieldv.power == 0.0:
        raise EmptyFieldError("cannot propagate a field with zero power")
    shifted = np.fft.ifftshift(fieldv.grid)
    out = np.fft.fftshift(np.fft.fft2(shifted, norm="ortho"))
    kind = PLANE_IMAGE if fieldv.plane_kind == PLANE_DIFFRACTION else PLANE_DIFFRACTION
    return WaveField(out, fieldv.pitch, kind)


def parity(grid: np.ndarray) -> np.ndarray:
    """Point reflection through the grid center: out[i, j] = in[-i mod n, -j mod n]."""
    return np.roll(grid[::-1, ::-1], (1, 1), axis=(0, 1))


def apply_aperture(fieldv: WaveField, radius: float) -> WaveField:
    """Hard circular low-pass at an image plane (power can only decrease)."""
    if fieldv.plane_kind != PLANE_IMAGE:
        raise PlaneMismatchError("aperture belongs at an image plane")
    r = _radius_grid(fieldv.n)
    keep = r <= radius / fieldv.pitch
    return WaveField(np.where(keep, fieldv.grid, 0.0), fieldv.pitch, fieldv.plane_kind)


def apply_ab_phase(fieldv: WaveField, ring: RingSpec, qubit_branch: int) -> WaveField:
    """Imprint the ring on the beam for one qubit branch.

    Both branches lose the ring-body annulus (the superconductor is
    opaque).  Branch 1 additionally multiplies the inside-ring disc by
    exp(i * pi * flux_fraction * turns); branch 0 leaves phases alone.
    Moduli inside and outside are untouched.
    """
    if fieldv.plane_kind != PLANE_DIFFRACTION:
        raise PlaneMismatchError("the ring sits at a diffraction plane")
    if qubit_branch not in (0, 1):
        raise ValueError("qubit_branch must be 0 or 1")
    inside, body, _ = ring_regions(fieldv.n, ring, fieldv.pitch)
    grid = fieldv.grid.copy()
    grid[body] = 0.0
    if qubit_branch == 1:
        grid[inside] *= np.exp(1j * ring.branch_phase)
    return WaveField(grid, fieldv.pitch, fieldv.plane_kind)


def inside_outside_powers(fieldv: WaveField, ring: RingSpec) -> tuple[float, float]:
    """Beam power carried inside the ring disc and outside the ring body."""
    inside, _, outside = ring_regions(fieldv.n, ring, fieldv.pitch)
    p = np.abs(fieldv.grid) ** 2
    return float(p[inside].sum()), float(p[outside].sum())


def balance_ring_split(fieldv: WaveField, ring: RingSpec) -> WaveField:
    """Rescale the inside-ring wave so inside and outside powers are equal.

    This realizes the idealized equal-weight electron state
    (|outside> + |inside>)/sqrt(2) that maximizes branch
    distinguishability; real stencils only approximate it.
    """
    p_in, p_out = inside_outside_powers(fieldv, ring)
    if p_in <= 0.0 or p_out <= 0.0:
        raise EmptyFieldError("both ring sides need power to balance the split")
    inside, _, _ = ring_regions(fieldv.n, ring, fieldv.pitch)
    grid = fieldv.grid.copy()
    grid[inside] *= math.sqrt(p_out / p_in)
    return WaveField(grid, fieldv.pitch, fieldv.plane_kind)


def weak_phase_specimen(phase_map: np.ndarray, fieldv: WaveField) -> WaveField:
    """Multiply an image-plane field by exp(i * phase(x)); power is preserved."""
    if fieldv.plane_kind != PLANE_IMAGE:
        raise PlaneMismatchError("a weak phase object belongs at an image plane")
    phase = np.asarray(phase_map, dtype=float)
    if phase.shape != fieldv.grid.shape:
        raise GeometryError(f"phase map shape {phase.shape} does not match field {fieldv.grid.shape}")
    return WaveField(fieldv.grid * np.exp(1j * phase), fieldv.pitch, fieldv.plane_kind)


def normalized_cross_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine similarity sum(x y) / sqrt(sum(x^2) sum(y^2)) of two intensity maps."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    denom = math.sqrt(float(np.dot(x, x)) * float(np.dot(y, y)))
    if denom == 0.0:
        raise ValueError("cannot correlate zero maps")
    return float(np.dot(x, y)) / denom


@dataclass(frozen=True)
class OpticsConfig:
    """Full beam-path configuration from stencil to detector (`cli.optics_config` fills it)."""

    n: int
    pitch: float
    mask: MaskSpec
    ring: RingSpec
    aperture_radius: float
    balance: bool
    detector_aperture_radius: float | None
    tolerance: float
    dominance_ratio: float


@dataclass(frozen=True)
class Beam:
    """The stencil-to-ring part of the beam path, traced once for one configuration.

    `mask` is the stencil, `incident` the beam arriving at the ring
    plane and `branch0` the unit-power ring-plane field of qubit
    branch 0: the ring body blocked and, with `balance`, the inside and
    outside powers made equal.
    """

    cfg: OpticsConfig
    mask: WaveField
    incident: WaveField
    branch0: WaveField

    @property
    def branch1(self) -> WaveField:
        """Branch 0 with the Aharonov-Bohm phase on the inside-ring wave."""
        return apply_ab_phase(self.branch0, self.cfg.ring, 1)


def trace_beam(cfg: OpticsConfig) -> Beam:
    """Mask -> transform -> aperture -> transform -> ring, run once."""
    mask = build_mask(cfg.mask, cfg.n, cfg.pitch)
    incident = propagate(apply_aperture(propagate(mask), cfg.aperture_radius))
    base = apply_ab_phase(incident, cfg.ring, 0)
    if cfg.balance:
        base = balance_ring_split(base, cfg.ring)
    norm = math.sqrt(base.power)
    if norm == 0.0:
        raise EmptyFieldError("no beam power survives the ring plane")
    branch0 = WaveField(base.grid / norm, base.pitch, base.plane_kind)
    return Beam(cfg, mask, incident, branch0)


def branch_overlap(beam: Beam) -> complex:
    """Inner product <field0|field1> of the normalized ring-plane branches."""
    f0, f1 = beam.branch0, beam.branch1
    n0 = math.sqrt(f0.power)
    n1 = math.sqrt(f1.power)
    return complex(np.vdot(f0.grid, f1.grid) / (n0 * n1))


def specimen_intensity(beam: Beam) -> tuple[np.ndarray, np.ndarray]:
    """Unit-power beam intensity maps on the specimen for branches 0 and 1."""
    maps = []
    for f in (beam.branch0, beam.branch1):
        m = np.abs(propagate(f).grid) ** 2
        maps.append(m / m.sum())
    return maps[0], maps[1]


def _reimage_to_detector(fieldv: WaveField, cfg: OpticsConfig, phase_map: np.ndarray | None) -> WaveField:
    """Ring plane -> specimen (image) -> detector (diffraction)."""
    spec_plane = propagate(fieldv)
    if phase_map is not None:
        spec_plane = weak_phase_specimen(phase_map, spec_plane)
    if cfg.detector_aperture_radius is not None:
        spec_plane = apply_aperture(spec_plane, cfg.detector_aperture_radius)
    return propagate(spec_plane)


def build_detector(
    cfg: OpticsConfig,
    phase_map: np.ndarray | None = None,
) -> DetectorModel:
    """Detector amplitudes, compensation angles, and shadow classification.

    The inside-ring and outside-ring components are carried to the
    detector separately, so each pixel can be classed by which component
    dominates its power (>= dominance_ratio wins; comparable pixels and
    pixels whose branch moduli disagree beyond tolerance are boundary).
    With no detector aperture the re-image is an exact conjugate and
    every lit pixel is purely inside or outside, giving beta of exactly
    0 or pi when a single flux quantum is trapped.

    `phase_map` folds a weak phase specimen into the amplitudes; the
    resulting detector then carries the specimen phase on top of the
    calibration angles of the specimen-free detector.
    """
    base = trace_beam(cfg).branch0
    inside, _, _ = ring_regions(cfg.n, cfg.ring, cfg.pitch)
    g_in = WaveField(np.where(inside, base.grid, 0.0), cfg.pitch, base.plane_kind)
    g_out = WaveField(np.where(~inside, base.grid, 0.0), cfg.pitch, base.plane_kind)

    d_in = _reimage_to_detector(g_in, cfg, phase_map).grid.ravel()
    d_out = _reimage_to_detector(g_out, cfg, phase_map).grid.ravel()

    phase1 = np.exp(1j * cfg.ring.branch_phase)
    a = d_out + d_in
    b = d_out + phase1 * d_in
    a = a / math.sqrt(float(np.sum(np.abs(a) ** 2)))
    b = b / math.sqrt(float(np.sum(np.abs(b) ** 2)))

    p_in = np.abs(d_in) ** 2
    p_out = np.abs(d_out) ** 2
    total = p_in + p_out
    dark = total <= DARK_POWER_FLOOR * total.max()

    region = np.full(a.size, BOUNDARY, dtype=np.int8)
    region[p_in >= cfg.dominance_ratio * p_out] = INSIDE_SHADOW
    region[p_out >= cfg.dominance_ratio * p_in] = OUTSIDE_SHADOW
    region[dark] = OUTSIDE_SHADOW

    beta = wrap_angle(np.angle(b) - np.angle(a))
    beta[dark] = 0.0

    # moduli drifting beyond tolerance (e.g. from a specimen) are boundary
    scale = np.abs(a).max()
    drift = (np.abs(np.abs(a) - np.abs(b)) > cfg.tolerance * scale) & ~dark
    region[drift] = BOUNDARY

    return DetectorModel(a=a, b=b, beta=beta, region=region, tolerance=cfg.tolerance, shape=(cfg.n, cfg.n))
