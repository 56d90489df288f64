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
pixel carries a compensation angle of 0 or the Aharonov-Bohm phase.

The beam is traced once: `trace_beam` splits the ring-plane wave at
the ring's inner edge and carries each part to the specimen, and the
specimen maps and the detector are both read from that pair, the maps
first: `build_detector` spends the `Beam`.

Memory: `propagate` transforms a grid in place, and each n x n array is
freed or overwritten as soon as it has been read.  `trace_beam` peaks at
3.4 complex grids (n^2 x 16 bytes each), its two returned intensities
included, and `build_detector` at 3.7, the Beam it spends included.
`specimen_maps` builds the branches a block of rows at a time, so it
holds the Beam's two waves and the two float maps, 3.0 grids.  The
`optics` command peaks at 3.9 grids at n = 256, writing a specimen map
beside the Beam.  It holds no grid once it hashes its outputs, and that
first hash loads OpenSSL (see `fileio.sha256`), so OpenSSL's 3.6 MB of
RSS sit under no grid.

No step calls BLAS.  Sums are taken with np.sum, whose order is fixed,
not with np.dot or np.vdot, whose order OpenBLAS sets by its thread
count and so by the host's CPU count.

Every function reads its geometry from the run's `RunConfig` by
`config.SCHEMA` key (`optics.*`, `mask.*`, `ring.*`), so SCHEMA stays
the only description of each parameter.  Lengths are in meters, and
every radius is divided by `optics.pitch` before it meets a grid, so
only the ratios of lengths to the pitch enter the chain: lens
excitations can map the same grids to any physical size.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .detector import BOUNDARY, INSIDE_SHADOW, OUTSIDE_SHADOW, DetectorModel, intensity_of, wrap_angle
from .errors import PreconditionError

if TYPE_CHECKING:
    from .config import RunConfig

# Pixels whose total detected power falls below this fraction of the
# brightest pixel are dark shadow; they are unreachable in sampling and
# get region = outside, beta = 0 rather than a meaningless phase.
DARK_POWER_FLOOR = 1e-16

# grid rows per block of `specimen_maps`, whose temporaries are a few arrays of this many rows; the
# block sets the order of the <0|1> sums, so changing it moves the last bits of branch_overlap
MAP_BLOCK_ROWS = 16


class WaveField:
    """2-D complex scalar field on a square power-of-two grid; `del wave.grid` frees it."""

    def __init__(self, grid: np.ndarray):
        self.grid = grid


def branch_phase(cfg: RunConfig) -> float:
    """Aharonov-Bohm phase of the inside-ring wave in branch 1, wrapped to (-pi, pi] [rad].

    ring.flux_fraction f is the flux difference between the qubit states
    in units of the flux quantum; a wave threading the loop picks up the
    phase pi * f * ring.turns relative to the outside wave.
    """
    return wrap_angle(math.pi * cfg["ring.flux_fraction"] * cfg["ring.turns"])


def branch_factor(cfg: RunConfig) -> complex:
    """exp(i * branch_phase), the Aharonov-Bohm factor that `branch_one` applies.

    Qubit branch 0 is outside + inside and branch 1 is outside +
    branch_factor * inside.  An even flux wraps to a phase of exactly 0,
    so its factor is exactly 1.
    """
    return complex(np.exp(1j * branch_phase(cfg)))


def branch_one(cfg: RunConfig, inside: np.ndarray, outside: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Branch 1, outside + branch_factor * inside: the only place the Aharonov-Bohm phase meets a wave.

    `out` may be `inside` itself, which is then overwritten.  The product
    keeps the factor as the left operand: numpy's complex multiply is a
    fused multiply-add where the CPU has one, so factor * inside and
    inside * factor can differ in the last bit, and `inside *= factor`
    would move every optics-detector hash.
    """
    out = np.multiply(branch_factor(cfg), inside, out=out)
    out += outside
    return out


def _coords(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel offsets from the grid center n//2, as a (dy, dx) column and row that broadcast to n x n."""
    idx = np.arange(n) - n // 2
    return idx[:, None], idx[None, :]


def _radius_grid(n: int) -> np.ndarray:
    dy, dx = _coords(n)
    return np.hypot(dy, dx)


def ring_regions(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean grids (inside, body, outside) partitioning every pixel."""
    n, pitch = cfg["optics.n"], cfg["optics.pitch"]
    r = _radius_grid(n)
    ri = cfg["ring.inner"] / pitch
    ro = cfg["ring.outer"] / pitch
    if ro >= n / 2:
        raise PreconditionError("ring does not fit in the grid")
    inside = r < ri
    body = (r >= ri) & (r <= ro)
    outside = r > ro
    return inside, body, outside


def build_mask(cfg: RunConfig) -> WaveField:
    """Rasterize the stencil as a binary-amplitude field at a diffraction plane.

    The stencil is an open central disc plus an open annulus; a zero
    radius leaves that part closed.  The annulus is cut by gap wedges,
    which model the silicon beams that hold the ring body; each is
    centered on an entry of mask.gap_angles with full width mask.gap_width;
    a zero width cuts nothing.
    """
    n, pitch = cfg["optics.n"], cfg["optics.pitch"]
    r = _radius_grid(n)
    ri = cfg["mask.inner_radius"] / pitch
    ro = cfg["mask.outer_radius"] / pitch
    rd = cfg["mask.disc_radius"] / pitch
    if max(ro, rd) >= n / 2:
        raise PreconditionError("mask geometry exceeds the grid")
    open_px = (r <= rd) if rd > 0.0 else np.zeros((n, n), dtype=bool)
    if ro > 0.0:
        annulus = (r >= ri) & (r <= ro)
        dy, dx = _coords(n)
        theta = np.arctan2(dy, dx)
        for center in cfg["mask.gap_angles"]:
            delta = wrap_angle(theta - center)
            annulus &= np.abs(delta) >= 0.5 * cfg["mask.gap_width"]
        open_px = open_px | annulus
    return WaveField(open_px.astype(complex))


def _swap_quadrants(grid: np.ndarray) -> None:
    """Swap the diagonal quadrants of an even n x n grid in place: both fftshift and ifftshift there."""
    h = grid.shape[0] // 2
    quarter = grid[:h, :h].copy()
    grid[:h, :h] = grid[h:, h:]
    grid[h:, h:] = quarter
    quarter[...] = grid[:h, h:]
    grid[:h, h:] = grid[h:, :h]
    grid[h:, :h] = quarter


def propagate(fieldv: WaveField) -> WaveField:
    """Unitary centered 2-D Fourier transform to the conjugate plane, computed in the input's grid.

    The returned field shares `fieldv`'s grid, which then holds the
    transform: pass a copy to keep the input.  The bits are those of
    fftshift(fft2(ifftshift(grid), norm="ortho")), as the grid side is a
    power of two and both shifts swap its diagonal quadrants.  Preserves
    total power (Parseval) to floating-point accuracy.  Applying it twice
    reproduces the input mirrored through the grid center (parity).
    """
    grid = fieldv.grid
    if not grid.any():
        raise PreconditionError("cannot propagate a field with zero power")
    # no step holds a second grid: the shifts are swaps through one quadrant, and fft2 writes its input
    _swap_quadrants(grid)
    np.fft.fft2(grid, norm="ortho", out=grid)
    _swap_quadrants(grid)
    return fieldv


def apply_aperture(fieldv: WaveField, radius: float) -> WaveField:
    """Hard circular low-pass of radius `radius` pixels at an image plane (power can only decrease)."""
    keep = _radius_grid(fieldv.grid.shape[0]) <= radius
    return WaveField(np.where(keep, fieldv.grid, 0.0))


def normalized_cross_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine similarity sum(x y) / sqrt(sum(x^2) sum(y^2)) of two intensity maps."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    denom = math.sqrt(float(np.sum(x * x)) * float(np.sum(y * y)))
    return float(np.sum(x * y)) / denom


class Beam(NamedTuple):
    """The beam at the specimen plane, traced once for one configuration.

    `inside` and `outside` carry the unit-power ring-plane wave of qubit
    branch 0, split at the ring's inner edge, to the specimen; branch 0
    there is outside + inside and branch 1 is outside +
    `branch_factor(cfg)` * inside.

    `build_detector` spends the Beam: it transforms each wave in the
    wave's own grid and deletes that grid from the Beam, so reading a
    spent Beam raises AttributeError.  Build the specimen maps first.
    """

    cfg: RunConfig
    inside: WaveField
    outside: WaveField


def trace_beam(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, Beam]:
    """Mask -> transform -> aperture -> transform -> ring -> transform, run once.

    At the ring plane the body is blocked, with optics.balance the inside
    wave is rescaled to the outside power (the equal-weight state
    (|outside> + |inside>)/sqrt(2) that real stencils only approximate),
    and the field is normalised to unit power.  Returns the mask
    intensity, the ring-plane intensity before the ring and the `Beam`.
    """
    if not 0.0 < cfg["ring.inner"] < cfg["ring.outer"]:
        raise PreconditionError("need 0 < ring_inner < ring_outer")
    # each step rebinds `field`, so the grid it read is freed as soon as it is replaced
    field = build_mask(cfg)
    mask_intensity = intensity_of(field.grid)
    field = propagate(field)
    field = apply_aperture(field, cfg["optics.aperture_radius"] / cfg["optics.pitch"])
    field = propagate(field)
    grid = field.grid
    intensity = intensity_of(grid)
    inside, body, outside = ring_regions(cfg)
    grid[body] = 0.0
    if cfg["optics.balance"]:
        p_in, p_out = float(intensity[inside].sum()), float(intensity[outside].sum())
        if p_in <= 0.0 or p_out <= 0.0:
            raise PreconditionError("both ring sides need power to balance the split")
        grid[inside] *= math.sqrt(p_out / p_in)
    norm = math.sqrt(float(np.sum(intensity_of(grid))))
    if norm == 0.0:
        raise PreconditionError("no beam power survives the ring plane")
    grid /= norm
    inside_wave = propagate(WaveField(np.where(inside, grid, 0.0)))
    # the ring-plane grid becomes the outside part once the inside part has been carried, and
    # propagate carries it in place
    grid[inside] = 0.0
    outside_wave = propagate(WaveField(grid))
    return mask_intensity, intensity, Beam(cfg, inside_wave, outside_wave)


def specimen_maps(beam: Beam) -> tuple[np.ndarray, np.ndarray, complex]:
    """Unit-power specimen intensity maps of qubit branches 0 and 1, and <0|1>.

    The branches are built `MAP_BLOCK_ROWS` rows at a time, so the step
    holds the Beam, the two maps and one block of each branch.  <0|1> is
    summed from float products with np.sum, not np.vdot, whose BLAS sum
    follows the host's CPU count.
    """
    outside, inside = beam.outside.grid, beam.inside.grid
    map0, map1 = np.empty(outside.shape), np.empty(outside.shape)
    re = im = 0.0
    for lo in range(0, outside.shape[0], MAP_BLOCK_ROWS):
        rows = slice(lo, lo + MAP_BLOCK_ROWS)
        branch0 = outside[rows] + inside[rows]
        branch1 = branch_one(beam.cfg, inside[rows], outside[rows])
        re += float(np.sum(branch0.real * branch1.real + branch0.imag * branch1.imag))
        im += float(np.sum(branch0.real * branch1.imag - branch0.imag * branch1.real))
        map0[rows] = intensity_of(branch0)
        map1[rows] = intensity_of(branch1)
    p0, p1 = map0.sum(), map1.sum()
    map0 /= p0
    map1 /= p1
    return map0, map1, complex(re, im) / math.sqrt(p0 * p1)


def build_detector(beam: Beam) -> DetectorModel:
    """Detector amplitudes, compensation angles, and shadow classification.

    The inside-ring and outside-ring waves are carried from the specimen
    to the detector separately, so each pixel can be classed by which
    wave dominates its power (>= optics.dominance_ratio wins; comparable
    pixels and pixels whose branch moduli disagree beyond
    optics.tolerance are boundary).  With no detector aperture the re-image is an exact
    conjugate and every lit pixel is purely inside or outside, giving
    beta of 0 or the Aharonov-Bohm phase.

    Spends the Beam: each specimen wave is transformed in its own grid,
    which is then deleted from the Beam.
    """
    cfg = beam.cfg
    pitch, radius = cfg["optics.pitch"], cfg["optics.detector_aperture_radius"]
    transformed = []
    for wave in (beam.inside, beam.outside):
        transformed.append(propagate(wave if radius is None else apply_aperture(wave, radius / pitch)).grid.ravel())
        del wave.grid
    d_in, d_out = transformed
    del transformed

    p_in = intensity_of(d_in)
    p_out = intensity_of(d_out)
    total = p_in + p_out
    dark = total <= DARK_POWER_FLOOR * total.max()
    del total
    region = np.full(d_in.size, BOUNDARY, dtype=np.int8)
    dominance = cfg["optics.dominance_ratio"]
    region[p_in >= dominance * p_out] = INSIDE_SHADOW
    region[p_out >= dominance * p_in] = OUTSIDE_SHADOW
    region[dark] = OUTSIDE_SHADOW
    del p_in, p_out

    a = d_out + d_in
    b = branch_one(cfg, d_in, d_out, out=d_in)
    del d_in, d_out
    a /= math.sqrt(float(np.sum(intensity_of(a))))
    b /= math.sqrt(float(np.sum(intensity_of(b))))

    beta = wrap_angle(np.angle(b) - np.angle(a))
    beta[dark] = 0.0

    # moduli drifting beyond tolerance are boundary
    drift = np.abs(a)
    scale = drift.max()
    drift -= np.abs(b)
    np.abs(drift, out=drift)
    region[(drift > cfg["optics.tolerance"] * scale) & ~dark] = BOUNDARY

    return DetectorModel(a=a, b=b, beta=beta, region=region)
