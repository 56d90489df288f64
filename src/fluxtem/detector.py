"""Area-detector model: per-pixel branch amplitudes and compensation angles.

For every detector pixel j the model stores the overlap of the pixel
state with the two electron branches, a_j = <d_j|0> and b_j = <d_j|1>.
In the far field the two branches produce nearly identical intensity
patterns, so |a_j| = |b_j| holds and each pixel reduces to a known
compensation angle beta_j = arg(b_j) - arg(a_j).  Pixels where the
moduli differ beyond tolerance are classed as boundary pixels; the
protocol discards an electron drawn there and draws again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidStateError

OUTSIDE_SHADOW = 0
INSIDE_SHADOW = 1
BOUNDARY = 2

REGION_NAMES = {OUTSIDE_SHADOW: "outside_shadow", INSIDE_SHADOW: "inside_shadow", BOUNDARY: "boundary"}

_CSV_HEADER = ["pixel", "re_a", "im_a", "re_b", "im_b", "beta", "region"]


@dataclass(frozen=True)
class DetectorModel:
    """Per-pixel amplitudes (a, b), compensation angles and region classes.

    Both amplitude arrays are normalized to unit total power.  `region`
    holds OUTSIDE_SHADOW / INSIDE_SHADOW / BOUNDARY codes; `shape` keeps
    the original 2-D grid shape when the detector is an image.
    """

    a: np.ndarray
    b: np.ndarray
    beta: np.ndarray
    region: np.ndarray
    tolerance: float = 1e-6
    shape: tuple[int, int] | None = field(default=None)

    def __post_init__(self):
        for name in ("a", "b"):
            arr = np.asarray(getattr(self, name), dtype=complex).ravel()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        beta = np.asarray(self.beta, dtype=float).ravel()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        region = np.asarray(self.region, dtype=np.int8).ravel()
        region.setflags(write=False)
        object.__setattr__(self, "region", region)
        n = self.a.size
        if not (self.b.size == self.beta.size == self.region.size == n):
            raise InvalidStateError("detector arrays must have equal length")
        if n == 0:
            raise InvalidStateError("detector needs at least one pixel")

    @property
    def n_pixels(self) -> int:
        return self.a.size

    @cached_property
    def power_a(self) -> np.ndarray:
        return np.abs(self.a) ** 2

    @cached_property
    def power_b(self) -> np.ndarray:
        return np.abs(self.b) ** 2

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        return self.region == BOUNDARY

    @property
    def equal_weight_power(self) -> np.ndarray:
        """Detection probability of each pixel for equal branch weights: (|a_j|^2 + |b_j|^2) / 2."""
        return 0.5 * (self.power_a + self.power_b)

    @cached_property
    def equal_weight_cumulative(self) -> np.ndarray:
        """Cumulative pixel distribution for equal branch weights 1/2, 1/2."""
        cum = np.cumsum(self.equal_weight_power)
        cum /= cum[-1]
        cum[-1] = 1.0
        return cum

    @cached_property
    def _boundary_power_fraction(self) -> float:
        p = self.equal_weight_power
        return float(p[self.boundary_mask].sum() / p.sum())

    def boundary_power_fraction(self) -> float:
        """Power-weighted fraction of pixels classed as boundary."""
        return self._boundary_power_fraction

    def beta_law_deviation(self) -> float:
        """Largest distance of a non-boundary beta_j from 0 (outside the shadow) or pi (inside)."""
        ok = ~self.boundary_mask
        beta = self.beta[ok]
        inside = self.region[ok] == INSIDE_SHADOW
        return max(np.abs(beta[~inside]).max(initial=0.0), np.abs(np.abs(beta[inside]) - np.pi).max(initial=0.0))

    def validate(self, check_beta_law: bool = True) -> None:
        """Check the model invariants, raising InvalidStateError on failure.

        `check_beta_law` additionally requires every non-boundary beta_j
        to sit within 1e-6 of 0 (outside the shadow) or pi (inside),
        which is only meaningful at integer-flux operating points.
        """
        for name, p in (("a", self.power_a), ("b", self.power_b)):
            total = p.sum()
            if abs(total - 1.0) > 1e-10:
                raise InvalidStateError(f"detector {name} power {total!r} is not 1 within 1e-10")
        ok = ~self.boundary_mask
        if ok.any():
            scale = np.abs(self.a).max()
            diff = np.abs(np.abs(self.a[ok]) - np.abs(self.b[ok]))
            worst = diff.max() / scale
            if worst > self.tolerance:
                raise InvalidStateError(
                    f"non-boundary pixel moduli differ by {worst:.3e} (tolerance {self.tolerance:.3e})"
                )
            if check_beta_law:
                worst_beta = self.beta_law_deviation()
                if worst_beta > 1e-6:
                    raise InvalidStateError(f"non-boundary beta deviates from {{0, pi}} by {worst_beta:.3e}")

    def to_csv(self, path) -> None:
        # imported on first use: importing fileio with the detector moves the
        # package's import order, and that raised every command's peak RSS by ~0.15 MB
        from . import fileio

        # each block of rows is converted to Python floats and strings in one
        # .tolist() per column; whole columns would hold ~10 MB of objects at once
        columns = (self.a.real, self.a.imag, self.b.real, self.b.imag, self.beta)
        n = self.n_pixels

        def rows():
            for start in range(0, n, fileio.CSV_BLOCK_ROWS):
                part = slice(start, start + fileio.CSV_BLOCK_ROWS)
                regions = map(REGION_NAMES.__getitem__, self.region[part].tolist())
                yield from zip(range(start, n), *(c[part].tolist() for c in columns), regions)

        fileio.write_csv(path, _CSV_HEADER, rows())


def trivial(n_pixels: int = 64) -> DetectorModel:
    """Uniform detector with a_j = b_j everywhere, so beta_j = 0."""
    if n_pixels < 1:
        raise ValueError("n_pixels must be positive")
    amp = np.full(n_pixels, 1.0 / np.sqrt(n_pixels), dtype=complex)
    return DetectorModel(
        a=amp,
        b=amp.copy(),
        beta=np.zeros(n_pixels),
        region=np.full(n_pixels, OUTSIDE_SHADOW, dtype=np.int8),
    )


def two_region(n_outside: int, n_inside: int) -> DetectorModel:
    """Synthetic shadow detector: b_j = -a_j on the inside block (beta_j = pi)."""
    n = n_outside + n_inside
    if n_outside < 0 or n_inside < 0 or n < 1:
        raise ValueError("pixel counts must be non-negative and sum to >= 1")
    a = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    b = a.copy()
    b[n_outside:] *= -1.0
    beta = np.zeros(n)
    beta[n_outside:] = np.pi
    region = np.full(n, OUTSIDE_SHADOW, dtype=np.int8)
    region[n_outside:] = INSIDE_SHADOW
    return DetectorModel(a=a, b=b, beta=beta, region=region)


def degenerate_two_pixel() -> DetectorModel:
    """Pathological detector a = (1, 0), b = (0, 1): every pixel is boundary."""
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    region = np.full(2, BOUNDARY, dtype=np.int8)
    return DetectorModel(a=a, b=b, beta=np.zeros(2), region=region)
