"""Area-detector model: per-pixel branch amplitudes and compensation angles.

For every detector pixel j the model stores the overlap of the pixel
state with the two electron branches, a_j = <d_j|0> and b_j = <d_j|1>.
In the far field the two branches produce nearly identical intensity
patterns, so |a_j| = |b_j| holds and each pixel reduces to a known
compensation angle beta_j = arg(b_j) - arg(a_j).  Pixels where the
moduli differ beyond tolerance are classed as boundary pixels; the
protocol discards an electron drawn there and draws again.

The package reduces every angle to (-pi, pi] with this module's
`wrap_angle`: beta_j here, the mask wedges and the Aharonov-Bohm phase in
`optics`, and the qubit phase in `protocol`.  It squares every amplitude
with this module's `intensity_of`, in place.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import PreconditionError

TWO_PI = 2.0 * math.pi

OUTSIDE_SHADOW = 0
INSIDE_SHADOW = 1
BOUNDARY = 2

REGION_NAMES = {OUTSIDE_SHADOW: "outside_shadow", INSIDE_SHADOW: "inside_shadow", BOUNDARY: "boundary"}

_CSV_HEADER = ["pixel", "re_a", "im_a", "re_b", "im_b", "beta", "region"]


def wrap_angle(x):
    """Reduce an angle (scalar or array) to the representative in (-pi, pi]."""
    if type(x) is float and math.isfinite(x):
        # the numpy path's bits in scalar arithmetic: round() is half-to-even
        # like np.round, and copysign keeps np.round's -0.0 for q in (-0.5, 0]
        q = x / TWO_PI
        r = x - TWO_PI * math.copysign(round(q), q)
        return r + TWO_PI if r <= -math.pi else r
    x = np.asarray(x, dtype=float)
    # x - TWO_PI * np.round(x / TWO_PI), each step in one array beside x
    r = np.divide(x, TWO_PI, out=np.empty_like(x))
    np.round(r, out=r)
    np.multiply(TWO_PI, r, out=r)
    np.subtract(x, r, out=r)
    r[r <= -math.pi] += TWO_PI
    return float(r) if r.ndim == 0 else r


def intensity_of(amplitudes: np.ndarray) -> np.ndarray:
    """|amplitudes|^2, squared in place: the bits of np.abs(amplitudes) ** 2 with one real temporary fewer."""
    out = np.abs(amplitudes)
    return np.square(out, out=out)


def _cumulative(power: np.ndarray) -> np.ndarray:
    """Cumulative distribution of per-pixel `power`, normalized to end at exactly 1; summed in `power`'s own array."""
    cum = np.cumsum(power, out=power)
    cum /= cum[-1]
    cum[-1] = 1.0
    return cum


class DetectorModel:
    """Per-pixel amplitudes (a, b), compensation angles and region classes.

    Both amplitude arrays are normalized to unit total power.  `region`
    holds OUTSIDE_SHADOW / INSIDE_SHADOW / BOUNDARY codes.  The model is
    read-only, arrays and attributes alike, because its cached
    distributions assume that `a`, `b` and `region` never change.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, beta: np.ndarray, region: np.ndarray):
        fields = self.__dict__
        for name, value, dtype in (("a", a, complex), ("b", b, complex), ("beta", beta, float), ("region", region, np.int8)):
            arr = np.asarray(value, dtype=dtype).ravel()
            arr.setflags(write=False)
            fields[name] = arr
        n = self.a.size
        if not (self.b.size == self.beta.size == self.region.size == n):
            raise PreconditionError("detector arrays must have equal length")
        if n == 0:
            raise PreconditionError("detector needs at least one pixel")

    def __setattr__(self, name, value):
        raise AttributeError(f"DetectorModel is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DetectorModel is read-only: cannot delete {name!r}")

    @property
    def n_pixels(self) -> int:
        return self.a.size

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        return self.region == BOUNDARY

    @property
    def equal_weight_power(self) -> np.ndarray:
        """Detection probability of each pixel for equal branch weights: (|a_j|^2 + |b_j|^2) / 2.

        Summed in one array, with the bits of 0.5 * (np.abs(a) ** 2 + np.abs(b) ** 2).
        """
        power = intensity_of(self.a)
        power += intensity_of(self.b)
        power *= 0.5
        return power

    @cached_property
    def _equal_weight(self) -> tuple[float, np.ndarray]:
        """The boundary power fraction and the equal-weight cumulative, read from one power array.

        The cumulative is summed in that array, so no power array outlives the call.
        """
        power = self.equal_weight_power
        fraction = float(power[self.boundary_mask].sum() / power.sum())
        return fraction, _cumulative(power)

    @property
    def equal_weight_cumulative(self) -> np.ndarray:
        """Cumulative pixel distribution for equal branch weights 1/2, 1/2."""
        return self._equal_weight[1]

    @cached_property
    def branch_cumulatives(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative pixel distributions of branch 0 (|a_j|^2) and branch 1 (|b_j|^2), built on first use."""
        return _cumulative(intensity_of(self.a)), _cumulative(intensity_of(self.b))

    def boundary_power_fraction(self) -> float:
        """Power-weighted fraction of pixels classed as boundary."""
        return self._equal_weight[0]

    def beta_law_deviation(self, phase: float) -> float:
        """Largest angular distance of a non-boundary beta_j from 0 (outside the shadow) or `phase` (inside)."""
        beta = self.beta
        outside = self.region == OUTSIDE_SHADOW
        # max |beta| over the outside shadow, which holds most pixels, read without a masked copy;
        # abs turns a -0.0 that the SIMD max can return into the 0.0 of np.abs
        far = abs(max(beta.max(where=outside, initial=0.0), -beta.min(where=outside, initial=0.0)))
        near = np.abs(wrap_angle(beta[self.region == INSIDE_SHADOW] - phase)).max(initial=0.0)
        return max(far, near)

    def to_csv(self, path) -> None:
        """Write one row per pixel: its index, a_j, b_j and beta_j as float.hex text, and its region's name."""
        # imported on first use, so that no other command compiles it
        from . import hexcsv

        columns = (self.a.real, self.a.imag, self.b.real, self.b.imag, self.beta)
        names = [REGION_NAMES[code] for code in range(len(REGION_NAMES))]
        hexcsv.write_hex_csv(path, _CSV_HEADER, columns, self.region, names)


def trivial(n_pixels: int = 64) -> DetectorModel:
    """Uniform detector with a_j = b_j everywhere, so beta_j = 0."""
    amp = np.full(n_pixels, 1.0 / np.sqrt(n_pixels), dtype=complex)
    return DetectorModel(
        a=amp,
        b=amp.copy(),
        beta=np.zeros(n_pixels),
        region=np.full(n_pixels, OUTSIDE_SHADOW, dtype=np.int8),
    )
