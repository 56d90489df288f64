"""Flat key = value run configuration with dotted sections and units.

A config file holds one `section.key = value` assignment per line
(# comments allowed).  Quantity values accept a unit suffix, e.g.
`squid.d = 2mm` or `beam.energy = 300keV`; bare numbers are SI base
units (radians for angles, eV for energies).  Command-line overrides
use the same syntax via --set key=value.  The canonical serialization
is sorted and repr-formatted, so equal configs hash identically.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from .errors import ConfigError
from .protocol import BASES

# value kinds
INT, FLOAT, BOOL, STR, LIST, OPT_FLOAT, OPT_STR, OPT_INT = (
    "int",
    "float",
    "bool",
    "str",
    "list",
    "opt_float",
    "opt_str",
    "opt_int",
)

# unit dimension tags
NONE, LENGTH, TIME, ENERGY, FREQ, CURRENT, ANGLE = (
    "none",
    "length",
    "time",
    "energy",
    "freq",
    "current",
    "angle",
)

_UNITS = {
    LENGTH: {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9, "pm": 1e-12},
    TIME: {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9},
    ENERGY: {"eV": 1.0, "keV": 1e3, "MeV": 1e6},
    FREQ: {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    CURRENT: {"A": 1.0, "mA": 1e-3, "uA": 1e-6, "nA": 1e-9},
    ANGLE: {"rad": 1.0, "deg": math.pi / 180.0},
}

# key -> (kind, dimension, default)
SCHEMA: dict[str, tuple[str, str, object]] = {
    "seed": (INT, NONE, 12345),
    "beam.energy": (FLOAT, ENERGY, 300e3),
    "beam.waist": (FLOAT, LENGTH, 10e-6),
    "squid.d": (FLOAT, LENGTH, 1e-3),
    "squid.mu_r": (FLOAT, NONE, 1.0),
    "squid.log_factor": (FLOAT, NONE, 1.0),
    "squid.lateral_size": (FLOAT, LENGTH, 10e-6),
    "squid.flux_path_length": (FLOAT, LENGTH, 1e-3),
    "squid.turns": (INT, NONE, 1),
    "timing.group_duration": (FLOAT, TIME, 10e-9),
    "timing.mqc_frequency": (FLOAT, FREQ, 1e6),
    "timing.coherence_width": (FLOAT, LENGTH, 10e-6),
    "optics.n": (INT, NONE, 256),
    "optics.pitch": (FLOAT, LENGTH, 1e-7),
    "optics.aperture_radius": (FLOAT, LENGTH, 3.0e-6),
    "optics.balance": (BOOL, NONE, True),
    "optics.detector_aperture_radius": (OPT_FLOAT, LENGTH, None),
    "optics.tolerance": (FLOAT, NONE, 1e-6),
    "optics.dominance_ratio": (FLOAT, NONE, 10.0),
    "optics.boundary_power_warn": (FLOAT, NONE, 0.05),
    "mask.disc_radius": (FLOAT, LENGTH, 1.8e-6),
    "mask.inner_radius": (FLOAT, LENGTH, 2.8e-6),
    "mask.outer_radius": (FLOAT, LENGTH, 3.5e-6),
    "mask.gap_angles": (LIST, ANGLE, (0.5 * math.pi, 1.5 * math.pi)),
    "mask.gap_width": (FLOAT, ANGLE, math.radians(10.0)),
    "ring.inner": (FLOAT, LENGTH, 2.0e-6),
    "ring.outer": (FLOAT, LENGTH, 2.6e-6),
    "ring.flux_fraction": (FLOAT, NONE, 1.0),
    "ring.turns": (INT, NONE, 1),
    "protocol.k": (INT, NONE, 5),
    "protocol.delta_phi": (FLOAT, ANGLE, 0.1),
    "protocol.sigma0": (FLOAT, ANGLE, 0.0),
    "protocol.repetitions": (INT, NONE, 2000),
    "protocol.detector": (STR, NONE, "trivial"),
    "protocol.trivial_pixels": (INT, NONE, 64),
    "protocol.basis": (STR, NONE, "quadrature"),
    "image.specimen": (STR, NONE, "checkerboard"),
    "image.phase_file": (OPT_STR, NONE, None),
    "image.pairs_file": (OPT_STR, NONE, None),
    "image.shape": (INT, NONE, 32),
    "image.tile": (INT, NONE, 8),
    "image.delta_phi": (FLOAT, ANGLE, 0.05),
    "image.budget": (INT, NONE, 4000),
    "image.k": (INT, NONE, 8),
    "image.repetitions": (INT, NONE, 20),
    "image.total_budget": (OPT_INT, NONE, None),
    "scaling.delta_phi": (FLOAT, ANGLE, 0.05),
    "scaling.k_list": (LIST, NONE, (1.0, 2.0, 4.0, 8.0)),
    "scaling.target_std": (FLOAT, NONE, 0.02),
    "scaling.repetitions": (INT, NONE, 400),
}


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _one_of(*choices):
    return (lambda v: v in choices), "one of " + ", ".join(choices)


_POSITIVE = (lambda v: v > 0.0), "> 0"
_NON_NEGATIVE = _at_least(0)
_WRAPPED_ANGLE = (lambda v: -math.pi < v <= math.pi), "in (-pi, pi]"

# key -> (test, wanted) for values a run cannot use; each list entry is
# tested on its own, and an optional key passes None to its test
LIMITS = {
    "seed": _at_least(0),
    "beam.energy": _POSITIVE,
    "beam.waist": _POSITIVE,
    "squid.d": _POSITIVE,
    "squid.mu_r": _POSITIVE,
    "squid.log_factor": _POSITIVE,
    "squid.flux_path_length": _POSITIVE,
    "squid.lateral_size": _POSITIVE,
    "squid.turns": _at_least(1),
    "timing.group_duration": _POSITIVE,
    "timing.mqc_frequency": _POSITIVE,
    "timing.coherence_width": _POSITIVE,
    "optics.n": ((lambda v: v >= 2 and v & (v - 1) == 0), "a power of two >= 2"),
    "optics.pitch": _POSITIVE,
    "optics.aperture_radius": _POSITIVE,
    "optics.detector_aperture_radius": ((lambda v: v is None or v > 0.0), "None or > 0"),
    "optics.tolerance": _NON_NEGATIVE,
    # a threshold on a power fraction
    "optics.boundary_power_warn": ((lambda v: 0.0 <= v <= 1.0), "in [0, 1]"),
    # below 1 a pixel passes both shadow tests and is classed outside
    "optics.dominance_ratio": _at_least(1),
    "mask.disc_radius": _NON_NEGATIVE,
    "mask.inner_radius": _NON_NEGATIVE,
    "mask.outer_radius": _NON_NEGATIVE,
    "mask.gap_width": _NON_NEGATIVE,
    # a double stops resolving the strut gaps far from zero; one turn either way is every gap
    "mask.gap_angles": ((lambda v: abs(v) <= 2.0 * math.pi), "in [-2pi, 2pi]"),
    "ring.inner": _POSITIVE,
    "ring.outer": _POSITIVE,
    "ring.turns": _at_least(1),
    "protocol.k": _at_least(1),
    "protocol.delta_phi": _WRAPPED_ANGLE,
    "protocol.sigma0": _WRAPPED_ANGLE,
    "protocol.repetitions": _at_least(1),
    "protocol.detector": _one_of("trivial", "optics"),
    "protocol.trivial_pixels": _at_least(1),
    "protocol.basis": _one_of(*BASES),
    "image.specimen": _one_of("checkerboard", "files"),
    "image.shape": _at_least(1),
    "image.tile": _at_least(1),
    "image.budget": _at_least(1),
    "image.k": _at_least(1),
    "image.repetitions": _at_least(1),
    "image.total_budget": ((lambda v: v is None or v >= 1), "None or >= 1"),
    "scaling.k_list": ((lambda v: v >= 1 and float(v).is_integer()), "integers >= 1"),
    "scaling.target_std": _POSITIVE,
    "scaling.repetitions": ((lambda v: v >= 2), ">= 2 to measure a spread"),
}


def _parse_quantity(token: str, dimension: str, key: str, line: int | None) -> float:
    token = token.strip()
    number, scale = token, 1.0
    units = _UNITS.get(dimension, {})
    for suffix in sorted(units, key=len, reverse=True):
        if token.endswith(suffix) and token[: -len(suffix)].strip():
            number, scale = token[: -len(suffix)].strip(), units[suffix]
            break
    try:
        value = float(number) * scale
    except ValueError:
        raise ConfigError(f"bad value {token!r} for key {key!r}", key=key, line=line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {token!r}", key=key, line=line)
    return value


def _parse_value(key: str, raw: str, line: int | None = None):
    kind, dimension, _ = SCHEMA[key]
    raw = raw.strip()
    if kind in (OPT_FLOAT, OPT_STR, OPT_INT) and raw.lower() in ("none", ""):
        return None
    if kind == BOOL:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {raw!r} for key {key!r}", key=key, line=line)
    if kind in (INT, OPT_INT):
        try:
            return int(raw, 0)
        except ValueError:
            raise ConfigError(f"bad integer {raw!r} for key {key!r}", key=key, line=line) from None
    if kind in (FLOAT, OPT_FLOAT):
        return _parse_quantity(raw, dimension, key, line)
    if kind == LIST:
        items = [part for part in raw.split(",") if part.strip()]
        if not items:
            raise ConfigError(f"empty list for key {key!r}", key=key, line=line)
        return tuple(_parse_quantity(part, dimension, key, line) for part in items)
    return raw  # STR


def _check_limit(key: str, value, line: int | None) -> None:
    if key not in LIMITS:
        return
    test, wanted = LIMITS[key]
    for v in value if isinstance(value, tuple) else (value,):
        if not test(v):
            raise ConfigError(f"{key} must be {wanted}, got {v!r}", key=key, line=line)


class RunConfig:
    """Effective configuration: schema defaults + file + command-line overrides."""

    def __init__(self):
        self._values = {key: default for key, (_, _, default) in SCHEMA.items()}

    def __getitem__(self, key: str):
        return self._values[key]

    def set_raw(self, key: str, raw: str, line: int | None = None) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}", key=key, line=line)
        value = _parse_value(key, raw, line)
        _check_limit(key, value, line)
        self._values[key] = value

    def apply_file(self, path) -> None:
        text = Path(path).read_text()
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            stripped = raw_line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"expected 'key = value', got {stripped!r}", line=lineno)
            key, _, value = stripped.partition("=")
            self.set_raw(key.strip(), value, line=lineno)

    def apply_overrides(self, assignments: list[str]) -> None:
        for assignment in assignments:
            if "=" not in assignment:
                raise ConfigError(f"--set needs key=value, got {assignment!r}")
            key, _, value = assignment.partition("=")
            self.set_raw(key.strip(), value)

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self._values):
            value = self._values[key]
            if isinstance(value, tuple):
                rendered = ",".join(repr(float(v)) for v in value)
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        cfg.apply_file(path)
    if overrides:
        cfg.apply_overrides(overrides)
    total, budget = cfg["image.total_budget"], cfg["image.budget"]
    if total is not None and total < budget:
        raise ConfigError(
            f"image.total_budget = {total} is below image.budget = {budget}, so no pair can be scanned",
            key="image.total_budget",
        )
    return cfg
