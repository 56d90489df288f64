"""Flat key = value run configuration with dotted sections and units.

A config file holds one `section.key = value` assignment per line
(# comments allowed).  Quantity values accept a unit suffix, e.g.
`squid.d = 2mm` or `beam.energy = 300keV`; bare numbers are SI base
units (radians for angles, eV for energies).  Command-line overrides
use the same syntax via --set key=value.  `SCHEMA` is each key's only
description, its allowed values included (it lists the two readout bases
of `protocol.basis`): `optics` and `device` take the `RunConfig` and read
their keys from it by name, with no copy of the keys in between.  The
canonical serialization is sorted and repr-formatted, so equal configs
hash identically.
"""

from __future__ import annotations

import math
from pathlib import Path

from . import fileio
from .errors import ConfigError

# value kinds
INT, FLOAT, BOOL, STR, LIST = (
    "int",
    "float",
    "bool",
    "str",
    "list",
)

# unit dimension tags
NONE, LENGTH, TIME, ENERGY, FREQ, ANGLE = (
    "none",
    "length",
    "time",
    "energy",
    "freq",
    "angle",
)

_UNITS = {
    LENGTH: {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "nm": 1e-9, "pm": 1e-12},
    TIME: {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9},
    ENERGY: {"eV": 1.0, "keV": 1e3, "MeV": 1e6},
    FREQ: {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    ANGLE: {"rad": 1.0, "deg": math.pi / 180.0},
}


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _one_of(*choices):
    return (lambda v: v in choices), "one of " + ", ".join(choices)


_POSITIVE = (lambda v: v > 0.0), "> 0"
_NON_NEGATIVE = _at_least(0)
_WRAPPED_ANGLE = (lambda v: -math.pi < v <= math.pi), "in (-pi, pi]"

# key -> (kind, dimension, default, limit); a None default makes the key optional
# (`none` or an empty value restores it), and a limit is None or the (test, wanted)
# pair for values a run cannot use, tested per list entry and never on None
SCHEMA: dict[str, tuple[str, str, object, tuple | None]] = {
    "seed": (INT, NONE, 12345, _at_least(0)),
    "beam.energy": (FLOAT, ENERGY, 300e3, _POSITIVE),
    "beam.waist": (FLOAT, LENGTH, 10e-6, _POSITIVE),
    "squid.d": (FLOAT, LENGTH, 1e-3, _POSITIVE),
    "squid.mu_r": (FLOAT, NONE, 1.0, _POSITIVE),
    "squid.log_factor": (FLOAT, NONE, 1.0, _POSITIVE),
    "squid.lateral_size": (FLOAT, LENGTH, 10e-6, _POSITIVE),
    "squid.flux_path_length": (FLOAT, LENGTH, 1e-3, _POSITIVE),
    "timing.group_duration": (FLOAT, TIME, 10e-9, _POSITIVE),
    "timing.mqc_frequency": (FLOAT, FREQ, 1e6, _POSITIVE),
    "timing.coherence_width": (FLOAT, LENGTH, 10e-6, _POSITIVE),
    "optics.n": (INT, NONE, 256, ((lambda v: v >= 2 and v & (v - 1) == 0), "a power of two >= 2")),
    "optics.pitch": (FLOAT, LENGTH, 1e-7, _POSITIVE),
    "optics.aperture_radius": (FLOAT, LENGTH, 3.0e-6, _POSITIVE),
    "optics.balance": (BOOL, NONE, True, None),
    "optics.detector_aperture_radius": (FLOAT, LENGTH, None, _POSITIVE),
    "optics.tolerance": (FLOAT, NONE, 1e-6, _NON_NEGATIVE),
    # below 1 a pixel passes both shadow tests and is classed outside
    "optics.dominance_ratio": (FLOAT, NONE, 10.0, _at_least(1)),
    "mask.disc_radius": (FLOAT, LENGTH, 1.8e-6, _NON_NEGATIVE),
    "mask.inner_radius": (FLOAT, LENGTH, 2.8e-6, _NON_NEGATIVE),
    "mask.outer_radius": (FLOAT, LENGTH, 3.5e-6, _NON_NEGATIVE),
    # a double stops resolving the strut gaps far from zero; one turn either way is every gap
    "mask.gap_angles": (LIST, ANGLE, (0.5 * math.pi, 1.5 * math.pi), ((lambda v: abs(v) <= 2.0 * math.pi), "in [-2pi, 2pi]")),
    "mask.gap_width": (FLOAT, ANGLE, math.radians(10.0), _NON_NEGATIVE),
    "ring.inner": (FLOAT, LENGTH, 2.0e-6, _POSITIVE),
    "ring.outer": (FLOAT, LENGTH, 2.6e-6, _POSITIVE),
    "ring.flux_fraction": (FLOAT, NONE, 1.0, None),
    "ring.turns": (INT, NONE, 1, _at_least(1)),
    "protocol.k": (INT, NONE, 5, _at_least(1)),
    "protocol.delta_phi": (FLOAT, ANGLE, 0.1, _WRAPPED_ANGLE),
    "protocol.sigma0": (FLOAT, ANGLE, 0.0, _WRAPPED_ANGLE),
    "protocol.repetitions": (INT, NONE, 2000, _at_least(1)),
    "protocol.detector": (STR, NONE, "trivial", _one_of("trivial", "optics")),
    "protocol.basis": (STR, NONE, "quadrature", _one_of("symmetric_antisymmetric", "quadrature")),
    "image.specimen": (STR, NONE, "checkerboard", _one_of("checkerboard", "files")),
    "image.phase_file": (STR, NONE, None, None),
    "image.pairs_file": (STR, NONE, None, None),
    "image.shape": (INT, NONE, 32, _at_least(1)),
    "image.tile": (INT, NONE, 8, _at_least(1)),
    "image.delta_phi": (FLOAT, ANGLE, 0.05, None),
    "image.budget": (INT, NONE, 4000, _at_least(1)),
    "image.k": (INT, NONE, 8, _at_least(1)),
    "image.repetitions": (INT, NONE, 20, _at_least(1)),
    "image.total_budget": (INT, NONE, None, _at_least(1)),
    "scaling.delta_phi": (FLOAT, ANGLE, 0.05, None),
    "scaling.k_list": (LIST, NONE, (1.0, 2.0, 4.0, 8.0), ((lambda v: v >= 1 and float(v).is_integer()), "integers >= 1")),
    "scaling.target_std": (FLOAT, NONE, 0.02, _POSITIVE),
    "scaling.repetitions": (INT, NONE, 400, ((lambda v: v >= 2), ">= 2 to measure a spread")),
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
        raise ConfigError(f"bad value {token!r} for key {key!r}", line=line) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {token!r}", line=line)
    return value


def _parse_value(key: str, raw: str, line: int | None = None):
    kind, dimension, default, _ = SCHEMA[key]
    raw = raw.strip()
    if default is None and raw.lower() in ("none", ""):
        return None
    if kind == BOOL:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {raw!r} for key {key!r}", line=line)
    if kind == INT:
        try:
            value = int(raw, 0)
        except ValueError:
            raise ConfigError(f"bad integer {raw!r} for key {key!r}", line=line) from None
        # numpy sizes, counts and seeds are int64: a larger value fails inside numpy
        if not -(1 << 63) <= value < 1 << 63:
            raise ConfigError(f"{key} = {raw} does not fit in a 64-bit integer", line=line)
        return value
    if kind == FLOAT:
        return _parse_quantity(raw, dimension, key, line)
    if kind == LIST:
        items = [part for part in raw.split(",") if part.strip()]
        if not items:
            raise ConfigError(f"empty list for key {key!r}", line=line)
        return tuple(_parse_quantity(part, dimension, key, line) for part in items)
    return raw  # STR


def _check_limit(key: str, value, line: int | None) -> None:
    limit = SCHEMA[key][3]
    if limit is None or value is None:
        return
    test, wanted = limit
    for v in value if isinstance(value, tuple) else (value,):
        if not test(v):
            raise ConfigError(f"{key} must be {wanted}, got {v!r}", line=line)


class RunConfig:
    """Effective configuration: schema defaults + file + command-line overrides."""

    def __init__(self):
        self._values = {key: default for key, (_, _, default, _) in SCHEMA.items()}

    def __getitem__(self, key: str):
        return self._values[key]

    def set_raw(self, key: str, raw: str, line: int | None = None) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=line)
        value = _parse_value(key, raw, line)
        _check_limit(key, value, line)
        self._values[key] = value

    def apply_file(self, path) -> None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read --config file {str(path)!r}: {err}") from None
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
        return fileio.sha256(self.canonical_text().encode()).hexdigest()


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        cfg.apply_file(path)
    if overrides:
        cfg.apply_overrides(overrides)
    total, budget = cfg["image.total_budget"], cfg["image.budget"]
    if total is not None and total < budget:
        raise ConfigError(f"image.total_budget = {total} is below image.budget = {budget}, so no pair can be scanned")
    k_list = cfg["scaling.k_list"]
    if len(set(k_list)) < len(k_list):
        raise ConfigError(f"scaling.k_list entries must be distinct, got {k_list!r}")
    return cfg
