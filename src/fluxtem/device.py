"""Closed-form beam-physics and SQUID-sizing calculators.

These are order-of-magnitude design estimates: the key outputs are the
magnetic (flux-quantum) beam deflection, computed from the Lorentz
force, versus the diffraction-limited beam spread, the much weaker
electrostatic (charge-qubit) deflection, and the inductance and
critical current that put an rf-SQUID into the macroscopic quantum
coherence regime (L * i_c of order one flux quantum).  `design_report`
reads its inputs from the run's `RunConfig` by `config.SCHEMA` key
(`beam.*`, `squid.*`, `timing.*` and `ring.turns`).  The physical
constants they use are pinned here as `CODATA` (CODATA 2018, SI units).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError

if TYPE_CHECKING:
    from .config import RunConfig

# a k-electron group may last at most 1/TIMING_MARGIN of one qubit period
TIMING_MARGIN = 10.0


class PhysicalConstants(NamedTuple):
    """Fundamental constants used by the beam and SQUID calculators.

    h, e and c are exact by the 2019 SI definition; the rest are CODATA
    2018 recommended values.  The flux quantum is always derived as h/2e
    so it can never drift out of step with h and e.
    """

    h: float = 6.62607015e-34        # Planck constant [J s]
    e: float = 1.602176634e-19       # elementary charge [C]
    c: float = 299792458.0           # speed of light [m/s]
    m_e: float = 9.1093837015e-31    # electron rest mass [kg]
    eps0: float = 8.8541878128e-12   # vacuum permittivity [F/m]
    mu0: float = 1.25663706212e-6    # vacuum permeability [H/m]

    @property
    def phi0(self) -> float:
        """Magnetic flux quantum h / 2e [Wb]."""
        return self.h / (2.0 * self.e)

    @property
    def rest_energy(self) -> float:
        """Electron rest energy m_e c^2 [J]."""
        return self.m_e * self.c**2


CODATA = PhysicalConstants()


class BeamSpec(NamedTuple):
    """Relativistic electron-beam kinematics plus the beam waist at the ring."""

    kinetic_energy: float  # [eV]
    wavelength: float      # [m]
    momentum: float        # [kg m/s]
    velocity: float        # [m/s]
    waist: float           # [m]


def beam_from_energy(
    kinetic_energy_ev: float,
    waist: float,
) -> BeamSpec:
    """Fill wavelength, momentum and velocity relativistically from the energy.

    Uses (pc)^2 = E_total^2 - (m c^2)^2 with E_total = E_kin + m c^2 and
    lambda = h / p, which is exact by construction.
    """
    c = CODATA.c
    e_kin = kinetic_energy_ev * CODATA.e
    e_total = e_kin + CODATA.rest_energy
    pc = math.sqrt(e_total**2 - CODATA.rest_energy**2)
    p = pc / c
    v = pc * c / e_total
    return BeamSpec(
        kinetic_energy=kinetic_energy_ev,
        wavelength=CODATA.h / p,
        momentum=p,
        velocity=v,
        waist=waist,
    )


def lorentz_deflection(beam: BeamSpec, flux_path_length: float) -> float:
    """Deflection by one flux quantum from the Lorentz force F = e v B = e v phi0 / (a l).

    The interaction time l / v cancels l and v exactly, leaving
    delta_p = e phi0 / a and theta_d = e phi0 / (a p) = h / (2 p a): half
    the diffraction spread theta_b = h / (p a) for every beam.
    """
    force = CODATA.e * beam.velocity * CODATA.phi0 / (beam.waist * flux_path_length)
    dt = flux_path_length / beam.velocity
    return force * dt / beam.momentum


def charge_deflection(beam: BeamSpec) -> float:
    """Electrostatic (charge-qubit) deflection e^2 / (eps0 a v p).

    Falls off with velocity, which is why the electrostatic scheme is far
    weaker than the flux scheme at TEM energies.
    """
    return CODATA.e**2 / (CODATA.eps0 * beam.waist * beam.velocity * beam.momentum)


class DesignReport(NamedTuple):
    """Tabulated design quantities plus timing/coherence feasibility flags."""

    rows: list[tuple[str, float, str]]
    warnings: list[str]

    def value(self, name: str) -> float:
        for row_name, value, _ in self.rows:
            if row_name == name:
                return value
        raise KeyError(name)

    def to_text(self) -> str:
        width = max(len(name) for name, _, _ in self.rows)
        lines = [f"{name:<{width}}  {value:.6e} {unit}" for name, value, unit in self.rows]
        if self.warnings:
            lines.append("")
            lines.extend(f"WARNING: {w}" for w in self.warnings)
        else:
            lines.append("")
            lines.append("all feasibility checks passed")
        return "\n".join(lines) + "\n"


def design_report(cfg: RunConfig) -> DesignReport:
    """Collect every design number and check the operating hierarchy.

    The hollow-ring SQUID is sized like a shorted coaxial cable:
    L = mu * d up to a geometry-dependent logarithmic factor
    squid.log_factor, and i_c = phi0 / L so that L * i_c equals one flux
    quantum by construction.  A k-electron group must finish well inside
    one qubit oscillation (group_duration * mqc_frequency * TIMING_MARGIN
    <= 1), and the ring must fit inside the coherent patch of the wave
    front.
    """
    beam = beam_from_energy(cfg["beam.energy"], cfg["beam.waist"])
    if beam.waist <= beam.wavelength:
        # theta_b = lambda / a is a small-angle law: it needs a >> lambda
        raise ConfigError(
            f"beam.waist = {beam.waist!r} m is not larger than the electron wavelength {beam.wavelength!r} m"
        )
    wafer_thickness = cfg["squid.d"]
    inductance = (cfg["squid.mu_r"] * CODATA.mu0) * wafer_thickness * cfg["squid.log_factor"]
    critical_current = CODATA.phi0 / inductance
    lateral_size = cfg["squid.lateral_size"]
    group_duration = cfg["timing.group_duration"]
    mqc_frequency = cfg["timing.mqc_frequency"]
    coherence_width = cfg["timing.coherence_width"]
    theta_d = lorentz_deflection(beam, cfg["squid.flux_path_length"])
    theta_b = CODATA.h / (beam.momentum * beam.waist)
    theta_charge = charge_deflection(beam)
    warnings: list[str] = []
    if group_duration * mqc_frequency * TIMING_MARGIN > 1.0:
        warnings.append(
            f"group duration {group_duration:.3e} s is not << qubit period "
            f"{1.0 / mqc_frequency:.3e} s (margin {TIMING_MARGIN:g}x)"
        )
    if lateral_size > coherence_width:
        warnings.append(
            f"qubit lateral size {lateral_size:.3e} m exceeds beam coherence width "
            f"{coherence_width:.3e} m"
        )
    rows = [
        ("kinetic_energy", beam.kinetic_energy, "eV"),
        ("wavelength", beam.wavelength, "m"),
        ("momentum", beam.momentum, "kg m/s"),
        ("velocity", beam.velocity, "m/s"),
        ("beam_waist", beam.waist, "m"),
        ("theta_d_flux", theta_d, "rad"),
        ("theta_b_spread", theta_b, "rad"),
        ("theta_ratio", theta_d / theta_b, ""),
        ("theta_d_charge", theta_charge, "rad"),
        ("charge_to_flux_ratio", theta_charge / theta_d, ""),
        ("wafer_thickness", wafer_thickness, "m"),
        ("inductance", inductance, "H"),
        ("critical_current", critical_current, "A"),
        ("L_ic_product", inductance * critical_current, "Wb"),
        ("flux_quantum", CODATA.phi0, "Wb"),
        ("lateral_size", lateral_size, "m"),
        ("turns", float(cfg["ring.turns"]), ""),
        ("group_duration", group_duration, "s"),
        ("mqc_frequency", mqc_frequency, "Hz"),
        ("timing_headroom", 1.0 / (group_duration * mqc_frequency), "x"),
        ("coherence_width", coherence_width, "m"),
    ]
    return DesignReport(rows=rows, warnings=warnings)
