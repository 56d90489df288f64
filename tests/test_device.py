import math

import pytest

from fluxtem import device
from fluxtem.config import load_config
from fluxtem.device import CODATA


@pytest.mark.parametrize("energy_ev", [80e3, 200e3, 300e3, 1e6])
@pytest.mark.parametrize("waist", [1e-6, 10e-6, 37e-6])
def test_flux_deflection_is_half_the_beam_spread(energy_ev, waist):
    beam = device.beam_from_energy(energy_ev, waist=waist)
    theta_b = CODATA.h / (beam.momentum * waist)
    theta_d = device.lorentz_deflection(beam, flux_path_length=1e-3)
    assert abs(theta_d / theta_b - 0.5) <= 1e-12


@pytest.mark.parametrize("energy_ev", [80e3, 300e3, 1e6])
@pytest.mark.parametrize("flux_path_length", [1e-4, 1e-3, 2e-3])
def test_lorentz_force_gives_the_flux_deflection(energy_ev, flux_path_length):
    # the interaction time l / v cancels l and v: theta_d = e phi0 / (a p) for every flux path
    beam = device.beam_from_energy(energy_ev, waist=10e-6)
    closed_form = CODATA.e * CODATA.phi0 / (beam.waist * beam.momentum)
    theta_lorentz = device.lorentz_deflection(beam, flux_path_length)
    assert abs(theta_lorentz - closed_form) / closed_form <= 1e-12


@pytest.mark.parametrize("d", [1e-4, 1e-3, 3.3e-3])
@pytest.mark.parametrize("log_factor", [1.0, 2.5])
def test_inductance_times_critical_current_is_one_flux_quantum(d, log_factor):
    overrides = [f"squid.d={d!r}", f"squid.log_factor={log_factor!r}", f"squid.flux_path_length={d!r}"]
    report = device.design_report(load_config(None, overrides))
    inductance, critical_current = report.value("inductance"), report.value("critical_current")
    assert inductance == CODATA.mu0 * d * log_factor
    assert abs(inductance * critical_current - CODATA.phi0) <= 2 * math.ulp(CODATA.phi0)


def test_relativistic_wavelength_at_300_kev():
    # lambda = h c / sqrt(E (E + 2 m c^2)), 1.9687 pm at 300 keV
    beam = device.beam_from_energy(300e3, waist=10e-6)
    assert beam.wavelength == pytest.approx(1.9687e-12, rel=1e-4)
    assert beam.velocity < CODATA.c


def test_charge_scheme_is_weaker_than_flux_scheme():
    beam = device.beam_from_energy(300e3, waist=10e-6)
    assert device.charge_deflection(beam) < 0.1 * device.lorentz_deflection(beam, flux_path_length=1e-3)
