import math

import numpy as np
import pytest
from scipy import stats

from fluxtem import detector as det_mod
from fluxtem import estimator, optics
from fluxtem.errors import AmbiguityError, BudgetError
from fluxtem.streams import derive

REPS = 2000


def quarter_boundary_detector():
    """Four equal-power pixels: one outside, two inside the shadow, one boundary (q = 3/4)."""
    a = np.full(4, 0.5, dtype=complex)
    b = a * np.array([1.0, -1.0, -1.0, 1.0])
    beta = np.array([0.0, math.pi, math.pi, 0.0])
    region = [det_mod.OUTSIDE_SHADOW, det_mod.INSIDE_SHADOW, det_mod.INSIDE_SHADOW, det_mod.BOUNDARY]
    return det_mod.DetectorModel(a=a, b=b, beta=beta, region=region)


def oracle(mode, delta_phi, budget, det, k, seed):
    """One estimate_phase call per repetition: the path the batch kernel replaces."""
    results = [estimator.estimate_phase(mode, delta_phi, budget, det, derive(seed, rep), k=k) for rep in range(REPS)]
    return np.array([r.estimate for r in results]), np.array([r.trials for r in results])


@pytest.mark.parametrize(
    "mode, delta_phi, det, budget, k",
    [
        ("entangled", 0.1, det_mod.trivial(), 200, 4),
        ("entangled", 0.1, quarter_boundary_detector(), 40, 4),
        ("entangled", 0.1, quarter_boundary_detector(), 90, 1),
        ("conventional", 1.0, det_mod.trivial(), 300, 1),
    ],
    ids=["trivial-k4", "boundary-k4", "boundary-k1", "conventional"],
)
def test_batch_kernel_matches_per_repetition_oracle(mode, delta_phi, det, budget, k):
    want, want_trials = oracle(mode, delta_phi, budget, det, k, seed=11)
    got, got_trials = estimator._estimate_batch(mode, delta_phi, budget, REPS, det, derive(12), k)
    assert got.shape == got_trials.shape == (REPS,)
    # the estimates are discrete; rounding merges ties that differ in the last bit between the two paths
    assert stats.ks_2samp(np.round(got, 9), np.round(want, 9)).pvalue > 1e-3
    if np.ptp(want_trials) == 0:
        assert np.array_equal(got_trials, want_trials)
    else:
        assert set(got_trials) <= set(range(budget // k + 1))
        assert stats.ks_2samp(got_trials, want_trials).pvalue > 1e-3


def test_batch_kernel_is_reproducible_per_seed():
    det = quarter_boundary_detector()
    first = estimator._estimate_batch("entangled", 0.05, 400, 400, det, derive(5, 3, 4, 400), 4)
    again = estimator._estimate_batch("entangled", 0.05, 400, 400, det, derive(5, 3, 4, 400), 4)
    other = estimator._estimate_batch("entangled", 0.05, 400, 400, det, derive(6, 3, 4, 400), 4)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
    assert not np.array_equal(first[0], other[0])
    assert estimator._empirical_std(0.05, 4, 400, 400, 5, det, "entangled") == float(first[0].std(ddof=1))


@pytest.mark.parametrize("det, budget", [(det_mod.trivial(), 3), (quarter_boundary_detector(), 8)])
def test_batch_kernel_raises_when_no_group_completes(det, budget):
    # trivial: budget < k; boundary: Binomial(8, 3/4) < 8 at most repetitions
    with pytest.raises(BudgetError):
        estimator._estimate_batch("entangled", 0.05, budget, 400, det, derive(1), 8)


def test_electrons_to_target_std_rejects_ambiguous_k():
    with pytest.raises(AmbiguityError):
        estimator.electrons_to_target_std(0.2, 8, 0.05, 10, seed=1)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 31])
def test_dose_report_advantage_is_k(k):
    report = estimator.DoseReport.from_closed_forms(0.05, k)
    assert report.advantage == k
    assert report.n_conventional == 1600
    assert report.n_entangled == math.ceil(1600 / k)


@pytest.mark.parametrize("seed", range(1, 21))
def test_dose_scaling_slope_at_default_config(seed):
    result = estimator.dose_scaling_experiment(0.05, [1, 2, 4, 8], 0.02, 400, seed)
    assert abs(result.slope + 1.0) <= 0.1
    assert [row.k for row in result.rows] == [1, 2, 4, 8]
    assert all(row.achieved_std <= 0.02 for row in result.rows)


def test_fixed_k_std_error_uses_coherence():
    k, delta_phi = 4, 0.1
    ideal = estimator.estimate_phase("entangled", delta_phi, 400, None, derive(3), k=k)
    assert ideal.std_error == 1.0 / (k * math.sqrt(ideal.trials))

    c = 0.8
    res = estimator.estimate_phase("entangled", delta_phi, 400, None, derive(3), k=k, coherence=c)
    s, co = math.sin(k * res.estimate), math.cos(k * res.estimate)
    want = math.sqrt((1.0 - c * c * s * s) / (res.trials * k * k * c * c * co * co))
    assert res.std_error == pytest.approx(want, rel=1e-12)
    assert res.std_error > 1.0 / (k * math.sqrt(res.trials))


# ---------------------------------------------------------------------------
# end-to-end path: a specimen-loaded detector compensated with calibration angles


def shifted_detector(delta):
    """Eight equal-modulus pixels, half of them inside the shadow, every beta_j raised by `delta`."""
    beta = np.angle(np.exp(1j * (np.array([0.0] * 4 + [math.pi] * 4) + delta)))
    a = np.full(8, 1.0 / math.sqrt(8.0), dtype=complex)
    region = [det_mod.OUTSIDE_SHADOW] * 4 + [det_mod.INSIDE_SHADOW] * 4
    return det_mod.DetectorModel(a=a, b=a * np.exp(1j * beta), beta=beta, region=region)


def test_effective_specimen_phase_of_a_detector_against_itself_is_zero(small_detector):
    assert estimator.effective_specimen_phase(small_detector, small_detector) == 0.0


def test_effective_specimen_phase_wraps_the_kick_difference():
    # the inside pixels go from pi to pi + 0.1, which wraps to -pi + 0.1
    delta = estimator.effective_specimen_phase(shifted_detector(0.1), shifted_detector(0.0))
    assert delta == pytest.approx(0.1, abs=1e-12)


def test_end_to_end_budget_below_one_group_is_a_budget_error():
    det = shifted_detector(0.0)
    with pytest.raises(BudgetError):
        estimator.estimate_phase_end_to_end(det, det.beta, 8, 7, derive(1))


def test_end_to_end_recovers_a_known_detector_shift():
    cal = shifted_detector(0.0)
    results = [estimator.estimate_phase_end_to_end(shifted_detector(0.1), cal.beta, 8, 400, derive(s, 5)) for s in range(6)]
    assert all(r.trials == 50 and r.electrons_used == 400 and r.boundary_discards == 0 for r in results)
    mean = np.mean([r.estimate for r in results])
    sem = results[0].std_error / math.sqrt(len(results))
    assert abs(mean - 0.1) <= 4 * sem


def test_end_to_end_on_the_optics_detector_tracks_the_effective_phase():
    cfg = optics.default_config(n=64, pitch=4e-7, tolerance=0.05)
    phase_map = np.zeros((cfg.n, cfg.n))
    phase_map[:, cfg.n // 2 :] = 0.02
    cal = optics.build_detector(cfg)
    specimen = optics.build_detector(cfg, phase_map=phase_map)
    want = estimator.effective_specimen_phase(specimen, cal)
    results = [estimator.estimate_phase_end_to_end(specimen, cal.beta, 8, 800, derive(s, 6)) for s in range(8)]
    mean = np.mean([r.estimate for r in results])
    sem = np.mean([r.std_error for r in results]) / math.sqrt(len(results))
    assert abs(mean - want) <= 4 * sem


# ---------------------------------------------------------------------------
# specimen maps


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([([0, 1], [])], "empty region"),
        ([([0, 1], [1, 2])], "overlap"),
        ([([0, 1], [2, 16])], "outside the phase map"),
        ([([-1], [2])], "outside the phase map"),
    ],
)
def test_specimen_map_rejects_bad_pairs_when_built(pairs, message):
    with pytest.raises(ValueError, match=message):
        estimator.SpecimenMap(phase=np.zeros((4, 4)), pairs=pairs)


def test_specimen_map_warns_above_half_a_radian():
    assert estimator.make_checkerboard(16, 4, 0.5).warnings == []
    (warning,) = estimator.make_checkerboard(16, 4, 0.51).warnings
    assert "exceeds 0.5 rad" in warning
