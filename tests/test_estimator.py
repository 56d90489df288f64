import math

import numpy as np
import pytest
from scipy import stats

from fluxtem import detector as det_mod
from fluxtem import estimator
from fluxtem.config import load_config
from fluxtem.errors import ConfigError, PreconditionError
from fluxtem.streams import DOMAIN_IMAGE, derive

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
    assert stats.ks_2samp(got, want).pvalue > 1e-3
    if np.ptp(want_trials) == 0:
        assert np.array_equal(got_trials, want_trials)
    else:
        assert set(got_trials) <= set(range(budget // k + 1))
        assert stats.ks_2samp(got_trials, want_trials).pvalue > 1e-3


class EveryCount:
    """A generator stand-in whose binomial draws are 0, 1, 2, ...: one repetition per possible count."""

    def binomial(self, n, p, size=None):
        return np.arange(np.size(n) if size is None else size)


@pytest.mark.parametrize("mode, budget, k", [("conventional", 4000, 1), ("entangled", 6400, 8)])
def test_batch_kernel_and_estimate_phase_agree_bit_for_bit_at_every_count(mode, budget, k, monkeypatch):
    trials = budget // k
    batch, batch_trials = estimator._estimate_batch(mode, 0.1, budget, trials + 1, det_mod.trivial(), EveryCount(), k)
    assert batch_trials.tolist() == [trials] * (trials + 1)

    def outcomes(hits):
        return np.repeat(np.array([1, 0], dtype=np.uint8), [hits, trials - hits])

    hits = iter(range(trials + 1))
    monkeypatch.setattr(estimator.protocol, "conventional_trials", lambda dphi, n, rng: outcomes(next(hits)))
    monkeypatch.setattr(
        estimator.protocol,
        "simulate_groups",
        lambda plan, det, n, rng, budget: estimator.protocol.GroupBatchResult(outcomes(next(hits)), trials, budget, 0),
    )
    single = [estimator.estimate_phase(mode, 0.1, budget, det_mod.trivial(), None, k=k).estimate for _ in range(trials + 1)]
    assert single == batch.tolist()


def test_batch_kernel_is_reproducible_per_seed():
    det = quarter_boundary_detector()
    first = estimator._estimate_batch("entangled", 0.05, 400, 400, det, derive(5, 3, 4, 400), 4)
    again = estimator._estimate_batch("entangled", 0.05, 400, 400, det, derive(5, 3, 4, 400), 4)
    other = estimator._estimate_batch("entangled", 0.05, 400, 400, det, derive(6, 3, 4, 400), 4)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
    assert not np.array_equal(first[0], other[0])
    assert estimator._empirical_std(0.05, 4, 400, 400, 5, det) == float(first[0].std(ddof=1))


@pytest.mark.parametrize("det, budget", [(det_mod.trivial(), 3), (quarter_boundary_detector(), 8)])
def test_batch_kernel_raises_when_no_group_completes(det, budget):
    # trivial: budget < k; boundary: Binomial(8, 3/4) < 8 at most repetitions
    with pytest.raises(PreconditionError, match="no group completed"):
        estimator._estimate_batch("entangled", 0.05, budget, 400, det, derive(1), 8)


def test_electrons_to_target_std_rejects_ambiguous_k():
    with pytest.raises(PreconditionError, match="ambiguous"):
        estimator.electrons_to_target_std(0.2, 8, 0.05, 10, seed=1, det=det_mod.trivial())


@pytest.mark.parametrize("seed", range(1, 21))
def test_dose_scaling_slope_at_default_config(seed):
    result = estimator.dose_scaling_experiment(0.05, [1, 2, 4, 8], 0.02, 400, seed)
    assert abs(result.slope + 1.0) <= 0.1
    assert [row.k for row in result.rows] == [1, 2, 4, 8]
    assert all(row.achieved_std <= 0.02 for row in result.rows)


def test_fixed_k_std_error_is_the_cramer_rao_bound():
    k, delta_phi = 4, 0.1
    res = estimator.estimate_phase("entangled", delta_phi, 400, det_mod.trivial(), derive(3), k=k)
    assert res.std_error == 1.0 / (k * math.sqrt(res.trials))


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


def test_paint_keeps_a_shared_pixel_that_a_later_unscanned_pair_covers():
    spec = estimator.SpecimenMap(phase=np.zeros((2, 2)), pairs=[([0], [1]), ([1], [2])])
    np.testing.assert_array_equal(spec.paint([0.1, 0.2]), [[0.1, 0.2], [0.2, np.nan]])
    np.testing.assert_array_equal(spec.paint([0.1, np.nan]), [[0.1, 0.1], [np.nan, np.nan]])


# ---------------------------------------------------------------------------
# image scans


@pytest.mark.parametrize("mode, k", [("conventional", 1), ("entangled", 4)])
def test_image_scan_pools_a_hand_loop_of_estimate_phase(mode, k):
    spec = estimator.make_checkerboard(16, 4, 0.05)
    det = quarter_boundary_detector()
    reps, budget, seed = 3, 200, 9
    scan = estimator.image_scan(spec, mode, budget, det, seed, k=k, total_budget=None, repetitions=reps)

    mode_id = estimator.MODES.index(mode)
    sq_sum = 0.0
    count = dose = discards = 0
    for r in range(reps):
        estimates, errors = [], []
        for i in range(len(spec.pairs)):
            truth = spec.pair_delta_phi(i)
            res = estimator.estimate_phase(mode, truth, budget, det, derive(seed, DOMAIN_IMAGE, mode_id, r, i), k=k)
            estimates.append(res.estimate)
            errors.append(res.estimate - truth)
            dose += res.electrons_used
            discards += res.boundary_discards
        sq_sum += float(np.sum(np.array(errors) ** 2))
        count += len(errors)
    assert scan.rmse == math.sqrt(sq_sum / count)
    assert (scan.total_dose, scan.boundary_discards, scan.incomplete) == (dose, discards, False)
    # the estimates are the last scan's
    assert scan.estimates.tolist() == estimates
    assert (discards > 0) == (mode == "entangled")


def test_image_scan_total_budget_cap_leaves_unscanned_pairs_nan():
    spec = estimator.make_checkerboard(16, 4, 0.05)
    scan = estimator.image_scan(
        spec, "conventional", 200, det_mod.trivial(), 9, k=1, total_budget=500, repetitions=2
    )
    assert scan.incomplete
    assert scan.total_dose == 2 * 400
    assert np.isfinite(scan.estimates[:2]).all() and np.isnan(scan.estimates[2:]).all()
    assert np.isnan(scan.std_errors[2:]).all()
    # the pooled error counts only scanned pairs
    one = estimator.image_scan(spec, "conventional", 200, det_mod.trivial(), 9, k=1, total_budget=500, repetitions=1)
    assert one.rmse == math.sqrt(float(np.sum((one.estimates[:2] - one.true_values[:2]) ** 2)) / 2)
    painted = spec.paint(scan.estimates).ravel()
    for i, (s0, s1) in enumerate(spec.pairs):
        regions = np.concatenate([s0, s1])
        if i < 2:
            assert (painted[regions] == scan.estimates[i]).all()
        else:
            assert np.isnan(painted[regions]).all()


def test_image_scan_rejects_zero_repetitions():
    # image_scan trusts its repetitions: image.repetitions = 0 never reaches it
    with pytest.raises(ConfigError, match="image.repetitions"):
        load_config(None, ["image.repetitions=0"])
