import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxtem import detector as det_mod
from fluxtem import protocol as P
from fluxtem.errors import InvalidStateError
from fluxtem.streams import derive

from conftest import assert_states_close

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# step-by-step reference: the general 2x2 electron (x) qubit Born rule
#
# run_group carries only the qubit's two amplitudes because the joint
# table stays diagonal.  This reference keeps the full table c[e][q],
# off-diagonal terms included, so comparing the two proves the shortcut.


def _ref_entangle(amp0, amp1):
    """Joint table after the electron copies the qubit branch: c[q][q] = amp_q."""
    if abs(abs(amp0) ** 2 + abs(amp1) ** 2 - 1.0) > P.NORM_TOL:
        raise InvalidStateError("qubit is not normalized")
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0], c[1, 1] = amp0, amp1
    return c


def _ref_specimen(c, delta_phi):
    """Phase electron branch 0 by -delta_phi/2 and branch 1 by +delta_phi/2."""
    c = c.copy()
    c[0, :] *= cmath.exp(-0.5j * delta_phi)
    c[1, :] *= cmath.exp(+0.5j * delta_phi)
    return c


def _ref_born(c, det):
    """Normalized P(j) = sum_q |a_j c[0][q] + b_j c[1][q]|^2."""
    p = sum(np.abs(det.a * c[0, q] + det.b * c[1, q]) ** 2 for q in (0, 1))
    return p / p.sum()


def _ref_posterior(c, det, j):
    """Normalized qubit amplitudes left after detection at pixel j."""
    amp0 = det.a[j] * c[0, 0] + det.b[j] * c[1, 0]
    amp1 = det.a[j] * c[0, 1] + det.b[j] * c[1, 1]
    norm = math.hypot(abs(amp0), abs(amp1))
    return amp0 / norm, amp1 / norm


def _ref_cumulative(c, det):
    """Pixel cumulative from the electron branch weights, checked against the Born rule.

    Returns the cumulative and whether the branch weights were unequal.
    """
    w0, w1 = (float(np.sum(np.abs(c[e, :]) ** 2)) for e in (0, 1))
    unequal = abs(w0 - w1) > 1e-12
    if unequal:
        cum = np.cumsum(w0 * det.power_a + w1 * det.power_b)
        cum /= cum[-1]
        cum[-1] = 1.0
    else:
        cum = det.equal_weight_cumulative
    np.testing.assert_allclose(np.diff(cum, prepend=0.0), _ref_born(c, det), rtol=0.0, atol=1e-12)
    return cum, unequal


def _reference_group(plan, det, rng):
    """One group on the full table, drawing from `rng` exactly as run_group does.

    Returns ((pixel, boundary) per draw, discards, sum_beta, final
    amplitudes, number of draws from unequal branch weights).
    """
    qubit = P.prepare_symmetric(plan.sigma0)
    amp0, amp1 = qubit.amp0, qubit.amp1
    draws, discards, sum_beta, unequal_draws = [], 0, 0.0, 0
    for _ in range(plan.k):
        c = _ref_specimen(_ref_entangle(amp0, amp1), plan.delta_phi)
        cum, unequal = _ref_cumulative(c, det)
        while True:
            j = int(np.searchsorted(cum, rng.random(), side="right"))
            unequal_draws += unequal
            draws.append((j, bool(det.boundary_mask[j])))
            if not det.boundary_mask[j]:
                break
            discards += 1
        amp0, amp1 = _ref_posterior(c, det, j)
        sum_beta += float(det.beta[j])
    return draws, discards, sum_beta, np.array([amp0, amp1]), unequal_draws


def _half_boundary_detector():
    """8 pixels: a/b moduli differ on the boundary half and are equal on the other."""
    a = np.array([1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0], dtype=complex)
    b = np.array([0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], dtype=complex)
    region = np.array([det_mod.BOUNDARY] * 4 + [det_mod.OUTSIDE_SHADOW] * 4, dtype=np.int8)
    det = det_mod.DetectorModel(a=a / np.linalg.norm(a), b=b / np.linalg.norm(b), beta=np.zeros(8), region=region)
    det.validate()
    return det


def _unequal_moduli_detector():
    """12 non-boundary pixels whose branch moduli differ by up to 25%, inside a wide tolerance."""
    j = np.arange(12)
    beta = np.where(j % 3 == 0, math.pi, 0.0)
    a = (1.0 + 0.3 * np.sin(j)) * np.exp(0.4j * j)
    b = a * (1.0 + 0.25 * np.cos(2 * j)) * np.exp(1j * beta)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    region = np.where(beta == math.pi, det_mod.INSIDE_SHADOW, det_mod.OUTSIDE_SHADOW)
    return det_mod.DetectorModel(a=a, b=b, beta=beta, region=region, tolerance=0.5)


REFERENCE_DETECTORS = {
    "trivial": lambda: det_mod.trivial(8),
    "two_region": lambda: det_mod.two_region(11, 5),
    "unequal_moduli": _unequal_moduli_detector,
    "half_boundary": _half_boundary_detector,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_DETECTORS))
def test_run_group_matches_reference(name):
    det = REFERENCE_DETECTORS[name]()
    plan = P.GroupPlan(k=7, delta_phi=0.37, sigma0=0.3)
    unequal_draws = total_discards = 0
    for seed in range(20):
        res = P.run_group(plan, det, derive(seed, 12))
        draws, discards, sum_beta, amps, unequal = _reference_group(plan, det, derive(seed, 12))
        unequal_draws += unequal
        total_discards += discards
        assert [(r.pixel_index, r.boundary) for r in res.records] == draws
        assert [r.beta for r in res.records] == [float(det.beta[j]) for j, _ in draws]
        assert res.boundary_discards == discards
        assert res.sum_beta == sum_beta
        np.testing.assert_array_equal(np.array([res.qubit.amp0, res.qubit.amp1]), amps)
    # only the unequal-moduli detector leaves the qubit with unequal branch weights
    assert (unequal_draws > 0) == (name == "unequal_moduli")
    assert (total_discards > 0) == (name == "half_boundary")


# ---------------------------------------------------------------------------
# state preparation


class TestPrepareSymmetric:
    def test_sigma_zero_is_uniform(self):
        q = P.prepare_symmetric(0.0)
        assert q.amp0 == pytest.approx(INV_SQRT2)
        assert q.amp1 == pytest.approx(INV_SQRT2)

    def test_sigma_pi_is_half_turn(self):
        q = P.prepare_symmetric(math.pi)
        assert_states_close(q, P.QubitState(INV_SQRT2, -INV_SQRT2))
        assert q.relative_phase == pytest.approx(math.pi)

    def test_sigma_quarter_turn(self):
        q = P.prepare_symmetric(math.pi / 2)
        assert q.relative_phase == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, bad):
        with pytest.raises(ValueError):
            P.prepare_symmetric(bad)


# ---------------------------------------------------------------------------
# entanglement and specimen interaction


class TestEntangle:
    def test_symmetric_qubit_entangles(self):
        c = _ref_entangle(INV_SQRT2, INV_SQRT2)
        assert c[0, 0] == pytest.approx(INV_SQRT2)
        assert c[1, 1] == pytest.approx(INV_SQRT2)
        assert c[0, 1] == 0 and c[1, 0] == 0

    def test_basis_state_gives_product(self):
        c = _ref_entangle(1.0, 0.0)
        assert c[0, 0] == 1.0
        assert np.count_nonzero(c) == 1

    def test_phase_carried_through(self):
        q = P.prepare_symmetric(math.pi / 3)
        c = _ref_entangle(q.amp0, q.amp1)
        assert P.wrap_angle(cmath.phase(c[1, 1]) - cmath.phase(c[0, 0])) == pytest.approx(math.pi / 3)

    def test_unnormalized_rejected(self, monkeypatch):
        with pytest.raises(InvalidStateError):
            _ref_entangle(1.0, 1.0)
        monkeypatch.setattr(P, "prepare_symmetric", lambda sigma: P.QubitState(1.0, 1.0))
        with pytest.raises(InvalidStateError, match="norm"):
            P.run_group(P.GroupPlan(k=1, delta_phi=0.0), det_mod.trivial(4), derive(3, 5))


class TestApplySpecimen:
    """On the trivial detector (a_j = b_j, beta_j = 0) detection leaves the phase, so only the specimen acts."""

    def test_zero_phase_is_identity(self):
        res = P.run_group(P.GroupPlan(k=3, delta_phi=0.0, sigma0=0.4), det_mod.trivial(4), derive(3, 6))
        assert_states_close(res.qubit, P.prepare_symmetric(0.4))

    def test_phase_adds_to_sigma(self):
        res = P.run_group(P.GroupPlan(k=1, delta_phi=0.5, sigma0=0.3), det_mod.trivial(4), derive(3, 7))
        assert res.qubit.relative_phase == pytest.approx(0.8)

    def test_composition(self):
        det = det_mod.trivial(4)
        once = P.run_group(P.GroupPlan(k=1, delta_phi=math.pi), det, derive(3, 8))
        twice = P.run_group(P.GroupPlan(k=2, delta_phi=0.5 * math.pi), det, derive(3, 9))
        assert_states_close(once.qubit, twice.qubit)

    def test_norm_preserved(self):
        res = P.run_group(P.GroupPlan(k=64, delta_phi=2.3, sigma0=1.1), det_mod.two_region(5, 3), derive(3, 10))
        assert res.qubit.norm_sq() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# collapse


class TestCollapse:
    def test_trivial_detector_leaves_phase(self):
        res = P.run_group(P.GroupPlan(k=1, delta_phi=0.3, sigma0=0.2), det_mod.trivial(16), derive(3, 0))
        assert res.records[0].beta == 0.0
        assert res.qubit.relative_phase == pytest.approx(0.5)

    def test_sign_flipped_pixel_shifts_pi(self):
        det = det_mod.two_region(n_outside=0, n_inside=4)  # every pixel has beta = pi
        res = P.run_group(P.GroupPlan(k=1, delta_phi=0.0), det, derive(3, 1))
        assert res.records[0].beta == pytest.approx(math.pi)
        assert abs(P.wrap_angle(res.qubit.relative_phase - math.pi)) < 1e-12

    def test_degenerate_detector_always_boundary(self):
        det = det_mod.degenerate_two_pixel()
        c = _ref_specimen(_ref_entangle(INV_SQRT2, INV_SQRT2), 0.0)
        cum, _ = _ref_cumulative(c, det)
        rng = derive(3, 2)
        for _ in range(20):
            assert det.boundary_mask[np.searchsorted(cum, rng.random(), side="right")]

    def test_discard_policy_rejects_all_boundary_detector(self):
        det = det_mod.degenerate_two_pixel()
        with pytest.raises(InvalidStateError):
            P.run_group(P.GroupPlan(k=1, delta_phi=0.0), det, derive(3, 3))

    def test_max_discards_guard_stops_a_stuck_group(self, monkeypatch):
        # one good pixel carries well under 1% of the power
        n = 200
        a = np.ones(n, dtype=complex)
        b = np.ones(n, dtype=complex)
        b[1:] *= 0.5
        region = np.full(n, det_mod.BOUNDARY, dtype=np.int8)
        region[0] = det_mod.OUTSIDE_SHADOW
        det = det_mod.DetectorModel(a=a / np.linalg.norm(a), b=b / np.linalg.norm(b), beta=np.zeros(n), region=region)
        plan = P.GroupPlan(k=2, delta_phi=0.0)
        assert P.run_group(plan, det, derive(3, 11)).boundary_discards > 10
        monkeypatch.setattr(P, "MAX_DISCARDS", 10)
        with pytest.raises(InvalidStateError, match="exceeded 10 boundary discards"):
            P.run_group(plan, det, derive(3, 11))

    def test_detection_distribution_is_born_rule(self):
        det = det_mod.two_region(3, 5)
        q = P.prepare_symmetric(0.7)
        p = _ref_born(_ref_entangle(q.amp0, q.amp1), det)
        np.testing.assert_allclose(p, det.equal_weight_power, atol=1e-15)
        assert p.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# group runs and the phase-accumulation law


class TestRunGroup:
    def test_single_electron_law(self):
        det = det_mod.two_region(8, 8)
        plan = P.GroupPlan(k=1, delta_phi=0.37, sigma0=0.0)
        res = P.run_group(plan, det, derive(5, 0))
        assert res.qubit.relative_phase == pytest.approx(P.wrap_angle(res.sum_beta + 0.37))

    def test_trivial_detector_accumulates_exactly(self):
        det = det_mod.trivial(8)
        res = P.run_group(P.GroupPlan(k=5, delta_phi=0.1), det, derive(5, 1))
        assert res.sum_beta == 0.0
        assert res.qubit.relative_phase == pytest.approx(0.5, abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        sigma0=st.floats(-3.0, 3.0),
        dphi=st.floats(-3.1, 3.1),
        k=st.integers(1, 64),
        seed=st.integers(0, 2**31),
    )
    def test_phase_law_property(self, sigma0, dphi, k, seed):
        det = det_mod.two_region(11, 5)
        plan = P.GroupPlan(k=k, delta_phi=dphi, sigma0=sigma0)
        res = P.run_group(plan, det, derive(seed, 0))
        assert P.phase_audit(res, plan) < 1e-9

    def test_norm_preserved_along_run(self):
        det = det_mod.two_region(5, 3)
        for k in range(1, 33):
            res = P.run_group(P.GroupPlan(k=k, delta_phi=0.21, sigma0=0.3), det, derive(5, 2))
            assert res.qubit.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_detector_independence_of_phase_law(self, small_detector):
        plan = P.GroupPlan(k=7, delta_phi=0.21, sigma0=1.3)
        for seed in range(5):
            res = P.run_group(plan, small_detector, derive(seed, 9))
            assert P.phase_audit(res, plan) < 1e-9


class TestCompensate:
    def test_exact_cancellation(self):
        theta = 1.234
        assert_states_close(P.compensate(P.prepare_symmetric(theta), theta), P.prepare_symmetric(0.0))

    def test_zero_is_identity(self):
        q = P.prepare_symmetric(0.9)
        assert_states_close(P.compensate(q, 0.0), q)

    def test_after_group_leaves_k_delta_phi(self):
        det = det_mod.two_region(6, 10)
        plan = P.GroupPlan(k=4, delta_phi=0.15)
        res = P.run_group(plan, det, derive(6, 0))
        q = P.compensate(res.qubit, res.sum_beta)
        assert q.relative_phase == pytest.approx(0.6, abs=1e-12)

    def test_inverse_of_phase_shift(self):
        q = P.prepare_symmetric(0.4)
        shifted = P.QubitState(q.amp0 * np.exp(-0.55j), q.amp1 * np.exp(0.55j))
        assert_states_close(P.compensate(shifted, 1.1), q)


# ---------------------------------------------------------------------------
# readout


def _projector_probability(qubit, bra):
    """Oracle: direct 2-vector inner product |<bra|psi>|^2."""
    amp = np.conj(bra[0]) * qubit.amp0 + np.conj(bra[1]) * qubit.amp1
    return abs(amp) ** 2


class TestMeasurement:
    def test_symmetric_eigenstate_never_antisymmetric(self):
        _, p1 = P.measurement_probabilities(P.prepare_symmetric(0.0), "symmetric_antisymmetric")
        assert p1 == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k,dphi", [(1, 0.3), (5, 0.1), (8, 0.19), (3, -0.4)])
    def test_antisymmetric_probability_matches_projector(self, k, dphi):
        q = P.prepare_symmetric(k * dphi)
        _, p1 = P.measurement_probabilities(q, "symmetric_antisymmetric")
        bra = np.array([INV_SQRT2, -INV_SQRT2])
        assert p1 == pytest.approx(_projector_probability(q, bra), abs=1e-12)
        assert p1 == pytest.approx(math.sin(k * dphi / 2) ** 2, abs=1e-12)

    @pytest.mark.parametrize("sigma,expected", [(math.pi / 2, 1.0), (-math.pi / 2, 0.0)])
    def test_quadrature_distinguishes_sign(self, sigma, expected):
        _, p1 = P.measurement_probabilities(P.prepare_symmetric(sigma), "quadrature")
        assert p1 == pytest.approx(expected, abs=1e-12)
        bra = np.array([INV_SQRT2, 1j * INV_SQRT2])
        assert p1 == pytest.approx(_projector_probability(P.prepare_symmetric(sigma), bra), abs=1e-12)

    def test_quadrature_law(self):
        for sigma in (-1.2, -0.3, 0.0, 0.4, 1.0):
            _, p1 = P.measurement_probabilities(P.prepare_symmetric(sigma), "quadrature")
            assert p1 == pytest.approx(0.5 * (1 + math.sin(sigma)), abs=1e-12)

    def test_empirical_rates_match_law(self):
        sigma = 0.8
        rng = derive(7, 0)
        n = 200_000
        q = P.prepare_symmetric(sigma)
        hits = sum(P.measure_qubit(q, "quadrature", rng) for _ in range(200))
        # scalar path sanity plus a vectorized large-sample check via the closed form
        p = 0.5 * (1 + math.sin(sigma))
        counts = (rng.random(n) < p).sum()
        assert abs(counts / n - p) < 3 * math.sqrt(p * (1 - p) / n)
        assert 0 <= hits <= 200

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            P.measurement_probabilities(P.prepare_symmetric(0.0), "hadamard")


class TestConventional:
    def test_zero_phase_always_symmetric(self):
        rng = derive(8, 0)
        assert not P.conventional_trials(0.0, 100, rng).any()

    def test_pi_phase_always_antisymmetric(self):
        rng = derive(8, 1)
        assert P.conventional_trials(math.pi, 100, rng).all()

    def test_rate_matches_closed_form(self):
        dphi = 0.2
        n = 200_000
        outcomes = P.conventional_trials(dphi, n, derive(8, 2))
        p = math.sin(0.1) ** 2
        assert abs(outcomes.mean() - p) < 3 * math.sqrt(p * (1 - p) / n)


# ---------------------------------------------------------------------------
# exhaustive small-system check


def _enumerate_oracle(plan, det, basis):
    """Independent product-amplitude enumeration of every branch.

    P(sequence) and the final measurement distribution follow from the
    unnormalized amplitudes amp0 * prod a_j, amp1 * prod b_j with the
    accumulated specimen phases; no simulator code is reused.
    """
    inv = 1.0 / math.sqrt(2.0)
    table = {}
    for seq in itertools.product(range(det.n_pixels), repeat=plan.k):
        c0 = inv * np.exp(-0.5j * (plan.sigma0 + plan.k * plan.delta_phi))
        c1 = inv * np.exp(+0.5j * (plan.sigma0 + plan.k * plan.delta_phi))
        for j in seq:
            c0 *= det.a[j]
            c1 *= det.b[j]
        p_seq = abs(c0) ** 2 + abs(c1) ** 2
        if p_seq == 0.0:
            table[seq] = (0.0, 0.0)
            continue
        norm = math.sqrt(p_seq)
        c0, c1 = c0 / norm, c1 / norm
        sum_beta = sum(float(det.beta[j]) for j in seq)
        c0 *= np.exp(+0.5j * sum_beta)
        c1 *= np.exp(-0.5j * sum_beta)
        if basis == "symmetric_antisymmetric":
            p1 = abs((c0 - c1) * inv) ** 2
        else:
            p1 = abs((c0 - 1j * c1) * inv) ** 2
        table[seq] = (p_seq * (1 - p1), p_seq * p1)
    return table


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("basis", ["symmetric_antisymmetric", "quadrature"])
def test_brute_force_distribution(k, basis):
    det = det_mod.two_region(2, 2)
    plan = P.GroupPlan(k=k, delta_phi=0.31, sigma0=0.12)
    oracle = _enumerate_oracle(plan, det, basis)

    # step-by-step distribution from the 2x2 reference that run_group is checked against
    total = 0.0
    for seq, (o_p0, o_p1) in oracle.items():
        q = P.prepare_symmetric(plan.sigma0)
        amp0, amp1 = q.amp0, q.amp1
        p_seq = 1.0
        for j in seq:
            c = _ref_specimen(_ref_entangle(amp0, amp1), plan.delta_phi)
            p_seq *= _ref_born(c, det)[j]
            amp0, amp1 = _ref_posterior(c, det, j)
        qubit = P.compensate(P.QubitState(amp0, amp1), sum(float(det.beta[j]) for j in seq))
        p0, p1 = P.measurement_probabilities(qubit, basis)
        assert p_seq * p0 == pytest.approx(o_p0, abs=1e-10)
        assert p_seq * p1 == pytest.approx(o_p1, abs=1e-10)
        total += p_seq
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# vectorized kernel


class TestSimulateGroups:
    def test_phases_follow_law_exactly(self):
        det = det_mod.two_region(9, 7)
        plan = P.GroupPlan(k=6, delta_phi=0.11, sigma0=0.5)
        batch = P.simulate_groups(plan, det, 500, derive(9, 0))
        # compensation removes sum(beta); sigma0 + k*dphi remains
        np.testing.assert_allclose(batch.phases, 0.5 + 6 * 0.11, atol=1e-12)
        assert batch.groups == 500
        assert batch.electrons_used == 3000

    def test_outcome_rate_matches_closed_form(self):
        plan = P.GroupPlan(k=4, delta_phi=0.2)
        batch = P.simulate_groups(plan, det_mod.trivial(16), 40_000, derive(9, 1))
        p = 0.5 * (1 + math.sin(0.8))
        assert abs(batch.outcomes.mean() - p) < 3 * math.sqrt(p * (1 - p) / 40_000)

    def test_matches_sequential_distribution(self):
        """Scalar and vectorized paths draw from the same (sum_beta, outcome) law."""
        det = det_mod.two_region(3, 1)  # P(beta = pi per electron) = 1/4
        plan = P.GroupPlan(k=3, delta_phi=0.0)
        n = 4000
        seq_counts = np.zeros(plan.k + 1)
        rng = derive(9, 2)
        for _ in range(n):
            res = P.run_group(plan, det, rng)
            seq_counts[int(round(res.sum_beta / math.pi))] += 1
        batch = P.simulate_groups(plan, det, n, derive(9, 3))
        batch_counts = np.bincount(np.round(batch.sum_beta / math.pi).astype(int), minlength=plan.k + 1)
        expected = n * np.array([math.comb(3, m) * 0.25**m * 0.75 ** (3 - m) for m in range(4)])
        for counts in (seq_counts, batch_counts):
            chi2 = float(np.sum((counts - expected) ** 2 / expected))
            assert chi2 < 16.27  # chi^2_{3 dof} at p = 0.001

    def test_budget_caps_electrons(self):
        det = det_mod.trivial(4)
        plan = P.GroupPlan(k=5, delta_phi=0.1)
        batch = P.simulate_groups(plan, det, 10, derive(9, 4), budget=23)
        assert batch.electrons_used <= 23
        assert batch.groups == 4  # 23 // 5 complete groups

    def test_boundary_discards_counted_and_resampled(self):
        det = _half_boundary_detector()
        plan = P.GroupPlan(k=2, delta_phi=0.05)
        batch = P.simulate_groups(plan, det, 300, derive(9, 5))
        assert batch.groups == 300
        assert batch.boundary_discards > 0
        assert batch.electrons_used == 600 + batch.boundary_discards

    def test_deterministic_given_stream(self):
        det = det_mod.two_region(5, 5)
        plan = P.GroupPlan(k=4, delta_phi=0.07)
        b1 = P.simulate_groups(plan, det, 100, derive(11, 1))
        b2 = P.simulate_groups(plan, det, 100, derive(11, 1))
        np.testing.assert_array_equal(b1.outcomes, b2.outcomes)
        np.testing.assert_array_equal(b1.sum_beta, b2.sum_beta)


# ---------------------------------------------------------------------------
# angle helper


@settings(deadline=None, max_examples=200)
@given(st.floats(-50.0, 50.0))
def test_wrap_angle_range_and_congruence(x):
    w = P.wrap_angle(x)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-9)


def test_wrap_angle_keeps_pi_positive():
    assert P.wrap_angle(math.pi) == math.pi
    assert P.wrap_angle(-math.pi) == math.pi
    assert P.wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_wrap_angle_array_path_matches_scalar_path():
    x = np.array([-3 * math.pi, -math.pi, -1.0, 0.0, 2.5, math.pi, 7.0])
    before = x.copy()
    w = P.wrap_angle(x)
    assert isinstance(w, np.ndarray) and w.shape == x.shape
    assert w.tolist() == [P.wrap_angle(float(v)) for v in x]
    assert w[1] == math.pi
    np.testing.assert_array_equal(x, before)


# ---------------------------------------------------------------------------
# equal-modulus readout law


def test_readout_probability_matches_state_vector_law():
    phases = np.linspace(-math.pi, math.pi, 17)
    got = P.readout_probability(phases)
    want = [P.measurement_probabilities(P.prepare_symmetric(s), "quadrature")[1] for s in phases]
    np.testing.assert_allclose(got, want, atol=1e-15)
    assert P.readout_probability(float(phases[3])) == got[3]


def test_readout_probability_closed_forms():
    assert P.readout_probability(0.3) == 0.5 * (1.0 + math.sin(0.3))
