import cmath
import itertools
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxtem import detector as det_mod
from fluxtem import protocol as P
from fluxtem.config import load_config
from fluxtem.detector import TWO_PI, wrap_angle
from fluxtem.errors import ConfigError, PreconditionError
from fluxtem.streams import derive

from conftest import assert_states_close, degenerate_two_pixel, two_region, validate_detector

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
        raise PreconditionError("qubit is not normalized")
    c = np.zeros((2, 2), dtype=complex)
    c[0, 0], c[1, 1] = amp0, amp1
    return c


def _ref_specimen(c, delta_phi):
    """Phase electron branch 0 by -delta_phi/2 and branch 1 by +delta_phi/2, in Python complex arithmetic."""
    kicks = (cmath.exp(-0.5j * delta_phi), cmath.exp(+0.5j * delta_phi))
    return np.array([[complex(c[e, q]) * kicks[e] for q in (0, 1)] for e in (0, 1)])


def _ref_born(c, det):
    """Normalized P(j) = sum_q |a_j c[0][q] + b_j c[1][q]|^2."""
    p = sum(np.abs(det.a * c[0, q] + det.b * c[1, q]) ** 2 for q in (0, 1))
    return p / p.sum()


def _ref_posterior(c, det, j):
    """Normalized qubit amplitudes left after detection at pixel j, in Python complex arithmetic."""
    a, b = complex(det.a[j]), complex(det.b[j])
    amp0 = a * complex(c[0, 0]) + b * complex(c[1, 0])
    amp1 = a * complex(c[0, 1]) + b * complex(c[1, 1])
    inv = 1.0 / math.hypot(abs(amp0), abs(amp1))
    return amp0 * inv, amp1 * inv


def _ref_cumulative(power):
    """Cumulative of per-pixel `power`, ending at exactly 1."""
    cum = np.cumsum(power)
    cum /= cum[-1]
    cum[-1] = 1.0
    return cum


def _ref_draw(c, det, u):
    """The pixel that uniform u draws from the Born law of table c, checked against the Born rule.

    With electron branch weights w0, w1, the law is the exact two-component mixture
    2 min(w0, w1) Q(j) + |w0 - w1| |h_j|^2, over w0 + w1, of the equal-weight law Q and the
    heavier branch h: u * (w0 + w1) picks the component, and its remainder the pixel in it.
    Returns the pixel and whether the heavier branch's component drew it.
    """
    w0, w1 = (sum(abs(complex(x)) ** 2 for x in c[e, :]) for e in (0, 1))
    power_a, power_b = np.abs(det.a) ** 2, np.abs(det.b) ** 2
    equal, heavy = 0.5 * (power_a + power_b), power_b if w1 > w0 else power_a
    shared = 2.0 * min(w0, w1)
    mixture = (shared * equal + abs(w0 - w1) * heavy) / (w0 + w1)
    np.testing.assert_allclose(mixture, _ref_born(c, det), rtol=0.0, atol=1e-12)
    t = u * (w0 + w1)
    if t < shared:
        return int(np.searchsorted(_ref_cumulative(equal), t / shared, side="right")), False
    cum = _ref_cumulative(heavy)
    j = int(np.searchsorted(cum, (t - shared) / abs(w0 - w1), side="right"))
    # a coordinate that rounds to 1 takes the first pixel where the cumulative reaches 1, the last with mass
    return min(j, int((cum < 1.0).sum())), True


def _reference_group(plan, det, rng):
    """One group on the full table, drawing from `rng` exactly as run_group does.

    Returns ((pixel, boundary) per draw, discards, sum_beta, final
    amplitudes, number of draws from the heavier branch's component).
    """
    qubit = P.prepare_symmetric(plan.sigma0)
    amp0, amp1 = qubit.amp0, qubit.amp1
    draws, discards, sum_beta, unequal_draws = [], 0, 0.0, 0
    for _ in range(plan.k):
        c = _ref_specimen(_ref_entangle(amp0, amp1), plan.delta_phi)
        while True:
            j, unequal = _ref_draw(c, det, rng.random())
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
    validate_detector(det)
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
    det = det_mod.DetectorModel(a=a, b=b, beta=beta, region=region)
    validate_detector(det, tolerance=0.5)
    return det


REFERENCE_DETECTORS = {
    "trivial": lambda: det_mod.trivial(8),
    "two_region": lambda: two_region(11, 5),
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
        assert [(pixel, flag) for pixel, _, flag in res.records] == draws
        assert [beta for _, beta, _ in res.records] == [float(det.beta[j]) for j, _ in draws]
        assert res.boundary_discards == discards
        assert res.sum_beta == sum_beta
        np.testing.assert_array_equal(np.array([res.qubit.amp0, res.qubit.amp1]), amps)
    # only the unequal-moduli detector leaves the qubit's branch weights far enough apart to draw from the heavier branch
    assert (unequal_draws > 0) == (name == "unequal_moduli")
    assert (total_discards > 0) == (name == "half_boundary")


SAMPLER_WEIGHTS = [(0.7, 0.3), (0.2, 0.8), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]


@pytest.mark.parametrize("w0, w1", SAMPLER_WEIGHTS)
def test_draw_pixel_follows_the_born_law_on_a_grid_of_uniforms(w0, w1):
    # a pixel takes one run of midpoints in each of the two components, and each run
    # holds N times its share of the pixel's mass to within one midpoint.  Slow, 0.7-1.3 s a
    # weight pair: 2^20 Python calls of _draw_pixel, so that the grid resolves every pixel's mass
    # to 2/N = 1.9e-6, where the detector's lightest pixel carries 0.021
    det = _unequal_moduli_detector()
    n = 1 << 20
    uniforms = ((np.arange(n) + 0.5) / n).tolist()
    draws = map(P._draw_pixel, itertools.repeat(det, n), uniforms, itertools.repeat(w0, n), itertools.repeat(w1, n))
    mass = np.bincount(np.fromiter(draws, dtype=np.int64, count=n), minlength=det.n_pixels) / n
    law = (w0 * np.abs(det.a) ** 2 + w1 * np.abs(det.b) ** 2) / (w0 + w1)
    assert mass.shape == law.shape
    assert np.abs(mass - law).max() <= 2.0 / n


# at (0.0359, 0.9641) rounding carries the top uniform's heavy-branch coordinate to exactly 1
@pytest.mark.parametrize("w0, w1", [*SAMPLER_WEIGHTS, (0.5 + 1e-13, 0.5 - 1e-13), (0.0359, 0.9641)])
@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_draw_pixel_stays_on_the_detector_at_both_ends_of_the_unit_interval(u, w0, w1):
    det = _unequal_moduli_detector()
    assert 0 <= P._draw_pixel(det, u, w0, w1) < det.n_pixels


def test_draw_pixel_caps_a_rounded_draw_at_the_last_pixel_with_mass():
    # rounding carries the heavier branch's coordinate to 1 here, and pixel 2 has no power in either branch
    a, b = np.array([0.8, 0.6, 0.0], dtype=complex), np.array([0.6, 0.8, 0.0], dtype=complex)
    det = det_mod.DetectorModel(a=a, b=b, beta=np.zeros(3), region=np.zeros(3, dtype=np.int8))
    assert P._draw_pixel(det, 1.0 - 2.0**-53, 0.0359, 0.9641) == 1


def test_run_group_consumes_the_stream_in_draw_order():
    # every draw, discards included, takes the stream's next uniform, so the
    # group uses exactly its first k + discards draws and the next draw is the one after
    det = _half_boundary_detector()
    cum = det.equal_weight_cumulative
    plan = P.GroupPlan(k=4, delta_phi=0.2)
    discards = []
    for seed in range(30):
        rng = derive(seed, 13)
        res = P.run_group(plan, det, rng)
        n = plan.k + res.boundary_discards
        assert len(res.records) == n
        fresh = derive(seed, 13).random(n + 1)
        assert [pixel for pixel, _, _ in res.records] == np.searchsorted(cum, fresh[:n], side="right").tolist()
        assert rng.random() == fresh[n]
        discards.append(res.boundary_discards)
    # groups without a discard, and groups with more discards than electrons
    assert min(discards) == 0 and max(discards) > plan.k


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
        # prepare_symmetric trusts its sigma: protocol.sigma0 never reaches it non-finite
        with pytest.raises(ConfigError, match="protocol.sigma0"):
            load_config(None, [f"protocol.sigma0={bad}"])


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
        assert wrap_angle(cmath.phase(c[1, 1]) - cmath.phase(c[0, 0])) == pytest.approx(math.pi / 3)

    def test_unnormalized_rejected(self, monkeypatch):
        with pytest.raises(PreconditionError):
            _ref_entangle(1.0, 1.0)
        monkeypatch.setattr(P, "prepare_symmetric", lambda sigma: P.QubitState(1.0, 1.0))
        with pytest.raises(PreconditionError, match="norm"):
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
        res = P.run_group(P.GroupPlan(k=64, delta_phi=2.3, sigma0=1.1), two_region(5, 3), derive(3, 10))
        assert res.qubit.norm_sq() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# collapse


class TestCollapse:
    def test_trivial_detector_leaves_phase(self):
        res = P.run_group(P.GroupPlan(k=1, delta_phi=0.3, sigma0=0.2), det_mod.trivial(16), derive(3, 0))
        assert res.records[0][1] == 0.0
        assert res.qubit.relative_phase == pytest.approx(0.5)

    def test_sign_flipped_pixel_shifts_pi(self):
        det = two_region(n_outside=0, n_inside=4)  # every pixel has beta = pi
        res = P.run_group(P.GroupPlan(k=1, delta_phi=0.0), det, derive(3, 1))
        assert res.records[0][1] == pytest.approx(math.pi)
        assert abs(wrap_angle(res.qubit.relative_phase - math.pi)) < 1e-12

    def test_degenerate_detector_always_boundary(self):
        det = degenerate_two_pixel()
        c = _ref_specimen(_ref_entangle(INV_SQRT2, INV_SQRT2), 0.0)
        rng = derive(3, 2)
        for _ in range(20):
            assert det.boundary_mask[_ref_draw(c, det, rng.random())[0]]

    def test_discard_policy_rejects_all_boundary_detector(self):
        det = degenerate_two_pixel()
        with pytest.raises(PreconditionError, match="no non-boundary power"):
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
        with pytest.raises(PreconditionError, match="exceeded 10 boundary discards"):
            P.run_group(plan, det, derive(3, 11))

    def test_detection_distribution_is_born_rule(self):
        det = two_region(3, 5)
        q = P.prepare_symmetric(0.7)
        p = _ref_born(_ref_entangle(q.amp0, q.amp1), det)
        np.testing.assert_allclose(p, det.equal_weight_power, atol=1e-15)
        assert p.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# group runs and the phase-accumulation law


class TestRunGroup:
    def test_single_electron_law(self):
        det = two_region(8, 8)
        plan = P.GroupPlan(k=1, delta_phi=0.37, sigma0=0.0)
        res = P.run_group(plan, det, derive(5, 0))
        assert res.qubit.relative_phase == pytest.approx(wrap_angle(res.sum_beta + 0.37))

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
        det = two_region(11, 5)
        plan = P.GroupPlan(k=k, delta_phi=dphi, sigma0=sigma0)
        res = P.run_group(plan, det, derive(seed, 0))
        assert P.phase_audit(res, plan) < 1e-9

    def test_norm_preserved_along_run(self):
        det = two_region(5, 3)
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
        det = two_region(6, 10)
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
        # measurement_probabilities trusts its basis: config accepts only the two bases SCHEMA lists
        with pytest.raises(ConfigError, match="protocol.basis"):
            load_config(None, ["protocol.basis=hadamard"])


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
    det = two_region(2, 2)
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


def _read_out_phases(monkeypatch):
    """The phases `simulate_groups` hands to `readout_probability`, one per call."""
    phases = []
    law = P.readout_probability

    def capture(phase, basis):
        phases.append(phase)
        return law(phase, basis)

    monkeypatch.setattr(P, "readout_probability", capture)
    return phases


class TestSimulateGroups:
    def test_phases_follow_law_exactly(self, monkeypatch):
        det = two_region(9, 7)
        plan = P.GroupPlan(k=6, delta_phi=0.11, sigma0=0.5)
        phases = _read_out_phases(monkeypatch)
        batch = P.simulate_groups(plan, det, 500, derive(9, 0), budget=3000)
        # compensation removes sum(beta) exactly; sigma0 + k*dphi remains, in its own rounding
        (read_out,) = phases
        assert read_out == 0.5 + 6 * 0.11
        assert batch.groups == 500
        assert batch.electrons_used == 3000

    def test_outcome_rate_matches_closed_form(self):
        plan = P.GroupPlan(k=4, delta_phi=0.2)
        batch = P.simulate_groups(plan, det_mod.trivial(16), 40_000, derive(9, 1), budget=160_000)
        p = 0.5 * (1 + math.sin(0.8))
        assert abs(batch.outcomes.mean() - p) < 3 * math.sqrt(p * (1 - p) / 40_000)

    def test_matches_sequential_distribution(self):
        """Scalar and vectorized paths draw from the same (sum_beta, outcome) law."""
        det = two_region(3, 1)  # P(beta = pi per electron) = 1/4
        plan = P.GroupPlan(k=3, delta_phi=0.0)
        n = 4000
        seq_counts = np.zeros(plan.k + 1)
        rng = derive(9, 2)
        for _ in range(n):
            res = P.run_group(plan, det, rng)
            seq_counts[int(round(res.sum_beta / math.pi))] += 1
        # simulate_groups draws its groups' pixels first, so the same stream gives its sum_beta
        pixels = P.draw_good_pixels(det, n * plan.k, derive(9, 3), n * plan.k)[0].reshape(n, plan.k)
        batch_counts = np.bincount(np.round(det.beta[pixels].sum(axis=1) / math.pi).astype(int), minlength=plan.k + 1)
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
        # ample: 5/13 of the power is boundary, so about 375 discards are expected
        batch = P.simulate_groups(plan, det, 300, derive(9, 5), budget=6000)
        assert batch.groups == 300
        assert batch.boundary_discards > 0
        assert batch.electrons_used == 600 + batch.boundary_discards

    def test_deterministic_given_stream(self, monkeypatch):
        det = two_region(5, 5)
        plan = P.GroupPlan(k=4, delta_phi=0.07)
        phases = _read_out_phases(monkeypatch)
        b1 = P.simulate_groups(plan, det, 100, derive(11, 1), budget=400)
        b2 = P.simulate_groups(plan, det, 100, derive(11, 1), budget=400)
        np.testing.assert_array_equal(b1.outcomes, b2.outcomes)
        np.testing.assert_array_equal(phases[0], phases[1])


# ---------------------------------------------------------------------------
# angle helper


@settings(deadline=None, max_examples=200)
@given(st.floats(-50.0, 50.0))
def test_wrap_angle_range_and_congruence(x):
    w = wrap_angle(x)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-9)


def test_wrap_angle_keeps_pi_positive():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def _bits(x):
    return struct.pack("<d", x)


def _wrap_both_paths(x):
    """wrap_angle of a Python float (the math path) and of a one-element array (the numpy path)."""
    return wrap_angle(x), float(wrap_angle(np.array([x]))[0])


WRAP_EDGES = [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 1e300, -1e300]
WRAP_EDGES += [math.ulp(0.0), -math.ulp(0.0), 1e-310, -1e-310, 2.2e-308, -2.2e-308]
# odd multiples of pi: x / 2pi lands on or next to a half-integer tie of round()
WRAP_EDGES += [(m + 0.5) * TWO_PI for m in range(-6, 6)]
WRAP_EDGES += [math.nextafter(x, s * math.inf) for x in (math.pi, -math.pi, 3 * math.pi) for s in (1, -1)]


@pytest.mark.parametrize("x", WRAP_EDGES, ids=repr)
def test_wrap_angle_math_path_matches_numpy_path_at_edges(x):
    scalar, array = _wrap_both_paths(x)
    assert type(scalar) is float
    assert _bits(scalar) == _bits(array)


@settings(deadline=None, max_examples=500)
@given(st.floats(allow_nan=False, allow_infinity=False) | st.floats(-1e4, 1e4))
def test_wrap_angle_math_path_matches_numpy_path(x):
    scalar, array = _wrap_both_paths(x)
    assert _bits(scalar) == _bits(array)


def test_wrap_angle_non_finite_keeps_the_numpy_result():
    assert math.isnan(wrap_angle(math.nan))
    for x in (math.inf, -math.inf):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(wrap_angle(x))


def test_wrap_angle_array_path_matches_scalar_path():
    x = np.array([-3 * math.pi, -math.pi, -1.0, 0.0, 2.5, math.pi, 7.0])
    before = x.copy()
    w = wrap_angle(x)
    assert isinstance(w, np.ndarray) and w.shape == x.shape
    assert w.tolist() == [wrap_angle(float(v)) for v in x]
    assert w[1] == math.pi
    np.testing.assert_array_equal(x, before)


def _wrap_angle_of_temporaries(x):
    """wrap_angle's array path as it read before it ran in one array."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(x - TWO_PI * np.round(x / TWO_PI))
    r[r <= -math.pi] += TWO_PI
    return r


def test_wrap_angle_array_path_has_the_bits_of_the_temporaries():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-50.0, 50.0, 10_000), rng.normal(0.0, 1e6, 1_000), WRAP_EDGES])
    assert wrap_angle(x).tobytes() == _wrap_angle_of_temporaries(x).tobytes()
    for v in WRAP_EDGES:
        assert _bits(wrap_angle(np.float64(v))) == _bits(float(_wrap_angle_of_temporaries(v)))


def test_wrap_angle_array_path_holds_one_array_beside_its_input():
    x = np.random.default_rng(4).uniform(-4.0, 4.0, 65_536)
    wrap_angle(x[:10])
    tracemalloc.start()
    try:
        wrap_angle(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result (524,288 bytes) and the branch-cut mask (65,536); two float temporaries read 1,048,960
    assert peak < 1.3 * x.nbytes


# ---------------------------------------------------------------------------
# equal-modulus readout law


def test_readout_probability_matches_state_vector_law():
    # dense enough that a scalar ** 2 (pow) would round differently from the array's square somewhere
    phases = np.linspace(-math.pi, math.pi, 4001)
    for basis in ("symmetric_antisymmetric", "quadrature"):
        got = P.readout_probability(phases, basis)
        want = [P.measurement_probabilities(P.prepare_symmetric(s), basis)[1] for s in phases]
        np.testing.assert_allclose(got, want, atol=1e-15)
        # the scalar path has the array path's bits
        assert [P.readout_probability(s, basis) for s in phases.tolist()] == got.tolist()


def test_readout_probability_closed_forms():
    assert P.readout_probability(0.3, "quadrature") == 0.5 * (1.0 + math.sin(0.3))
    assert P.readout_probability(0.3, "symmetric_antisymmetric") == math.sin(0.15) * math.sin(0.15)


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize(
    "basis, window",
    # arcsin loses digits where its slope diverges, so the grids stop short of the window's edges
    [("quadrature", (-0.95 * math.pi / 2, 0.95 * math.pi / 2)), ("symmetric_antisymmetric", (0.0, 0.95 * math.pi))],
)
def test_readout_phase_inverts_the_law_at_the_expected_count(basis, window, k):
    phases = np.linspace(*window, 101) / k
    trials = np.array([1, 7, 400, 10**6])[:, None]
    hits = trials * P.readout_probability(k * phases, basis)
    got = P.readout_phase(hits, trials, basis, k)
    np.testing.assert_allclose(got, np.broadcast_to(phases, got.shape), rtol=0, atol=1e-12)
    assert [P.readout_phase(h, 400, basis, k) for h in hits[2].tolist()] == got[2].tolist()
