"""Monte Carlo phase estimation, dose accounting, and synthetic imaging.

The dose bookkeeping rests on two closed forms: a conventional scheme
needs about (2/dphi)^2 electrons to see a phase difference dphi, while
k-electron entangled groups need (1/k)(2/dphi)^2, reaching the
Heisenberg limit of about 2/dphi electrons when the whole budget fits
in one group.  The estimators here are exact maximum likelihood for the
corresponding one-parameter Bernoulli models, whose Fisher information
is 1 per electron (conventional) and k per electron (entangled), so the
closed-form scaling is also the achievable variance scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import detector as det_mod
from . import protocol
from .detector import DetectorModel
from .errors import AmbiguityError, BudgetError, DivergentDoseError
from .protocol import GroupPlan
from .streams import DOMAIN_IMAGE, DOMAIN_SCALING, derive

MODES = ("conventional", "entangled")


# ---------------------------------------------------------------------------
# closed-form dose formulas


def _check_delta_phi(delta_phi: float) -> None:
    if delta_phi == 0.0:
        raise DivergentDoseError("electron count diverges at delta_phi = 0")
    if not 0.0 < abs(delta_phi) < math.pi:
        raise ValueError(f"|delta_phi| must lie in (0, pi), got {delta_phi!r}")


def required_electrons_conventional(delta_phi: float) -> int:
    """ceil((2 / delta_phi)^2), the conventional-scheme electron count."""
    _check_delta_phi(delta_phi)
    return math.ceil((2.0 / delta_phi) ** 2)


def required_electrons_entangled(delta_phi: float, k: int) -> int:
    """ceil((1/k)(2 / delta_phi)^2); equals the conventional count at k = 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_delta_phi(delta_phi)
    return math.ceil((2.0 / delta_phi) ** 2 / k)


@dataclass(frozen=True)
class DoseReport:
    """Electron counts of both schemes for one (delta_phi, k) working point."""

    delta_phi: float
    k: int
    n_conventional: int
    n_entangled: int
    advantage: float

    @classmethod
    def from_closed_forms(cls, delta_phi: float, k: int) -> "DoseReport":
        # the ratio of the un-rounded formulas, (2/dphi)^2 / ((2/dphi)^2 / k),
        # is exactly k; computing it in floating point can miss k by an ulp
        return cls(
            delta_phi=delta_phi,
            k=k,
            n_conventional=required_electrons_conventional(delta_phi),
            n_entangled=required_electrons_entangled(delta_phi, k),
            advantage=float(k),
        )


# ---------------------------------------------------------------------------
# single-shot estimators


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of one phase estimate plus its dose accounting."""

    estimate: float
    std_error: float
    trials: int
    electrons_used: int
    boundary_discards: int
    k: int = 1


def _invert_conventional(p_hat: float) -> float:
    return 2.0 * math.asin(min(1.0, math.sqrt(max(0.0, p_hat))))


def _invert_quadrature(p_hat: float, k: int) -> float:
    return math.asin(min(1.0, max(-1.0, 2.0 * p_hat - 1.0))) / k


def _quadrature_std_error(k: int, groups: int) -> float:
    """Cramer-Rao bound 1 / (k sqrt(G)) of the quadrature estimate from G groups."""
    return 1.0 / (k * math.sqrt(groups))


def estimate_phase(
    mode: str,
    true_delta_phi: float,
    electron_budget: int,
    det: DetectorModel | None = None,
    rng: np.random.Generator | None = None,
    *,
    k: int = 1,
) -> EstimationResult:
    """Estimate the specimen phase difference from a fixed electron budget.

    conventional: unentangled electrons measured in the symmetric /
    antisymmetric basis, P(anti) = sin^2(dphi/2), inverted by maximum
    likelihood (the arcsine inversion; sign is not resolved).

    entangled: k-electron groups run through the qubit protocol and read
    out in the sign-sensitive quadrature basis, P(+) = (1 + sin(k dphi))/2.
    Requires |k * dphi| < pi/2 so the inversion is unambiguous.  Boundary
    discards consume budget but carry no information.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if electron_budget < 1:
        raise BudgetError(f"electron budget must be >= 1, got {electron_budget}")
    if rng is None:
        raise ValueError("an explicit random generator is required")

    if mode == "conventional":
        outcomes = protocol.conventional_trials(true_delta_phi, electron_budget, rng)
        p_hat = float(outcomes.mean())
        return EstimationResult(
            estimate=_invert_conventional(p_hat),
            std_error=1.0 / math.sqrt(electron_budget),
            trials=electron_budget,
            electrons_used=electron_budget,
            boundary_discards=0,
        )

    if k < 1:
        raise ValueError("k must be >= 1")
    if abs(k * true_delta_phi) >= 0.5 * math.pi:
        raise AmbiguityError(
            f"|k * delta_phi| = {abs(k * true_delta_phi):.4f} >= pi/2; the quadrature inversion is ambiguous"
        )
    if electron_budget < k:
        raise BudgetError(f"budget {electron_budget} is smaller than one group of {k}")
    if det is None:
        det = det_mod.trivial()

    plan = GroupPlan(k=k, delta_phi=true_delta_phi)
    batch = protocol.simulate_groups(plan, det, electron_budget // k, rng, budget=electron_budget)
    if batch.groups == 0:
        raise BudgetError("no group completed within the electron budget")
    p_hat = float(batch.outcomes.mean())
    estimate = _invert_quadrature(p_hat, k)
    return EstimationResult(
        estimate=estimate,
        std_error=_quadrature_std_error(k, batch.groups),
        trials=batch.groups,
        electrons_used=batch.electrons_used,
        boundary_discards=batch.boundary_discards,
        k=k,
    )


def effective_specimen_phase(specimen_det: DetectorModel, calibration_det: DetectorModel) -> float:
    """Power-weighted mean detection kick left after calibration compensation.

    This is the phase per electron an end-to-end run accumulates when
    collapsing on the specimen-loaded detector but compensating with the
    specimen-free calibration angles; boundary pixels are excluded
    because `run_group` discards electrons drawn there.
    """
    delta = protocol.wrap_angle(specimen_det.beta - calibration_det.beta)
    w = specimen_det.equal_weight_power
    ok = ~specimen_det.boundary_mask
    return float(np.sum(w[ok] * delta[ok]) / np.sum(w[ok]))


def estimate_phase_end_to_end(
    specimen_det: DetectorModel,
    calibration_beta: np.ndarray,
    k: int,
    electron_budget: int,
    rng: np.random.Generator,
) -> EstimationResult:
    """Wave-optics-coupled estimate: collapse on the specimen-loaded detector.

    Runs the exact sequential protocol (the specimen perturbs the branch
    moduli slightly, so the vectorized equal-weight kernel is not used),
    compensates with the separately calibrated angles, and inverts the
    quadrature law.  The recovered value converges to
    `effective_specimen_phase` of the two detectors.
    """
    if electron_budget < k:
        raise BudgetError(f"budget {electron_budget} is smaller than one group of {k}")
    calibration_beta = np.asarray(calibration_beta, dtype=float)
    plan = GroupPlan(k=k, delta_phi=0.0)
    outcomes = []
    used = 0
    discards = 0
    while used + k <= electron_budget:
        result = protocol.run_group(plan, specimen_det, rng)
        used += k + result.boundary_discards
        discards += result.boundary_discards
        if used > electron_budget:
            break
        comp = float(sum(calibration_beta[r.pixel_index] for r in result.records if not r.boundary))
        qubit = protocol.compensate(result.qubit, comp)
        outcomes.append(protocol.measure_qubit(qubit, "quadrature", rng))
    if not outcomes:
        raise BudgetError("no group completed within the electron budget")
    estimate = _invert_quadrature(float(np.mean(outcomes)), k)
    return EstimationResult(
        estimate=estimate,
        std_error=_quadrature_std_error(k, len(outcomes)),
        trials=len(outcomes),
        electrons_used=used,
        boundary_discards=discards,
        k=k,
    )


# ---------------------------------------------------------------------------
# dose-scaling experiment


@dataclass
class ScalingRow:
    k: int
    electrons: int
    achieved_std: float
    probes: list[tuple[int, float]] = field(default_factory=list)


@dataclass
class DoseScalingResult:
    delta_phi: float
    target_std: float
    repetitions: int
    rows: list[ScalingRow]
    slope: float | None
    slope_stderr: float | None
    intercept: float | None


def _estimate_batch(mode, delta_phi, budget, repetitions, det, rng, k):
    """Estimates and trials of `repetitions` fixed-k `estimate_phase` calls, drawn at once.

    Exact in distribution to calling `estimate_phase` once per
    repetition.  Conventional: the antisymmetric count is
    Binomial(budget, sin^2(dphi/2)).  Entangled: compensation subtracts
    the same beta_j that detection added, so every completed group reads
    out k*dphi whichever pixels it hit, and only the number of groups
    matters.  Drawing stops at budget // k groups or when the budget is
    spent, so the groups completed are min(budget // k, Binomial(budget,
    q) // k) for non-boundary power fraction q, and the plus count is
    Binomial(groups, (1 + sin k dphi) / 2).
    """
    if mode == "conventional":
        hits = rng.binomial(budget, protocol.conventional_probability(delta_phi), size=repetitions)
        return 2.0 * np.arcsin(np.sqrt(hits / budget)), np.full(repetitions, budget)
    q = 1.0 - det.boundary_power_fraction()
    groups = np.full(repetitions, budget // k)
    if q < 1.0:
        groups = np.minimum(groups, rng.binomial(budget, q, size=repetitions) // k)
    if not groups.all():
        raise BudgetError("no group completed within the electron budget")
    hits = rng.binomial(groups, protocol.readout_probability(k * delta_phi))
    return np.arcsin(np.clip(2.0 * hits / groups - 1.0, -1.0, 1.0)) / k, groups


def _empirical_std(delta_phi, k, budget, repetitions, seed, det, mode):
    rng = derive(seed, DOMAIN_SCALING, k, budget)
    estimates, _ = _estimate_batch(mode, delta_phi, budget, repetitions, det, rng, k)
    return float(estimates.std(ddof=1))


def electrons_to_target_std(
    delta_phi: float,
    k: int,
    target_std: float,
    repetitions: int,
    seed: int,
    det: DetectorModel | None = None,
    mode: str = "entangled",
) -> ScalingRow:
    """Measure the electron budget at which the estimate spread hits target_std.

    Doubles the budget until the empirical standard deviation over
    `repetitions` independent estimates drops below target, then
    bisects in log space to about 3%.  The search never assumes the
    1/sqrt(k N) law it is used to test.  Each probed budget draws all its
    repetitions from one stream, derive(seed, DOMAIN_SCALING, k, budget);
    `det` defaults to the trivial detector.
    """
    if target_std <= 0.0:
        raise ValueError("target_std must be positive")
    if repetitions < 2:
        raise ValueError("need at least two repetitions to measure a spread")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode == "entangled" and abs(k * delta_phi) >= 0.5 * math.pi:
        raise AmbiguityError(f"k = {k} puts |k * delta_phi| >= pi/2; the quadrature inversion is ambiguous")
    if det is None:
        det = det_mod.trivial()
    probes: list[tuple[int, float]] = []

    budget = max(4 * k, 16)
    std = _empirical_std(delta_phi, k, budget, repetitions, seed, det, mode)
    probes.append((budget, std))
    while std > target_std:
        if budget > 10**9:
            raise BudgetError("target spread unreachable below 1e9 electrons")
        budget *= 2
        std = _empirical_std(delta_phi, k, budget, repetitions, seed, det, mode)
        probes.append((budget, std))

    lo, hi = budget // 2, budget
    achieved = std
    if probes[0][0] == hi:  # already below target at the starting budget
        lo = max(k, hi // 2)
    while hi > lo + 1 and hi / lo > 1.03:
        mid = int(round(math.sqrt(lo * hi)))
        std = _empirical_std(delta_phi, k, mid, repetitions, seed, det, mode)
        probes.append((mid, std))
        if std <= target_std:
            hi, achieved = mid, std
        else:
            lo = mid
    return ScalingRow(k=k, electrons=hi, achieved_std=achieved, probes=probes)


def dose_scaling_experiment(
    delta_phi: float,
    k_list: list[int],
    target_std: float,
    repetitions: int,
    seed: int,
) -> DoseScalingResult:
    """Electrons-to-target-spread for each group size on the trivial detector, plus a log-log fit.

    The entangled scheme predicts electrons proportional to 1/k, i.e. a
    fitted slope of -1 for log(electrons) against log(k).  The detector
    is built once for every k.
    """
    if not k_list:
        raise ValueError("k_list must not be empty")
    det = det_mod.trivial()
    rows = [electrons_to_target_std(delta_phi, k, target_std, repetitions, seed, det) for k in k_list]
    slope = slope_stderr = intercept = None
    if len(rows) >= 2:
        x = np.log(np.array([r.k for r in rows], dtype=float))
        y = np.log(np.array([r.electrons for r in rows], dtype=float))
        if len(rows) >= 3:
            coeffs, cov = np.polyfit(x, y, 1, cov=True)
            slope, intercept = float(coeffs[0]), float(coeffs[1])
            slope_stderr = float(math.sqrt(cov[0, 0]))
        else:
            coeffs = np.polyfit(x, y, 1)
            slope, intercept = float(coeffs[0]), float(coeffs[1])
    return DoseScalingResult(
        delta_phi=delta_phi,
        target_std=target_std,
        repetitions=repetitions,
        rows=rows,
        slope=slope,
        slope_stderr=slope_stderr,
        intercept=intercept,
    )


# ---------------------------------------------------------------------------
# synthetic specimens and imaging


@dataclass
class SpecimenMap:
    """Ground-truth phase grid plus the (S0, S1) region pairs to compare.

    Building one rejects an empty region, overlapping regions and an index outside the map.
    """

    phase: np.ndarray
    pairs: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        self.phase = np.asarray(self.phase, dtype=float)
        if self.phase.ndim != 2:
            raise ValueError("phase map must be 2-D")
        self.pairs = [
            (np.asarray(s0, dtype=np.int64).ravel(), np.asarray(s1, dtype=np.int64).ravel())
            for s0, s1 in self.pairs
        ]
        size = self.phase.size
        for i, (s0, s1) in enumerate(self.pairs):
            if s0.size == 0 or s1.size == 0:
                raise ValueError(f"pair {i} has an empty region")
            if np.intersect1d(s0, s1).size:
                raise ValueError(f"pair {i} regions overlap")
            if s0.max() >= size or s1.max() >= size or s0.min() < 0 or s1.min() < 0:
                raise ValueError(f"pair {i} indexes outside the phase map")

    @property
    def warnings(self) -> list[str]:
        """Soft problems that do not stop a scan."""
        if np.abs(self.phase).max(initial=0.0) > 0.5:
            return ["phase map exceeds 0.5 rad; weak-phase treatment is questionable"]
        return []

    def pair_delta_phi(self, index: int) -> float:
        s0, s1 = self.pairs[index]
        flat = self.phase.ravel()
        return float(flat[s1].mean() - flat[s0].mean())


def make_checkerboard(shape: int = 32, tile: int = 8, delta_phi: float = 0.05) -> SpecimenMap:
    """Two-level checkerboard with one (S0, S1) pair per horizontally adjacent tile pair."""
    if shape % tile != 0 or (shape // tile) % 2 != 0:
        raise ValueError("shape must hold an even number of tiles per side")
    tiles = shape // tile
    phase = np.zeros((shape, shape))
    index = np.arange(shape * shape).reshape(shape, shape)
    pairs = []
    for tr in range(tiles):
        for tc in range(tiles):
            r0, c0 = tr * tile, tc * tile
            phase[r0 : r0 + tile, c0 : c0 + tile] = ((tr + tc) % 2) * delta_phi
    for tr in range(tiles):
        for tc in range(0, tiles, 2):
            left = index[tr * tile : (tr + 1) * tile, tc * tile : (tc + 1) * tile].ravel()
            right = index[tr * tile : (tr + 1) * tile, (tc + 1) * tile : (tc + 2) * tile].ravel()
            if (tr + tc) % 2 == 0:  # left tile is the low-phase side
                pairs.append((left, right))
            else:
                pairs.append((right, left))
    return SpecimenMap(phase=phase, pairs=pairs)


@dataclass
class ImageScanResult:
    """Per-pair estimates against ground truth, with dose bookkeeping."""

    estimates: np.ndarray
    std_errors: np.ndarray
    true_values: np.ndarray
    total_dose: int
    boundary_discards: int
    incomplete: bool
    shape: tuple[int, int]
    pairs: list[tuple[np.ndarray, np.ndarray]]

    def painted_map(self) -> np.ndarray:
        """Paint each estimated pair value over its two regions (NaN elsewhere)."""
        out = np.full(self.shape[0] * self.shape[1], np.nan)
        for i, (s0, s1) in enumerate(self.pairs):
            if math.isnan(self.estimates[i]):
                continue
            out[s0] = self.estimates[i]
            out[s1] = self.estimates[i]
        return out.reshape(self.shape)


def image_scan(
    spec: SpecimenMap,
    mode: str,
    per_pair_budget: int,
    det: DetectorModel | None,
    seed: int,
    *,
    k: int = 1,
    total_budget: int | None = None,
    scan_index: int = 0,
) -> ImageScanResult:
    """Estimate every pair's phase difference and compare to ground truth.

    Each pair gets `per_pair_budget` electrons (a `total_budget` cap can
    cut the scan short, leaving NaN estimates and an incomplete flag).
    `scan_index` separates the random streams of repeated scans under one seed.
    """
    if not spec.pairs:
        raise ValueError("specimen has no pairs to scan")
    if per_pair_budget < 1:
        raise BudgetError("per-pair budget must be >= 1")
    mode_id = MODES.index(mode) if mode in MODES else -1
    n = len(spec.pairs)
    estimates = np.full(n, np.nan)
    std_errors = np.full(n, np.nan)
    true_values = np.array([spec.pair_delta_phi(i) for i in range(n)])
    spent = 0
    discards = 0
    incomplete = False
    for i in range(n):
        if total_budget is not None and spent + per_pair_budget > total_budget:
            incomplete = True
            break
        rng = derive(seed, DOMAIN_IMAGE, mode_id, scan_index, i)
        res = estimate_phase(mode, true_values[i], per_pair_budget, det, rng, k=k)
        estimates[i] = res.estimate
        std_errors[i] = res.std_error
        spent += res.electrons_used
        discards += res.boundary_discards
    return ImageScanResult(
        estimates=estimates,
        std_errors=std_errors,
        true_values=true_values,
        total_dose=spent,
        boundary_discards=discards,
        incomplete=incomplete,
        shape=spec.phase.shape,
        pairs=spec.pairs,
    )
