"""Monte Carlo phase estimation, dose scaling, and synthetic imaging.

A conventional scheme needs about (2/dphi)^2 electrons to see a phase
difference dphi, while k-electron entangled groups need (1/k)(2/dphi)^2,
reaching the Heisenberg limit of about 2/dphi electrons when the whole
budget fits in one group.  The estimators here are exact maximum
likelihood for the corresponding one-parameter Bernoulli models, whose
Fisher information is 1 per electron (conventional) and k per electron
(entangled), so that 1/k dose law is also the achievable variance
scaling.  `fluxtem scaling` measures it without assuming it.

The functions take the values `config.SCHEMA` has already checked, so
they repeat none of its limits; what they still raise is what a valid
config can reach, as a `PreconditionError`: an ambiguous k * dphi and a
budget that completes no group or no target spread.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import detector as det_mod
from . import protocol
from .detector import DetectorModel
from .errors import PreconditionError
from .protocol import GroupPlan
from .streams import DOMAIN_IMAGE, DOMAIN_SCALING, derive

MODES = ("conventional", "entangled")


# ---------------------------------------------------------------------------
# single-shot estimators


class EstimationResult(NamedTuple):
    """Outcome of one phase estimate plus its dose accounting."""

    estimate: float
    std_error: float
    electrons_used: int
    boundary_discards: int


def _require_unambiguous(k: int, delta_phi: float) -> None:
    if abs(k * delta_phi) >= 0.5 * math.pi:
        raise PreconditionError(
            f"k = {k} puts |k * delta_phi| = {abs(k * delta_phi):.4f} >= pi/2; the quadrature inversion is ambiguous"
        )


def estimate_phase(
    mode: str,
    true_delta_phi: float,
    electron_budget: int,
    det: DetectorModel,
    rng: np.random.Generator,
    *,
    k: int = 1,
) -> EstimationResult:
    """Estimate the specimen phase difference from a fixed electron budget.

    conventional (the k = 1 case): unentangled electrons read out in the
    symmetric / antisymmetric basis; sign is not resolved.  entangled:
    k-electron groups run through the qubit protocol and read out in the
    sign-sensitive quadrature basis, which needs |k * dphi| < pi/2.
    Boundary discards consume budget but carry no information.  Both
    invert their count with `protocol.readout_phase`; std_error is the
    Cramer-Rao bound 1 / (k sqrt(trials)).
    """
    if mode == "conventional":
        basis, k, discards = "symmetric_antisymmetric", 1, 0
        hits = int(protocol.conventional_trials(true_delta_phi, electron_budget, rng).sum())
        trials = used = electron_budget
    else:
        _require_unambiguous(k, true_delta_phi)
        if electron_budget < k:
            raise PreconditionError(f"budget {electron_budget} is smaller than one group of {k}")
        basis = "quadrature"
        plan = GroupPlan(k=k, delta_phi=true_delta_phi)
        batch = protocol.simulate_groups(plan, det, electron_budget // k, rng, budget=electron_budget)
        if batch.groups == 0:
            raise PreconditionError("no group completed within the electron budget")
        hits = int(batch.outcomes.sum())
        trials, used, discards = batch.groups, batch.electrons_used, batch.boundary_discards
    return EstimationResult(
        estimate=float(protocol.readout_phase(hits, trials, basis, k)),
        std_error=1.0 / (k * math.sqrt(trials)),
        electrons_used=used,
        boundary_discards=discards,
    )


# ---------------------------------------------------------------------------
# dose-scaling experiment


class ScalingRow(NamedTuple):
    k: int
    electrons: int
    achieved_std: float
    probes: list[tuple[int, float]]


class DoseScalingResult(NamedTuple):
    rows: list[ScalingRow]
    slope: float | None
    slope_stderr: float | None
    intercept: float | None


def _estimate_batch(delta_phi, budget, repetitions, det, rng, k):
    """Estimates of `repetitions` fixed-k entangled `estimate_phase` calls, drawn at once.

    Exact in distribution to calling `estimate_phase` once per
    repetition.  Compensation subtracts the same beta_j that detection
    added, so every completed group reads out k*dphi whichever pixels it
    hit, and only the number of groups matters.  Drawing stops at
    budget // k groups or when the budget is spent, so the groups
    completed are min(budget // k, Binomial(budget, q) // k) for
    non-boundary power fraction q, and the plus count is Binomial(groups,
    (1 + sin k dphi) / 2).
    """
    q = 1.0 - det.boundary_power_fraction()
    groups = np.full(repetitions, budget // k)
    if q < 1.0:
        groups = np.minimum(groups, rng.binomial(budget, q, size=repetitions) // k)
    if not groups.all():
        raise PreconditionError("no group completed within the electron budget")
    hits = rng.binomial(groups, protocol.readout_probability(k * delta_phi, "quadrature"))
    return protocol.readout_phase(hits, groups, "quadrature", k)


def _empirical_std(delta_phi, k, budget, repetitions, seed, det):
    rng = derive(seed, DOMAIN_SCALING, k, budget)
    return float(_estimate_batch(delta_phi, budget, repetitions, det, rng, k).std(ddof=1))


def electrons_to_target_std(
    delta_phi: float,
    k: int,
    target_std: float,
    repetitions: int,
    seed: int,
    det: DetectorModel,
) -> ScalingRow:
    """Measure the entangled budget at which the estimate spread hits target_std.

    Doubles the budget until the empirical standard deviation over
    `repetitions` independent estimates drops below target, then
    bisects in log space to about 3%.  The search never assumes the
    1/sqrt(k N) law it is used to test.  Each probed budget draws all its
    repetitions from one stream, derive(seed, DOMAIN_SCALING, k, budget).
    """
    _require_unambiguous(k, delta_phi)
    probes: list[tuple[int, float]] = []

    budget = max(4 * k, 16)
    std = _empirical_std(delta_phi, k, budget, repetitions, seed, det)
    probes.append((budget, std))
    while std > target_std:
        if budget > 10**9:
            raise PreconditionError("target spread unreachable below 1e9 electrons")
        budget *= 2
        std = _empirical_std(delta_phi, k, budget, repetitions, seed, det)
        probes.append((budget, std))

    lo, hi = budget // 2, budget
    achieved = std
    if probes[0][0] == hi:  # already below target at the starting budget
        lo = max(k, hi // 2)
    while hi > lo + 1 and hi / lo > 1.03:
        mid = int(round(math.sqrt(lo * hi)))
        std = _empirical_std(delta_phi, k, mid, repetitions, seed, det)
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
    return DoseScalingResult(rows=rows, slope=slope, slope_stderr=slope_stderr, intercept=intercept)


# ---------------------------------------------------------------------------
# synthetic specimens and imaging


class SpecimenMap:
    """Ground-truth phase grid plus the (S0, S1) region pairs to compare.

    Building one rejects an empty region, overlapping regions and an index outside the map.
    """

    def __init__(self, phase: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray]]):
        self.phase = np.asarray(phase, dtype=float)
        if self.phase.ndim != 2:
            raise ValueError("phase map must be 2-D")
        self.pairs = [
            (np.asarray(s0, dtype=np.int64).ravel(), np.asarray(s1, dtype=np.int64).ravel())
            for s0, s1 in pairs
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

    def paint(self, values) -> np.ndarray:
        """Each pair's value over its two regions, NaN elsewhere; a NaN value keeps what another pair painted."""
        out = np.full(self.phase.size, np.nan)
        for (s0, s1), value in zip(self.pairs, values, strict=True):
            if not math.isnan(value):
                out[s0] = out[s1] = value
        return out.reshape(self.phase.shape)


def make_checkerboard(shape: int, tile: int, delta_phi: float) -> SpecimenMap:
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


class ImageScanResult(NamedTuple):
    """One mode's repeated scans: the pooled error and dose, and the last scan's per-pair estimates."""

    true_values: np.ndarray
    estimates: np.ndarray
    std_errors: np.ndarray
    rmse: float
    total_dose: int
    boundary_discards: int
    incomplete: bool


def image_scan(
    spec: SpecimenMap,
    mode: str,
    per_pair_budget: int,
    det: DetectorModel,
    seed: int,
    *,
    k: int,
    total_budget: int | None,
    repetitions: int,
) -> ImageScanResult:
    """Scan every pair `repetitions` times and pool the squared error against ground truth.

    Each pair gets `per_pair_budget` electrons.  A `total_budget` cap on
    each scan (None for none) can cut it short, leaving NaN estimates and
    the incomplete flag.  Scan r draws pair i from
    derive(seed, DOMAIN_IMAGE, mode_id, r, i).
    """
    mode_id = MODES.index(mode)
    n = len(spec.pairs)
    true_values = np.array([spec.pair_delta_phi(i) for i in range(n)])
    sq_sum = 0.0
    count = 0
    spent = 0
    discards = 0
    incomplete = False
    for r in range(repetitions):
        estimates = np.full(n, np.nan)
        std_errors = np.full(n, np.nan)
        scan_spent = 0
        for i in range(n):
            if total_budget is not None and scan_spent + per_pair_budget > total_budget:
                incomplete = True
                break
            rng = derive(seed, DOMAIN_IMAGE, mode_id, r, i)
            res = estimate_phase(mode, true_values[i], per_pair_budget, det, rng, k=k)
            estimates[i] = res.estimate
            std_errors[i] = res.std_error
            scan_spent += res.electrons_used
            discards += res.boundary_discards
        done = ~np.isnan(estimates)
        sq_sum += float(np.sum((estimates[done] - true_values[done]) ** 2))
        count += int(done.sum())
        spent += scan_spent
    return ImageScanResult(
        true_values=true_values,
        estimates=estimates,
        std_errors=std_errors,
        rmse=math.sqrt(sq_sum / count) if count else float("nan"),
        total_dose=spent,
        boundary_discards=discards,
        incomplete=incomplete,
    )
