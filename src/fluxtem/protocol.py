"""State-vector simulation of the entanglement-assisted measurement cycle.

One cycle sends a probe electron through the column: the electron
entangles with a two-level flux qubit, picks up the specimen phase
difference on one branch, and is detected in the far field.  Detection
at pixel j kicks the qubit's relative phase by the known angle beta_j.
Entanglement copies the qubit's branch index onto the electron, so the
electron-qubit amplitude table stays diagonal, c[q][q], and a group is
simulated on the qubit's two amplitudes alone (`run_group`).  Repeating
the cycle k times without resetting the qubit accumulates

    relative phase = sigma_0 + sum(beta_j) + k * delta_phi

exactly; the known sum(beta_j) is then cancelled classically and the
qubit is read out.  Everything here is a pure function of its inputs
plus an explicit random generator, so independent trials parallelize
trivially (see `streams`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .detector import DetectorModel
from .errors import InvalidStateError

TWO_PI = 2.0 * math.pi

Basis = Literal["symmetric_antisymmetric", "quadrature"]

BASES = ("symmetric_antisymmetric", "quadrature")

NORM_TOL = 1e-12

# A group that draws more boundary pixels than this is treated as stuck.
MAX_DISCARDS = 100_000


def wrap_angle(x):
    """Reduce an angle (scalar or array) to the representative in (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(x - TWO_PI * np.round(x / TWO_PI))
    r[r <= -math.pi] += TWO_PI
    return float(r) if r.ndim == 0 else r


@dataclass(frozen=True)
class QubitState:
    """Normalized two-amplitude flux-qubit state.

    The observable content is the relative phase arg(amp1) - arg(amp0).
    """

    amp0: complex
    amp1: complex

    def __post_init__(self):
        object.__setattr__(self, "amp0", complex(self.amp0))
        object.__setattr__(self, "amp1", complex(self.amp1))

    def norm_sq(self) -> float:
        return abs(self.amp0) ** 2 + abs(self.amp1) ** 2

    def require_normalized(self, tol: float = NORM_TOL) -> None:
        if not math.isfinite(self.norm_sq()) or abs(self.norm_sq() - 1.0) > tol:
            raise InvalidStateError(f"qubit norm^2 = {self.norm_sq()!r} is not 1 within {tol}")

    @property
    def relative_phase(self) -> float:
        """arg(amp1) - arg(amp0), wrapped to (-pi, pi]."""
        return wrap_angle(cmath.phase(self.amp1) - cmath.phase(self.amp0))


@dataclass(frozen=True)
class DetectionRecord:
    """One far-field detection: pixel index, its beta, and whether it was a discarded boundary draw."""

    pixel_index: int
    beta: float
    boundary: bool = False


@dataclass(frozen=True)
class GroupPlan:
    """Parameters of one k-electron group: size, specimen phase, initial sigma."""

    k: int
    delta_phi: float
    sigma0: float = 0.0

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"group size k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        if not (-math.pi < self.delta_phi <= math.pi):
            raise ValueError(f"delta_phi must lie in (-pi, pi], got {self.delta_phi!r}")
        if not math.isfinite(self.sigma0):
            raise ValueError("sigma0 must be finite")


@dataclass
class GroupResult:
    """Output of `run_group`: final qubit, accumulated beta, and the event log."""

    qubit: QubitState
    sum_beta: float
    records: list[DetectionRecord] = field(default_factory=list)
    boundary_discards: int = 0


def prepare_symmetric(sigma: float) -> QubitState:
    """Prepare (e^{-i sigma/2}|0> + e^{+i sigma/2}|1>)/sqrt(2)."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    inv = 1.0 / math.sqrt(2.0)
    return QubitState(cmath.exp(-0.5j * sigma) * inv, cmath.exp(0.5j * sigma) * inv)


def run_group(plan: GroupPlan, det: DetectorModel, rng: np.random.Generator) -> GroupResult:
    """Send k electrons through specimen -> far-field detection on one qubit.

    The group carries only the qubit amplitudes (c0, c1).  For each
    electron the specimen multiplies them by e^{-i delta_phi/2} and
    e^{+i delta_phi/2}; a pixel is drawn from the Born rule
    P(j) = w0 |a_j|^2 + w1 |b_j|^2 with w_q = |c_q|^2; detection at pixel j
    leaves (a_j c0, b_j c1), renormalized, which kicks the relative phase
    by beta_j.  The final relative phase is therefore
    sigma0 + sum(beta_j) + k*delta_phi exactly (up to floating point).
    A boundary draw is logged, counted as a discard and drawn again.
    """
    if det.boundary_power_fraction() >= 1.0:
        raise InvalidStateError("detector has no non-boundary power; discarding boundary draws cannot terminate")
    qubit = prepare_symmetric(plan.sigma0)
    # the rotation stays a numpy array product: numpy's complex multiply
    # rounds differently from Python's, and the output hashes pin numpy's
    kick = np.array([cmath.exp(-0.5j * plan.delta_phi), cmath.exp(0.5j * plan.delta_phi)])
    amps = np.array([qubit.amp0, qubit.amp1])
    result = GroupResult(qubit=qubit, sum_beta=0.0)
    for _ in range(plan.k):
        c0, c1 = amps * kick
        w0, w1 = abs(c0) ** 2, abs(c1) ** 2
        norm_sq = w0 + w1
        if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > NORM_TOL:
            raise InvalidStateError(f"qubit norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")
        if abs(w0 - w1) <= 1e-12:
            cum = det.equal_weight_cumulative
        else:
            cum = np.cumsum(w0 * det.power_a + w1 * det.power_b)
            cum /= cum[-1]
            cum[-1] = 1.0
        while True:
            pixel = int(np.searchsorted(cum, rng.random(), side="right"))
            beta = float(det.beta[pixel])
            if not det.boundary_mask[pixel]:
                break
            result.boundary_discards += 1
            result.records.append(DetectionRecord(pixel, beta, boundary=True))
            if result.boundary_discards > MAX_DISCARDS:
                raise InvalidStateError(f"exceeded {MAX_DISCARDS} boundary discards in one group")
        amp0, amp1 = det.a[pixel] * c0, det.b[pixel] * c1
        norm = math.hypot(abs(amp0), abs(amp1))
        if norm == 0.0:
            raise InvalidStateError(f"pixel {pixel} has zero detection amplitude")
        # np.complex128 / float: Python's complex division rounds differently
        amps = np.array([amp0 / norm, amp1 / norm])
        result.records.append(DetectionRecord(pixel, beta))
        result.sum_beta += beta
    result.qubit = QubitState(*amps)
    return result


def compensate(qubit: QubitState, sum_beta: float) -> QubitState:
    """Rotate the relative phase down by `sum_beta` (the known detection kicks)."""
    return QubitState(
        qubit.amp0 * cmath.exp(+0.5j * sum_beta),
        qubit.amp1 * cmath.exp(-0.5j * sum_beta),
    )


def phase_audit(result: GroupResult, plan: GroupPlan) -> float:
    """Absolute deviation of the final relative phase from the bookkeeping law."""
    predicted = plan.sigma0 + result.sum_beta + plan.k * plan.delta_phi
    return abs(wrap_angle(result.qubit.relative_phase - predicted))


def readout_probability(phase):
    """P(plus) = (1 + sin phase)/2 in the quadrature basis, for an equal-modulus qubit (scalar or array)."""
    return 0.5 * (1.0 + np.sin(phase))


def measurement_probabilities(qubit: QubitState, basis: Basis) -> tuple[float, float]:
    """Outcome probabilities (P(0), P(1)) for the requested readout basis.

    Outcome 1 means `antisymmetric` in the symmetric_antisymmetric basis
    and `plus` in the quadrature basis {(|0> +- i|1>)/sqrt(2)}.  For the
    canonical equal-modulus states these evaluate to sin^2(sigma/2) and
    (1 + sin sigma)/2.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    qubit.require_normalized()
    rho01 = qubit.amp0 * qubit.amp1.conjugate()
    if basis == "symmetric_antisymmetric":
        p1 = 0.5 - rho01.real
    else:
        p1 = 0.5 - rho01.imag
    p1 = min(1.0, max(0.0, p1))
    return 1.0 - p1, p1


def measure_qubit(qubit: QubitState, basis: Basis, rng: np.random.Generator) -> int:
    """Sample one readout outcome bit (see `measurement_probabilities`)."""
    _, p1 = measurement_probabilities(qubit, basis)
    return int(rng.random() < p1)


def conventional_probability(delta_phi: float) -> float:
    """P(antisymmetric) = sin^2(delta_phi / 2) for an unentangled electron."""
    return math.sin(0.5 * delta_phi) ** 2


def conventional_trials(delta_phi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Outcomes of `n` unentangled electrons read out in the symmetric/antisymmetric basis (uint8)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return (rng.random(n) < conventional_probability(delta_phi)).astype(np.uint8)


def draw_good_pixels(
    det: DetectorModel,
    need: int,
    rng: np.random.Generator,
    budget: int | None = None,
) -> tuple[np.ndarray, int, int]:
    """Draw detector pixels until `need` non-boundary hits (or budget runs out).

    Samples the equal-branch-weight Born distribution; boundary hits are
    discarded and resampled.  Returns (good pixel indices in draw order,
    electrons drawn including discards, discard count).  Consumes exactly
    as many draws as a sequential collapse loop would.
    """
    if need < 0:
        raise ValueError("need must be non-negative")
    if det.boundary_power_fraction() >= 1.0:
        raise InvalidStateError("detector has no non-boundary power")
    cum = det.equal_weight_cumulative
    boundary = det.boundary_mask
    good_pixels = np.empty(need, dtype=np.int64)
    got = 0
    used = 0
    while got < need and (budget is None or used < budget):
        chunk = need - got if budget is None else min(need - got, budget - used)
        draws = np.searchsorted(cum, rng.random(chunk), side="right")
        good = ~boundary[draws]
        n_good = int(good.sum())
        if n_good > need - got:
            # trim to the draw that completed the last needed electron,
            # exactly where a sequential consumer would have stopped
            stop = int(np.searchsorted(np.cumsum(good), need - got)) + 1
            draws = draws[:stop]
            good = good[:stop]
            n_good = need - got
        good_pixels[got : got + n_good] = draws[good]
        got += n_good
        used += draws.size
    return good_pixels[:got], used, used - got


@dataclass
class GroupBatchResult:
    """Vectorized multi-group run: outcomes, per-group phases and dose accounting."""

    outcomes: np.ndarray
    phases: np.ndarray
    sum_beta: np.ndarray
    groups: int
    electrons_used: int
    boundary_discards: int


def simulate_groups(
    plan: GroupPlan,
    det: DetectorModel,
    n_groups: int,
    rng: np.random.Generator,
    *,
    budget: int | None = None,
) -> GroupBatchResult:
    """Vectorized equivalent of run_group + compensate + measure_qubit in the quadrature basis.

    Valid for the states this protocol produces (equal branch moduli
    throughout, which holds because every operation is phase-only on the
    two branches), so the pixel distribution is fixed and groups decouple
    into independent draws.  Statistically identical to looping the
    scalar path; random streams are consumed in a different order, so
    the two paths are not bit-identical for the same generator.

    `budget` caps total electrons drawn including boundary discards;
    incomplete trailing groups are dropped from the statistics but their
    electrons stay spent.
    """
    if n_groups < 0:
        raise ValueError("n_groups must be non-negative")

    good_pixels, used, discards = draw_good_pixels(det, n_groups * plan.k, rng, budget=budget)
    completed = good_pixels.size // plan.k
    pix = good_pixels[: completed * plan.k].reshape(completed, plan.k)
    sum_beta = det.beta[pix].sum(axis=1)
    # compensation subtracts the recorded kicks after detection added them;
    # the phases keep the rounding of that add-then-subtract
    phases = plan.sigma0 + sum_beta + plan.k * plan.delta_phi - sum_beta
    p1 = readout_probability(phases)
    outcomes = (rng.random(completed) < p1).astype(np.uint8)
    return GroupBatchResult(
        outcomes=outcomes,
        phases=phases,
        sum_beta=sum_beta,
        groups=completed,
        electrons_used=used,
        boundary_discards=discards,
    )
