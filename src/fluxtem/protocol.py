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
qubit is read out.  The qubit is Python complex and float scalars from
preparation to readout, so each operation rounds once, as CPython
rounds it, and the bytes do not depend on numpy's SIMD dispatch.
Everything here is a pure function of its inputs plus an explicit
random generator, so independent trials parallelize trivially (see
`streams`): the CLI runs them on every CPU through
`fileio.write_csv_parts`, each part streaming its trials' records into
`records.csv` and returning their outcome rows.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .detector import DetectorModel, wrap_angle
from .errors import PreconditionError

NORM_TOL = 1e-12

# A group that draws more boundary pixels than this is treated as stuck.
MAX_DISCARDS = 100_000


def _require_unit_norm(norm_sq: float) -> None:
    """Raise PreconditionError unless a qubit's norm^2 is finite and 1 within NORM_TOL."""
    if not math.isfinite(norm_sq) or abs(norm_sq - 1.0) > NORM_TOL:
        raise PreconditionError(f"qubit norm^2 = {norm_sq!r} is not 1 within {NORM_TOL}")


def _draw_pixel(det: DetectorModel, u: float, w0: float, w1: float) -> int:
    """The pixel that uniform u in [0, 1) draws from the Born law P(j) ~ w0 |a_j|^2 + w1 |b_j|^2.

    P = (2 min(w0, w1) Q + |w0 - w1| H) / (w0 + w1) exactly, for the equal-weight law Q and the heavier
    branch's law H: u picks the component, then the pixel.  Rounding can carry H's coordinate to 1, so
    it is capped at H's last pixel with mass, where H's cumulative first reaches 1.
    """
    t, shared = u * (w0 + w1), 2.0 * min(w0, w1)
    if t < shared:
        return int(det.equal_weight_cumulative.searchsorted(t / shared, side="right"))
    cum = det.branch_cumulatives[int(w1 > w0)]
    return min(int(cum.searchsorted((t - shared) / abs(w0 - w1), side="right")), int(cum.searchsorted(1.0)))


class QubitState(NamedTuple):
    """Normalized two-amplitude flux-qubit state.

    The observable content is the relative phase arg(amp1) - arg(amp0).
    """

    amp0: complex
    amp1: complex

    def norm_sq(self) -> float:
        return abs(self.amp0) ** 2 + abs(self.amp1) ** 2

    def require_normalized(self) -> None:
        _require_unit_norm(self.norm_sq())

    @property
    def relative_phase(self) -> float:
        """arg(amp1) - arg(amp0), wrapped to (-pi, pi]."""
        return wrap_angle(cmath.phase(self.amp1) - cmath.phase(self.amp0))


class GroupPlan(NamedTuple):
    """Parameters of one k-electron group: size, specimen phase, initial sigma."""

    k: int
    delta_phi: float
    sigma0: float = 0.0


class GroupResult(NamedTuple):
    """Output of `run_group`: final qubit, accumulated beta, and (pixel, beta_j, boundary_flag) records."""

    qubit: QubitState
    sum_beta: float
    records: list[tuple[int, float, int]]
    boundary_discards: int


def prepare_symmetric(sigma: float) -> QubitState:
    """Prepare (e^{-i sigma/2}|0> + e^{+i sigma/2}|1>)/sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return QubitState(cmath.exp(-0.5j * sigma) * inv, cmath.exp(0.5j * sigma) * inv)


def run_group(plan: GroupPlan, det: DetectorModel, rng: np.random.Generator) -> GroupResult:
    """Send k electrons through specimen -> far-field detection on one qubit.

    The group carries only the qubit amplitudes (c0, c1), as Python
    complex scalars.  For each electron the specimen multiplies them by
    e^{-i delta_phi/2} and e^{+i delta_phi/2}; a pixel is drawn from the Born
    rule P(j) = w0 |a_j|^2 + w1 |b_j|^2 with w_q = |c_q|^2 (`_draw_pixel`); detection
    at pixel j leaves (a_j c0, b_j c1), renormalized, which kicks the
    relative phase by beta_j.  The final relative phase is therefore
    sigma0 + sum(beta_j) + k*delta_phi exactly (up to floating point).
    Each float operation rounds once, as CPython rounds it, so the
    amplitudes do not depend on numpy's SIMD dispatch.  A boundary draw
    is logged, counted as a discard and drawn again.

    Stream contract: the first k draws come from one `rng.random(k)` block,
    and every draw, discards included, takes the next value in stream
    order, so a group with d discards consumes the stream's first k + d draws.
    """
    if det.boundary_power_fraction() >= 1.0:
        raise PreconditionError("detector has no non-boundary power; discarding boundary draws cannot terminate")
    qubit = prepare_symmetric(plan.sigma0)
    c0, c1 = qubit.amp0, qubit.amp1
    k0, k1 = cmath.exp(-0.5j * plan.delta_phi), cmath.exp(0.5j * plan.delta_phi)
    # ndarray.item reads one pixel as a Python scalar; a .tolist() copy of
    # the columns would hold megabytes of objects on a large detector
    beta_at, boundary_at, a_at, b_at = det.beta.item, det.boundary_mask.item, det.a.item, det.b.item
    # reversed, so that pop() hands the block out first-in, first-out
    uniforms = rng.random(plan.k).tolist()[::-1]
    records = []
    sum_beta = 0.0
    discards = 0
    for _ in range(plan.k):
        c0, c1 = c0 * k0, c1 * k1
        w0, w1 = abs(c0) ** 2, abs(c1) ** 2
        _require_unit_norm(w0 + w1)
        while True:
            pixel = _draw_pixel(det, uniforms.pop() if uniforms else rng.random(), w0, w1)
            beta = beta_at(pixel)
            if not boundary_at(pixel):
                break
            discards += 1
            records.append((pixel, beta, 1))
            if discards > MAX_DISCARDS:
                raise PreconditionError(f"exceeded {MAX_DISCARDS} boundary discards in one group")
        amp0, amp1 = a_at(pixel) * c0, b_at(pixel) * c1
        norm = math.hypot(abs(amp0), abs(amp1))
        if norm == 0.0:
            raise PreconditionError(f"pixel {pixel} has zero detection amplitude")
        inv = 1.0 / norm
        c0, c1 = amp0 * inv, amp1 * inv
        records.append((pixel, beta, 0))
        sum_beta += beta
    return GroupResult(QubitState(c0, c1), sum_beta, records, discards)


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


def readout_probability(phase, basis: str):
    """P(outcome 1) of an equal-modulus qubit of relative phase `phase` (scalar or array).

    (1 + sin phase)/2 in the quadrature basis and sin^2(phase/2) in the
    symmetric/antisymmetric basis: `measurement_probabilities` in closed
    form for the states `prepare_symmetric` makes.
    """
    if basis == "quadrature":
        return 0.5 * (1.0 + np.sin(phase))
    # np.square, not ** 2: a numpy scalar's ** 2 calls pow, which rounds unlike an array's x * x
    return np.square(np.sin(0.5 * phase))


def readout_phase(hits, trials, basis: str, k: int):
    """Maximum-likelihood phase from `hits` outcomes 1 in `trials` readouts of k-electron groups.

    The inverse of `readout_probability` inside |k phase| <= pi/2 (quadrature) or 0 <= k phase <= pi
    (symmetric/antisymmetric, sign unresolved); one numpy expression, so a scalar count and an array
    of counts get the same bits.
    """
    if basis == "quadrature":
        return np.arcsin(np.clip(2.0 * hits / trials - 1.0, -1.0, 1.0)) / k
    return 2.0 * np.arcsin(np.sqrt(hits / trials)) / k


def measurement_probabilities(qubit: QubitState, basis: str) -> tuple[float, float]:
    """Outcome probabilities (P(0), P(1)) for the requested readout basis.

    Outcome 1 means `antisymmetric` in the symmetric_antisymmetric basis
    and `plus` in the quadrature basis {(|0> +- i|1>)/sqrt(2)};
    `readout_probability` is its closed form for equal moduli.
    """
    qubit.require_normalized()
    rho01 = qubit.amp0 * qubit.amp1.conjugate()
    if basis == "symmetric_antisymmetric":
        p1 = 0.5 - rho01.real
    else:
        p1 = 0.5 - rho01.imag
    p1 = min(1.0, max(0.0, p1))
    return 1.0 - p1, p1


def measure_qubit(qubit: QubitState, basis: str, rng: np.random.Generator) -> int:
    """Sample one readout outcome bit (see `measurement_probabilities`)."""
    _, p1 = measurement_probabilities(qubit, basis)
    return int(rng.random() < p1)


def conventional_trials(delta_phi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Outcomes of `n` unentangled electrons read out in the symmetric/antisymmetric basis (uint8)."""
    return (rng.random(n) < readout_probability(delta_phi, "symmetric_antisymmetric")).astype(np.uint8)


def draw_good_pixels(
    det: DetectorModel,
    need: int,
    rng: np.random.Generator,
    budget: int,
) -> tuple[np.ndarray, int, int]:
    """Draw detector pixels until `need` non-boundary hits or `budget` draws.

    Samples the equal-weight Born law, `_draw_pixel`'s mapping at equal
    weights; boundary hits are discarded and resampled.  Returns (good pixel
    indices in draw order, electrons drawn including discards, discard
    count).  Each round draws no more electrons than are still needed, so it
    consumes exactly as many draws as a sequential collapse loop would.
    """
    if det.boundary_power_fraction() >= 1.0:
        raise PreconditionError("detector has no non-boundary power")
    cum = det.equal_weight_cumulative
    boundary = det.boundary_mask
    good_pixels = np.empty(need, dtype=np.int64)
    got = 0
    used = 0
    while got < need and used < budget:
        draws = np.searchsorted(cum, rng.random(min(need - got, budget - used)), side="right")
        good = ~boundary[draws]
        n_good = int(good.sum())
        good_pixels[got : got + n_good] = draws[good]
        got += n_good
        used += draws.size
    return good_pixels[:got], used, used - got


class GroupBatchResult(NamedTuple):
    """Vectorized multi-group run: outcomes and dose accounting."""

    outcomes: np.ndarray
    groups: int
    electrons_used: int
    boundary_discards: int


def simulate_groups(
    plan: GroupPlan,
    det: DetectorModel,
    n_groups: int,
    rng: np.random.Generator,
    *,
    budget: int,
) -> GroupBatchResult:
    """Vectorized equivalent of run_group + compensate + measure_qubit in the quadrature basis.

    Valid for the states this protocol produces (equal branch moduli
    throughout, which holds because every operation is phase-only on the
    two branches), so the pixel distribution is fixed and groups decouple
    into independent draws.  Compensation cancels the recorded kicks, so
    every group reads out sigma0 + k*delta_phi: one readout probability,
    from Python floats, whatever numpy's SIMD dispatch.  The pixels are
    drawn only for the dose and the boundary discards.  Statistically
    identical to looping the scalar path; random streams are consumed in
    a different order, so the two paths are not bit-identical for the
    same generator.

    `budget` caps total electrons drawn including boundary discards;
    incomplete trailing groups are dropped from the statistics but their
    electrons stay spent.
    """
    good_pixels, used, discards = draw_good_pixels(det, n_groups * plan.k, rng, budget=budget)
    completed = good_pixels.size // plan.k
    p1 = readout_probability(plan.sigma0 + plan.k * plan.delta_phi, "quadrature")
    outcomes = (rng.random(completed) < p1).astype(np.uint8)
    return GroupBatchResult(
        outcomes=outcomes,
        groups=completed,
        electrons_used=used,
        boundary_discards=discards,
    )
