"""Command-line front end: deterministic experiment runs with file output.

Subcommands: design | optics | protocol | image | scaling.  Every run
writes its outputs plus a manifest (effective config, its hash, the
seed, statistics, and SHA-256 of each file) into --out.  Identical
config and seed reproduce the output tree bit-exactly.  --check
evaluates the command's quantitative contracts and encodes the verdict
in the exit code.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import detector as det_mod
from . import device, estimator, fileio, optics, protocol
from .config import RunConfig, load_config
from .constants import CODATA
from .errors import ConfigError, FluxTemError
from .streams import DOMAIN_PROTOCOL, derive

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CHECK_FAILED = 4


class CheckFailure(Exception):
    """One or more --check contracts failed."""


def optics_config(cfg: RunConfig) -> optics.OpticsConfig:
    """The beam-path geometry of a run; `config.SCHEMA` holds its only defaults."""
    mask = optics.MaskSpec(
        inner_radius=cfg["mask.inner_radius"],
        outer_radius=cfg["mask.outer_radius"],
        gap_angles=tuple(cfg["mask.gap_angles"]),
        gap_width=cfg["mask.gap_width"],
        disc_radius=cfg["mask.disc_radius"],
    )
    ring = optics.RingSpec(
        ring_inner=cfg["ring.inner"],
        ring_outer=cfg["ring.outer"],
        flux_fraction=cfg["ring.flux_fraction"],
        turns=cfg["ring.turns"],
    )
    return optics.OpticsConfig(
        n=cfg["optics.n"],
        pitch=cfg["optics.pitch"],
        mask=mask,
        ring=ring,
        aperture_radius=cfg["optics.aperture_radius"],
        balance=cfg["optics.balance"],
        detector_aperture_radius=cfg["optics.detector_aperture_radius"],
        tolerance=cfg["optics.tolerance"],
        dominance_ratio=cfg["optics.dominance_ratio"],
    )


def _detector(cfg: RunConfig) -> det_mod.DetectorModel:
    if cfg["protocol.detector"] == "trivial":
        return det_mod.trivial(cfg["protocol.trivial_pixels"])
    return optics.build_detector(optics_config(cfg))


def _finish(out: Path, cfg: RunConfig, command: str, stats: dict, files: list[Path], checks: list[tuple[str, bool, str]], check_mode: bool) -> None:
    config_file = out / "effective_config.txt"
    config_file.write_text(cfg.canonical_text())
    entries = {"command": command, "config_hash": cfg.config_hash(), "seed": cfg["seed"]}
    entries.update(stats)
    for name, passed, detail in checks:
        entries[f"check.{name}"] = f"{'PASS' if passed else 'FAIL'} ({detail})"
    fileio.write_manifest(out / "manifest.txt", entries, files + [config_file])
    for name, passed, detail in checks:
        print(f"CHECK {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    if check_mode and any(not passed for _, passed, _ in checks):
        raise CheckFailure(", ".join(name for name, passed, _ in checks if not passed))


def cmd_design(cfg: RunConfig, out: Path, check: bool) -> None:
    beam = device.beam_from_energy(cfg["beam.energy"], waist=cfg["beam.waist"])
    if beam.waist <= beam.wavelength:
        # theta_b = lambda / a is a small-angle law: it needs a >> lambda
        raise ConfigError(
            f"beam.waist = {beam.waist!r} m is not larger than the electron wavelength {beam.wavelength!r} m",
            key="beam.waist",
        )
    squid = device.squid_sizing(
        cfg["squid.d"],
        permeability=cfg["squid.mu_r"] * CODATA.mu0,
        log_factor=cfg["squid.log_factor"],
        flux_path_length=cfg["squid.flux_path_length"],
        lateral_size=cfg["squid.lateral_size"],
        turns=cfg["squid.turns"],
    )
    report = device.design_report(
        beam,
        squid,
        group_duration=cfg["timing.group_duration"],
        mqc_frequency=cfg["timing.mqc_frequency"],
        coherence_width=cfg["timing.coherence_width"],
    )
    csv_path = out / "design_report.csv"
    fileio.write_csv(csv_path, ["quantity", "value", "unit"], report.rows)
    txt_path = out / "design_report.txt"
    txt_path.write_text(report.to_text())

    checks = []
    if check:
        ic = report.value("critical_current")
        checks.append(("critical_current_order", 1e-6 <= ic <= 2e-6, f"i_c = {ic:.3e} A"))
        ratio = report.value("theta_ratio")
        checks.append(("deflection_ratio_half", ratio == 0.5, f"theta_d/theta_b = {ratio!r}"))
        td, tl = report.value("theta_d_flux"), report.value("theta_d_lorentz")
        rel = abs(td - tl) / td
        checks.append(("lorentz_consistency", rel <= 1e-12, f"relative gap {rel:.2e}"))
        cr = report.value("charge_to_flux_ratio")
        checks.append(("charge_scheme_weaker", cr <= 0.1, f"charge/flux = {cr:.3e}"))
    stats = {"warnings": len(report.warnings)}
    for i, w in enumerate(report.warnings):
        stats[f"warning.{i}"] = w
    _finish(out, cfg, "design", stats, [csv_path, txt_path], checks, check)


def cmd_optics(cfg: RunConfig, out: Path, check: bool) -> None:
    ocfg = optics_config(cfg)
    # the detector first: its own trace is freed before its four transforms
    det = optics.build_detector(ocfg)
    beam = optics.trace_beam(ocfg)
    map0, map1 = optics.specimen_intensity(beam)
    overlap = abs(optics.branch_overlap(beam))

    files = []
    for name, data in [
        ("mask.pgm", np.abs(beam.mask.grid) ** 2),
        ("qubit_plane.pgm", np.abs(beam.incident.grid) ** 2),
        ("specimen_map0.pgm", map0),
        ("specimen_map1.pgm", map1),
    ]:
        fileio.write_pgm16(out / name, data)
        files.extend([out / name, out / (name + ".txt")])
    det_path = out / "detector.csv"
    det.to_csv(det_path)
    files.append(det_path)

    boundary_frac = det.boundary_power_fraction()
    stats = {
        "boundary_power_fraction": repr(boundary_frac),
        "branch_overlap": repr(overlap),
        "ncc_specimen_maps": repr(optics.normalized_cross_correlation(map0, map1)),
    }
    if boundary_frac > cfg["optics.boundary_power_warn"]:
        stats["warning.detector_quality"] = (
            f"boundary pixels carry {boundary_frac:.3%} of detected power "
            f"(threshold {cfg['optics.boundary_power_warn']:.3%})"
        )

    checks = []
    if check:
        phase = protocol.wrap_angle(ocfg.ring.branch_phase)
        if abs(abs(phase) - math.pi) < 1e-9:
            worst = det.beta_law_deviation()
            checks.append(("beta_law", worst < 1e-6, f"max deviation from {{0, pi}} = {worst:.2e}"))
            peaks = (np.unravel_index(map0.argmax(), map0.shape), np.unravel_index(map1.argmax(), map1.shape))
            ncc = optics.normalized_cross_correlation(map0, map1)
            checks.append(("branch_maps_distinct", ncc < 0.9 and peaks[0] != peaks[1], f"ncc = {ncc:.3f}"))
            if ocfg.balance:
                checks.append(("branch_orthogonality", overlap < 1e-10, f"|<0|1>| = {overlap:.2e}"))
        elif abs(phase) < 1e-9:
            checks.append(("maps_identical_without_flux", np.array_equal(map0, map1), "map0 == map1"))
        checks.append(
            ("boundary_power", boundary_frac <= cfg["optics.boundary_power_warn"], f"{boundary_frac:.3e}")
        )
    _finish(out, cfg, "optics", stats, files, checks, check)


def cmd_protocol(cfg: RunConfig, out: Path, check: bool) -> None:
    det = _detector(cfg)
    plan = protocol.GroupPlan(k=cfg["protocol.k"], delta_phi=cfg["protocol.delta_phi"], sigma0=cfg["protocol.sigma0"])
    basis = cfg["protocol.basis"]
    reps = cfg["protocol.repetitions"]
    seed = cfg["seed"]

    outcome_rows = []
    record_rows = []
    audit_max = 0.0
    outcomes = np.empty(reps, dtype=np.uint8)
    for trial in range(reps):
        rng = derive(seed, DOMAIN_PROTOCOL, trial)
        result = protocol.run_group(plan, det, rng)
        audit_max = max(audit_max, protocol.phase_audit(result, plan))
        qubit = protocol.compensate(result.qubit, result.sum_beta)
        outcome = protocol.measure_qubit(qubit, basis, rng)
        outcomes[trial] = outcome
        outcome_rows.append((trial, result.sum_beta, result.boundary_discards, qubit.relative_phase, outcome))
        for step, rec in enumerate(result.records):
            record_rows.append((trial, step, rec.pixel_index, rec.beta, int(rec.boundary)))

    outcomes_path = out / "outcomes.csv"
    fileio.write_csv(outcomes_path, ["trial", "sum_beta", "boundary_discards", "phase_after_compensation", "outcome"], outcome_rows)
    records_path = out / "records.csv"
    fileio.write_csv(records_path, ["trial", "step", "pixel", "beta_j", "boundary_flag"], record_rows)

    residual = plan.sigma0 + plan.k * plan.delta_phi
    _, p1 = protocol.measurement_probabilities(protocol.prepare_symmetric(residual), basis)
    rate = float(outcomes.mean())
    sigma = math.sqrt(max(p1 * (1.0 - p1), 1e-12) / reps)
    stats = {
        "audit_max_deviation": repr(audit_max),
        "outcome_rate": repr(rate),
        "outcome_rate_expected": repr(p1),
    }
    checks = []
    if check:
        checks.append(("phase_bookkeeping", audit_max < 1e-9, f"max deviation {audit_max:.2e}"))
        pull = abs(rate - p1) / sigma if sigma > 0 else 0.0
        checks.append(("outcome_statistics", pull <= 3.5, f"{pull:.2f} binomial sigma"))
    _finish(out, cfg, "protocol", stats, [outcomes_path, records_path], checks, check)


def _load_specimen(cfg: RunConfig) -> estimator.SpecimenMap:
    if cfg["image.specimen"] == "checkerboard":
        try:
            return estimator.make_checkerboard(cfg["image.shape"], cfg["image.tile"], cfg["image.delta_phi"])
        except ValueError as err:
            shape, tile = cfg["image.shape"], cfg["image.tile"]
            raise ConfigError(f"image.shape = {shape} with image.tile = {tile}: {err}", key="image.shape") from err
    phase_file = cfg["image.phase_file"]
    pairs_file = cfg["image.pairs_file"]
    if phase_file is None or pairs_file is None:
        raise ConfigError("specimen 'files' needs image.phase_file and image.pairs_file", key="image.specimen")
    try:
        if phase_file.endswith(".pgm"):
            phase = fileio.read_scaled_pgm(phase_file)
        else:
            phase = fileio.read_csv_floats(phase_file)
    except (OSError, ValueError, KeyError) as err:
        raise ConfigError(f"cannot load image.phase_file {phase_file!r}: {err}", key="image.phase_file") from err
    try:
        return estimator.SpecimenMap(phase=phase, pairs=fileio.read_pairs_csv(pairs_file, phase.shape[1]))
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot load image.pairs_file {pairs_file!r}: {err}", key="image.pairs_file") from err


def cmd_image(cfg: RunConfig, out: Path, check: bool) -> None:
    spec = _load_specimen(cfg)
    stats = {"pairs": len(spec.pairs)}
    for i, w in enumerate(spec.warnings):
        stats[f"warning.{i}"] = w
        print(f"warning: {w}", file=sys.stderr)
    if not spec.pairs:
        print("warning: empty pair list, nothing to scan", file=sys.stderr)
        _finish(out, cfg, "image", stats, [], [], check)
        return
    det = _detector(cfg)
    k = cfg["image.k"]
    budget = cfg["image.budget"]
    reps = cfg["image.repetitions"]
    seed = cfg["seed"]
    total_budget = cfg["image.total_budget"]

    files = []
    stats["repetitions"] = reps
    rmse_rows = []
    pooled = {}
    for mode, mode_k in (("conventional", 1), ("entangled", k)):
        sq_sum = 0.0
        count = 0
        dose = 0
        discards = 0
        incomplete = False
        last = None
        for rep in range(reps):
            scan = estimator.image_scan(
                spec, mode, budget, det, seed, k=mode_k, total_budget=total_budget, scan_index=rep
            )
            done = ~np.isnan(scan.estimates)
            sq_sum += float(np.sum((scan.estimates[done] - scan.true_values[done]) ** 2))
            count += int(done.sum())
            dose += scan.total_dose
            discards += scan.boundary_discards
            incomplete |= scan.incomplete
            last = scan
        rmse = math.sqrt(sq_sum / count) if count else float("nan")
        pooled[mode] = rmse
        rmse_rows.append((mode, mode_k, rmse, dose, discards, int(incomplete)))
        stats[f"dose.{mode}"] = dose
        stats[f"incomplete.{mode}"] = incomplete
        map_csv = out / f"estimate_map_{mode}.csv"
        fileio.write_csv(
            map_csv,
            ["pair", "true_delta_phi", "estimate", "std_error"],
            zip(range(len(spec.pairs)), last.true_values.tolist(), last.estimates.tolist(), last.std_errors.tolist()),
        )
        files.append(map_csv)
        map_pgm = out / f"estimate_map_{mode}.pgm"
        fileio.write_pgm16(map_pgm, last.painted_map())
        files.extend([map_pgm, Path(str(map_pgm) + ".txt")])

    rmse_path = out / "rmse_table.csv"
    fileio.write_csv(rmse_path, ["mode", "k", "rmse", "total_dose", "boundary_discards", "incomplete"], rmse_rows)
    files.append(rmse_path)
    stats["rmse.conventional"] = repr(pooled["conventional"])
    stats["rmse.entangled"] = repr(pooled["entangled"])

    checks = []
    if check:
        ratio = pooled["entangled"] / pooled["conventional"]
        target = 1.0 / math.sqrt(k)
        ok = abs(ratio - target) <= 0.2 * target
        checks.append(("rmse_ratio", ok, f"ratio {ratio:.4f} vs 1/sqrt(k) = {target:.4f}"))
    _finish(out, cfg, "image", stats, files, checks, check)


def cmd_scaling(cfg: RunConfig, out: Path, check: bool) -> None:
    result = estimator.dose_scaling_experiment(
        cfg["scaling.delta_phi"],
        [int(k) for k in cfg["scaling.k_list"]],
        cfg["scaling.target_std"],
        cfg["scaling.repetitions"],
        cfg["seed"],
    )
    table_path = out / "scaling_table.csv"
    fileio.write_csv(
        table_path,
        ["k", "electrons", "achieved_std"],
        [(row.k, row.electrons, row.achieved_std) for row in result.rows],
    )
    probes_path = out / "scaling_probes.csv"
    fileio.write_csv(
        probes_path,
        ["k", "budget", "std"],
        [(row.k, b, s) for row in result.rows for b, s in row.probes],
    )
    stats = {"target_std": repr(result.target_std), "repetitions": result.repetitions}
    if result.slope is not None:
        stats["slope"] = repr(result.slope)
        stats["intercept"] = repr(result.intercept)
        if result.slope_stderr is not None:
            stats["slope_stderr"] = repr(result.slope_stderr)
    checks = []
    if check and result.slope is not None:
        ok = abs(result.slope + 1.0) <= 0.1
        checks.append(("dose_scaling_slope", ok, f"slope {result.slope:.4f} (want -1 +- 0.1)"))
    _finish(out, cfg, "scaling", stats, [table_path, probes_path], checks, check)


_COMMANDS = {
    "design": cmd_design,
    "optics": cmd_optics,
    "protocol": cmd_protocol,
    "image": cmd_image,
    "scaling": cmd_scaling,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fluxtem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", type=Path, default=None, help="output directory (default: ./<command>_out)")
        p.add_argument("--check", action="store_true", help="evaluate quantitative contracts; exit 4 on failure")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.set)
        if args.seed is not None:
            cfg.set_raw("seed", str(args.seed))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    out = args.out if args.out is not None else Path(f"{args.command}_out")
    out.mkdir(parents=True, exist_ok=True)
    try:
        _COMMANDS[args.command](cfg, out, args.check)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckFailure as err:
        print(f"check failed: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except FluxTemError as err:
        print(f"precondition error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
