"""Command-line front end: deterministic experiment runs with file output.

Subcommands: design | optics | protocol | image | scaling.  Every run
writes its outputs plus a manifest (effective config, its hash, the
seed, statistics, and SHA-256 of each file) into --out.  Identical
config and seed reproduce the output tree bit-exactly.  --check
evaluates the command's quantitative contracts and encodes the verdict
in the exit code.  The command line (`main_entry`) ends with a hard
exit, skipping the interpreter's teardown; callers inside Python use
`main`, which returns the exit code.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import detector as det_mod
from . import estimator, fileio, optics, protocol
from .config import RunConfig, load_config
from .errors import ConfigError, PreconditionError
from .streams import DOMAIN_PROTOCOL, derive

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CHECK_FAILED = 4

# each boundary draw is a discarded electron, so the boundary power fraction is the
# dose overhead the detector adds; optics warns, and --check fails, above 5%
BOUNDARY_POWER_LIMIT = 0.05


class CheckFailure(Exception):
    """One or more --check contracts failed."""


def _detector(cfg: RunConfig) -> det_mod.DetectorModel:
    if cfg["protocol.detector"] == "trivial":
        return det_mod.trivial()
    # only the Beam is kept, so the trace's two intensities are freed before the detector is built,
    # and build_detector spends it; the chain peaks at 3.7 complex n x n grids, in build_detector
    return optics.build_detector(optics.trace_beam(cfg)[2])


def _finish(out: Path, cfg: RunConfig, command: str, stats: dict, files: list[Path], checks: list[tuple[str, bool, str]], check_mode: bool) -> None:
    config_file = out / "effective_config.txt"
    config_file.write_text(cfg.canonical_text())
    entries = {"command": command, "config_hash": cfg.config_hash(), "seed": cfg["seed"]}
    entries.update(stats)
    for name, passed, detail in checks:
        entries[f"check.{name}"] = f"{'PASS' if passed else 'FAIL'} ({detail})"
    fileio.write_manifest(out / "manifest.txt", entries, files + [config_file])
    for name, value in stats.items():
        if name.startswith("warning."):
            print(f"warning: {value}", file=sys.stderr)
    for name, passed, detail in checks:
        print(f"CHECK {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    if check_mode and any(not passed for _, passed, _ in checks):
        raise CheckFailure(", ".join(name for name, passed, _ in checks if not passed))


def cmd_design(cfg: RunConfig, out: Path, check: bool) -> None:
    # imported on first use, so that no other command compiles it
    from . import device

    try:
        report = device.design_report(cfg)
    except ArithmeticError as err:
        raise ConfigError(f"the design inputs leave the float range: {type(err).__name__}: {err}") from err
    # every row is a positive physical quantity, so it must be a finite normal float
    bad = [name for name, value, _ in report.rows if not sys.float_info.min <= value <= sys.float_info.max]
    if bad:
        raise ConfigError(f"the design inputs leave the float range in {', '.join(bad)}")
    csv_path = out / "design_report.csv"
    fileio.write_csv(csv_path, ["quantity", "value", "unit"], report.rows)
    txt_path = out / "design_report.txt"
    txt_path.write_text(report.to_text())

    checks = []
    if check:
        ic = report.value("critical_current")
        checks.append(("critical_current_order", 1e-6 <= ic <= 2e-6, f"i_c = {ic:.3e} A"))
        ratio = report.value("theta_ratio")
        checks.append(("deflection_ratio_half", abs(ratio - 0.5) <= 1e-12, f"theta_d/theta_b = {ratio!r}"))
        cr = report.value("charge_to_flux_ratio")
        checks.append(("charge_scheme_weaker", cr <= 0.1, f"charge/flux = {cr:.3e}"))
    stats = {"warnings": len(report.warnings)}
    for i, w in enumerate(report.warnings):
        stats[f"warning.{i}"] = w
    _finish(out, cfg, "design", stats, [csv_path, txt_path], checks, check)


def cmd_optics(cfg: RunConfig, out: Path, check: bool) -> None:
    files = []
    mask, ring_plane, beam = optics.trace_beam(cfg)
    files.extend(fileio.write_pgm16(out / "mask.pgm", mask))
    files.extend(fileio.write_pgm16(out / "qubit_plane.pgm", ring_plane))
    del mask, ring_plane
    # the maps come first, because build_detector spends the Beam, and all the verdicts read of
    # them is taken before they are freed.  Writing them beside the Beam is the command's peak,
    # 3.9 complex n x n grids at n = 256; trace_beam peaks at 3.4 and build_detector at 3.7
    map0, map1, overlap = optics.specimen_maps(beam)
    overlap = abs(overlap)
    files.extend(fileio.write_pgm16(out / "specimen_map0.pgm", map0))
    files.extend(fileio.write_pgm16(out / "specimen_map1.pgm", map1))
    ncc = optics.normalized_cross_correlation(map0, map1)
    peaks_differ = np.unravel_index(map0.argmax(), map0.shape) != np.unravel_index(map1.argmax(), map1.shape)
    maps_identical = np.array_equal(map0, map1)
    del map0, map1
    det = optics.build_detector(beam)
    del beam
    det_path = out / "detector.csv"
    det.to_csv(det_path)
    files.append(det_path)

    boundary_frac = det.boundary_power_fraction()
    stats = {
        "boundary_power_fraction": repr(boundary_frac),
        "branch_overlap": repr(overlap),
        "ncc_specimen_maps": repr(ncc),
    }
    if boundary_frac > BOUNDARY_POWER_LIMIT:
        stats["warning.detector_quality"] = (
            f"boundary pixels carry {boundary_frac:.3%} of detected power (threshold {BOUNDARY_POWER_LIMIT:.3%})"
        )

    checks = []
    if check:
        phase = optics.branch_phase(cfg)
        worst = det.beta_law_deviation(phase)
        checks.append(("beta_law", worst < 1e-6, f"max deviation from {{0, {phase:.6f}}} = {worst:.2e}"))
        if abs(abs(phase) - math.pi) < 1e-9:
            checks.append(("branch_maps_distinct", ncc < 0.9 and peaks_differ, f"ncc = {ncc:.3f}"))
            if cfg["optics.balance"]:
                checks.append(("branch_orthogonality", overlap < 1e-10, f"|<0|1>| = {overlap:.2e}"))
        elif abs(phase) < 1e-9:
            checks.append(("maps_identical_without_flux", maps_identical, "map0 == map1"))
        checks.append(("boundary_power", boundary_frac <= BOUNDARY_POWER_LIMIT, f"{boundary_frac:.3e}"))
    # the manifest's first hash loads OpenSSL (~3.6 MB RSS): with the detector freed, it sits under no grid
    del det
    _finish(out, cfg, "optics", stats, files, checks, check)


def cmd_protocol(cfg: RunConfig, out: Path, check: bool) -> None:
    det = _detector(cfg)
    plan = protocol.GroupPlan(k=cfg["protocol.k"], delta_phi=cfg["protocol.delta_phi"], sigma0=cfg["protocol.sigma0"])
    basis = cfg["protocol.basis"]
    reps = cfg["protocol.repetitions"]
    seed = cfg["seed"]

    # read with the boundary mask and the equal-weight cumulative, so the forked parts inherit all three
    boundary = det.boundary_power_fraction()
    # a group discards k q / (1 - q) draws on average; stop a stuck one before it draws
    discards = plan.k * boundary / (1.0 - boundary) if boundary < 1.0 else math.inf
    if discards > protocol.MAX_DISCARDS:
        raise PreconditionError(
            f"boundary pixels carry {boundary:.6%} of the detected power, so a group of k = {plan.k} expects "
            f"{discards:.3g} discards (limit {protocol.MAX_DISCARDS}); raise optics.tolerance"
        )

    def run_trials(lo, hi, write):
        outcome_rows = []
        audit_max = 0.0

        def record_rows():
            # the trials run as records.csv is written, so only a block of its rows is ever held
            nonlocal audit_max
            for trial in range(lo, hi):
                rng = derive(seed, DOMAIN_PROTOCOL, trial)
                result = protocol.run_group(plan, det, rng)
                audit_max = max(audit_max, protocol.phase_audit(result, plan))
                qubit = protocol.compensate(result.qubit, result.sum_beta)
                outcome = protocol.measure_qubit(qubit, basis, rng)
                outcome_rows.append((trial, result.sum_beta, result.boundary_discards, qubit.relative_phase, outcome))
                for step, rec in enumerate(result.records):
                    yield (trial, step, *rec)

        write(record_rows())
        return outcome_rows, audit_max

    records_path = out / "records.csv"
    outcomes_path = out / "outcomes.csv"
    parts = fileio.write_csv_parts(records_path, ["trial", "step", "pixel", "beta_j", "boundary_flag"], reps, run_trials)
    outcome_rows = [row for rows, _ in parts for row in rows]
    fileio.write_csv(outcomes_path, ["trial", "sum_beta", "boundary_discards", "phase_after_compensation", "outcome"], outcome_rows)
    # a max does not depend on the order of its parts
    audit_max = max(part_max for _, part_max in parts)

    p1 = float(protocol.readout_probability(plan.sigma0 + plan.k * plan.delta_phi, basis))
    # the correctly rounded mean of 0/1 outcomes: the bits of float(np.mean) of their uint8 array
    rate = sum(row[-1] for row in outcome_rows) / reps
    sigma = math.sqrt(max(p1 * (1.0 - p1), 1e-12) / reps)
    stats = {
        "audit_max_deviation": repr(audit_max),
        "outcome_rate": repr(rate),
        "outcome_rate_expected": repr(p1),
    }
    checks = []
    if check:
        checks.append(("phase_bookkeeping", audit_max < 1e-9, f"max deviation {audit_max:.2e}"))
        # on the trivial detector every beta_j is 0, so this verdict does not test compensation there.  Size: no
        # false alarm at seeds 1-200 (largest pull 2.37) on either default detector, whose outcomes are equal
        # seed for seed; a normal pull exceeds 3.5 at a rate of 0.05%
        pull = abs(rate - p1) / sigma
        checks.append(("outcome_statistics", pull <= 3.5, f"{pull:.2f} binomial sigma"))
    # the manifest's first hash loads OpenSSL (~3.6 MB RSS): with the detector freed, it sits under no grid
    del det
    _finish(out, cfg, "protocol", stats, [outcomes_path, records_path], checks, check)


def _load_specimen(cfg: RunConfig) -> estimator.SpecimenMap:
    if cfg["image.specimen"] == "checkerboard":
        try:
            return estimator.make_checkerboard(cfg["image.shape"], cfg["image.tile"], cfg["image.delta_phi"])
        except ValueError as err:
            shape, tile = cfg["image.shape"], cfg["image.tile"]
            raise ConfigError(f"image.shape = {shape} with image.tile = {tile}: {err}") from err
    phase_file = cfg["image.phase_file"]
    pairs_file = cfg["image.pairs_file"]
    if phase_file is None or pairs_file is None:
        raise ConfigError("specimen 'files' needs image.phase_file and image.pairs_file")
    try:
        if phase_file.endswith(".pgm"):
            phase = fileio.read_scaled_pgm(phase_file)
        else:
            phase = fileio.read_csv_floats(phase_file)
        if not np.isfinite(phase).all():
            raise ValueError("the phase map holds a non-finite value")
    except (OSError, ValueError, KeyError) as err:
        raise ConfigError(f"cannot load image.phase_file {phase_file!r}: {err}") from err
    try:
        return estimator.SpecimenMap(phase=phase, pairs=fileio.read_pairs_csv(pairs_file, phase.shape))
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot load image.pairs_file {pairs_file!r}: {err}") from err


def cmd_image(cfg: RunConfig, out: Path, check: bool) -> None:
    spec = _load_specimen(cfg)
    stats = {"pairs": len(spec.pairs)}
    for i, w in enumerate(spec.warnings):
        stats[f"warning.{i}"] = w
    if not spec.pairs:
        stats["warning.pairs"] = "empty pair list, nothing to scan"
        checks = []
        if check:
            checks.append(("rmse_ratio", False, "no pair to scan"))
        _finish(out, cfg, "image", stats, [], checks, check)
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
        scan = estimator.image_scan(
            spec, mode, budget, det, seed, k=mode_k, total_budget=total_budget, repetitions=reps
        )
        pooled[mode] = scan.rmse
        rmse_rows.append((mode, mode_k, scan.rmse, scan.total_dose, scan.boundary_discards, int(scan.incomplete)))
        stats[f"dose.{mode}"] = scan.total_dose
        stats[f"incomplete.{mode}"] = scan.incomplete
        map_csv = out / f"estimate_map_{mode}.csv"
        fileio.write_csv(
            map_csv,
            ["pair", "true_delta_phi", "estimate", "std_error"],
            zip(range(len(spec.pairs)), scan.true_values.tolist(), scan.estimates.tolist(), scan.std_errors.tolist()),
        )
        files.append(map_csv)
        files.extend(fileio.write_pgm16(out / f"estimate_map_{mode}.pgm", spec.paint(scan.estimates)))

    rmse_path = out / "rmse_table.csv"
    fileio.write_csv(rmse_path, ["mode", "k", "rmse", "total_dose", "boundary_discards", "incomplete"], rmse_rows)
    files.append(rmse_path)
    stats["rmse.conventional"] = repr(pooled["conventional"])
    stats["rmse.entangled"] = repr(pooled["entangled"])

    checks = []
    if check:
        target = 1.0 / math.sqrt(k)
        if pooled["conventional"] == 0.0:
            checks.append(("rmse_ratio", False, f"conventional RMSE is 0, so the ratio to 1/sqrt(k) = {target:.4f} is undefined"))
        else:
            ratio = pooled["entangled"] / pooled["conventional"]
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
    stats = {"target_std": repr(cfg["scaling.target_std"]), "repetitions": cfg["scaling.repetitions"]}
    if result.slope is not None:
        stats["slope"] = repr(result.slope)
        stats["intercept"] = repr(result.intercept)
        if result.slope_stderr is not None:
            stats["slope_stderr"] = repr(result.slope_stderr)
    checks = []
    if check and result.slope is None:
        checks.append(("dose_scaling_slope", False, "one k: no slope to fit"))
    elif check:
        # size: 1 false alarm at seeds 1-200 of the default config (seed 187, slope -0.894); the slopes read
        # -0.980 with SD 0.032, so the bound's near edge lies 2.5 SD from their mean
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
    out = args.out if args.out is not None else Path(f"{args.command}_out")
    try:
        cfg = load_config(args.config, args.set)
        if args.seed is not None:
            cfg.set_raw("seed", str(args.seed))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create --out directory {str(out)!r}: {err}") from None
        _COMMANDS[args.command](cfg, out, args.check)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckFailure as err:
        print(f"check failed: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except PreconditionError as err:
        print(f"precondition error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as err:
        # numpy refuses an array the config sizes past memory, e.g. protocol.k = 1e15
        print(f"precondition error: out of memory: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK


def main_entry() -> None:
    """Run `main`, flush both streams and leave with `os._exit`, skipping the interpreter's teardown.

    Every file `main` writes is closed before it returns, and the package
    registers no atexit handler, so the teardown only frees memory.  An
    exception escaping `main`, argparse's SystemExit included, leaves
    the usual way.  A reader that closed its end of a stream ends the
    run with exit code 1 and no traceback.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(1)
    os._exit(code)


if __name__ == "__main__":
    main_entry()
