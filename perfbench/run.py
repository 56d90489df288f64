"""fluxtem benchmark: CLI workloads timed end to end, and a traced run per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scaling --seed 12345 --seconds 30 --trace 0

`--trace 0` runs the workload's `python -m fluxtem ... --check` process one
at a time (a closed loop with one client) until `--seconds` have passed and
reports wall time and set-up time, both rescaled to a reference host speed
(see `SpeedProbe`), and peak memory.  `--trace 1` runs the same
command in this process, alternating untraced and traced runs, and reports
per-layer counts and times from `tracer.Tracer`.  Every run writes its
outputs under `.perfbench/` in the checkout; the directory of each run is
deleted once it has been hashed.  The last line of standard output is the
result as one JSON object.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# workload -> fluxtem subcommand and overrides; every run adds --seed and --check
WORKLOADS = {
    "scaling": ["scaling"],
    "optics": ["optics"],
    "protocol": ["protocol", "--set", "protocol.detector=optics"],
    # not in BENCHMARK.json: its rmse_ratio check fails at about a third of seeds (README)
    "image": ["image", "--set", "image.shape=128", "--set", "protocol.detector=optics"],
}
MIN_RUNS = 3  # per timed run, so the median and the hash comparison mean something
MIN_TRACED = 2  # traced runs per trace run, so the counts can be compared
SETUP_REPEATS = 7
SETUP_CODE = "import sys, fluxtem.cli as cli; cli.load_config(None, sys.argv[1:])"
CHECK_LINE = re.compile(r"^CHECK \S+: (PASS|FAIL)", re.MULTILINE)
SELF_TIME_TOLERANCE_S = 1e-6
# task times at the reference speed: a quiet 2-core x86 host, 2 MiB L2 per core (README)
REF_CPU_TASK_S = 0.1
REF_IMPORT_TASK_S = 0.15


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_fluxtem():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "fluxtem" / "cli.py").is_file():
        raise BenchmarkError(f"no fluxtem sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fluxtem.cli

    if Path(fluxtem.cli.__file__).resolve().parent != (SRC / "fluxtem").resolve():
        raise BenchmarkError(f"fluxtem imported from {fluxtem.cli.__file__}, not from {SRC}")
    return fluxtem


def command_args(workload: str, seed: int, out: Path, extra: Sequence[str]) -> list[str]:
    sets = [arg for item in extra for arg in ("--set", item)]
    return [*WORKLOADS[workload], *sets, "--seed", str(seed), "--check", "--out", str(out)]


def overrides(workload: str, extra: Sequence[str]) -> list[str]:
    argv = WORKLOADS[workload]
    return [argv[i + 1] for i, arg in enumerate(argv) if arg == "--set"] + list(extra)


def checks_pass(returncode: int, stdout: str) -> bool:
    """Exit 0, at least one CHECK line, and no CHECK ...: FAIL."""
    verdicts = CHECK_LINE.findall(stdout)
    return returncode == 0 and bool(verdicts) and "FAIL" not in verdicts


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def odd_ones(hashes: list[str]) -> list[bool]:
    """True for each output tree whose hash differs from the most common one."""
    common, count = Counter(hashes).most_common(1)[0]
    if count == 1 and len(hashes) > 1:
        return [True] * len(hashes)
    return [h != common for h in hashes]


class SpeedProbe:
    """Rescales times measured on a host whose speed drifts.

    A shared host's CPU speed can drift by 2x within a minute, and every
    measured process slows with it.  A fixed reference task is timed just
    before and just after each measured process; the process's time is
    multiplied by `reference_s / mean(before, after)`, which gives its time
    at the speed at which the task takes `reference_s`.
    """

    def __init__(self, task, reference_s: float):
        self._task = task
        self._reference_s = reference_s
        self._last = task()

    def scale(self) -> float:
        """Rescale factor for the process that ran since the previous call."""
        now = self._task()
        factor = self._reference_s / (0.5 * (self._last + now))
        self._last = now
        return factor


def cpu_task():
    """In-process task for workload processes: interpreter work, small numpy
    calls and a memory-latency-bound `searchsorted` into a 65,536-entry
    cumulative, the mix fluxtem spends its time on."""
    import numpy as np

    rng = np.random.default_rng(0)
    cum = np.cumsum(rng.random(65_536))
    cum /= cum[-1]
    draws = rng.random(4_000)
    small = np.arange(64.0)

    def run() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(600_000):
            acc += i * i % 7
        for _ in range(6_000):
            (small * 2.0).sum()
        for _ in range(80):
            np.searchsorted(cum, draws, side="right")
        return time.perf_counter() - start

    return run


def import_task(env: dict, work: Path):
    """Process task for set-up processes: start Python and import numpy."""
    argv = [sys.executable, "-c", "import numpy"]
    return lambda: run_process(argv, env, work, work / "probe.log")[0]


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(work)
    return env


def run_process(argv: list[str], env: dict, work: Path, log: Path) -> tuple[float, float, int]:
    """Run one process to completion: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(workload: str, extra: Sequence[str], env: dict, work: Path) -> list[float]:
    """Wall times, at the reference speed, of fresh processes that import fluxtem.cli and load the config."""
    argv = [sys.executable, "-c", SETUP_CODE, *overrides(workload, extra)]
    log = work / "setup.log"
    _, _, code = run_process(argv, env, work, log)  # untimed: fills __pycache__
    if code != 0:
        raise BenchmarkError(f"set-up process failed:\n{log.read_text()}")
    probe = SpeedProbe(import_task(env, work), REF_IMPORT_TASK_S)
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, code = run_process(argv, env, work, log)
        if code != 0:
            raise BenchmarkError(f"set-up process failed:\n{log.read_text()}")
        times.append(wall * probe.scale())
    return times


def measure(workload: str, seed: int, seconds: float, work: Path, extra: Sequence[str] = ()) -> dict:
    """Timed runs: one `python -m fluxtem` process at a time for `seconds`."""
    fluxtem = import_fluxtem()
    env = child_env(work)
    setup = measure_setup(workload, extra, env, work)
    probe = SpeedProbe(cpu_task(), REF_CPU_TASK_S)
    raw, walls, rss, ok, hashes = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
        out = work / f"run{len(walls)}"
        log = work / "run.log"
        argv = [sys.executable, "-m", "fluxtem", *command_args(workload, seed, out, extra)]
        wall, peak, code = run_process(argv, env, work, log)
        raw.append(wall)
        walls.append(wall * probe.scale())
        rss.append(peak)
        ok.append(checks_pass(code, log.read_text()))
        hashes.append(fluxtem.fileio.hash_tree(out) if out.is_dir() else "missing")
        shutil.rmtree(out, ignore_errors=True)
    failed = sum(not good or odd for good, odd in zip(ok, odd_ones(hashes)))
    return {
        "attempted": len(walls),
        "failed": failed,
        "walls": walls,
        "raw_wall_s": statistics.median(raw),
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss),
        },
        "setup_runs": len(setup),
    }


def is_time(metric: str) -> bool:
    """Times end in `.s` or `_s`; every other per-layer metric is a count or a ratio."""
    return metric.endswith((".s", "_s"))


def _in_process(fluxtem, tracer, argv: list[str]) -> bool:
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), tracer:
            code = fluxtem.cli.main(argv)
    except Exception:  # a crash is a failed run, as a traceback is for a process
        traceback.print_exc()
        return False
    return checks_pass(code, stdout.getvalue())


def trace(workload: str, seed: int, seconds: float, work: Path, extra: Sequence[str] = (), spans_path=None) -> dict:
    """In-process runs, untraced and traced in turn, for per-layer metrics."""
    import tracer as tracing

    fluxtem = import_fluxtem()
    command = WORKLOADS[workload][0]
    untraced_s, runs, ok, hashes = [], [], [], []
    out_bytes = 0
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_TRACED or time.perf_counter() < deadline:
        for layers in ((), tracing.LAYERS):
            out = work / f"run{len(hashes)}"
            tr = tracing.Tracer(command, layers)
            good = _in_process(fluxtem, tr, command_args(workload, seed, out, extra))
            if layers:
                good = good and tr.self_time_gap() <= SELF_TIME_TOLERANCE_S
                runs.append(tr.metrics())
                last = tr
            else:
                untraced_s.append(tr.metrics().get(f"{tracing.COMMAND_SPAN}.s", 0.0))
            ok.append(good)
            hashes.append(fluxtem.fileio.hash_tree(out) if out.is_dir() else "missing")
            out_bytes = tree_bytes(out) if out.is_dir() else 0
            shutil.rmtree(out, ignore_errors=True)
    failed = sum(not good or odd for good, odd in zip(ok, odd_ones(hashes)))

    names = sorted(set().union(*runs))
    counts_repeat = all(
        all(run.get(name, 0) == runs[0].get(name, 0) for run in runs)
        for name in names
        if not is_time(name)
    )
    if not counts_repeat:
        failed = max(failed, 1)
    metrics = {
        name: statistics.median(run.get(name, 0.0) for run in runs) if is_time(name) else runs[0].get(name, 0)
        for name in names
    }
    draws = metrics.get("protocol.draw_good_pixels.draws", 0)
    good_draws = metrics.get("protocol.draw_good_pixels.good", 0)
    metrics["protocol.draw_good_pixels.good_ratio"] = good_draws / draws if draws else 0.0
    metrics["fileio.output_bytes"] = out_bytes
    # the first untraced run pays lazy imports and cold caches: left out
    metrics["trace.overhead_s"] = metrics[f"{tracing.COMMAND_SPAN}.s"] - statistics.median(untraced_s[1:])
    if spans_path is not None:
        last.write_spans(spans_path, f"{workload}-{seed}")
    return {"attempted": len(ok), "failed": failed, "metrics": metrics, "counts_repeat": counts_repeat}


def _output(argv: list[str]) -> str:
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(seed: int, runs: int) -> dict:
    import numpy

    git = (ROOT / ".git").exists()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _output(["getconf", "LEVEL2_CACHE_SIZE"]),
        "l3_bytes": _output(["getconf", "LEVEL3_CACHE_SIZE"]),
        "git_rev": _output(["git", "rev-parse", "HEAD"]) if git else "none (not a git checkout)",
        "seed": seed,
        "runs": runs,
    }


def tail_note(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"tail: needs >= 11 runs, have {n}"
    return f"p{100.0 * (n - 10) / n:.1f} = {sorted(walls)[n - 11]:.6f} s"


def result_json(spec_metrics: list[dict], result: dict) -> dict:
    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]} for m in spec_metrics}
    failed = result["failed"]
    return {"correct": failed == 0, "attempted": result["attempted"], "failed": failed, "metrics": metrics}


def print_report(workload: str, args, result: dict, spec_metrics: list[dict]) -> None:
    print(f"fluxtem benchmark: workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed, result["attempted"]), sort_keys=True))
    for m in spec_metrics:
        value = result["metrics"].get(m["name"], 0)
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        line = f"  {m['name']:<44} {shown} {m['unit']}"
        if m["name"] == "wall_s":
            line += f"  (median of {result['attempted']} runs; {tail_note(result['walls'])}; raw {result['raw_wall_s']:.6f} s)"
        elif m["name"] == "setup_s":
            line += f"  (median of {result['setup_runs']} set-ups)"
        print(line)
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':<44} {ratio:>16.6f} fraction  ({result['failed']} of {result['attempted']} runs)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = STATE / f"work-{os.getpid()}"
    try:
        spec = load_spec()
        import_fluxtem()
        work.mkdir(parents=True, exist_ok=True)
        if args.trace:
            spec_metrics = spec["per_layer"]
            spans = STATE / f"trace_{args.workload}.csv"
            result = trace(args.workload, args.seed, args.seconds, work, spans_path=spans)
        else:
            spec_metrics = spec["end_to_end"]
            result = measure(args.workload, args.seed, args.seconds, work)
    except (BenchmarkError, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(args.workload, args, result, spec_metrics)
    print(json.dumps(result_json(spec_metrics, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
