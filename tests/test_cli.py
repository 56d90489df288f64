import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fluxtem import cli, device, estimator, fileio, optics, protocol
from fluxtem import detector as det_mod
from fluxtem.device import CODATA
from fluxtem.errors import PreconditionError
from fluxtem.streams import DOMAIN_PROTOCOL

from conftest import SMALL_OPTICS, _no_fork

# SHA-256 of the scaling outputs at the default config and seed 12345
SCALING_TABLE_SHA256 = "6d01bddd1377ca93f5ddaf28c5efcd27d4d2d09256bda8f18387eb06cd839a80"
SCALING_PROBES_SHA256 = "809250e5833d236cca643dfb211375521589180b4ad0b524a263217d732d80ab"


# a blurred reimage of SMALL_OPTICS, whose detector puts 24.9% of the power on boundary pixels
BOUNDARY_OPTICS = ["optics.detector_aperture_radius=9.6e-6", "optics.tolerance=0.05"]

# hash_tree of each command's output at a small config and seed 12345
GOLDEN_TREES = {
    "design": ([], True, "76ed193f57e0625a0858150ea66a16fbb14cca1a19566f91acf0e17c5519761d"),
    "optics": (SMALL_OPTICS, True, "0d22e33ec0da632131217e60be595b7c42ad516b613841d81f61b5eb7e4d7ff0"),
    # cmd_optics' other verdict branches: maps_identical_without_flux at no flux, no map verdict at
    # a quarter flux quantum, and the boundary-power warning, which --check would fail
    "optics-no-flux": (
        [*SMALL_OPTICS, "ring.flux_fraction=0"],
        True,
        "3a916dfd28625f4f4fa5c9a80c83fc4fdcb8b1b0c6c85de51101663b896475aa",
    ),
    "optics-quarter-flux": (
        [*SMALL_OPTICS, "ring.flux_fraction=0.25"],
        True,
        "c4532d5a07ecadc66190f61d819cb6069a5e6fb67e82848c65217557e6dd6e51",
    ),
    "optics-boundary-warning": (
        [*SMALL_OPTICS, *BOUNDARY_OPTICS],
        False,
        "79b86bb2eef74ef7c338593eb00bfc7dc3c5b72ab99aec1a69f53af9b1210589",
    ),
    "protocol": (["protocol.repetitions=200"], True, "f6f2e09854e141fb445af262ddc8ea3efbf43a0ff927a0fc15b5afe269df4bc7"),
    "protocol-optics": (
        ["protocol.detector=optics", "protocol.repetitions=200", *SMALL_OPTICS],
        True,
        "3c2e2cedab90ad76767772620a5ce7a6cf2e47c18668d79a87da9d11325e37ae",
    ),
    # the boundary regime: 24.9% of the power on boundary pixels, whose draws are discarded, and qubit
    # branch weights up to 5% apart, so run_group also draws from the heavier branch's component
    "protocol-boundary": (
        ["protocol.detector=optics", "protocol.repetitions=200", *SMALL_OPTICS, *BOUNDARY_OPTICS],
        True,
        "d4ac75311a7c047e6820fd0aa15d55f7123261934f557d9e2834e116c50ced4f",
    ),
    "protocol-symmetric": (
        ["protocol.basis=symmetric_antisymmetric", "protocol.repetitions=200"],
        True,
        "88fe4c70136874118752f82f49bf56872a0b0826cdd992843b84cf28de058109",
    ),
    # image's rmse_ratio check does not hold at this size, so it runs without --check
    "image": (["image.shape=16", "image.repetitions=2"], False, "0ba69c5c2bac5482d522bbdcab9fe3b161730259e2e59480931955a75f278ece"),
    "image-optics": (
        ["image.shape=16", "image.repetitions=2", "protocol.detector=optics", *SMALL_OPTICS],
        False,
        "1ec1b769b614f427a51f34213df738a65c95ba366b21b6ddcbca61c30763124a",
    ),
    "image-boundary": (
        ["image.shape=16", "image.repetitions=2", "protocol.detector=optics", *SMALL_OPTICS, *BOUNDARY_OPTICS],
        False,
        "1359825c3a85d7eee73b1796b83c5bf051713f466449c373a13d6ec82d006752",
    ),
}


# hash_tree of the default config on the optics detector at seed 12345, with --check
PROTOCOL_OPTICS_TREE = "1e90c99dac7a6b0b05824e0a1f8bff0ee5beadec9c9184382a3c968473210ecf"
# hash_tree of `optics` at the default config and seed 12345, with --check
OPTICS_TREE = "787e3dbce3b34eb0d63d3ceb29c01bcb489af68b73bc0b8b5fbe080b4ae5ce99"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _golden_argv(name):
    """The command line of GOLDEN_TREES[name], without --out."""
    overrides, check, _ = GOLDEN_TREES[name]
    argv = [name.split("-")[0], "--seed", "12345"]
    for override in overrides:
        argv += ["--set", override]
    if check:
        argv.append("--check")
    return argv


@pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
def test_small_config_golden_tree(name, tmp_path):
    argv, want = _golden_argv(name), GOLDEN_TREES[name][2]
    trees = []
    for run in ("a", "b"):
        assert cli.main(argv + ["--out", str(tmp_path / run)]) == cli.EXIT_OK
        trees.append(fileio.hash_tree(tmp_path / run))
    assert trees[0] == trees[1]
    assert trees[0] == want


# optics-quarter-flux reads c4532d5a07ec natively, 9f16b7dd1028 without X86_V4 and up and 30972c3dbb38
# without X86_V3 and up: optics.branch_one's complex product with a factor not +-1 is fused from X86_V3,
# and optics.build_detector's np.angle moves 3 of its 4,096 beta by an ulp from X86_V4
DISPATCH_DEPENDENT_TREES = {"optics-quarter-flux"}

# runs each named command line in-process and prints {name: hash_tree or exit code} as JSON
_HASH_TREES = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
from fluxtem import cli, fileio
hashes = {}
for name, argv in json.loads(sys.argv[1]).items():
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", out])
        hashes[name] = fileio.hash_tree(Path(out)) if code == cli.EXIT_OK else f"exit {code}"
print(json.dumps(hashes))
"""


def _child_env(**env):
    """This process's environment with `env` added and the package's sources first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _hash_trees_child(argvs, **env):
    """A child process that runs each named command line of `argvs` with `env` added to its own environment.

    It prints {name: hash_tree or exit code} as JSON.
    """
    argv = [sys.executable, "-c", _HASH_TREES, json.dumps(argvs)]
    return subprocess.Popen(argv, env=_child_env(**env), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _dispatch_targets():
    """numpy's dispatch targets above its baseline that this host runs, lowest first."""
    from numpy._core import _multiarray_umath as umath

    return [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]


def test_golden_trees_hold_at_every_numpy_dispatch_level():
    # one child per level below native, each with that target and every one above it turned off in its own
    # environment; the children run side by side, and the native level is the in-process golden test's.
    # Slow, about 1 s: each child imports numpy and writes every golden tree but the dependent ones
    targets = _dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches no target above its baseline on this host")
    argvs = {name: _golden_argv(name) for name in sorted(GOLDEN_TREES) if name not in DISPATCH_DEPENDENT_TREES}
    children = {}
    for i, target in enumerate(targets):
        children[target] = _hash_trees_child(argvs, NPY_DISABLE_CPU_FEATURES=" ".join(targets[i:]))
    try:
        outputs = {target: child.communicate(timeout=60) for target, child in children.items()}
    finally:
        for child in children.values():
            child.kill()
    want = {name: GOLDEN_TREES[name][2] for name in argvs}
    for target, (stdout, stderr) in outputs.items():
        assert children[target].returncode == 0, stderr
        assert json.loads(stdout) == want, f"without {target} and up"


def test_optics_trees_hold_on_one_blas_thread():
    # OpenBLAS sizes its thread pool from the CPU count, and a BLAS sum's last bits follow the pool, so a
    # child on one BLAS thread, as a one-CPU host runs, must read the pins this process reads
    names = [name for name in sorted(GOLDEN_TREES) if name.startswith("optics")]
    argvs = {name: _golden_argv(name) for name in names}
    argvs["default"] = ["optics", "--seed", "12345", "--check"]
    child = _hash_trees_child(argvs, OPENBLAS_NUM_THREADS="1")
    try:
        stdout, stderr = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 0, stderr
    assert json.loads(stdout) == {**{name: GOLDEN_TREES[name][2] for name in names}, "default": OPTICS_TREE}


def test_default_protocol_optics_tree(tmp_path):
    argv = ["protocol", "--seed", "12345", "--set", "protocol.detector=optics", "--check", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert fileio.hash_tree(tmp_path) == PROTOCOL_OPTICS_TREE


def test_default_optics_tree(tmp_path):
    assert cli.main(["optics", "--seed", "12345", "--check", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert fileio.hash_tree(tmp_path) == OPTICS_TREE


def _protocol_tree(out, overrides, cpus, monkeypatch):
    """hash_tree of a `protocol --check` run as if the process may run on `cpus` CPUs."""
    argv = ["protocol", "--seed", "12345", "--check", "--out", str(out)]
    for override in overrides:
        argv += ["--set", override]
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert cli.main(argv) == cli.EXIT_OK
    return fileio.hash_tree(out)


@pytest.mark.parametrize("reps", [1, 63, 64, 127, 128, 129, 200])
@pytest.mark.parametrize("detector", ["trivial", "optics"])
def test_protocol_writes_the_same_bytes_on_any_cpu_count(detector, reps, tmp_path, monkeypatch):
    overrides = [f"protocol.repetitions={reps}"]
    if detector == "optics":
        overrides += ["protocol.detector=optics", *SMALL_OPTICS]
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", _no_fork)
        want = _protocol_tree(tmp_path / "1", overrides, 1, monkeypatch)
        if reps < 2 * fileio.CSV_BLOCK_ROWS:  # fewer trials than two blocks run in one part
            assert _protocol_tree(tmp_path / "3-unforked", overrides, 3, monkeypatch) == want
    fork = os.fork
    for cpus in (2, 3):
        forks = []
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        assert _protocol_tree(tmp_path / str(cpus), overrides, cpus, monkeypatch) == want, f"{cpus} CPUs"
        assert len(forks) == max(1, min(cpus, reps // fileio.CSV_BLOCK_ROWS)) - 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_audit_max_is_taken_over_every_part(cpus, tmp_path, monkeypatch):
    # each trial's audit reads its trial number, so the largest is the last trial's, in the last part
    trials = []
    derive = cli.derive
    monkeypatch.setattr(cli, "derive", lambda seed, *path: trials.append(path[-1]) or derive(seed, *path))
    monkeypatch.setattr(protocol, "phase_audit", lambda result, plan: trials[-1] * 1e-12)
    _protocol_tree(tmp_path, ["protocol.repetitions=200"], cpus, monkeypatch)
    assert f"audit_max_deviation = {199 * 1e-12!r}\n" in (tmp_path / "manifest.txt").read_text()


def test_a_precondition_error_in_a_forked_part_exits_3_as_a_sequential_run_does(tmp_path, monkeypatch, capfd):
    # 200 trials on two CPUs: trials 100..199 run in a forked child
    run_group = protocol.run_group

    def stuck_at_trial_150(plan, det, rng):
        if rng.bit_generator.seed_seq.spawn_key == (DOMAIN_PROTOCOL, 150):
            raise PreconditionError(f"exceeded {protocol.MAX_DISCARDS} boundary discards in one group")
        return run_group(plan, det, rng)

    monkeypatch.setattr(protocol, "run_group", stuck_at_trial_150)
    temp_dir = tmp_path / "tmp"
    temp_dir.mkdir()
    monkeypatch.setenv("TMPDIR", str(temp_dir))
    monkeypatch.setattr(tempfile, "tempdir", None)
    errs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / f"out{cpus}"
        assert cli.main(["protocol", "--set", "protocol.repetitions=200", "--out", str(out)]) == cli.EXIT_PRECONDITION
        errs[cpus] = capfd.readouterr().err
        assert not (out / "manifest.txt").exists()
    assert errs[2] == errs[1] == "precondition error: exceeded 100000 boundary discards in one group\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(temp_dir.iterdir()) == []


@pytest.mark.parametrize(
    "overrides, code",
    [
        (["optics.detector_aperture_radius=5um"], cli.EXIT_PRECONDITION),
        # a looser tolerance leaves 0.25% of the power on boundary pixels: a group expects 0.012 discards
        (["optics.detector_aperture_radius=5um", "optics.tolerance=1e-2"], cli.EXIT_OK),
    ],
    ids=["stuck", "middle-regime"],
)
def test_a_stuck_detector_exits_3_before_any_draw(overrides, code, tmp_path, monkeypatch, capsys):
    # at 5 um and the default tolerance a group expects 3.6e6 discards, far past the 100,000 limit
    argv = ["protocol", "--set", "protocol.detector=optics", "--set", "protocol.repetitions=1", "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--set", override]
    draws = []
    derive = cli.derive
    monkeypatch.setattr(cli, "derive", lambda *path: draws.append(path) or derive(*path))
    monkeypatch.setattr(os, "fork", _no_fork)
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code == cli.EXIT_PRECONDITION:
        assert err.startswith("precondition error: boundary pixels carry 99.99986") and "optics.tolerance" in err
        assert draws == [] and not (tmp_path / "manifest.txt").exists()
    else:
        assert err == "" and len(draws) == 1


@given(arrays(np.uint8, st.integers(1, 10_000), elements=st.integers(0, 1)))
def test_outcome_rate_as_a_count_has_the_bits_of_the_uint8_mean(outcomes):
    # cmd_protocol's outcome_rate is the sum of the outcome column over the number of trials;
    # it must have the bits of the mean of the 0/1 uint8 array
    assert repr(int(outcomes.sum()) / outcomes.size) == repr(float(outcomes.mean()))


def test_optics_traces_the_beam_path_once_outside_the_detector(tmp_path, monkeypatch):
    """Two transforms to the ring plane, one per ring-plane part to the specimen and one per part to the detector."""
    calls = []
    propagate = optics.propagate

    def counted(fieldv):
        calls.append(None)
        return propagate(fieldv)

    monkeypatch.setattr(optics, "propagate", counted)
    argv = ["optics", "--seed", "12345", "--check", "--out", str(tmp_path)]
    for override in SMALL_OPTICS:
        argv += ["--set", override]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 6


@contextlib.contextmanager
def _traced_grids(n):
    """Trace memory: yields a function that reads (held, peak) since entry, in complex grids of n^2 x 16 bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        yield lambda: tuple((traced - start) / (n * n * 16) for traced in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()


def _peak_in_grids(n, argv, out):
    """tracemalloc peak of one `cli.main(argv)` run after a first run, counted in complex grids of n^2 x 16 bytes."""
    assert cli.main([*argv, "--out", str(out / "warm")]) == cli.EXIT_OK  # one-time allocations
    with _traced_grids(n) as grids:
        assert cli.main([*argv, "--out", str(out / "run")]) == cli.EXIT_OK
        return grids()[1]


def test_the_optics_command_holds_few_grids_at_its_peak(tmp_path):
    n = 128
    peak = _peak_in_grids(n, ["optics", "--seed", "12345", "--check", "--set", f"optics.n={n}"], tmp_path)
    # the measured peak, 3.98, is write_pgm16's at a specimen map: the Beam's two waves and both
    # maps (3), the float copy that write_pgm16 scales in place, its 16-bit image, and small
    # objects.  specimen_maps builds the branches a block of rows at a time, trace_beam peaks at
    # 3.4 and build_detector at 3.7, the Beam included, as propagate transforms in place; the
    # beta_law check copies only the inside pixels
    assert peak <= 4.33


def test_the_optics_command_holds_no_grid_when_it_hashes_its_outputs(tmp_path, monkeypatch):
    # the manifest's first hash loads OpenSSL (~3.6 MB RSS), which would sit under any array still held
    n = 128
    argv = ["optics", "--seed", "12345", "--check", "--set", f"optics.n={n}"]
    assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == cli.EXIT_OK  # one-time allocations
    held = []
    write_manifest = fileio.write_manifest
    with _traced_grids(n) as grids:
        monkeypatch.setattr(fileio, "write_manifest", lambda *args: held.append(grids()[0]) or write_manifest(*args))
        assert cli.main([*argv, "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    # the measured value, 0.20, is small objects that do not scale with n, most of them the argument
    # parser (34 KB), plus 0.07 grid (18 KB) of headroom; the detector held there adds 2.57
    assert len(held) == 1 and held[0] <= 0.27


# slow, about 1.2-1.4 s: two full 2,000-trial protocol commands on one CPU, the second under tracemalloc,
# because the warm-up run keeps one-time allocations out of the traced peak
def test_the_protocol_command_holds_few_grids_at_its_peak(tmp_path, monkeypatch):
    n = 128
    # one CPU, so every trial runs in this process, where tracemalloc sees it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", _no_fork)
    argv = ["protocol", "--seed", "12345", "--check", "--set", "protocol.detector=optics", "--set", f"optics.n={n}"]
    peak = _peak_in_grids(n, argv, tmp_path)
    # the measured peak, 4.15, is the trials': the detector with its boundary mask and equal-weight
    # cumulative (3.14), and the records and outcome rows, which do not scale with n.  The optics
    # chain before it peaks at 3.7, in build_detector, and the equal-weight power is summed in one
    # array, so the set-up peaks lower; the detector is freed before the manifest's hashes
    assert peak <= 4.38


# slow, about 1.2-1.4 s: two full 2,000-trial protocol commands on one CPU, the second under tracemalloc,
# because the warm-up run keeps one-time allocations out of what the manifest's hash sees held
def test_the_protocol_command_holds_no_grid_when_it_hashes_its_outputs(tmp_path, monkeypatch):
    # as in optics, the manifest's first hash loads OpenSSL (~3.6 MB RSS), which would sit under the detector
    n = 128
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", _no_fork)
    argv = ["protocol", "--seed", "12345", "--check", "--set", "protocol.detector=optics", "--set", f"optics.n={n}"]
    assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == cli.EXIT_OK  # one-time allocations
    held = []
    write_manifest = fileio.write_manifest
    with _traced_grids(n) as grids:
        monkeypatch.setattr(fileio, "write_manifest", lambda *args: held.append(grids()[0]) or write_manifest(*args))
        assert cli.main([*argv, "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    # the measured value, 0.78 to 0.92 after other tests or alone, is the outcome rows (about 170 KB)
    # and small objects, none of which scale with n, plus headroom; the detector held there adds 3.14
    assert len(held) == 1 and held[0] <= 1.0


def test_scaling_golden_outputs(tmp_path, capsys):
    for name in ("a", "b"):
        assert cli.main(["scaling", "--seed", "12345", "--check", "--out", str(tmp_path / name)]) == cli.EXIT_OK
    assert "CHECK dose_scaling_slope: PASS" in capsys.readouterr().out
    assert fileio.hash_tree(tmp_path / "a") == fileio.hash_tree(tmp_path / "b")
    assert _sha256(tmp_path / "a" / "scaling_table.csv") == SCALING_TABLE_SHA256
    assert _sha256(tmp_path / "a" / "scaling_probes.csv") == SCALING_PROBES_SHA256


@pytest.mark.parametrize(
    "override, key",
    [
        ("scaling.repetitions=1", "scaling.repetitions"),
        ("scaling.target_std=0", "scaling.target_std"),
        ("scaling.target_std=-0.01", "scaling.target_std"),
        ("scaling.k_list=0,1,2", "scaling.k_list"),
        ("scaling.k_list=1.5,2", "scaling.k_list"),
        # a repeated k is a repeated fit point
        ("scaling.k_list=1,1,1", "scaling.k_list"),
        ("scaling.k_list=2,2", "scaling.k_list"),
        ("protocol.k=0", "protocol.k"),
        ("protocol.delta_phi=4", "protocol.delta_phi"),
        ("beam.energy=-1", "beam.energy"),
        ("protocol.basis=foo", "protocol.basis"),
        ("protocol.repetitions=0", "protocol.repetitions"),
        ("protocol.detector=foo", "protocol.detector"),
        ("image.k=0", "image.k"),
        ("image.repetitions=0", "image.repetitions"),
        ("image.specimen=foo", "image.specimen"),
        ("image.tile=0", "image.tile"),
        ("image.shape=0", "image.shape"),
        ("optics.pitch=0", "optics.pitch"),
        ("ring.turns=0", "ring.turns"),
        ("timing.mqc_frequency=0", "timing.mqc_frequency"),
        ("timing.group_duration=0", "timing.group_duration"),
        ("protocol.sigma0=nan", "protocol.sigma0"),
        ("protocol.sigma0=1e300", "protocol.sigma0"),
        ("beam.energy=inf", "beam.energy"),
        ("image.total_budget=0", "image.total_budget"),
        ("image.budget=0", "image.budget"),
        ("scaling.k_list=", "scaling.k_list"),
        ("optics.n=100", "optics.n"),
        ("optics.n=1", "optics.n"),
        ("optics.aperture_radius=0", "optics.aperture_radius"),
        ("optics.detector_aperture_radius=0", "optics.detector_aperture_radius"),
        ("optics.tolerance=-1e-6", "optics.tolerance"),
        ("optics.dominance_ratio=0", "optics.dominance_ratio"),
        ("mask.disc_radius=-1um", "mask.disc_radius"),
        ("mask.inner_radius=-1um", "mask.inner_radius"),
        ("mask.outer_radius=-1um", "mask.outer_radius"),
        ("mask.gap_width=-1deg", "mask.gap_width"),
        ("ring.inner=0", "ring.inner"),
        ("ring.outer=-2um", "ring.outer"),
        ("squid.lateral_size=-1", "squid.lateral_size"),
        ("timing.coherence_width=0", "timing.coherence_width"),
        ("mask.gap_angles=1e300", "mask.gap_angles"),
        ("mask.gap_angles=90deg,-7", "mask.gap_angles"),
        # below image.budget (4000) no pair can be scanned
        ("image.total_budget=1", "image.total_budget"),
        # passes its own limit; design checks it against the electron wavelength
        ("beam.waist=1e-300", "beam.waist"),
    ],
)
def test_bad_scaling_input_is_a_config_error(override, key, tmp_path, capsys):
    assert cli.main(["design", "--set", override, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("key", ["squid.turns", "protocol.trivial_pixels", "optics.boundary_power_warn"])
def test_a_deleted_key_is_an_unknown_key(key, tmp_path, capsys):
    assert cli.main(["design", "--set", f"{key}=1", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: unknown key '{key}'\n"


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
def test_unreadable_config_file_is_a_config_error(case, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    if case == "directory":
        path.mkdir()
    elif case == "not utf-8":
        path.write_bytes(b"seed = 7\n# \xff\n")
    assert cli.main(["design", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err


def test_out_path_that_is_a_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert cli.main(["design", "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--out" in err


@pytest.mark.parametrize("override", ["protocol.k=1000000000000000"])
def test_an_allocation_numpy_refuses_is_a_precondition_error(override, tmp_path, capsys):
    # 10**15 float64 or complex128 entries are 7 or 14 PiB, which no machine maps
    argv = ["protocol", "--set", override, "--set", "protocol.repetitions=1", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition error: out of memory")
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("protocol", ["protocol.k=100000000000000000000", "protocol.repetitions=1"]),
        ("image", ["image.budget=100000000000000000000"]),
    ],
    ids=["protocol.k", "image.budget"],
)
def test_an_integer_outside_int64_is_a_config_error(command, overrides, tmp_path, capsys):
    argv = [command, "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--set", override]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    key = overrides[0].partition("=")[0]
    assert err.startswith(f"config error: {key} = ") and "64-bit integer" in err and "Traceback" not in err


def test_ambiguous_k_is_a_precondition_error(tmp_path, capsys):
    assert cli.main(["scaling", "--set", "scaling.k_list=1,32", "--out", str(tmp_path)]) == cli.EXIT_PRECONDITION
    assert "k = 32" in capsys.readouterr().err


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    assert cli.main(["design", "--seed", "-1", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err


def test_overlapping_pair_regions_are_a_config_error(tmp_path, capsys):
    phase = tmp_path / "phase.csv"
    phase.write_text("0,0.1\n0,0.1\n")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("pair,region,row,col\n0,0,0,0\n0,1,0,0\n")
    argv = ["image", "--set", "image.specimen=files", "--set", f"image.phase_file={phase}"]
    argv += ["--set", f"image.pairs_file={pairs}", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "image.pairs_file" in err and "overlap" in err


@pytest.mark.parametrize("cell", ["0,4", "1,-1", "4,2"], ids=["col = width", "col = -1", "row = height"])
def test_a_pair_cell_outside_the_phase_map_is_a_config_error(cell, tmp_path, capsys):
    # each of these cells has a flat index inside the 4 x 4 map, on another pixel
    phase = tmp_path / "phase.csv"
    phase.write_text("0,0.1,0,0.1\n" * 4)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"pair,region,row,col\n0,0,0,0\n0,1,{cell}\n")
    argv = ["image", "--set", "image.specimen=files", "--set", f"image.phase_file={phase}"]
    argv += ["--set", f"image.pairs_file={pairs}", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "image.pairs_file" in err
    assert f"line 3: cell ({cell.replace(',', ', ')}) lies outside the 4 x 4 phase map" in err


@pytest.mark.parametrize("case", ["nan", "inf", "pgm sidecar nan"])
def test_non_finite_phase_file_is_a_config_error(case, tmp_path, capsys):
    if case == "pgm sidecar nan":
        phase = tmp_path / "phase.pgm"
        fileio.write_pgm16(phase, np.array([[0.0, 0.1], [0.0, 0.1]]))
        (tmp_path / "phase.pgm.txt").write_text("min = nan\nmax = 0.1\n")
    else:
        phase = tmp_path / "phase.csv"
        phase.write_text(f"0,{case}\n0,0.1\n")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("pair,region,row,col\n0,0,0,0\n0,1,0,1\n")
    argv = ["image", "--set", "image.specimen=files", "--set", f"image.phase_file={phase}"]
    argv += ["--set", f"image.pairs_file={pairs}", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "image.phase_file" in err and "non-finite" in err


@pytest.mark.parametrize(
    "overrides, named",
    [
        # group_duration * mqc_frequency underflows to 0 in the timing headroom
        (["timing.group_duration=1e-300", "timing.mqc_frequency=1e-300"], "ZeroDivisionError"),
        # the beam's total energy squared overflows
        (["beam.energy=1e300"], "OverflowError"),
        # theta_b is subnormal, and the flux deflection underflows to 0 under the charge-to-flux ratio
        (["beam.waist=1e300"], "ZeroDivisionError"),
        (["squid.lateral_size=1e-320"], "lateral_size"),
        (["squid.mu_r=1e-300"], "inductance"),
    ],
    ids=["underflow", "overflow", "subnormal angles", "subnormal size", "subnormal inductance"],
)
def test_design_inputs_outside_the_float_range_are_a_config_error(overrides, named, tmp_path, capsys):
    argv = ["design", "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--set", override]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "float range" in err and named in err


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["ring.inner=3um"], "need 0 < ring_inner < ring_outer"),
        (["ring.outer=2e-5"], "ring does not fit"),
        (["mask.outer_radius=2e-5"], "mask geometry exceeds the grid"),
        (["mask.disc_radius=0", "mask.outer_radius=0"], "cannot propagate a field with zero power"),
    ],
)
def test_optics_geometry_the_grid_cannot_hold_is_a_precondition_error(overrides, message, tmp_path, capsys):
    argv = ["optics", "--out", str(tmp_path)]
    for override in SMALL_OPTICS + overrides:
        argv += ["--set", override]
    assert cli.main(argv) == cli.EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith(f"precondition error: {message}") and "Traceback" not in err


def test_design_warnings_are_printed(tmp_path, capsys):
    assert cli.main(["design", "--set", "timing.group_duration=1", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert capsys.readouterr().err.startswith("warning: group duration")
    assert "warning.0 = group duration" in (tmp_path / "manifest.txt").read_text()


def test_shape_without_an_even_tile_count_is_a_config_error(tmp_path, capsys):
    assert cli.main(["image", "--set", "image.shape=20", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "image.shape" in err and "Traceback" not in err


def test_strong_phase_map_warns_in_the_manifest(tmp_path, capsys):
    argv = ["image", "--set", "image.shape=16", "--set", "image.delta_phi=0.6", "--set", "image.k=2"]
    argv += ["--set", "image.repetitions=2", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert "warning: phase map exceeds 0.5 rad" in capsys.readouterr().err
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "warning.0 = phase map exceeds 0.5 rad" in manifest


def test_an_image_without_pairs_warns_and_exits_0_without_check(tmp_path, capsys):
    (tmp_path / "phase.csv").write_text("0,0.1\n")
    (tmp_path / "pairs.csv").write_text("pair,region,row,col\n")
    argv = ["image", "--set", "image.specimen=files", "--set", f"image.phase_file={tmp_path / 'phase.csv'}"]
    argv += ["--set", f"image.pairs_file={tmp_path / 'pairs.csv'}", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr() == ("", "warning: empty pair list, nothing to scan\n")
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "warning.pairs = empty pair list, nothing to scan\n" in manifest and "check." not in manifest


FILES_IMAGE_ARGS = ["image.shape=16", "image.repetitions=3", "image.budget=800"]
FILES_IMAGE_OUTPUTS = [
    "estimate_map_conventional.csv",
    "estimate_map_conventional.pgm",
    "estimate_map_conventional.pgm.txt",
    "estimate_map_entangled.csv",
    "estimate_map_entangled.pgm",
    "estimate_map_entangled.pgm.txt",
    "rmse_table.csv",
]


def _run_image(out, overrides):
    argv = ["image", "--seed", "7", "--out", str(out)]
    for override in FILES_IMAGE_ARGS + overrides:
        argv += ["--set", override]
    assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("phase_format", ["csv", "pgm"])
def test_files_specimen_reproduces_the_checkerboard(tmp_path, phase_format):
    spec = estimator.make_checkerboard(16, 8, 0.05)
    if phase_format == "csv":
        phase_file = tmp_path / "phase.csv"
        phase_file.write_text("".join(",".join(map(repr, row)) + "\n" for row in spec.phase.tolist()))
    else:
        phase_file = tmp_path / "phase.pgm"
        fileio.write_pgm16(phase_file, spec.phase)
    width = spec.phase.shape[1]
    lines = ["pair,region,row,col"]
    for i, regions in enumerate(spec.pairs):
        for region, flat in enumerate(regions):
            lines += [f"{i},{region},{j // width},{j % width}" for j in flat.tolist()]
    pairs_file = tmp_path / "pairs.csv"
    pairs_file.write_text("\n".join(lines) + "\n")

    _run_image(tmp_path / "board", [])
    files = ["image.specimen=files", f"image.phase_file={phase_file}", f"image.pairs_file={pairs_file}"]
    _run_image(tmp_path / "files", files)
    for name in FILES_IMAGE_OUTPUTS:
        assert (tmp_path / "files" / name).read_bytes() == (tmp_path / "board" / name).read_bytes(), name


def test_importing_the_command_line_generates_no_code_and_loads_no_device():
    # a @dataclass compiles its methods' source with exec at import, and the compiler's memory stays
    # resident; device serves only `design`, which imports it on first use.  A child compares its modules
    # before and after, so a site hook that loads dataclasses first shows nothing
    code = (
        "import sys; before = set(sys.modules); import fluxtem.cli; "
        "print(sorted({'dataclasses', 'fluxtem.device'} & (set(sys.modules) - before)))"
    )
    child = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


# the command line's whole output and exit code for a pass, a failed verdict, a config error and a
# precondition error
EXIT_PATHS = {
    "pass": (
        ["design", "--seed", "1", "--check"],
        cli.EXIT_OK,
        "CHECK critical_current_order: PASS (i_c = 1.646e-06 A)\n"
        "CHECK deflection_ratio_half: PASS (theta_d/theta_b = 0.5)\n"
        "CHECK charge_scheme_weaker: PASS (charge/flux = 3.759e-02)\n",
        "",
    ),
    "verdict": (
        ["scaling", "--set", "scaling.k_list=4", "--check"],
        cli.EXIT_CHECK_FAILED,
        "CHECK dose_scaling_slope: FAIL (one k: no slope to fit)\n",
        "check failed: dose_scaling_slope\n",
    ),
    "config": (["protocol", "--set", "protocol.k=0"], cli.EXIT_CONFIG, "", "config error: protocol.k must be >= 1, got 0\n"),
    "precondition": (
        ["scaling", "--set", "scaling.k_list=1,32"],
        cli.EXIT_PRECONDITION,
        "",
        "precondition error: k = 32 puts |k * delta_phi| = 1.6000 >= pi/2; the quadrature inversion is ambiguous\n",
    ),
}


def _fluxtem_child(args, stdout, stderr, unbuffered=False):
    """A `python -m fluxtem` child; its streams are buffered, as a shell or a pipe runs it, unless `unbuffered`."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "fluxtem", *args], env=env, stdout=stdout, stderr=stderr)


def test_the_command_line_flushes_its_streams_before_its_hard_exit(tmp_path):
    # without PYTHONUNBUFFERED the streams are block-buffered files, so a hard exit that skipped the
    # flush would lose their text; the children run side by side
    children = {}
    for name, (args, *_) in EXIT_PATHS.items():
        streams = [open(tmp_path / f"{name}.{stream}", "w") for stream in ("out", "err")]
        with streams[0], streams[1]:
            children[name] = _fluxtem_child([*args, "--out", str(tmp_path / name)], *streams)
    try:
        codes = {name: child.wait(timeout=60) for name, child in children.items()}
    finally:
        for child in children.values():
            child.kill()
    for name, (_, code, out, err) in EXIT_PATHS.items():
        assert (tmp_path / f"{name}.out").read_text() == out, name
        assert (tmp_path / f"{name}.err").read_text() == err, name
        assert codes[name] == code, name
    assert cli.main([*EXIT_PATHS["pass"][0], "--out", str(tmp_path / "in-process")]) == cli.EXIT_OK
    assert fileio.hash_tree(tmp_path / "pass") == fileio.hash_tree(tmp_path / "in-process")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_ends_the_command_line_without_a_traceback(unbuffered, tmp_path):
    # buffered, the flush in main_entry meets the closed pipe; unbuffered, the first print in _finish does
    with open(tmp_path / "err", "w") as err:
        child = _fluxtem_child([*EXIT_PATHS["pass"][0], "--out", str(tmp_path / "tree")], subprocess.PIPE, err, unbuffered)
    child.stdout.close()
    try:
        assert child.wait(timeout=60) == 1
    finally:
        child.kill()
    assert (tmp_path / "err").read_text() == ""
    assert cli.main([*EXIT_PATHS["pass"][0], "--out", str(tmp_path / "in-process")]) == cli.EXIT_OK
    assert fileio.hash_tree(tmp_path / "tree") == fileio.hash_tree(tmp_path / "in-process")


class _HardExit(Exception):
    pass


@pytest.fixture
def exit_events(monkeypatch):
    """The os._exit calls, in order; os._exit raises _HardExit."""
    events = []

    def hard_exit(code):
        events.append(("exit", code))
        raise _HardExit

    monkeypatch.setattr(os, "_exit", hard_exit)
    return events


def _record_flushes(monkeypatch, events):
    """Replace both streams with ones that record each flush in `events`.

    Called in the test body: pytest's capture sets the streams again once fixtures are set up.
    """

    class Stream:
        def __init__(self, name):
            self.name = name

        def write(self, text):
            return len(text)

        def flush(self):
            events.append(("flush", self.name))

    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))


def test_main_entry_flushes_both_streams_then_exits_hard_with_mains_code(exit_events, monkeypatch):
    _record_flushes(monkeypatch, exit_events)
    monkeypatch.setattr(cli, "main", lambda: cli.EXIT_PRECONDITION)
    with pytest.raises(_HardExit):
        cli.main_entry()
    assert exit_events == [("flush", "stdout"), ("flush", "stderr"), ("exit", cli.EXIT_PRECONDITION)]


@pytest.mark.parametrize(
    "where, flushed",
    [("main", []), ("stdout", []), ("stderr", [("flush", "stdout")])],
)
def test_a_broken_pipe_in_main_entry_exits_hard_with_code_1(where, flushed, exit_events, monkeypatch):
    _record_flushes(monkeypatch, exit_events)

    def broken():
        raise BrokenPipeError

    if where == "main":
        monkeypatch.setattr(cli, "main", broken)
    else:
        monkeypatch.setattr(cli, "main", lambda: cli.EXIT_OK)
        monkeypatch.setattr(getattr(sys, where), "flush", broken)
    with pytest.raises(_HardExit):
        cli.main_entry()
    assert exit_events == [*flushed, ("exit", 1)]


def test_an_exception_from_main_leaves_main_entry_the_usual_way(exit_events, monkeypatch):
    # argparse's usage error is a SystemExit from main, and leaves the same way
    monkeypatch.setattr(sys, "argv", ["fluxtem", "no-such-command"])
    with pytest.raises(SystemExit) as raised:
        cli.main_entry()
    assert raised.value.code == 2

    def failing():
        raise ValueError("from main")

    monkeypatch.setattr(cli, "main", failing)
    with pytest.raises(ValueError, match="from main"):
        cli.main_entry()
    assert exit_events == []


def test_main_never_exits_hard(exit_events, tmp_path):
    # perfbench's traced runs and every in-process test call main and go on running
    assert cli.main(["design", "--seed", "1", "--check", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert exit_events == []


def _read_only_records():
    """Each read-only record type's name -> (an instance, one of its fields)."""
    det = det_mod.trivial(4)
    wave = optics.WaveField(np.zeros((2, 2), dtype=complex))
    return {
        "DetectorModel": (det, "a"),
        "QubitState": (protocol.prepare_symmetric(0.0), "amp0"),
        "GroupPlan": (protocol.GroupPlan(k=2, delta_phi=0.1), "k"),
        "Beam": (optics.Beam(cli.load_config(None, []), wave, wave), "inside"),
        "BeamSpec": (device.beam_from_energy(3e5, 1e-6), "wavelength"),
        "PhysicalConstants": (CODATA, "h"),
        "EstimationResult": (estimator.estimate_phase("conventional", 0.1, 100, det, np.random.default_rng(0)), "estimate"),
    }


@pytest.mark.parametrize("name", list(_read_only_records()))
def test_records_that_callers_share_are_read_only(name):
    # DetectorModel's cached distributions assume a, b and region never change; the others are shared values
    record, field = _read_only_records()[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 0)
        with pytest.raises(AttributeError):
            delattr(record, attribute)
    assert getattr(record, field) is before
