import hashlib

import pytest

from fluxtem import cli, fileio, optics

# SHA-256 of the scaling outputs at the default config and seed 12345
SCALING_TABLE_SHA256 = "6d01bddd1377ca93f5ddaf28c5efcd27d4d2d09256bda8f18387eb06cd839a80"
SCALING_PROBES_SHA256 = "809250e5833d236cca643dfb211375521589180b4ad0b524a263217d732d80ab"


# hash_tree of each command's output at a small config and seed 12345
SMALL_OPTICS = ["optics.n=64", "optics.pitch=4e-7"]
GOLDEN_TREES = {
    "design": ([], True, "f9bd85b928ad3ef06579c982ed6a3c8b88d6cd2a1e9109ae03f6b8d84ea5ccf3"),
    "optics": (SMALL_OPTICS, True, "6c8c6278ce3f697ab12b6f1b0ac10ca3285943df2c3b6a49db5b736762fc4af6"),
    "protocol": (["protocol.repetitions=200"], True, "57765b02ff92eb4a247585fe648013af6cffa8d29cbeaa8244a5a5dde6dc42d8"),
    "protocol-optics": (
        ["protocol.detector=optics", "protocol.repetitions=200", *SMALL_OPTICS],
        True,
        "c9e7ab62f9e77652a9f5aa8321a62a86faf8303534efb417742c7d359804a8ca",
    ),
    # image's rmse_ratio check does not hold at this size, so it runs without --check
    "image": (["image.shape=16", "image.repetitions=2"], False, "dae589f1515acd0ea8e83ad886f2793706d60b95ad3e743ec0e926ef08e57c8e"),
    "image-optics": (
        ["image.shape=16", "image.repetitions=2", "protocol.detector=optics", *SMALL_OPTICS],
        False,
        "f34f79fe8c20a49dc1dba5c2e6c2bc7f955685e009ca1fb84dc6597db4ca8fd2",
    ),
}


# hash_tree of the default config on the optics detector at seed 12345, with --check
PROTOCOL_OPTICS_TREE = "63ad2378e7b48afe1d13485f6235e44073b94c8211d490fc335bcd2986c4c56d"
# hash_tree of `optics` at the default config and seed 12345, with --check
OPTICS_TREE = "6f522b26b2a2c09fd3bccddd55a3f3d1be3dcf20b01ececd8b01e2885d357894"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
def test_small_config_golden_tree(name, tmp_path):
    overrides, check, want = GOLDEN_TREES[name]
    argv = [name.split("-")[0], "--seed", "12345"]
    for override in overrides:
        argv += ["--set", override]
    if check:
        argv.append("--check")
    trees = []
    for run in ("a", "b"):
        assert cli.main(argv + ["--out", str(tmp_path / run)]) == cli.EXIT_OK
        trees.append(fileio.hash_tree(tmp_path / run))
    assert trees[0] == trees[1]
    assert trees[0] == want


def test_default_protocol_optics_tree(tmp_path):
    argv = ["protocol", "--seed", "12345", "--set", "protocol.detector=optics", "--check", "--out", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_OK
    assert fileio.hash_tree(tmp_path) == PROTOCOL_OPTICS_TREE


def test_default_optics_tree(tmp_path):
    assert cli.main(["optics", "--seed", "12345", "--check", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert fileio.hash_tree(tmp_path) == OPTICS_TREE


def test_optics_traces_the_beam_path_once_outside_the_detector(tmp_path, monkeypatch):
    """Two transforms to the ring plane and two more to the specimen maps, plus build_detector's six."""
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
    assert len(calls) == 10


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
        ("beam.energy=inf", "beam.energy"),
        ("image.total_budget=0", "image.total_budget"),
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
        ("squid.turns=0", "squid.turns"),
        ("squid.lateral_size=-1", "squid.lateral_size"),
        ("timing.coherence_width=0", "timing.coherence_width"),
        ("optics.boundary_power_warn=-1", "optics.boundary_power_warn"),
        # passes its own limit; design checks it against the electron wavelength
        ("beam.waist=1e-300", "beam.waist"),
    ],
)
def test_bad_scaling_input_is_a_config_error(override, key, tmp_path, capsys):
    assert cli.main(["design", "--set", override, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


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
