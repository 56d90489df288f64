import hashlib

import pytest

from fluxtem import cli, fileio

# SHA-256 of the scaling outputs at the default config and seed 12345
SCALING_TABLE_SHA256 = "6d01bddd1377ca93f5ddaf28c5efcd27d4d2d09256bda8f18387eb06cd839a80"
SCALING_PROBES_SHA256 = "809250e5833d236cca643dfb211375521589180b4ad0b524a263217d732d80ab"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    ],
)
def test_bad_scaling_input_is_a_config_error(override, key, tmp_path, capsys):
    assert cli.main(["scaling", "--set", override, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_ambiguous_k_is_a_precondition_error(tmp_path, capsys):
    assert cli.main(["scaling", "--set", "scaling.k_list=1,32", "--out", str(tmp_path)]) == cli.EXIT_PRECONDITION
    assert "k = 32" in capsys.readouterr().err
