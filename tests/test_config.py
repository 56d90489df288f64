import ast
import math
from pathlib import Path

import pytest

from fluxtem import config
from fluxtem.config import SCHEMA, load_config
from fluxtem.errors import ConfigError

# hashed into every manifest: a change here changes every output tree
DEFAULT_CONFIG_HASH = "6e64e7696e7037e8d6093f6d3d951d55d42c994b41e5acd92ccb9f40f4a93c1d"


def test_default_config_hash_is_stable():
    assert load_config().config_hash() == DEFAULT_CONFIG_HASH


def test_every_limit_names_a_schema_key_and_admits_its_default():
    for key, (_, _, default, limit) in SCHEMA.items():
        if limit is None or default is None:
            continue
        test, _ = limit
        for value in default if isinstance(default, tuple) else (default,):
            assert test(value), key


def test_every_kind_and_unit_dimension_is_used_by_a_schema_row():
    kinds = {row[0] for row in SCHEMA.values()}
    dimensions = {row[1] for row in SCHEMA.values()}
    vocabulary = {value for name, value in vars(config).items() if name.isupper() and isinstance(value, str)}
    assert vocabulary - kinds - dimensions == set()
    assert set(config._UNITS) - dimensions == set()


# each key with a None default -> (a value its limit admits, a value it rejects or None without a limit)
OPTIONAL_KEYS = {
    "image.pairs_file": ("pairs.csv", None),
    "image.phase_file": ("phase.csv", None),
    "image.total_budget": ("5000", "0"),
    "optics.detector_aperture_radius": ("2um", "0"),
}


@pytest.mark.parametrize("key", sorted(key for key, row in SCHEMA.items() if row[2] is None))
def test_none_or_an_empty_value_restores_an_optional_key(key):
    good, bad = OPTIONAL_KEYS[key]
    assert load_config(None, [f"{key}={good}"])[key] is not None
    for raw in ("none", "None", ""):
        assert load_config(None, [f"{key}={good}", f"{key}={raw}"])[key] is None
    if bad is not None:
        with pytest.raises(ConfigError) as err:
            load_config(None, [f"{key}={bad}"])
        assert key in str(err.value)


def test_canonical_text_round_trips_through_a_config_file(tmp_path):
    cfg = load_config(None, ["beam.energy=200keV", "mask.gap_width=5deg", "scaling.k_list=1,3"])
    path = tmp_path / "run.cfg"
    path.write_text(cfg.canonical_text())
    again = load_config(path)
    assert again.canonical_text() == cfg.canonical_text()
    assert again["beam.energy"] == 200e3
    assert again["mask.gap_width"] == pytest.approx(math.radians(5.0))
    assert again["scaling.k_list"] == (1.0, 3.0)


def test_out_of_range_value_in_a_file_names_key_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# comment\nprotocol.k = 3\nprotocol.basis = hadamard\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "protocol.basis" in str(err.value) and err.value.line == 3
    assert "protocol.basis" in str(err.value) and str(err.value).startswith("line 3:")


def unread_keys(package, keys):
    """The keys that no module of `package` other than config.py names as a string literal."""
    literals = set()
    for path in sorted(Path(package).glob("*.py")):
        if path.name != "config.py":
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
    return sorted(set(keys) - literals)


def test_every_schema_key_is_read_outside_config():
    assert unread_keys(Path(config.__file__).parent, SCHEMA) == []


def test_the_key_guard_names_each_key_only_config_names(tmp_path):
    (tmp_path / "config.py").write_text('SCHEMA = {"seed": 0, "beam.energy": 1, "squid.turns": 2}\n')
    (tmp_path / "cli.py").write_text("def run(cfg):\n    return f\"{cfg['seed']}\" + str(cfg['beam.energy'])\n")
    assert unread_keys(tmp_path, ["seed", "beam.energy", "squid.turns"]) == ["squid.turns"]
