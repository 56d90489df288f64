import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fluxtem import hexcsv

from conftest import SMALL_OPTICS, hex_cell


def test_write_hex_csv_writes_every_finite_sign_and_exponent_field_exactly(tmp_path):
    # all 4,094 finite fields, each with the fractions 0, 1 and 2^52 - 1, in one call, so the rows
    # cross block edges; the reversed column puts each field beside others
    fields = np.array([sign << 11 | biased for sign in (0, 1) for biased in range(2047)], dtype=np.uint64)
    values = (np.repeat(fields << np.uint64(52), 3) | np.tile(np.array([0, 1, 2**52 - 1], dtype=np.uint64), fields.size)).view(np.float64)
    codes = np.arange(values.size) % 10
    path = tmp_path / "t.csv"
    hexcsv.write_hex_csv(path, ["x", "y", "code"], [values, values[::-1]], codes)
    rows = zip(values.tolist(), values[::-1].tolist(), codes.tolist())
    want = "".join(f"{hex_cell(x)},{hex_cell(y)},{code}\r\n" for x, y, code in rows)
    assert path.read_bytes() == ("x,y,code\r\n" + want).encode("ascii")
    # every cell reads back bit for bit, -0.0 and the subnormals included
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(2), converters=float.fromhex)
    assert table.tobytes() == np.stack([values, values[::-1]], axis=1).tobytes()


def test_every_row_has_the_same_length(tmp_path):
    values = np.array([0.0, -0.0, 5e-324, -1.0, 1.7976931348623157e308, np.pi, -2.2250738585072014e-308])
    hexcsv.write_hex_csv(tmp_path / "t.csv", ["x", "y", "code"], [values, values[::-1]], np.arange(values.size))
    header, *rows = (tmp_path / "t.csv").read_bytes().split(b"\r\n")[:-1]
    assert header == b"x,y,code"
    assert {len(row) for row in rows} == {2 * 25 + 1}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, -np.nan])
def test_a_non_finite_value_raises_naming_the_path(tmp_path, bad):
    values = np.zeros(2 * hexcsv.HEX_BLOCK_ROWS)
    values[-1] = bad
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=re.escape(str(path))):
        hexcsv.write_hex_csv(path, ["x", "code"], [values], np.zeros(values.size, dtype=int))


@pytest.mark.parametrize(
    "header, columns, codes",
    [
        (["x", "code"], [np.zeros(3)], np.zeros(2, dtype=int)),
        (["x", "y", "code"], [np.zeros(3), np.zeros(2)], np.zeros(3, dtype=int)),
        (["x", "code"], [np.zeros(2)], np.array([0, 10])),
        (["x", "code"], [np.zeros(2)], np.array([-1, 0])),
        (["x"], [np.zeros(2)], np.zeros(2, dtype=int)),
    ],
    ids=["short-codes", "short-column", "code-past-nine", "negative-code", "short-header"],
)
def test_write_hex_csv_rejects_mismatched_inputs(tmp_path, header, columns, codes):
    with pytest.raises(ValueError):
        hexcsv.write_hex_csv(tmp_path / "t.csv", header, columns, codes)


def test_importing_the_command_line_compiles_no_hex_writer():
    # a process compiles the sources it has no bytecode for, and the compiler's memory stays resident,
    # so only a command that writes the detector's table loads this module
    code = "import sys; import fluxtem.cli; print('fluxtem.hexcsv' in sys.modules)"
    src = str(Path(hexcsv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"


# runs each named command line in-process and prints {name: [exit code, whether hexcsv is loaded after it]}
_LOADS_HEXCSV = """
import contextlib, io, json, sys, tempfile
from fluxtem import cli
loaded = {}
for name, argv in json.loads(sys.argv[1]).items():
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        loaded[name] = [cli.main(argv + ["--out", out]), "fluxtem.hexcsv" in sys.modules]
print(json.dumps(loaded))
"""


def test_only_a_command_that_writes_the_detector_table_runs_the_hex_writer():
    # perfbench's scaling and protocol workloads write no detector table, so a change to this module
    # moves neither; optics runs last, to show that the child sees the module once it is loaded
    def argv(command, *overrides):
        return [command, "--seed", "12345", "--check", *(arg for item in overrides for arg in ("--set", item))]

    argvs = {
        "scaling": argv("scaling", "scaling.repetitions=20"),
        "protocol": argv("protocol", "protocol.detector=optics", "protocol.repetitions=200", *SMALL_OPTICS),
        "optics": argv("optics", *SMALL_OPTICS),
    }
    src = str(Path(hexcsv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = [sys.executable, "-c", _LOADS_HEXCSV, json.dumps(argvs)]
    child = subprocess.run(code, env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"scaling": [0, False], "protocol": [0, False], "optics": [0, True]}
