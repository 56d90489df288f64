import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxtem import hexcsv

from conftest import SMALL_OPTICS

# float64 bit patterns built from their fields, so that zeros and subnormals (exponent 0) and
# infinities and NaNs (exponent 2047) of either sign come up as often as the normal floats
_BIT_PATTERNS = st.one_of(
    st.builds(
        lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
        st.integers(0, 1),
        st.one_of(st.sampled_from([0, 1, 1022, 1023, 2046, 2047]), st.integers(0, 2047)),
        st.one_of(st.sampled_from([0, 1, 2**52 - 1]), st.integers(0, 2**52 - 1)),
    ),
    st.integers(0, 2**64 - 1),
)


# slow, about 1 s: 200 examples, each writing and reading a file in its own directory, because
# infinities are the rarest class: in two runs, only 8 and 2-3 of the 200 examples held one
@settings(deadline=None, max_examples=200)
@given(patterns=st.lists(_BIT_PATTERNS, min_size=1, max_size=40))
def test_write_hex_csv_writes_float_hex_of_any_bit_pattern(patterns, tmp_path_factory):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    path = tmp_path_factory.mktemp("hex") / "t.csv"
    labels = np.arange(len(values)) % 2
    hexcsv.write_hex_csv(path, ["i", "x", "y", "name"], [values, values[::-1]], labels, ["even", "odd"])
    rows = zip(values.tolist(), values[::-1].tolist(), ["even", "odd"] * len(values))
    want = "".join(f"{i},{float.hex(x)},{float.hex(y)},{name}\r\n" for i, (x, y, name) in enumerate(rows))
    assert path.read_bytes() == ("i,x,y,name\r\n" + want).encode("ascii")


def test_write_hex_csv_writes_float_hex_of_every_sign_and_exponent_field(tmp_path):
    # all 4,096 fields, each with the fractions 0, 1 and 2^52 - 1, in one call, so the rows cross
    # block edges and row 1000's index digits; the reversed column puts each field beside others
    fields = np.repeat(np.arange(4096, dtype=np.uint64) << np.uint64(52), 3)
    values = (fields | np.tile(np.array([0, 1, 2**52 - 1], dtype=np.uint64), 4096)).view(np.float64)
    path = tmp_path / "t.csv"
    hexcsv.write_hex_csv(path, ["i", "x", "y", "name"], [values, values[::-1]], np.zeros(values.size, dtype=int), ["f"])
    rows = zip(values.tolist(), values[::-1].tolist())
    want = "".join(f"{i},{float.hex(x)},{float.hex(y)},f\r\n" for i, (x, y) in enumerate(rows))
    assert path.read_bytes() == ("i,x,y,name\r\n" + want).encode("ascii")


@pytest.mark.parametrize(
    "header, columns, labels",
    [
        (["i", "x", "name"], [np.zeros(3)], np.zeros(2, dtype=int)),
        (["i", "x", "y", "name"], [np.zeros(3), np.zeros(2)], np.zeros(3, dtype=int)),
        (["i", "x", "name"], [np.zeros(2)], np.array([0, 2])),
        (["i", "x", "name"], [np.zeros(2)], np.array([-1, 0])),
        (["i", "x"], [np.zeros(2)], np.zeros(2, dtype=int)),
    ],
    ids=["short-labels", "short-column", "label-past-the-names", "negative-label", "short-header"],
)
def test_write_hex_csv_rejects_mismatched_inputs(tmp_path, header, columns, labels):
    with pytest.raises(ValueError):
        hexcsv.write_hex_csv(tmp_path / "t.csv", header, columns, labels, ["a", "b"])


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
