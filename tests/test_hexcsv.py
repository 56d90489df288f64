import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxtem import hexcsv

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
