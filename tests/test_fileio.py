import csv
import hashlib
import os
import signal
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxtem import fileio


def test_pgm_round_trip_within_one_quantisation_step(tmp_path):
    data = np.random.default_rng(4).normal(size=(12, 20)) * 0.3 - 0.1
    path = tmp_path / "map.pgm"
    # the two files written, which the manifest lists
    assert fileio.write_pgm16(path, data) == (path, tmp_path / "map.pgm.txt")
    assert sorted(tmp_path.iterdir()) == [path, tmp_path / "map.pgm.txt"]
    back = fileio.read_scaled_pgm(path)
    assert back.shape == data.shape
    step = (data.max() - data.min()) / fileio.PGM_MAXVAL
    assert np.abs(back - data).max() <= step
    assert back.min() == data.min()


def test_pgm_of_a_constant_map_is_all_zero(tmp_path):
    path = tmp_path / "flat.pgm"
    fileio.write_pgm16(path, np.full((3, 5), 0.25))
    assert not fileio.read_pgm16(path).any()
    assert np.all(fileio.read_scaled_pgm(path) == 0.25)


def _pgm16_bytes_of_copies(array):
    """The P5 file write_pgm16 wrote before it scaled one copy in place and wrote header and buffer apart."""
    data = np.asarray(array, dtype=float)
    lo = float(np.nanmin(data))
    hi = float(np.nanmax(data))
    if hi > lo:
        scaled = (np.nan_to_num(data, nan=lo) - lo) / (hi - lo) * fileio.PGM_MAXVAL
    else:
        scaled = np.zeros_like(data)
    u16 = np.round(scaled).astype(">u2")
    return f"P5\n{data.shape[1]} {data.shape[0]}\n{fileio.PGM_MAXVAL}\n".encode("ascii") + u16.tobytes()


def _pgm16_cases():
    rng = np.random.default_rng(16)
    holes = rng.normal(size=(40, 24))
    holes[rng.random(holes.shape) < 0.1] = np.nan
    # values that scale to k + 1/2 in exact arithmetic, so the operation order shows in the rounding
    halves = 3.0 * (np.arange(65534) + 0.5) / fileio.PGM_MAXVAL
    return {
        "half-steps": np.concatenate([[0.0], halves, [3.0]]).reshape(256, 256),
        "random": rng.normal(size=(33, 70)) * 1e3 - 7.0,
        "intensity": np.abs(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) ** 2,
        "transposed": rng.uniform(size=(20, 9)).T,
        "constant": np.full((5, 8), -2.5),
        "nan": holes,
        "nan-and-constant": np.where(rng.random((6, 6)) < 0.5, np.nan, 3.0),
    }


@pytest.mark.parametrize("name", list(_pgm16_cases()))
def test_write_pgm16_has_the_bytes_of_the_copying_form(name, tmp_path):
    array = _pgm16_cases()[name]
    before = array.copy()
    path, _ = fileio.write_pgm16(tmp_path / "map.pgm", array)
    assert path.read_bytes() == _pgm16_bytes_of_copies(before)
    # the caller's array is scaled in a copy
    np.testing.assert_array_equal(array, before)


def test_csv_floats_round_trip_exactly(tmp_path):
    values = [0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23, float("inf")]
    path = tmp_path / "t.csv"
    fileio.write_csv(path, ["i", "x"], [(i, v) for i, v in enumerate(values)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i", "x"]
    assert [float(x) for _, x in rows[1:]] == values
    assert [int(i) for i, _ in rows[1:]] == list(range(len(values)))


def test_csv_writes_numpy_floats_like_python_floats(tmp_path):
    path = tmp_path / "t.csv"
    values = [0.5, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
    fileio.write_csv(path, ["x", "y"], [(np.float64(v), v) for v in values])
    lines = path.read_text().splitlines()
    assert lines[1] == "0.5,0.5"
    assert all(x == y == repr(v) for (x, y), v in zip((line.split(",") for line in lines[1:]), values))


def _csv_writer_bytes(path, header, rows) -> bytes:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


_EDGE_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 1e-5, 0.1, 1.0 / 3.0, -2.5,
]
# every identifier cell the package writes through fileio: estimator modes and design-report units
_IDENTIFIERS = [
    "conventional", "entangled",
    "eV", "m", "kg m/s", "m/s", "rad", "H", "A", "Wb", "s", "Hz", "x",
]
_FLOATS = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from(_EDGE_FLOATS),
)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 6))
    # csv.writer quotes a row that is one empty string; no table has one
    identifiers = _IDENTIFIERS + ([""] if width > 1 else [])
    cells = st.one_of(
        st.integers(-(2**63), 2**63),
        _FLOATS,
        _FLOATS.map(np.float64),
        st.sampled_from(identifiers),
    )
    header = draw(st.lists(st.sampled_from(_IDENTIFIERS), min_size=width, max_size=width))
    rows = draw(st.lists(st.tuples(*[cells] * width), max_size=3 * fileio.CSV_BLOCK_ROWS + 1))
    return header, rows


# slow, about 1 s: 150 examples of up to 3 * CSV_BLOCK_ROWS + 1 rows, each written twice, by write_csv
# and by csv.writer, so that tables of more than one block and every cell kind come up in one run
@settings(deadline=None, max_examples=150)
@given(table=_tables())
def test_write_csv_matches_the_csv_module_byte_for_byte(table, tmp_path_factory):
    header, rows = table
    directory = tmp_path_factory.mktemp("csv")
    fileio.write_csv(directory / "ours.csv", header, rows)
    assert (directory / "ours.csv").read_bytes() == _csv_writer_bytes(directory / "ref.csv", header, rows)


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 2.0), (3,)],
        [(1, 2.0, "x")],
        [(1, 2.0), (3, 4.0, "x")],
        [(i, float(i)) for i in range(fileio.CSV_BLOCK_ROWS)] + [(0, 0.0, "x")],
    ],
    ids=["short-row", "long-row", "long-row-after-a-good-one", "long-row-in-a-later-block"],
)
def test_write_csv_rejects_a_ragged_row(tmp_path, rows):
    with pytest.raises(ValueError):
        fileio.write_csv(tmp_path / "t.csv", ["i", "x"], rows)


def _long_row(i):
    return (i, float(i), "x")


def _killed(i):
    os.kill(os.getpid(), signal.SIGKILL)


class _UnloadableError(Exception):
    """Pickles, but cannot be unpickled: its constructor wants two arguments and gets one."""

    def __init__(self, item, why):
        super().__init__(f"item {item}: {why}")


def _raise_unloadable(i):
    raise _UnloadableError(i, "bad item")


def _part_failing_at(bad, fault):
    """A part that writes (i, float(i)) for each item, except `fault(i)` at the items in `bad`."""

    def run_part(lo, hi, write):
        write(fault(i) if i in bad else (i, float(i)) for i in range(lo, hi))
        return lo

    return run_part


@pytest.mark.parametrize(
    "bad, fault, error, message",
    [
        ({10}, _long_row, ValueError, None),
        ({150}, _long_row, ValueError, None),
        ({100, 150}, _raise_unloadable, RuntimeError, "items 64..127 failed without a report"),
        ({150}, _killed, RuntimeError, r"items 128..191 failed without a report \(child exit status -9\)"),
    ],
    ids=["in-the-first-part", "in-a-child-part", "in-a-child-with-an-error-pickle-cannot-carry", "in-a-killed-child"],
)
def test_write_csv_parts_reaps_every_child_and_leaves_nothing_behind(tmp_path, monkeypatch, capfd, bad, fault, error, message):
    # 192 items on three CPUs: items 64..127 and 128..191 go to two children
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    temp_dir = tmp_path / "tmp"
    temp_dir.mkdir()
    monkeypatch.setenv("TMPDIR", str(temp_dir))
    monkeypatch.setattr(tempfile, "tempdir", None)
    with open(tmp_path / "log.txt", "w") as log:
        log.write("written before the call\n")  # left in the buffer, unflushed
        with pytest.raises(error, match=message) as raised:
            fileio.write_csv_parts(tmp_path / "t.csv", ["i", "x"], 192, _part_failing_at(bad, fault))
    assert (tmp_path / "log.txt").read_text() == "written before the call\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(temp_dir.iterdir()) == []
    err = capfd.readouterr().err
    if fault is _raise_unloadable:
        assert "_UnloadableError: item 100: bad item" in err  # the child's own traceback
    else:
        assert "Traceback" not in err  # a reported error is raised here, not printed by the child
    if error is ValueError:  # the error one sequential run raises
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with pytest.raises(ValueError) as sequential:
            fileio.write_csv_parts(tmp_path / "t.csv", ["i", "x"], 192, _part_failing_at(bad, fault))
        assert str(raised.value) == str(sequential.value)


def test_write_csv_parts_raises_the_lowest_failing_parts_error(tmp_path, monkeypatch):
    def fault(i):
        raise LookupError(f"item {i}")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with pytest.raises(LookupError, match="^item 100$"):
        fileio.write_csv_parts(tmp_path / "t.csv", ["i", "x"], 192, _part_failing_at({100, 150}, fault))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_write_csv_parts_writes_one_table_and_returns_each_parts_value(tmp_path, monkeypatch, cpus):
    # each part's value pickles to more than a pipe holds (64 KiB), so a child that sent it through
    # a pipe would wait for this process to finish the first part before it could exit
    def run_part(lo, hi, write):
        write((i, float(i) ** 3, "x") for i in range(lo, hi))
        return lo, hi, [(i, float(i)) for i in range(lo, hi) for _ in range(100)]

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    values = fileio.write_csv_parts(tmp_path / "cubes.csv", ["i", "cube", "tag"], 200, run_part)
    bounds = [200 * i // cpus for i in range(cpus + 1)]
    assert [value[:2] for value in values] == list(zip(bounds, bounds[1:]))
    assert [row for value in values for row in value[2]] == [(i, float(i)) for i in range(200) for _ in range(100)]
    fileio.write_csv(tmp_path / "ref.csv", ["i", "cube", "tag"], ((i, float(i) ** 3, "x") for i in range(200)))
    assert (tmp_path / "cubes.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "bad, fault",
    [(set(), _long_row), ({10}, _long_row), ({150}, _long_row), ({150}, _killed)],
    ids=["success", "in-the-first-part", "in-a-child-part", "in-a-killed-child"],
)
def test_write_csv_parts_leaves_no_descriptor_open(tmp_path, monkeypatch, bad, fault):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    before = sorted(os.listdir("/proc/self/fd"))
    try:
        fileio.write_csv_parts(tmp_path / "t.csv", ["i", "x"], 192, _part_failing_at(bad, fault))
    except (ValueError, RuntimeError):
        assert bad
    else:
        assert not bad
    assert sorted(os.listdir("/proc/self/fd")) == before


def _pairs_file(tmp_path, lines):
    path = tmp_path / "pairs.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_read_pairs_csv_orders_pairs_by_id_and_flattens_indices(tmp_path):
    path = _pairs_file(
        tmp_path,
        # blank lines, one of them last, are skipped
        ["pair,region,row,col", "2,1,1,3", "0,0,0,0", "", "2,0,1,2", "0,1,0,1", "0,1,1,1", ""],
    )
    pairs = fileio.read_pairs_csv(path, shape=(2, 4))
    assert len(pairs) == 2
    (s0, s1), (t0, t1) = pairs
    assert s0.tolist() == [0] and s1.tolist() == [1, 5]
    assert t0.tolist() == [6] and t1.tolist() == [7]
    assert s0.dtype == np.int64


@pytest.mark.parametrize(
    "lines, message",
    [
        (["pair,region,x,y", "0,0,0,0"], "expected header"),
        (["pair,region,row,col", "0,2,0,0"], "region must be 0 or 1"),
        ([], "expected header"),
        (["pair,region,row,col", "0,0,0,0", "0,1,0"], "line 3: expected four integers, got"),
        (["pair,region,row,col", "0,1,0,x"], "line 2: expected four integers, got"),
    ],
    ids=["bad-header", "bad-region", "empty", "three-cells", "not-an-integer"],
)
def test_read_pairs_csv_rejects_bad_files(tmp_path, lines, message):
    with pytest.raises(ValueError, match=message):
        fileio.read_pairs_csv(_pairs_file(tmp_path, lines), shape=(2, 4))


def test_hash_tree_depends_on_names_and_bytes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.txt").write_text("1")
    first = fileio.hash_tree(tmp_path / "a")
    (tmp_path / "a" / "x.txt").write_text("2")
    assert fileio.hash_tree(tmp_path / "a") != first
    (tmp_path / "a" / "x.txt").rename(tmp_path / "a" / "y.txt")
    (tmp_path / "a" / "y.txt").write_text("1")
    assert fileio.hash_tree(tmp_path / "a") != first


def test_sha256_file_reads_across_block_boundaries(tmp_path):
    data = np.random.default_rng(2).bytes((5 << 20) // 2)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    assert fileio.sha256_file(path) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("hasher", ["sha256_file", "hash_tree"])
def test_file_hashes_hold_one_small_buffer(hasher, tmp_path):
    data = np.random.default_rng(3).bytes(4 << 20)
    (tmp_path / "big.bin").write_bytes(data)
    if hasher == "sha256_file":
        target, want = tmp_path / "big.bin", hashlib.sha256(data).hexdigest()
    else:
        target, want = tmp_path, hashlib.sha256(b"big.bin\0" + data + b"\0").hexdigest()
    tracemalloc.start()
    try:
        digest = getattr(fileio, hasher)(target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == want
    assert peak < 128 << 10


def test_importing_the_command_line_loads_no_openssl():
    # hashlib maps OpenSSL's libcrypto (~3.6 MB RSS), so it loads at a command's first hash, not under its grids;
    # a child compares its modules before and after, so a site hook that loads _hashlib first shows nothing
    code = "import sys; before = set(sys.modules); import fluxtem.cli; print('_hashlib' in set(sys.modules) - before)"
    src = str(Path(fileio.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "False\n"
