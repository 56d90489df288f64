import csv
import hashlib

import numpy as np
import pytest

from fluxtem import fileio


def test_pgm_round_trip_within_one_quantisation_step(tmp_path):
    data = np.random.default_rng(4).normal(size=(12, 20)) * 0.3 - 0.1
    path = tmp_path / "map.pgm"
    fileio.write_pgm16(path, data)
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


def _pairs_file(tmp_path, lines):
    path = tmp_path / "pairs.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_read_pairs_csv_orders_pairs_by_id_and_flattens_indices(tmp_path):
    path = _pairs_file(
        tmp_path,
        ["pair,region,row,col", "2,1,1,3", "0,0,0,0", "2,0,1,2", "0,1,0,1", "0,1,1,1"],
    )
    pairs = fileio.read_pairs_csv(path, width=4)
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
    ],
    ids=["bad-header", "bad-region", "empty"],
)
def test_read_pairs_csv_rejects_bad_files(tmp_path, lines, message):
    with pytest.raises(ValueError, match=message):
        fileio.read_pairs_csv(_pairs_file(tmp_path, lines), width=4)


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
