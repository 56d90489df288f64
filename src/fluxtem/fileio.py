"""Deterministic file emission: 16-bit PGM images, CSV tables, manifests.

All writers are timestamp-free and format floats with repr, so a run
with a fixed configuration and seed reproduces its output tree
bit-exactly.  `write_csv` formats its rows itself, a block of
`CSV_BLOCK_ROWS` rows at a time, and writes the bytes `csv.writer` would
write for every table this package emits; the `csv` module only reads.
"""

from __future__ import annotations

import csv
import hashlib
from itertools import islice
from pathlib import Path

import numpy as np

PGM_MAXVAL = 65535

# rows formatted per write: larger blocks hold more formatted text at once
# and raise peak RSS, while 64 rows already leave no Python frame per cell
CSV_BLOCK_ROWS = 64


def write_pgm16(path, array: np.ndarray) -> None:
    """Write a float array as big-endian 16-bit P5 PGM with a scaling sidecar.

    Values are mapped linearly from [min, max] to [0, 65535]; the sidecar
    `<path>.txt` records min and max so the image is invertible.
    """
    path = Path(path)
    data = np.asarray(array, dtype=float)
    if data.ndim != 2:
        raise ValueError("PGM output needs a 2-D array")
    lo = float(np.nanmin(data))
    hi = float(np.nanmax(data))
    if hi > lo:
        scaled = (np.nan_to_num(data, nan=lo) - lo) / (hi - lo) * PGM_MAXVAL
    else:
        scaled = np.zeros_like(data)
    u16 = np.round(scaled).astype(">u2")
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n{PGM_MAXVAL}\n".encode("ascii")
    path.write_bytes(header + u16.tobytes())
    Path(str(path) + ".txt").write_text(f"min = {lo!r}\nmax = {hi!r}\n")


def read_pgm16(path) -> np.ndarray:
    """Read a binary P5 PGM written by `write_pgm16` (returns uint16)."""
    raw = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":  # comment line
            pos = raw.index(b"\n", pos) + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {fields[0]!r}")
    width, height, maxval = (int(f) for f in fields[1:])
    if maxval != PGM_MAXVAL:
        raise ValueError(f"expected 16-bit PGM (maxval {PGM_MAXVAL}), got {maxval}")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(raw, dtype=">u2", offset=pos, count=width * height)
    return pixels.reshape(height, width).astype(np.uint16)


def read_scaled_pgm(path) -> np.ndarray:
    """Read a PGM plus its sidecar back into physical float values."""
    u16 = read_pgm16(path)
    meta = {}
    for line in Path(str(path) + ".txt").read_text().splitlines():
        key, _, value = line.partition("=")
        meta[key.strip()] = float(value)
    lo, hi = meta["min"], meta["max"]
    return lo + (u16.astype(float) / PGM_MAXVAL) * (hi - lo)


def write_csv(path, header: list[str], rows) -> None:
    """CSV with CRLF line ends and each cell written as `str(cell)`: the bytes of `csv.writer`.

    `str` of a float, numpy float64 included, is the repr of the Python
    float, as `csv.writer` writes it.  No cell is quoted: every cell the
    package writes is a number or an identifier free of commas, quotes
    and line breaks, and no row is one empty string.  A row whose length
    differs from the header's raises ValueError.
    """
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            columns = [map(str, col) for col in zip(*block, strict=True)]
            if len(columns) != len(header):
                raise ValueError(f"{path}: a row has {len(columns)} cells, the header {len(header)}")
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def read_csv_floats(path) -> np.ndarray:
    """Read a headerless CSV of numbers into a 2-D float array."""
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path} holds no data")
    return np.asarray(rows, dtype=float)


def read_pairs_csv(path, width: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read a `pair,region,row,col` list into (S0, S1) flat-index regions, ordered by pair id.

    `width` is the phase map's row length; region must be 0 (S0) or 1 (S1).
    """
    pair_sets: dict[int, tuple[list[int], list[int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["pair", "region", "row", "col"]:
            raise ValueError(f"expected header pair,region,row,col, got {header!r}")
        for row in reader:
            pair, region, r, c = (int(v) for v in row)
            if region not in (0, 1):
                raise ValueError(f"region must be 0 or 1, got {region}")
            pair_sets.setdefault(pair, ([], []))[region].append(r * width + c)
    return [
        (np.array(s0, dtype=np.int64), np.array(s1, dtype=np.int64))
        for s0, s1 in (pair_sets[p] for p in sorted(pair_sets))
    ]


def sha256_file(path) -> str:
    """SHA-256 of a file, read in 1 MiB blocks so a large output is never held whole."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(path, entries: dict, files: list[Path] | None = None) -> None:
    """key = value manifest; files are listed with their SHA-256 hashes.

    Entries are written in sorted key order and file paths relative to
    the manifest directory, keeping the manifest itself reproducible.
    """
    path = Path(path)
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    for f in sorted(files or []):
        rel = Path(f).name
        lines.append(f"file.{rel} = sha256:{sha256_file(f)}")
    path.write_text("\n".join(lines) + "\n")


def hash_tree(directory) -> str:
    """Order-independent digest of every file (name and bytes) under a directory."""
    directory = Path(directory)
    h = hashlib.sha256()
    for f in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()
