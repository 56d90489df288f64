"""Deterministic file emission: 16-bit PGM images, CSV tables, manifests.

All writers are timestamp-free and format floats with repr, so a run
with a fixed configuration and seed reproduces its output tree
bit-exactly.  `write_csv` formats its rows itself, a block of
`CSV_BLOCK_ROWS` rows at a time, and writes the bytes `csv.writer` would
write for every table it is given; the `csv` module only reads.  The
detector's table is the one the package writes elsewhere: `hexcsv`
writes it in rows of one width, each float an exact hex cell.

`write_csv_parts` is the package's one fork helper.  It splits a run's
items, the protocol's trials, into one contiguous part per CPU that the
process may run on.  Each part writes its rows into one table and
returns one value; every part after the first runs in a forked child and
reports through a temporary file, and the table gets the bytes one
sequential pass writes.  `os.fork` and `os.sched_getaffinity` are Linux
facilities, so the package is Linux-only.
"""

from __future__ import annotations

import csv
import functools
import os
import pickle
import shutil
import tempfile
from itertools import islice
from pathlib import Path

import numpy as np

PGM_MAXVAL = 65535

# rows formatted per write: larger blocks hold more formatted text at once
# and raise peak RSS, while 64 rows already leave no Python frame per cell
CSV_BLOCK_ROWS = 64


def write_pgm16(path, array: np.ndarray) -> tuple[Path, Path]:
    """Write a float array as big-endian 16-bit P5 PGM with a scaling sidecar; return both paths.

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
        # one copy is scaled and rounded in place, with the bits of round((x - lo) / (hi - lo) * maxval)
        scaled = np.nan_to_num(data, nan=lo)
        scaled -= lo
        scaled /= hi - lo
        scaled *= PGM_MAXVAL
        np.round(scaled, out=scaled)
    else:
        scaled = np.zeros_like(data)
    u16 = scaled.astype(">u2", order="C")
    with path.open("wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(u16)
    sidecar = Path(str(path) + ".txt")
    sidecar.write_text(f"min = {lo!r}\nmax = {hi!r}\n")
    return path, sidecar


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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, path, len(header), rows)


def write_csv_parts(path, header: list[str], n_items: int, run_part) -> list:
    """Write a CSV table whose rows come from items 0..n_items-1, on every CPU; return each part's value.

    `run_part(lo, hi, write)` handles items lo..hi-1: `write(rows)` writes
    rows into the table as `write_csv` formats them, and the call returns
    one picklable value.  The items are split into contiguous parts, one
    per CPU in `os.sched_getaffinity(0)` but none smaller than
    `CSV_BLOCK_ROWS` items, so one CPU or fewer than two blocks of items
    forks nothing.  The first part runs here and writes straight into the
    table.  Each other part runs in a forked child, which writes its rows
    into one anonymous temporary file and pickles its value into another;
    no directory lists either.  The rows are appended in item order, so
    the table holds the bytes one `run_part(0, n_items, write)` call
    writes, and the values come back in part order.

    A child that raises reports its exception instead.  Once the first
    part has succeeded, the exception of the lowest failing part is
    raised here, the error a sequential run raises.  A child that does
    not exit 0 with a report (a signal, or an exception pickle cannot
    carry) raises RuntimeError naming its items.  Every child is reaped
    before this returns or raises.
    """
    n_parts = max(1, min(len(os.sched_getaffinity(0)), n_items // CSV_BLOCK_ROWS))
    bounds = [n_items * i // n_parts for i in range(n_parts + 1)]
    # each child's rows and report files, and the pids not yet reaped, in item order
    parts, pids = [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            parts.append((tempfile.TemporaryFile("w+", newline=""), tempfile.TemporaryFile()))
            pids.append(_fork_part(run_part, lo, hi, path, len(header), *parts[-1]))
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            values = [run_part(0, bounds[1], functools.partial(_write_rows, fh, path, len(header)))]
            fh.flush()  # the parts are appended to fh.buffer, below the text layer
            for (rows, report), lo, hi in zip(parts, bounds[1:-1], bounds[2:]):
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
                report.seek(0)  # the child wrote through a shared file offset
                data = report.read() if code == 0 else b""
                if not data:
                    raise RuntimeError(f"{path}: items {lo}..{hi - 1} failed without a report (child exit status {code})")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                values.append(value)
                rows.seek(0)
                shutil.copyfileobj(rows.buffer, fh.buffer)
        return values
    finally:
        if pids:  # this call is failing: the children's work is moot, so they are stopped, not awaited
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for files in parts:
            for part in files:
                part.close()


def _fork_part(run_part, lo: int, hi: int, path, width: int, rows, report) -> int:
    """Fork a child that runs part lo..hi into the text file `rows`, pickles its report into `report` and exits; returns its pid.

    The report is the pickle of (True, value) or (False, exception); a
    child that cannot write one exits 1.  It reports through a file, not
    a pipe, so a large value never blocks it while this process runs the
    first part.  The child leaves only through `os._exit`, so it never
    returns into the caller and never flushes the buffers of files it
    inherited.
    """
    pid = os.fork()
    if pid != 0:
        return pid
    code = 1
    try:
        try:
            result = (True, run_part(lo, hi, functools.partial(_write_rows, rows, path, width)))
            rows.flush()
        except BaseException as err:
            result = (False, err)
        try:
            data = pickle.dumps(result)
            pickle.loads(data)  # what the parent cannot load is no report
        except BaseException as err:
            import traceback

            shown = err if result[0] else result[1]
            os.write(2, "".join(traceback.format_exception(shown)).encode())
        else:
            report.write(data)
            report.flush()
            code = 0
    finally:
        os._exit(code)


def _write_rows(fh, path, width: int, rows) -> None:
    """Format `rows` into the text file `fh`, a block of `CSV_BLOCK_ROWS` rows at a time."""
    rows = iter(rows)
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        columns = [map(str, col) for col in zip(*block, strict=True)]
        if len(columns) != width:
            raise ValueError(f"{path}: a row has {len(columns)} cells, the header {width}")
        fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def read_csv_floats(path) -> np.ndarray:
    """Read a headerless CSV of numbers into a 2-D float array."""
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path} holds no data")
    return np.asarray(rows, dtype=float)


def read_pairs_csv(path, shape: tuple[int, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read a `pair,region,row,col` list into (S0, S1) flat-index regions, ordered by pair id.

    `shape` is the phase map's (height, width), which holds every cell; region must be 0 (S0) or 1 (S1).
    Blank lines are skipped, as `read_csv_floats` skips them.
    """
    height, width = shape
    pair_sets: dict[int, tuple[list[int], list[int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["pair", "region", "row", "col"]:
            raise ValueError(f"expected header pair,region,row,col, got {header!r}")
        for row in reader:
            if not row:
                continue
            try:
                pair, region, r, c = (int(v) for v in row)
            except ValueError:
                raise ValueError(f"line {reader.line_num}: expected four integers, got {row!r}") from None
            if region not in (0, 1):
                raise ValueError(f"region must be 0 or 1, got {region}")
            if not (0 <= r < height and 0 <= c < width):
                raise ValueError(f"line {reader.line_num}: cell ({r}, {c}) lies outside the {height} x {width} phase map")
            pair_sets.setdefault(pair, ([], []))[region].append(r * width + c)
    return [
        (np.array(s0, dtype=np.int64), np.array(s1, dtype=np.int64))
        for s0, s1 in (pair_sets[p] for p in sorted(pair_sets))
    ]


def _hash_file(h, path) -> None:
    """Feed a file's bytes to `h` through one reused 64 KiB buffer, so a large output is never held whole."""
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            h.update(view[:n])


def sha256(data: bytes = b""):
    """A new SHA-256 hash object fed `data`: the package's only use of `hashlib`."""
    # imported on first use: hashlib maps OpenSSL's libcrypto (~3.6 MB RSS), which would otherwise sit under every grid
    import hashlib

    return hashlib.sha256(data)


def sha256_file(path) -> str:
    """SHA-256 of a file's bytes."""
    h = sha256()
    _hash_file(h, path)
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
    h = sha256()
    for f in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(directory)).encode())
        h.update(b"\0")
        _hash_file(h, f)
        h.update(b"\0")
    return h.hexdigest()
