"""Exact CSV tables of floats in fixed-width hex cells, built in numpy.

`write_hex_csv` writes the detector's table (`DetectorModel.to_csv`).  A
float's cell is 24 characters that `float.fromhex` reads back bit for bit:
a sign, `0x`, the lead digit (1 for a normal number, 0 for zero and the
subnormals), `.`, the 13 fraction digits, `p` and a signed 4-digit
exponent (`-1022` for a subnormal, `+0000` for zero), as in
`-0x1.3c068d1f6fe24p-0012`.  numpy fills a block of rows at a time, with
no Python object per cell: the fraction digits come from `binascii.hexlify`
of the floats' bits, and the rest from a table indexed by their top 12 bits.

Nothing imports this module at start-up: compiled then, it raised every
command's peak RSS by about 0.2 MB.  Integer masks and shifts on the bits
in place of the table wrote the same bytes, but ran numpy kernels that
nothing else runs and raised optics' own peak RSS by 0.17 MB.
"""

from __future__ import annotations

import binascii
import sys

import numpy as np

# rows per write; 1,000 rows put the optics command's tracemalloc peak at n = 128 at 4.60 grids, past its guard's 4.33
HEX_BLOCK_ROWS = 500

_CELL = 25  # a float's cell and its comma: the fraction's digits at 5 to 17, then "p", the exponent at 19 and ","


def write_hex_csv(path, header: list[str], columns, codes) -> None:
    """CSV whose row i holds each column's i-th float as a hex cell and then the digit codes[i]; CRLF line ends.

    A row is 25 bytes a column plus 3.  Unequal lengths, a code that is not
    one digit or a header not of one name a column and the codes raise
    ValueError at once; a non-finite value, once the blocks before it are written.
    """
    codes, columns = np.asarray(codes), [np.asarray(col, dtype=float) for col in columns]
    n, width = codes.size, len(columns) * _CELL
    if len(header) != len(columns) + 1 or codes.shape != (n,) or any(col.shape != (n,) for col in columns):
        raise ValueError(f"{path}: the header needs one name a column and the codes, and every column {n} values")
    if n and not 0 <= codes.min() <= codes.max() <= 9:
        raise ValueError(f"{path}: a code is not one digit")
    frames = bytearray()  # each top-12-bit field's cell, appended one at a time: live strings would stay resident
    for field in range(4096):
        frames += f"{'+-'[field >> 11]}0x{min(field & 2047, 1)}.{'0' * 13}p{max(field & 2047, 1) - 1023:+05d},".encode()
    frames = np.frombuffer(frames, dtype=np.uint8).reshape(4096, _CELL)
    text = np.empty((min(n, HEX_BLOCK_ROWS), width + 3), dtype=np.uint8)
    text[:, width + 1 :] = np.frombuffer(b"\r\n", dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii"))
        for lo in range(0, n, HEX_BLOCK_ROWS):
            rows = text[: min(n - lo, HEX_BLOCK_ROWS)]
            values = np.stack([col[lo : lo + len(rows)] for col in columns], axis=1)
            magnitude = np.abs(values)  # NaN is neither zero nor finite
            if not (magnitude <= sys.float_info.max).all():
                raise ValueError(f"{path}: a value in rows {lo} to {lo + len(rows) - 1} is not finite")
            bits = values.view(np.uint64)
            cells = rows[:, :width].reshape(len(rows), len(columns), _CELL)
            cells[...] = frames[(bits >> 52).astype(np.intp)]
            # each float's 16 hex digits, big-endian: the first 3 spell its field and the other 13 its fraction
            cells[..., 5:18] = np.frombuffer(binascii.hexlify(bits.astype(">u8")), dtype=np.uint8).reshape(*bits.shape, 16)[..., 3:]
            cells[magnitude <= 0.0, 19:24] = np.frombuffer(b"+0000", dtype=np.uint8)
            rows[:, width] = np.frombuffer(b"0123456789", dtype=np.uint8)[codes[lo : lo + len(rows)]]
            fh.write(rows)
