"""Exact CSV tables of floats: each float as `float.hex` text, built in numpy.

`write_hex_csv` writes the detector's table (`DetectorModel.to_csv`).
`float.hex` is C99 `%a` text, which `float.fromhex` reads back bit for
bit.  numpy builds it a block of rows at a time, with no Python object
per cell: the digits come from `binascii.hexlify` of the floats' bits, and
the text around them from tables indexed by sign and exponent.

Nothing imports this module at start-up: `detector` imports it on first
use.  A process compiles the package's sources that have no cached
bytecode, and the compiler's memory stays resident; compiled with
`fileio` at start-up, this module raised every command's peak RSS, and
perfbench's runner's, by about 0.2 MB.
"""

from __future__ import annotations

import binascii
import sys

import numpy as np

# rows per write; it divides 1000, as the index field's tables need.  1,000 rows put the optics
# command's tracemalloc peak at n = 128 at 4.87 grids, past its guard's bound of 4.33
HEX_BLOCK_ROWS = 500


def write_hex_csv(path, header: list[str], columns, labels: np.ndarray, names: list[str]) -> None:
    """CSV whose row i holds i, `float.hex` of each column's i-th float and names[labels[i]]; CRLF line ends.

    A block of `HEX_BLOCK_ROWS` rows at a time is laid out in one uint8
    array with every field at its widest; NUL bytes pad the shorter fields,
    and one boolean compress drops them before the block is written in one
    call.  Columns or labels of different lengths, or a label outside
    `names`, raise ValueError.
    """
    labels = np.asarray(labels)
    n = labels.size
    columns = [np.asarray(col, dtype=float) for col in columns]
    if len(header) != len(columns) + 2:
        raise ValueError(f"{path}: {len(columns)} float columns need a header of {len(columns) + 2} names, not {len(header)}")
    if labels.shape != (n,) or any(col.shape != (n,) for col in columns):
        raise ValueError(f"{path}: every column needs the labels' length {n}")
    if n and not 0 <= labels.min() <= labels.max() < len(names):
        raise ValueError(f"{path}: a label lies outside the {len(names)} names")
    # the index field: the digits of i // 1000, then i's last three digits, zero-padded from row 1000 on;
    # HEX_BLOCK_ROWS divides 1000, so the rows of a block share their leading digits
    lead_digits = len(str((n - 1) // 1000)) if n else 0
    first_rows = _text_table((str(i) for i in range(1000)), 3)
    later_rows = _text_table((f"{i:03d}" for i in range(1000)), 3)
    cells_at = lead_digits + 4
    cells_end = cells_at + len(columns) * _HEX_CELL
    ends = _text_table((name + "\r\n" for name in names), max(map(len, names)) + 2)
    tables = _hex_tables()
    # every block writes each byte after the index field, and the blocks run in row order, so the
    # leading digits stay NUL until row 1000 and the index field's comma is set once
    text = np.zeros((min(n, HEX_BLOCK_ROWS), cells_end + ends.shape[1]), dtype=np.uint8)
    text[:, cells_at - 1] = ord(",")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii"))
        for lo in range(0, n, HEX_BLOCK_ROWS):
            hi = min(lo + HEX_BLOCK_ROWS, n)
            block = text[: hi - lo]
            if lo >= 1000:
                block[:, :lead_digits] = _text_table([str(lo // 1000)], lead_digits)
            block[:, lead_digits : cells_at - 1] = (later_rows if lo >= 1000 else first_rows)[lo % 1000 : lo % 1000 + hi - lo]
            values = np.stack([col[lo:hi] for col in columns], axis=1)
            _hex_cells(block[:, cells_at:cells_end].reshape(hi - lo, len(columns), _HEX_CELL), values, *tables)
            block[:, cells_end:] = ends[labels[lo:hi]]
            fh.write(block[block != 0])


# a float's cell: its float.hex text, at most "-0x1.", 13 hex digits and "p-1022", NUL-padded, and a
# comma.  The text up to the "." and from the "p" on are each one uint64 looked up by sign and exponent
_HEX_CELL = 26


def _text_table(texts, width: int) -> np.ndarray:
    """ASCII `texts` as the rows of a uint8 array, each padded with NUL bytes to `width`.

    The rows are appended one at a time, so no more than one text is alive
    at once: thousands of live strings would leave their memory resident.
    """
    table = bytearray()
    for text in texts:
        table += text.encode("ascii").ljust(width, b"\0")
    return np.frombuffer(table, dtype=np.uint8).reshape(-1, width)


def _hex_tables() -> tuple[np.ndarray, np.ndarray]:
    """The tables of `_hex_cells`: the head and the tail of each sign-and-exponent field, as uint64 text.

    A field is a float's top 12 bits: its sign, then its biased exponent,
    which is 0 for zero and the subnormals.  The heads repeat four leads:
    heads computed by integer arithmetic on the fields run numpy kernels
    that map their code, and raised optics' own peak RSS by about 0.25 MB.
    """
    leads = np.frombuffer(b"0x0.\0\0\0\0" b"0x1.\0\0\0\0" b"-0x0.\0\0\0" b"-0x1.\0\0\0", dtype="<u8")
    tails = _text_table((f"p{max(biased, 1) - 1023:+d}".ljust(7, "\0") + "," for biased in range(2048)), 8)
    return np.repeat(leads, [1, 2047, 1, 2047]), np.concatenate((tails, tails)).view("<u8").ravel()


def _hex_cells(cells: np.ndarray, values: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> None:
    """Fill `cells`, which holds a row of _HEX_CELL bytes for each of `values`, with float.hex of each value and a comma."""
    bits = values.view(np.uint64)
    field = (bits >> 52).astype(np.intp)
    cells[..., :8].view("<u8")[..., 0] = heads[field]
    # each float's 16 hex digits, big-endian: the first 3 spell its field and the other 13 its fraction
    cells[..., 5:18] = np.frombuffer(binascii.hexlify(bits.astype(">u8")), dtype=np.uint8).reshape(*bits.shape, 16)[..., 3:]
    cells[..., 18:].view("<u8")[..., 0] = tails[field]
    # zeros and non-finite values are found with the float comparisons the optics chain has run
    # already, so no new kernel maps its code; NaN is neither zero nor finite
    magnitude = np.abs(values)
    zero = magnitude <= 0.0
    if zero.any():  # "0x0.0p+0", signed
        cells[zero, 6:] = np.frombuffer(b"\0" * 12 + b"p+0\0\0\0\0,", dtype=np.uint8)
    finite = magnitude <= sys.float_info.max
    if not finite.all():  # float.hex writes "nan" whatever a NaN's sign
        special = values[~finite]
        cells[~finite, :-1] = _text_table(["inf", "-inf", "nan"], _HEX_CELL - 1)[np.where(special == special, special < 0, 2)]
