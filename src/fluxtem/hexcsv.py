"""Exact CSV tables of floats: each float as `float.hex` text, built in numpy.

`write_hex_csv` writes the detector's table (`DetectorModel.to_csv`).
`float.hex` is C99 `%a` text, which `float.fromhex` reads back bit for
bit, and numpy builds it from each float's bits with lookup tables, a
block of rows at a time, with no Python object per cell.

Nothing imports this module at start-up: `detector` imports it on first
use.  A process compiles the package's sources that have no cached
bytecode, and the compiler's memory stays resident; compiled with
`fileio` at start-up, this module raised every command's peak RSS, and
perfbench's runner's, by about 0.2 MB.
"""

from __future__ import annotations

import sys

import numpy as np

# rows per write; it divides 1000.  A block holds its padded text, that text's mask and the
# packed bytes, about 150 bytes a row each at the detector's widths, and the writer peaks at
# 0.33 MB with its tables (tracemalloc, 65,536 rows).  1,000 rows write no faster and peak at
# 0.52 MB, which at n = 128 is the optics command's peak
HEX_BLOCK_ROWS = 500


def write_hex_csv(path, header: list[str], columns, labels: np.ndarray, names: list[str]) -> None:
    """CSV whose row i holds i, `float.hex` of each column's i-th float and names[labels[i]]; CRLF line ends.

    `float.hex` writes C99 `%a` text, which `float.fromhex` reads back bit
    for bit.  A block of `HEX_BLOCK_ROWS` rows at a time is laid out in
    one uint8 array with every field at its widest, filled from lookup
    tables indexed by the floats' bits; NUL bytes pad the shorter fields,
    and one boolean compress drops them before the block is written in
    one call.  No Python object is made per cell.  Columns or labels of
    different lengths, or a label outside `names`, raise ValueError.
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
    # the row's template: NUL in every field but the index field's comma and the "0x" and "." of each cell
    template = np.zeros(cells_end + ends.shape[1], dtype=np.uint8)
    template[cells_at - 1] = ord(",")
    template[cells_at:cells_end].reshape(-1, _HEX_CELL)[:, 1:5] = np.frombuffer(b"0x\0.", dtype=np.uint8)
    tables = _hex_tables()
    text = np.empty((min(n, HEX_BLOCK_ROWS), template.size), dtype=np.uint8)
    values = np.empty((len(text), len(columns)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode("ascii"))
        for lo in range(0, n, HEX_BLOCK_ROWS):
            hi = min(lo + HEX_BLOCK_ROWS, n)
            block = text[: hi - lo]
            block[:] = template
            if lo >= 1000:
                block[:, :lead_digits] = _text_table([str(lo // 1000)], lead_digits)
            block[:, lead_digits : cells_at - 1] = (later_rows if lo >= 1000 else first_rows)[lo % 1000 : lo % 1000 + hi - lo]
            for k, col in enumerate(columns):
                values[: hi - lo, k] = col[lo:hi]
            _hex_cells(block[:, cells_at:cells_end].reshape(hi - lo, len(columns), _HEX_CELL), values[: hi - lo], *tables)
            block[:, cells_end:] = ends[labels[lo:hi]]
            flat = block.ravel()
            fh.write(flat[flat != 0])


# a float's cell: its float.hex text, at most "-0x1.", 13 hex digits and "p-1022", padded with NUL,
# and the comma after it.  The text up to the "." and the text from the "p" on are each one uint64
# looked up by the float's sign and biased exponent, and the digits are uint16 pairs looked up by byte
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


def _hex_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of `_hex_cells`: the head and tail of each sign-and-exponent field, and each byte's two hex digits.

    A field is a float's top 12 bits: its sign, then its biased exponent,
    which is 0 for zero and the subnormals.  The tables are built from
    Python text, so numpy runs no integer arithmetic here: every kernel it
    runs first maps pages of its code into memory.
    """
    heads = _text_table((sign + lead for sign in ("", "-") for lead in ["0x0."] + ["0x1."] * 2047), 8)
    tails = _text_table((f"p{max(biased, 1) - 1023:+d}".ljust(7, "\0") + "," for biased in range(2048)), 8)
    # bytes(range(256)).hex() is each byte's two digits in turn; read as one little-endian uint16, high nibble first
    pairs = np.frombuffer(bytes(range(256)).hex().encode("ascii"), dtype="<u2")
    return heads.view("<u8").ravel(), np.concatenate((tails, tails)).view("<u8").ravel(), pairs


def _hex_cells(cells: np.ndarray, values: np.ndarray, heads: np.ndarray, tails: np.ndarray, pairs: np.ndarray) -> None:
    """Fill `cells`, which holds a row of _HEX_CELL bytes for each of `values`, with float.hex of each value and a comma."""
    bits = values.view(np.uint64)
    field = (bits >> 52).astype(np.intp)
    cells[..., :8].view("<u8")[..., 0] = heads[field]
    # the 52 fraction bits as 13 nibbles: bytes 0-6, big-endian, of bits << 12, two digits a byte; the
    # last digit's partner and byte 7's pair land where the tail goes, and the tail overwrites them
    fraction = (bits << 12).astype(">u8").view(np.uint8).reshape(*bits.shape, 8)
    cells[..., 5:21].view("<u2")[:] = pairs[fraction]
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
