"""Text embedding interchange format.

Header line ``<row_count> <dim>``, then one ``<id> <v1> ... <vd>`` line per
row. Values are printed with 17 significant digits so a write/read round
trip reproduces every float64 exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError


# Rows go out in blocks of about this many values, so memory stays bounded.
BLOCK_VALUES = 2**14

# Each value is laid out in a slot of eight 4-byte words that NUL pads; the
# NULs are dropped afterwards. Bytes 0-7: sign, "0.", up to three zeros and
# the leading digit; 8-23: four groups of four digits; 24: the separator.
_SLOT_WORDS = 8
_SEP_WORD = 6


def _group_table() -> np.ndarray:
    """Every 4-digit group as a 4-byte word: at index g with its trailing zeros
    as NUL, at g + 10,000 in full (for a group that nonzero digits follow)."""
    group = np.arange(10_000, dtype=np.int16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    full = group // place % 10 + ord("0")
    trimmed = np.where(group % (10 * place) == 0, 0, full)
    return np.concatenate([trimmed, full]).astype(np.uint8).view(np.uint32).ravel()


_GROUPS = _group_table()
# "-0.000d" with the sign, the zeros and the leading digit chosen by index
# sign * 40 + zeros * 10 + digit, NUL-padded to eight bytes.
_HEADS = np.array([f"{sign}0.{'0' * zeros}".ljust(7, "\0") + str(digit)
                   for sign in ("\0", "-") for zeros in range(4) for digit in range(10)],
                  dtype="S8").view(np.uint64)
# A value left to Python: its slot holds the conversion, digits all NUL.
_PLACEHOLDER = np.array([b"%.17g"], dtype="S8").view(np.uint64)[0]
_SPACE, _NEWLINE = np.array([b" ", b"\n"], dtype="S4").view(np.uint32)
# 10^(16 - X) for X = -1 .. -4 (exact doubles), split for Dekker's product.
_SCALE = np.array([1e17, 1e18, 1e19, 1e20])
_SPLIT = 2.0**27 + 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of ``a`` into two halves of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_SCALE_HI, _SCALE_LO = _split(_SCALE)


def _digit_words(x: np.ndarray) -> np.ndarray:
    """The first 24 bytes of the slots of values with 1e-4 <= |x| < 1.

    With X = floor(log10|x|), ``|x| * 10^(16 - X)`` is formed exactly as
    ``hi + lo`` (Dekker's product) and rounded half to even to the integer
    D, whose 17 digits are laid out from tables. Where D does not have
    exactly 17 digits, or is 10^16 (X may be off by one at a power of ten),
    the slot gets the placeholder instead.
    """
    mag = np.abs(x)
    zeros = (mag < 1e-1).astype(np.intp) + (mag < 1e-2) + (mag < 1e-3)
    mag_hi, mag_lo = _split(mag)
    scale_hi, scale_lo = _SCALE_HI[zeros], _SCALE_LO[zeros]
    hi = mag * _SCALE[zeros]
    lo = mag_lo * scale_lo - (((hi - mag_hi * scale_hi) - mag_lo * scale_hi)
                              - mag_hi * scale_lo)
    # hi >= 2^53 is an even integer here, so rounding hi + lo is rounding lo.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exact = (digits > 10**16) & (digits < 10**17)
    digits[~exact] = 0

    words = np.empty((x.size, _SEP_WORD), dtype=np.uint32)
    top, low = np.divmod(digits, 10**8)
    lead, mid = np.divmod(top, 10**8)
    heads = _HEADS[np.signbit(x) * 40 + zeros * 10 + lead]
    words.view(np.uint64)[:, 0] = np.where(exact, heads, _PLACEHOLDER)
    groups = (*np.divmod(mid, 10**4), *np.divmod(low, 10**4))
    followed = np.zeros(x.size, dtype=bool)
    for col in range(4, 0, -1):
        group = groups[col - 1]
        words[:, 1 + col] = _GROUPS[group + 10_000 * followed]
        followed |= group != 0
    return words


def _format_rows(block: np.ndarray) -> list[str]:
    """The ``%.17g`` text of each row of ``block``, values space-separated.

    Values with 1e-4 <= |x| < 1 are printed by :func:`_digit_words`; the
    slot of every other value holds a ``%.17g`` conversion, so the text of
    the block is a format string and Python prints those in one call.
    """
    rows, dim = block.shape
    x = block.astype(np.float64).ravel()
    mag = np.abs(x)
    fast = np.flatnonzero((mag >= 1e-4) & (mag < 1.0))
    if not fast.size:
        text = (" ".join(["%.17g"] * dim) + "\n") * rows
        return (text % tuple(x.tolist())).split("\n")[:-1]
    slots = np.zeros((x.size, _SLOT_WORDS), dtype=np.uint32)
    heads = slots.view(np.uint64)[:, 0]
    heads[:] = _PLACEHOLDER
    slots[fast, :_SEP_WORD] = _digit_words(x[fast])
    slots[:, _SEP_WORD] = _SPACE
    slots.reshape(rows, dim, -1)[:, -1, _SEP_WORD] = _NEWLINE
    text = slots.tobytes().translate(None, b"\0").decode("ascii")
    return (text % tuple(x[heads == _PLACEHOLDER].tolist())).split("\n")[:-1]


def write_embeddings(stream, ids: Sequence[str], matrix: np.ndarray) -> None:
    """Write ``matrix`` with one ``id v1 ... vd`` line per row, each value
    printed exactly as ``"%.17g"`` prints it widened to float64."""
    matrix = np.asarray(matrix)
    if len(ids) != matrix.shape[0]:
        raise ParseError(f"{len(ids)} ids for {matrix.shape[0]} embedding rows")
    rows, dim = matrix.shape
    stream.write(f"{rows} {dim}\n")
    step = max(1, BLOCK_VALUES // max(dim, 1))
    for start in range(0, rows, step):
        lines = _format_rows(matrix[start:start + step])
        stream.write("".join([f"{name} {line}\n"
                              for name, line in zip(ids[start:start + step], lines)]))


def read_embeddings(lines: Iterable[str]) -> tuple[list[str], np.ndarray]:
    it = iter(lines)
    try:
        header = next(it)
    except StopIteration:
        raise ParseError("embedding file is empty") from None
    parts = header.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise ParseError(f"bad embedding header {header.strip()!r}, expected 'count dim'")
    count, dim = int(parts[0]), int(parts[1])
    ids: list[str] = []
    try:
        matrix = np.empty((count, dim), dtype=np.float64)
    except (ValueError, MemoryError):
        raise ParseError(f"embedding header {header.strip()!r} asks for "
                         f"more memory than can be allocated") from None
    row, line_of_row = 0, []
    for n, line in enumerate(it, 2):
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != dim + 1:
            raise ParseError(f"line {n}: expected id plus {dim} values, got {len(fields)} fields")
        if row >= count:
            raise ParseError(f"line {n}: more rows than the header's {count}")
        ids.append(fields[0])
        line_of_row.append(n)
        try:
            matrix[row] = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"line {n}: {exc}") from None
        row += 1
    if row != count:
        raise ParseError(f"embedding file ended after {row} of {count} rows")
    finite = np.isfinite(matrix)
    if not finite.all():
        bad = int(np.argmin(finite.all(axis=1)))
        raise ParseError(f"line {line_of_row[bad]}: embedding value "
                         f"{matrix[bad][~finite[bad]][0]} is not finite")
    return ids, matrix
