"""Text embedding interchange format.

Header line ``<row_count> <dim>``, then one ``<id> <v1> ... <vd>`` line per
row. Values are printed with 17 significant digits so a write/read round
trip reproduces every float64 exactly.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError


def write_embeddings(stream, ids: Sequence[str], matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix)
    if len(ids) != matrix.shape[0]:
        raise ParseError(f"{len(ids)} ids for {matrix.shape[0]} embedding rows")
    stream.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
    line = " ".join(["%.17g"] * matrix.shape[1]) + "\n"
    for name, row in zip(ids, matrix):
        stream.write(name + " " + line % tuple(row.tolist()))


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
    row = 0
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
        try:
            matrix[row] = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"line {n}: {exc}") from None
        row += 1
    if row != count:
        raise ParseError(f"embedding file ended after {row} of {count} rows")
    return ids, matrix
