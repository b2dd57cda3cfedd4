"""CSV readers/writers for rating matrices, SDE parameters and PD targets.

Each kind is a table whose first column labels the rows and whose other
columns hold numbers, read by one reader: blank lines are skipped, each
row must have as many cells as the header, every number must be finite,
and an error names the file and the line.  Rating matrices: header
``from,<label_1>,...,<label_K>`` and K rows ``<label_l>,v_1,...,v_K``; a
trailing ``w_t`` column (withdrawal rates) is accepted on read and not
parsed.  Parameters: ``from-to,a,b,sigma``; PD targets: ``rating,pd``.
Floats are written with 17 significant digits, so files round-trip
losslessly; the `ssa` occupancy files write a subset of the rows under
the full header.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from .errors import ValidationError


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_float(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValidationError(f"malformed number {token!r} at {where}") from None
    if not math.isfinite(value):
        raise ValidationError(f"non-finite number {token!r} at {where}")
    return value


def _read_table(path: str | Path, expected: str, header_ok):
    """(header, [(line, row label)], numbers) of a CSV table whose first
    column labels the rows and whose other columns hold numbers.  The
    lowercased header must pass `header_ok` (`expected` describes it); blank
    rows are skipped, the others must be as wide as the header, and each
    error names its line in the file.  A trailing ``w_t`` column is not parsed.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, [c.strip() for c in row]) for row in reader]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = rows[0][1]
    if not header_ok([c.lower() for c in header]):
        raise ValidationError(f"{path}: line 1: expected header {expected!r}")
    body = [(line, cells) for line, cells in rows[1:] if any(cells)]
    for line, cells in body:
        if len(cells) != len(header):
            raise ValidationError(f"{path}: line {line}: expected {len(header)} "
                                  f"columns, found {len(cells)}")
    stop = len(header) - (header[-1] == "w_t")
    numbers = np.array([[_parse_float(c, f"{path}: line {line}, column {j}")
                         for j, c in enumerate(cells[1:stop], start=2)]
                        for line, cells in body]).reshape(len(body), stop - 1)
    return header, [(line, cells[0]) for line, cells in body], numbers


def read_rating_csv(path: str | Path, check=None) -> tuple[list[str], np.ndarray]:
    """Read a rating-matrix CSV; returns (labels, K x K entries).  check, if
    given, maps the entries to the (row, message) of a rule they break, or
    to None; a broken rule raises, naming the row's line."""
    header, rows, entries = _read_table(
        path, "from,<labels...>",
        lambda h: len(h) >= 2 and h[0] in ("from", "from\\to", "from \\ to"))
    labels = header[1:1 + entries.shape[1]]
    if len(rows) != len(labels):
        raise ValidationError(f"{path}: expected {len(labels)} data rows, found {len(rows)}")
    for (line, label), want in zip(rows, labels):
        if label != want:
            raise ValidationError(f"{path}: line {line}: row label {label!r} does "
                                  f"not match header label {want!r}")
    fault = check and check(entries)
    if fault:
        raise ValidationError(f"{path}: line {rows[fault[0]][0]}: {fault[1]}")
    return labels, entries


def format_rating_csv(labels: list[str], entries: np.ndarray,
                      rows: list[int] | None = None) -> str:
    """The CSV text of `entries` under the full header; `rows` (0-based, in
    order) selects the rows written, all K by default."""
    entries = np.asarray(entries, dtype=float)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["from", *labels])
    for i in range(len(labels)) if rows is None else rows:
        w.writerow([labels[i], *(_fmt(v) for v in entries[i])])
    return buf.getvalue()


def write_rating_csv(path: str | Path, labels: list[str], entries: np.ndarray,
                     rows: list[int] | None = None) -> None:
    Path(path).write_text(format_rating_csv(labels, entries, rows))


def read_params_csv(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Read SDE parameters: rows ``from-to,a,b,sigma``, each nonnegative.

    Returns (coordinate labels, a, b, sigma) in file order.
    """
    _, rows, numbers = _read_table(path, "from-to,a,b,sigma",
                                   lambda h: h == ["from-to", "a", "b", "sigma"])
    negative = np.argwhere(numbers < 0)
    if negative.size:
        i, j = negative[0]
        raise ValidationError(f"{path}: line {rows[i][0]}, column {j + 2}: "
                              f"{('a', 'b', 'sigma')[j]} must be nonnegative, "
                              f"got {float(numbers[i, j])!r}")
    return [label for _, label in rows], *numbers.T.copy()


def write_params_csv(path: str | Path, labels: list[str], a: np.ndarray,
                     b: np.ndarray, sigma: np.ndarray) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["from-to", "a", "b", "sigma"])
    for lab, ai, bi, si in zip(labels, a, b, sigma):
        w.writerow([lab, _fmt(ai), _fmt(bi), _fmt(si)])
    Path(path).write_text(buf.getvalue())


def read_pd_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read default-probability targets: rows ``rating,pd``, each in [0, 1]."""
    _, rows, numbers = _read_table(path, "rating,pd", lambda h: h == ["rating", "pd"])
    for (line, _), pd in zip(rows, numbers[:, 0].tolist()):
        if not 0 <= pd <= 1:
            raise ValidationError(f"{path}: line {line}, column 2: PD targets must "
                                  f"lie in [0, 1], got {pd!r}")
    return [label for _, label in rows], numbers[:, 0].copy()
