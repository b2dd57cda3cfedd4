"""CSV readers/writers for rating matrices, SDE parameters and PD targets.

Rating-matrix CSV: header ``from,<label_1>,...,<label_K>`` followed by K
rows ``<label_l>,v_1,...,v_K``.  A trailing ``w_t`` column (withdrawal
rates) is accepted on read and ignored; it is never written.  Floats are
written with 17 significant digits so every file round-trips losslessly;
a non-finite number is rejected on read.  The `ssa` occupancy files write
a subset of the rows under the full header.
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


def read_rating_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read a rating-matrix CSV; returns (labels, K x K entries)."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0].lower() not in ("from", "from\\to", "from \\ to"):
        raise ValidationError(f"{path}: line 1: expected header 'from,<labels...>'")
    labels = header[1:]
    has_w = labels and labels[-1] == "w_t"
    if has_w:
        labels = labels[:-1]
    k = len(labels)
    data_rows = [r for r in rows[1:] if r and any(c.strip() for c in r)]
    if len(data_rows) != k:
        raise ValidationError(f"{path}: expected {k} data rows, found {len(data_rows)}")
    entries = np.zeros((k, k))
    for i, row in enumerate(data_rows, start=2):
        cells = [c.strip() for c in row]
        want = 1 + k + (1 if has_w else 0)
        if len(cells) != want:
            raise ValidationError(f"{path}: line {i}: expected {want} columns, found {len(cells)}")
        if cells[0] != labels[i - 2]:
            raise ValidationError(
                f"{path}: line {i}: row label {cells[0]!r} does not match header label {labels[i-2]!r}"
            )
        for j in range(k):
            entries[i - 2, j] = _parse_float(cells[1 + j], f"{path}: line {i}, column {j + 2}")
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
    """Read SDE parameters: rows ``from-to,a,b,sigma``.

    Returns (coordinate labels, a, b, sigma) in file order.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0]]
    if header[:4] != ["from-to", "a", "b", "sigma"]:
        raise ValidationError(f"{path}: line 1: expected header 'from-to,a,b,sigma'")
    labels, a, b, sigma = [], [], [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row or not any(c.strip() for c in row):
            continue
        if len(row) != 4:
            raise ValidationError(f"{path}: line {i}: expected 4 columns, found {len(row)}")
        labels.append(row[0].strip())
        a.append(_parse_float(row[1], f"{path}: line {i}, column 2"))
        b.append(_parse_float(row[2], f"{path}: line {i}, column 3"))
        sigma.append(_parse_float(row[3], f"{path}: line {i}, column 4"))
    return labels, np.array(a), np.array(b), np.array(sigma)


def write_params_csv(path: str | Path, labels: list[str], a: np.ndarray,
                     b: np.ndarray, sigma: np.ndarray) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["from-to", "a", "b", "sigma"])
    for lab, ai, bi, si in zip(labels, a, b, sigma):
        w.writerow([lab, _fmt(ai), _fmt(bi), _fmt(si)])
    Path(path).write_text(buf.getvalue())


def read_pd_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read default-probability targets: rows ``rating,pd``."""
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip().lower() for c in rows[0]][:2] != ["rating", "pd"]:
        raise ValidationError(f"{path}: line 1: expected header 'rating,pd'")
    labels, pds = [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row or not any(c.strip() for c in row):
            continue
        if len(row) != 2:
            raise ValidationError(f"{path}: line {i}: expected 2 columns, found {len(row)}")
        labels.append(row[0].strip())
        pds.append(_parse_float(row[1], f"{path}: line {i}, column 2"))
    return labels, np.array(pds)

