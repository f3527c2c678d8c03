"""Bundled failure-time data and text ingestion."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .inference import Dataset

__all__ = ["PUMPS", "ingest"]

# Time between failures of secondary reactor pumps, thousands of hours.
PUMPS = (
    2.160, 0.746, 0.402, 0.954, 0.491, 6.560, 4.992, 0.347,
    0.150, 0.358, 0.101, 1.359, 3.465, 1.060, 0.614, 1.921,
    4.082, 0.199, 0.605, 0.273, 0.070, 0.062, 5.320,
)

_TOKEN = re.compile(r"[^\s,]+")


def ingest(source):
    """Build a dataset from a file of positive reals, or by bundled name.

    Files may hold one or many whitespace- or comma-separated values per
    line.  A non-numeric or non-positive token raises
    :class:`DataFormatError` carrying its 1-based line and column, and so
    does a file that is not text in the locale's encoding, without them.
    """
    if str(source) == "pumps":
        return Dataset(times=np.array(PUMPS), label="pumps")
    path = Path(source)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file ({exc})") from None
    values = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN.finditer(line):
            token = match.group(0)
            column = match.start() + 1
            try:
                value = float(token)
            except ValueError:
                raise DataFormatError(
                    f"line {line_no}, column {column}: {token!r} is not a number",
                    line=line_no,
                    column=column,
                ) from None
            if not value > 0.0 or not np.isfinite(value):
                raise DataFormatError(
                    f"line {line_no}, column {column}: {token!r} is not strictly positive",
                    line=line_no,
                    column=column,
                )
            values.append(value)
    if not values:
        raise DataFormatError(f"{path}: empty dataset")
    return Dataset(times=np.array(values), label=str(source))
