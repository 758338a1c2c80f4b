"""Monthly time-series loading, validation, alignment, and basic transforms.

Months are represented internally as integer keys (year * 12 + month - 1),
so gap and duplicate detection is exact integer arithmetic and a series is
gap-free iff its keys are consecutive integers. All values are float64.

CSV contract: header row required, one date column in YYYY-MM format plus
one or more numeric value columns, decimal point as separator, UTF-8.

One rule checks every month axis, a file's, a series', a frame's and a training
matrix's (``_check_months``): the first step that is not +1 month names the fault.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateDate,
    EmptyIntersection,
    GapInDates,
    MissingColumn,
    MissingFile,
    NonPositiveValue,
    UnparseableValue,
)

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")


def parse_month(text: str) -> int:
    """Parse 'YYYY-MM' into an integer month key (year * 12 + month - 1)."""
    m = _MONTH_RE.match(text.strip())
    if not m:
        raise UnparseableValue(f"date {text!r} is not in YYYY-MM format")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise UnparseableValue(f"date {text!r} has month outside 1..12")
    return year * 12 + (month - 1)


def format_month(key: int) -> str:
    """Render an integer month key back to 'YYYY-MM'."""
    year, month = divmod(int(key), 12)
    return f"{year:04d}-{month + 1:02d}"


@dataclass(frozen=True)
class MonthlySeries:
    """One named variable observed at strictly consecutive calendar months."""

    name: str
    months: np.ndarray  # int64 month keys, consecutive
    values: np.ndarray  # float64, all finite

    def __post_init__(self):
        months = np.asarray(self.months, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "months", months)
        object.__setattr__(self, "values", values)
        if months.shape != values.shape or months.ndim != 1:
            raise ValueError(
                f"series {self.name!r}: months and values must be equal-length 1-D"
            )
        if len(months) == 0:
            raise ValueError(f"series {self.name!r}: empty series")
        _check_months(months, f"series {self.name!r}")
        _check_finite(self.name, months, values)
        months.setflags(write=False)
        values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.months)

    @property
    def first_month(self) -> int:
        return int(self.months[0])

    @property
    def last_month(self) -> int:
        return int(self.months[-1])

    def value_at(self, month: int) -> float:
        """Value at an exact month key; KeyError if absent."""
        idx = month - self.first_month
        if idx < 0 or idx >= len(self):
            raise KeyError(f"series {self.name!r} has no month {format_month(month)}")
        return float(self.values[idx])


def _check_months(months: np.ndarray, place) -> None:
    """Raise unless the int64 month keys ``months`` are consecutive: the one check of
    a month axis. The first step that is not +1 month names the fault, after
    ``place``: DuplicateDate for a repeat, GapInDates for a fall or a gap. ``place``
    is a string, or a function of the position of the step's later month (a file
    names its row).
    """
    steps = np.diff(months)
    bad = np.flatnonzero(steps != 1)
    if not len(bad):
        return
    i = int(bad[0])
    where = place(i + 1) if callable(place) else place
    a, b = format_month(months[i]), format_month(months[i + 1])
    if steps[i] == 0:
        raise DuplicateDate(f"{where}: month {b} repeats")
    if steps[i] < 0:
        raise GapInDates(f"{where}: month {b} precedes {a}")
    raise GapInDates(f"{where}: gap between {a} and {b}")


def _check_finite(name: str, months: np.ndarray, values: np.ndarray) -> None:
    """UnparseableValue naming the first month of ``values`` that is not finite."""
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise UnparseableValue(f"series {name!r}: non-finite value at {format_month(months[i])}")


def _derived(name: str, months: np.ndarray, values) -> MonthlySeries:
    """The series ``MonthlySeries(name, months, values)`` builds, on an axis already
    checked: ``months`` is an int64 month axis ``_check_months`` passed (a file's, or
    a slice of a series' or frame's), as long as ``values``. Only the values are
    checked (finite, with the constructor's message); the axis is not checked again.
    """
    values = np.asarray(values, dtype=np.float64)
    _check_finite(name, months, values)
    months.setflags(write=False)
    values.setflags(write=False)
    series = object.__new__(MonthlySeries)
    object.__setattr__(series, "name", name)
    object.__setattr__(series, "months", months)
    object.__setattr__(series, "values", values)
    return series


@dataclass(frozen=True)
class AlignedFrame:
    """Several columns sharing one gap-free month axis."""

    months: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        months = np.asarray(self.months, dtype=np.int64)
        object.__setattr__(self, "months", months)
        cols = {}
        for name, col in self.columns.items():
            arr = np.asarray(col, dtype=np.float64)
            if arr.shape != months.shape:
                raise ValueError(f"column {name!r} length {len(arr)} != months {len(months)}")
            arr.setflags(write=False)
            cols[name] = arr
        object.__setattr__(self, "columns", cols)
        _check_months(months, "frame")
        months.setflags(write=False)

    def __len__(self) -> int:
        return len(self.months)

    def series(self, name: str) -> MonthlySeries:
        if name not in self.columns:
            raise MissingColumn(f"frame has no column {name!r}")
        return _derived(name, self.months, self.columns[name])

    def column_names(self) -> list[str]:
        return list(self.columns)


def load_series(
    path: str | Path,
    column_map: dict[str, str],
    date_column: str = "date",
) -> list[MonthlySeries]:
    """Load named monthly series from one CSV file.

    ``column_map`` maps output series names to CSV header names. Rows with
    unparseable dates or values raise, naming the offending row (1-based,
    header and blank lines excluded); nothing is imputed or dropped. Rows
    read as ``csv.DictReader`` reads them: a field missing from a short row
    is empty, extra fields are ignored, and of two columns with one name
    the last counts.

    The file is read on every call; its text is parsed once per distinct
    (text, column map, date column) (see ``_parse_csv``).
    """
    path = Path(path)
    try:
        text = read_file(path).decode("utf-8")
    except NO_FILE:
        raise MissingFile(f"input file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise UnparseableValue(f"{path} is not UTF-8 text: {exc}") from None
    try:
        return list(_parse_csv(text, tuple(column_map.items()), date_column))
    except (MissingColumn, UnparseableValue, DuplicateDate, GapInDates) as exc:
        raise type(exc)(f"{path}{exc}") from None


# What opening a path for reading raises where no file is: a missing path, or one
# under a regular file. A reader catches these rather than asking first.
NO_FILE = (FileNotFoundError, NotADirectoryError)


def read_file(path: str | Path) -> bytes:
    """The bytes of the file at ``path``, in one unbuffered read: no buffer or
    text wrapper is built around the file, which costs more than the read for
    the few kilobytes of a model or record."""
    with open(path, "rb", buffering=0) as fh:
        return fh.read()


# Distinct (CSV text, column map, date column) kept parsed: a run reads one or a few files.
_CSV_TEXTS = 16


@functools.lru_cache(maxsize=_CSV_TEXTS)
def _parse_csv(text: str, columns: tuple[tuple[str, str], ...],
               date_column: str) -> tuple[MonthlySeries, ...]:
    """The series ``load_series`` reads from a CSV text, ``columns`` being its column
    map's items. Equal arguments parse to equal series, and a series is immutable
    (frozen, read-only arrays), so every caller of one text shares them; a text
    that fails raises each time and is not kept. Its faults do not know the file:
    each message continues the file's name, which ``load_series`` puts in front.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    # csv.DictReader's reading: the last of repeated header names wins
    position = {col: i for i, col in enumerate(header)}
    if date_column not in position:
        raise MissingColumn(f": date column {date_column!r} not in header {header}")
    for name, col in columns:
        if col not in position:
            raise MissingColumn(f": column {col!r} (for series {name!r}) not in header")
    date_at = position[date_column]
    wanted = [(col, position[col], []) for _, col in columns]
    months: list[int] = []
    row_no = 0
    for row in reader:
        if not row:
            continue  # a blank line is not a row
        row_no += 1
        # a field past the end of a short row reads as empty
        width = len(row)
        try:
            key = parse_month(row[date_at] if date_at < width else "")
        except UnparseableValue as exc:
            raise UnparseableValue(f" row {row_no}: {exc}") from None
        months.append(key)
        for col, at, out in wanted:
            raw = row[at].strip() if at < width else ""
            try:
                val = float(raw)
            except ValueError:
                raise UnparseableValue(
                    f" row {row_no}: column {col!r} value {raw!r} is not a number"
                ) from None
            if not math.isfinite(val):
                raise UnparseableValue(
                    f" row {row_no}: column {col!r} value {raw!r} is not finite"
                )
            out.append(val)
    if not months:
        raise UnparseableValue(": no data rows")
    month_arr = np.asarray(months, dtype=np.int64)
    _check_months(month_arr, lambda i: f" row {i + 1}")
    return tuple(_derived(name, month_arr, out) for (name, _), (_, _, out) in zip(columns, wanted))


def align(series: list[MonthlySeries]) -> AlignedFrame:
    """Truncate all series to the intersection of their month ranges.

    Idempotent: aligning an already aligned set is the identity.
    """
    if not series:
        raise EmptyIntersection("no series to align")
    start = max(s.first_month for s in series)
    stop = min(s.last_month for s in series)
    if start > stop:
        raise EmptyIntersection(
            "series month ranges do not overlap: "
            + ", ".join(f"{s.name}[{format_month(s.first_month)}..{format_month(s.last_month)}]" for s in series)
        )
    months = np.arange(start, stop + 1, dtype=np.int64)
    months.setflags(write=False)
    columns = {}
    for s in series:
        lo = start - s.first_month
        columns[s.name] = s.values[lo : lo + len(months)]
    # consecutive months by construction, and slices of checked, read-only values
    frame = object.__new__(AlignedFrame)
    object.__setattr__(frame, "months", months)
    object.__setattr__(frame, "columns", columns)
    return frame


def log_returns(s: MonthlySeries) -> MonthlySeries:
    """Month-over-month log variation ln(x_t / x_{t-1}).

    Output is one shorter than the input and dated at t (the later month).
    """
    if len(s) < 2:
        raise NonPositiveValue(f"series {s.name!r}: need at least 2 observations")
    if np.any(s.values <= 0):
        i = int(np.argmax(s.values <= 0))
        raise NonPositiveValue(
            f"series {s.name!r}: non-positive level {s.values[i]} at {format_month(s.months[i])}"
        )
    vals = np.log(s.values[1:] / s.values[:-1])
    return _derived(f"{s.name}_ret", s.months[1:], vals)


def to_basis_points(r: MonthlySeries) -> MonthlySeries:
    """Scale a return series to basis points (0.01 log return = 100 bp)."""
    return _derived(f"{r.name}_bp", r.months, r.values * 10_000.0)
