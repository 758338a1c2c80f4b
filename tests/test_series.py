"""Loading, validation, alignment, and the basic return transforms."""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spreadnet.errors import (
    DuplicateDate,
    EmptyIntersection,
    GapInDates,
    MissingColumn,
    MissingFile,
    NonPositiveValue,
    UnparseableValue,
)
from spreadnet.preprocess import TrainingMatrix
from spreadnet.series import (
    MonthlySeries,
    _check_months,
    _derived,
    align,
    format_month,
    load_series,
    log_returns,
    parse_month,
    to_basis_points,
)


def write_csv(path, rows, header="date,level"):
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return path


def months(start, n):
    return np.arange(parse_month(start), parse_month(start) + n)


class TestMonthKeys:
    def test_roundtrip(self):
        for label in ("2001-01", "1999-12", "2005-04"):
            assert format_month(parse_month(label)) == label

    def test_adjacent_months_differ_by_one(self):
        assert parse_month("2001-02") - parse_month("2001-01") == 1
        assert parse_month("2002-01") - parse_month("2001-12") == 1

    def test_bad_format(self):
        with pytest.raises(UnparseableValue):
            parse_month("2001/01")
        with pytest.raises(UnparseableValue):
            parse_month("2001-13")


class TestLoadSeries:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-01,1.0", "2001-02,2.0", "2001-03,3.5"])
        (series,) = load_series(path, {"level": "level"})
        assert len(series) == 3
        assert [format_month(m) for m in series.months] == ["2001-01", "2001-02", "2001-03"]
        assert series.values.tolist() == [1.0, 2.0, 3.5]

    def test_gap_in_dates(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-01,1.0", "2001-03,2.0"])
        with pytest.raises(GapInDates, match="row 2"):
            load_series(path, {"level": "level"})

    def test_duplicate_date(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-01,1.0", "2001-01,2.0"])
        with pytest.raises(DuplicateDate, match="row 2"):
            load_series(path, {"level": "level"})

    def test_unparseable_value_names_row(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", ["2001-01,1.0", "2001-02,n/a", "2001-03,3.0"]
        )
        with pytest.raises(UnparseableValue, match="row 2"):
            load_series(path, {"level": "level"})

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-01,1.0"])
        with pytest.raises(MissingColumn):
            load_series(path, {"level": "nope"})

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_series(tmp_path / "absent.csv", {"level": "level"})

    def test_path_under_a_file(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-01,1.0"]) / "d.csv"
        with pytest.raises(MissingFile, match=re.escape(f"input file not found: {path}")):
            load_series(path, {"level": "level"})

    def test_crlf_lines_read_as_lf_lines(self, tmp_path):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes(b"date,level\n2001-01,1.0\n\n2001-02,2.5\n")
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        (a,), (b,) = (load_series(p, {"level": "level"}) for p in (lf, crlf))
        assert list(a.months) == list(b.months) and list(a.values) == list(b.values) == [1.0, 2.5]

    def test_one_text_read_through_other_columns(self, tmp_path):
        # the text is parsed once per column map and date column, never once for all
        path = tmp_path / "d.csv"
        path.write_text("date,a,b,when\n2000-01,1,2,2001-05\n2000-02,3,4,2001-06\n")
        (a,), (b,), (t,) = (load_series(path, m) for m in ({"s": "a"}, {"s": "b"}, {"t": "a"}))
        (later,) = load_series(path, {"s": "a"}, date_column="when")
        assert a.values.tolist() == [1.0, 3.0] and b.values.tolist() == [2.0, 4.0]
        assert (a.name, t.name) == ("s", "t") and t.values.tolist() == [1.0, 3.0]
        assert [format_month(m) for m in later.months] == ["2001-05", "2001-06"]

    @pytest.mark.parametrize("text, fault, message", [
        ("date,v\n2000-01,abc\n", UnparseableValue,
         " row 1: column 'v' value 'abc' is not a number"),
        ("date,v\n2000-01,1\n2000-01,2\n", DuplicateDate, " row 2: month 2000-01 repeats"),
        ("date,w\n2000-01,1\n", MissingColumn, ": column 'v' (for series 'v') not in header"),
        ("date,v\n", UnparseableValue, ": no data rows"),
    ], ids=["not-a-number", "repeated-month", "missing-column", "no-rows"])
    def test_a_fault_names_the_file_read(self, tmp_path, text, fault, message):
        # two files, one text: each call's fault names its own file
        for name in ("x.csv", "y.csv"):
            path = tmp_path / name
            path.write_text(text)
            for _ in range(2):
                with pytest.raises(fault) as info:
                    load_series(path, {"v": "v"})
                assert str(info.value) == f"{path}{message}"

    def test_shared_series_are_read_only(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["2001-01,1.0", "2001-02,2.0"])
        loaded = load_series(path, {"level": "level"})
        (series,) = loaded
        for array in (series.values, series.months):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        loaded.clear()  # each call returns its own list
        assert [s.values.tolist() for s in load_series(path, {"level": "level"})] == [[1.0, 2.0]]

    def test_not_utf8_names_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"date,level\n2001-01,1.0\n2001-02,\xff\n")
        with pytest.raises(UnparseableValue, match=f"{path} is not UTF-8 text"):
            load_series(path, {"level": "level"})

    def test_short_row_without_date_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("v,date\n1,2000-01\n2\n", encoding="utf-8")
        with pytest.raises(UnparseableValue, match="row 2: date '' is not in YYYY-MM"):
            load_series(path, {"v": "v"})

    def test_dictreader_reading(self, tmp_path):
        # blank lines are not rows, the last of repeated names wins, extra
        # fields are ignored
        path = tmp_path / "d.csv"
        path.write_text("v,date,v\n\n9,2000-01,1.5,extra\n\n8,2000-02, 2 \n",
                        encoding="utf-8")
        (series,) = load_series(path, {"v": "v"})
        assert [format_month(m) for m in series.months] == ["2000-01", "2000-02"]
        assert series.values.tolist() == [1.5, 2.0]
        path.write_text("v,date,v\n9,2000-01,1.5\n\n8,2000-02\n", encoding="utf-8")
        with pytest.raises(UnparseableValue, match="row 2: column 'v' value '' is not a number"):
            load_series(path, {"v": "v"})


def dictreader_load(path, column_map, date_column="date"):
    """Reference loader over csv.DictReader: the reading ``load_series`` keeps.

    A field missing from a short row reads as empty, the date included.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        if date_column not in header:
            raise MissingColumn(f"{path}: date column {date_column!r} not in header {header}")
        for name, col in column_map.items():
            if col not in header:
                raise MissingColumn(f"{path}: column {col!r} (for series {name!r}) not in header")
        month_keys, values = [], {name: [] for name in column_map}
        for row_no, row in enumerate(reader, start=1):
            try:
                month_keys.append(parse_month(row[date_column] or ""))
            except UnparseableValue as exc:
                raise UnparseableValue(f"{path} row {row_no}: {exc}") from None
            for name, col in column_map.items():
                raw = (row[col] or "").strip()
                try:
                    val = float(raw)
                except ValueError:
                    raise UnparseableValue(
                        f"{path} row {row_no}: column {col!r} value {raw!r} is not a number"
                    ) from None
                if not math.isfinite(val):
                    raise UnparseableValue(
                        f"{path} row {row_no}: column {col!r} value {raw!r} is not finite"
                    )
                values[name].append(val)
    if not month_keys:
        raise UnparseableValue(f"{path}: no data rows")
    month_arr = np.asarray(month_keys, dtype=np.int64)
    _check_months(month_arr, lambda i: f"{path} row {i + 1}")
    return [MonthlySeries(name, month_arr, np.asarray(values[name])) for name in column_map]


HEADER_NAMES = ("date", "a", "b", " a", "c")
COLUMN_MAPS = ({"s": "a"}, {"s": "a", "t": "b"}, {"t": "b", "s": " a"})
GOOD_VALUES = ("1.5", " 2 ", "-3.25", "1e3 ", "7")
BAD_VALUES = ("nan", "inf", " -inf", "abc", "", "  ", "1,5", "0x10")


@st.composite
def csv_files(draw):
    """(CSV text, column map) in load_series' layout: mostly well formed,
    with every fault within reach."""
    column_map = draw(st.sampled_from(COLUMN_MAPS))
    header = [*column_map.values(),
              *draw(st.lists(st.sampled_from(HEADER_NAMES), max_size=3))]
    if not draw(st.integers(0, 9)):  # now and then a mapped column goes missing
        header.pop(draw(st.integers(0, len(header) - 1)))
    header = draw(st.permutations(header))
    if draw(st.integers(0, 9)):  # usually a date column, at any position
        header.insert(draw(st.integers(0, len(header))), "date")
    start, rows, lines = parse_month("1999-11"), 0, [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        if not draw(st.integers(0, 6)):
            lines.append("")  # a blank line
            continue
        # a row may be short or long; most rows are full
        width = len(header) + draw(st.sampled_from((0,) * 12 + (-1, -2, 1, 2)))
        month = format_month(start + rows)
        month_texts = (month,) * 24 + (f" {month} ", format_month(start + rows - 1),
                                       format_month(start + rows + 1), "2000-13", "2000-1", "")
        fields = [
            draw(st.sampled_from(month_texts if name == "date" else GOOD_VALUES * 8 + BAD_VALUES))
            for name in (header + ["x", "x"])[:max(width, 0)]
        ]
        lines.append(",".join(fields))
        rows += 1
    return "\n".join(lines) + draw(st.sampled_from(("\n", ""))), column_map


def load_outcome(loader, path, column_map):
    try:
        return [(s.name, s.months, s.values) for s in loader(path, column_map)]
    except Exception as exc:  # the exception is the outcome under comparison
        return type(exc), str(exc)


class TestLoadSeriesOracle:
    @settings(max_examples=400,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_files())
    def test_matches_dictreader(self, tmp_path, case):
        text, column_map = case
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        got = load_outcome(load_series, path, column_map)
        want = load_outcome(dictreader_load, path, column_map)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, list) and len(got) == len(want)
        for (name, m, v), (name_w, m_w, v_w) in zip(got, want):
            assert name == name_w
            assert np.array_equal(m, m_w) and np.array_equal(v, v_w)


class TestAlign:
    def test_partial_overlap(self):
        a = MonthlySeries("a", months("2001-01", 12), np.arange(12.0))
        b = MonthlySeries("b", months("2001-06", 13), np.arange(13.0))
        frame = align([a, b])
        assert len(frame["a"]) == 7
        assert format_month(frame["a"].months[0]) == "2001-06"
        assert format_month(frame["a"].months[-1]) == "2001-12"
        assert frame["a"].values.tolist() == list(range(5, 12))
        assert frame["b"].values.tolist() == list(range(7))

    def test_identical_ranges_identity(self):
        a = MonthlySeries("a", months("2001-01", 5), np.arange(5.0))
        b = MonthlySeries("b", months("2001-01", 5), np.arange(5.0) * 2)
        frame = align([a, b])
        assert np.array_equal(frame["a"].values, a.values)
        assert np.array_equal(frame["b"].values, b.values)

    def test_disjoint_ranges(self):
        a = MonthlySeries("a", months("2001-01", 3), np.ones(3))
        b = MonthlySeries("b", months("2002-01", 3), np.ones(3))
        with pytest.raises(EmptyIntersection):
            align([a, b])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        series = [
            MonthlySeries(f"s{i}", months("2001-01", n), rng.standard_normal(n))
            for i, n in enumerate((30, 25, 28))
        ]
        once = align(series)
        twice = align(list(once.values()))
        for name in once:
            assert np.array_equal(once[name].months, twice[name].months)
            assert np.array_equal(once[name].values, twice[name].values)

    @settings(max_examples=200)
    @given(spans=st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 12)), min_size=1,
                          max_size=5),
           seed=st.integers(0, 2**16))
    def test_shared_axis_of_input_slices(self, spans, seed):
        # series starting at staggered months, of staggered lengths
        rng = np.random.default_rng(seed)
        series = [MonthlySeries(f"s{i}", months("2001-01", n) + first, rng.standard_normal(n))
                  for i, (first, n) in enumerate(spans)]
        start = max(s.first_month for s in series)
        stop = min(s.last_month for s in series)
        if start > stop:
            with pytest.raises(EmptyIntersection):
                align(series)
            return
        once = align(series)
        assert list(once) == [s.name for s in series]
        shared = once["s0"].months
        assert shared.tolist() == list(range(start, stop + 1))
        for s in series:
            got = once[s.name]
            assert got.months is shared  # one array, not equal copies
            lo = start - s.first_month
            assert got.values.tolist() == s.values[lo : lo + len(shared)].tolist()
            assert np.shares_memory(got.values, s.values)  # a slice, not a copy
        twice = align(list(once.values()))
        for name, got in once.items():
            assert np.array_equal(twice[name].months, got.months)
            assert np.array_equal(twice[name].values, got.values)


class TestLogReturns:
    def test_constant_series(self):
        s = MonthlySeries("x", months("2001-01", 3), np.array([100.0, 100.0, 100.0]))
        assert log_returns(s).values.tolist() == [0.0, 0.0]

    def test_hand_computed(self):
        s = MonthlySeries("x", months("2001-01", 2), np.array([100.0, 110.0]))
        out = log_returns(s)
        assert out.values == pytest.approx([math.log(1.1)], abs=1e-12)
        assert out.values[0] == pytest.approx(0.09531, abs=5e-6)

    def test_non_positive(self):
        s = MonthlySeries("x", months("2001-01", 2), np.array([100.0, -5.0]))
        with pytest.raises(NonPositiveValue):
            log_returns(s)

    def test_roundtrip_recovers_returns(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = rng.uniform(-0.3, 0.3, size=40)
            levels = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
            s = MonthlySeries("x", months("2001-01", len(levels)), levels)
            back = log_returns(s).values
            assert np.allclose(back, r, atol=1e-12)


class TestBasisPoints:
    def test_one_percent_is_100bp(self):
        s = MonthlySeries("r", months("2001-01", 1), np.array([0.01]))
        assert to_basis_points(s).values.tolist() == [100.0]

    def test_zero_and_negative(self):
        s = MonthlySeries("r", months("2001-01", 2), np.array([0.0, -0.025]))
        assert to_basis_points(s).values.tolist() == [0.0, -250.0]

    def test_linear(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(25)
        s = MonthlySeries("r", months("2001-01", 25), x)
        scaled = MonthlySeries("r", months("2001-01", 25), 3.7 * x)
        assert np.allclose(to_basis_points(scaled).values, 3.7 * to_basis_points(s).values)


class TestInvariants:
    def test_gap_rejected_on_construction(self):
        with pytest.raises(GapInDates):
            MonthlySeries("x", np.array([0, 2]), np.array([1.0, 2.0]))

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateDate):
            MonthlySeries("x", np.array([5, 5]), np.array([1.0, 2.0]))

    def test_decreasing_rejected(self):
        # the months are checked before the values
        with pytest.raises(GapInDates, match=re.escape("series 'x': month 2000-01 precedes 2000-02")):
            MonthlySeries("x", months("2000-02", 1) + [0, -1], np.array([1.0, np.nan]))

    # each step that is not +1 month: the fault it raises and the words naming it
    BAD_STEPS = {0: (DuplicateDate, "month {b} repeats"), -1: (GapInDates, "month {b} precedes {a}"),
                 2: (GapInDates, "gap between {a} and {b}")}

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=st.lists(st.sampled_from([-1, 0, 1, 2]), max_size=7))
    def test_one_month_rule(self, tmp_path, steps):
        # a file, a series and a matrix accept the same axes, and refuse
        # the others with the same fault, named by the first step that is not +1
        keys = parse_month("1999-11") + np.cumsum([0, *steps])
        labels = [format_month(k) for k in keys]
        path = tmp_path / "d.csv"
        path.write_text("date,v\n" + "".join(f"{label},1\n" for label in labels))
        n = len(keys)
        bad = next((i for i, step in enumerate(steps) if step != 1), None)
        builders = {  # the place each names a fault at
            f"{path} row {(bad or 0) + 2}": lambda: load_series(path, {"v": "v"}),
            "series 'v'": lambda: MonthlySeries("v", keys, np.ones(n)),
            "set01_lag01": lambda: TrainingMatrix(1, 1, ("v",), np.ones((n, 1)), np.ones(n), keys),
        }
        for place, build in builders.items():
            if bad is None:
                build()
                continue
            fault, words = self.BAD_STEPS[steps[bad]]
            with pytest.raises(fault) as info:
                build()
            assert str(info.value) == f"{place}: " + words.format(a=labels[bad], b=labels[bad + 1])

    def test_non_finite_rejected(self):
        with pytest.raises(UnparseableValue):
            MonthlySeries("x", np.array([0, 1]), np.array([1.0, np.nan]))

    def test_immutability(self):
        s = MonthlySeries("x", months("2001-01", 2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0


class TestDerivedSeries:
    """``_derived`` builds, on an axis already checked, the series the public
    constructor builds, and checks the values as it does."""

    @settings(max_examples=200)
    @given(start=st.integers(parse_month("1900-01"), parse_month("2100-01")),
           cut=st.integers(0, 5),
           values=st.lists(st.floats(width=64), min_size=1, max_size=30))
    def test_same_series_as_the_constructor(self, start, cut, values):
        # the axis is a slice of a checked one, as a derived series' axis always is
        axis = MonthlySeries("axis", np.arange(start, start + cut + len(values)),
                             np.zeros(cut + len(values))).months
        built = []
        for make in (MonthlySeries, _derived):
            try:
                built.append(make("x", axis[cut:], np.array(values)))
            except UnparseableValue as exc:
                built.append(str(exc))
        public, derived = built
        if isinstance(public, str):  # a non-finite value, named alike
            assert derived == public
            assert not all(math.isfinite(v) for v in values)
            return
        assert derived.name == public.name
        assert derived.months.dtype == public.months.dtype == np.int64
        assert np.array_equal(derived.months, public.months)
        assert derived.values.dtype == public.values.dtype == np.float64
        assert derived.values.tobytes() == public.values.tobytes()
        for a, b in ((derived.months, public.months), (derived.values, public.values)):
            assert not a.flags.writeable and not b.flags.writeable

