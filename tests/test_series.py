import datetime as dt
import math
import random

import numpy as np
import pytest

from bubblefit import (
    ConfigError,
    CrashEvent,
    DataError,
    DegenerateInputError,
    PriceSeries,
    Scale,
    UsageError,
    descriptive_stats,
    load_csv,
    log_returns,
    to_log,
    write_csv,
)
from bubblefit import series as series_module
from bubblefit.series import WeekendDataWarning, parse_date, to_json_data

from conftest import series_from_values, weekday_grid_from


def write_rows(path, rows, header="date,value"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestLoadCsv:
    def test_identity_ingestion(self, tmp_path):
        f = tmp_path / "two.csv"
        write_rows(f, ["1970-01-02,150.0", "1970-01-05,151.2"])
        series = load_csv(f, "date", "value")
        assert len(series) == 2
        assert series.dates == (dt.date(1970, 1, 2), dt.date(1970, 1, 5))
        assert series.values == pytest.approx([150.0, 151.2])
        assert series.scale == Scale.RAW

    def test_weekend_row_dropped_with_warning(self, tmp_path):
        f = tmp_path / "weekend.csv"
        # 1970-01-03 was a Saturday
        write_rows(f, ["1970-01-02,150.0", "1970-01-03,150.5", "1970-01-05,151.2"])
        with pytest.warns(WeekendDataWarning, match="1 weekend row"):
            series = load_csv(f, "date", "value")
        assert len(series) == 2

    def test_shuffled_rows_identical(self, tmp_path):
        dates = weekday_grid_from(dt.date(1999, 1, 4), 50)
        rows = [f"{d.isoformat()},{100 + i}" for i, d in enumerate(dates)]
        shuffled = rows[:]
        random.Random(3).shuffle(shuffled)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(a, rows)
        write_rows(b, shuffled)
        sa = load_csv(a, "date", "value")
        sb = load_csv(b, "date", "value")
        assert sa.dates == sb.dates
        assert np.array_equal(sa.values, sb.values)

    def test_missing_column_is_config_error(self, tmp_path):
        f = tmp_path / "cols.csv"
        write_rows(f, ["1970-01-02,150.0"], header="day,close")
        with pytest.raises(ConfigError, match="'date'"):
            load_csv(f, "date", "close")

    def test_non_positive_value_names_row(self, tmp_path):
        f = tmp_path / "neg.csv"
        write_rows(f, ["1970-01-02,150.0", "1970-01-05,-3.0"])
        with pytest.raises(DataError, match="1970-01-05"):
            load_csv(f, "date", "value")

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_value_names_row(self, tmp_path, value):
        f = tmp_path / "inf.csv"
        write_rows(f, ["1970-01-02,150.0", f"1970-01-05,{value}"])
        with pytest.raises(DataError,
                           match=rf"row 3 \(1970-01-05\): non-finite value {value}"):
            load_csv(f, "date", "value")

    def test_unparseable_date_names_row(self, tmp_path):
        f = tmp_path / "date.csv"
        write_rows(f, ["1970-01-02,150.0", "1970-13-05,151.0"])
        with pytest.raises(DataError, match="row 3: invalid calendar date: '1970-13-05'"):
            load_csv(f, "date", "value")

    @pytest.mark.parametrize("text", ["20050630", "2005-W26-4"])
    def test_other_iso_forms_name_the_row(self, tmp_path, text):
        f = tmp_path / "iso.csv"
        write_rows(f, ["2005-06-29,150.0", f"{text},151.0"])
        with pytest.raises(DataError, match=f"row 3: unparseable date: '{text}'"):
            load_csv(f, "date", "value")

    def test_duplicate_date_is_data_error(self, tmp_path):
        f = tmp_path / "dup.csv"
        write_rows(f, ["1970-01-02,150.0", "1970-01-02,151.0"])
        with pytest.raises(DataError, match="duplicate"):
            load_csv(f, "date", "value")

    def test_dd_mmm_yyyy_dates(self, tmp_path):
        f = tmp_path / "mmm.csv"
        write_rows(f, ["07-Dec-1987,1895", "08-Dec-1987,1900"])
        series = load_csv(f, "date", "value")
        assert series.dates[0] == dt.date(1987, 12, 7)

    def test_a_blank_line_is_counted_in_the_row_number(self, tmp_path):
        f = tmp_path / "blank.csv"
        # line 3 is blank, so the bad value sits on line 5
        write_rows(f, ["1970-01-02,150.0", "", "1970-01-05,151.0", "1970-01-06,x"])
        with pytest.raises(DataError, match="^row 5: unparseable value 'x'$"):
            load_csv(f, "date", "value")

    def test_a_bad_value_is_quoted_stripped(self, tmp_path):
        f = tmp_path / "pad.csv"
        write_rows(f, ["1970-01-02, x "])
        with pytest.raises(DataError, match="^row 2: unparseable value 'x'$"):
            load_csv(f, "date", "value")

    @pytest.mark.parametrize("row", ["1970-01-05,", ",151.0", "1970-01-05"])
    def test_an_empty_or_missing_cell_names_the_row(self, tmp_path, row):
        f = tmp_path / "empty.csv"
        write_rows(f, ["1970-01-02,150.0", row])
        with pytest.raises(DataError, match="^row 3: empty field$"):
            load_csv(f, "date", "value")

    @pytest.mark.parametrize("header", ["date", ""])
    def test_a_header_of_fewer_than_two_columns_is_config_error(self, tmp_path,
                                                                header):
        f = tmp_path / "one.csv"
        write_rows(f, ["1970-01-02"], header=header)
        with pytest.raises(ConfigError, match="at least two columns"):
            load_csv(f)

    @pytest.mark.parametrize("named", [None, "value"])
    def test_a_duplicated_column_name_reads_its_first_column(self, tmp_path, named):
        f = tmp_path / "dup.csv"
        write_rows(f, ["1970-01-02,150.0,999.0"], header="date,value,value")
        assert load_csv(f, value_column=named).values.tolist() == [150.0]

    def test_columns_are_guessed_in_the_order_of_the_guesses(self, tmp_path, capsys):
        f = tmp_path / "guess.csv"
        write_rows(f, ["1,1970-01-02,150.0,999.0"], header="n, Day ,Price,CLOSE")
        assert load_csv(f).values.tolist() == [999.0]
        assert capsys.readouterr().err == ""

    def test_unknown_columns_fall_back_to_position_with_a_note(self, tmp_path,
                                                               capsys):
        f = tmp_path / "pos.csv"
        write_rows(f, ["1970-01-02,150.0"], header="when,level")
        series = load_csv(f)
        assert series.dates == (dt.date(1970, 1, 2),)
        assert capsys.readouterr().err == (
            "note: using column 'when' as the date column\n"
            "note: using column 'level' as the value column\n")

    def test_round_trip_through_write_csv(self, tmp_path):
        series = series_from_values([100.0, 101.5, 103.25])
        f = tmp_path / "rt.csv"
        write_csv(series, f)
        back = load_csv(f, "date", "value")
        assert back.dates == series.dates
        assert np.array_equal(back.values, series.values)


class TestOutputEncoding:
    def test_json_data_of_nested_records(self):
        event = CrashEvent(dt.date(2007, 10, 30), 31638.22, dt.date(2008, 1, 22), 0.74)
        payload = to_json_data([event, Scale.LOG, (1, None)])
        assert payload == [
            {"peak_date": "2007-10-30", "peak_value": 31638.22,
             "qualifying_drop_date": "2008-01-22", "drop_ratio": 0.74},
            "log",
            [1, None],
        ]

    def test_csv_cells(self, tmp_path):
        f = tmp_path / "rows.csv"
        series_module.write_rows(f, ("date", "x", "rmse", "param"), [
            (dt.date(2005, 6, 30), np.float64(0.1), None, "beta"),
            (dt.date(2005, 7, 1), 3, 1e-300, "omega"),
        ])
        assert f.read_text().splitlines() == [
            "date,x,rmse,param",
            "2005-06-30,0.1,,beta",
            "2005-07-01,3.0,1e-300,omega",
        ]


def test_parse_date_rejects_garbage():
    with pytest.raises(DataError):
        parse_date("12/31/1999")


@pytest.mark.parametrize("text", ["20050630", "2005-W26-4"])
def test_parse_date_takes_only_the_dashed_iso_form(text):
    # from Python 3.11 date.fromisoformat reads both; 3.10 rejects them
    with pytest.raises(DataError, match="unparseable date"):
        parse_date(text)


@pytest.mark.parametrize("text", ["1989-05-15", "15-May-1989", "15-MAY-1989"])
def test_parse_date_reads_both_forms(text):
    assert parse_date(text) == dt.date(1989, 5, 15)


@pytest.mark.parametrize("text", ["2005-02-30", "2005-13-01", "30-Feb-2005"])
def test_parse_date_names_an_impossible_date_in_either_form(text):
    with pytest.raises(DataError, match=f"^invalid calendar date: '{text}'$"):
        parse_date(text)


class TestPriceSeries:
    def test_rejects_weekend_dates(self):
        with pytest.raises(UsageError):
            PriceSeries((dt.date(2021, 1, 2),), np.array([1.0]))  # a Saturday

    def test_rejects_unsorted_dates(self):
        d = (dt.date(2021, 1, 5), dt.date(2021, 1, 4))
        with pytest.raises(UsageError):
            PriceSeries(d, np.array([1.0, 2.0]))

    def test_rejects_non_positive_raw(self):
        d = weekday_grid_from(dt.date(2021, 1, 4), 2)
        with pytest.raises(DataError):
            PriceSeries(d, np.array([1.0, 0.0]))

    def test_log_scale_allows_negatives(self):
        d = weekday_grid_from(dt.date(2021, 1, 4), 2)
        series = PriceSeries(d, np.array([-1.0, 0.5]), Scale.LOG)
        assert series.scale == Scale.LOG


class TestToLog:
    def test_constant_e_becomes_one(self):
        series = series_from_values([math.e] * 5)
        assert to_log(series).values == pytest.approx([1.0] * 5)

    def test_powers_of_e(self):
        series = series_from_values([1.0, math.e**2, math.e**4])
        assert to_log(series).values == pytest.approx([0.0, 2.0, 4.0])

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        values = np.exp(rng.normal(5.0, 2.0, size=200))
        series = series_from_values(values)
        back = np.exp(to_log(series).values)
        assert np.allclose(back, values, rtol=1e-12)

    def test_rejects_log_input(self):
        series = series_from_values([1.0, 2.0])
        with pytest.raises(UsageError):
            to_log(to_log(series))


class TestLogReturns:
    def test_flat_series(self):
        r = log_returns(series_from_values([100.0, 100.0]))
        assert len(r) == 1
        assert r == pytest.approx([0.0])

    def test_known_return(self):
        r = log_returns(series_from_values([100.0, 100.0 * math.exp(0.01)]))
        assert r == pytest.approx([0.01])

    def test_length_and_order(self):
        series = series_from_values([1.0, 2.0, 3.0, 4.0])
        r = log_returns(series)
        assert len(r) == len(series) - 1
        assert r == pytest.approx(np.log([2.0, 1.5, 4.0 / 3.0]))

    def test_too_short(self):
        with pytest.raises(UsageError):
            log_returns(series_from_values([100.0]))


def brute_force_jarque_bera(values):
    """Straight-formula oracle computed with plain Python floats."""
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    m3 = sum((v - mean) ** 3 for v in values) / n
    m4 = sum((v - mean) ** 4 for v in values) / n
    skew = m3 / m2**1.5
    exkurt = m4 / m2**2 - 3.0
    return (n / 6.0) * (skew**2 + exkurt**2 / 4.0), skew, exkurt


class TestDescriptiveStats:
    def test_symmetric_series(self):
        report = descriptive_stats(np.array([-1.0, 1.0, -1.0, 1.0]))
        assert report.mean == pytest.approx(0.0)
        assert report.skewness == pytest.approx(0.0)
        assert report.excess_kurtosis == pytest.approx(-2.0)
        assert report.jarque_bera == pytest.approx(4 / 6)

    def test_jb_against_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        draws = rng.standard_normal(10_000)
        report = descriptive_stats(draws)
        oracle_jb, oracle_skew, oracle_kurt = brute_force_jarque_bera(draws.tolist())
        assert report.jarque_bera == pytest.approx(oracle_jb, rel=1e-9)
        assert report.skewness == pytest.approx(oracle_skew, rel=1e-9)
        assert report.excess_kurtosis == pytest.approx(oracle_kurt, rel=1e-9)
        assert report.jb_p_value == pytest.approx(math.exp(-report.jarque_bera / 2), rel=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 0.01, 500)
        base = descriptive_stats(x)
        shifted = descriptive_stats(x + 0.37)
        assert shifted.skewness == pytest.approx(base.skewness, abs=1e-9)
        assert shifted.excess_kurtosis == pytest.approx(base.excess_kurtosis, abs=1e-9)
        assert shifted.jarque_bera == pytest.approx(base.jarque_bera, rel=1e-9)

    def test_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            descriptive_stats(np.zeros(5))

    def test_too_short(self):
        with pytest.raises(UsageError):
            descriptive_stats(np.array([1.0, 2.0, 3.0]))

    def test_json_field_names(self):
        rng = np.random.default_rng(9)
        report = descriptive_stats(rng.standard_normal(100))
        payload = report.__dict__
        assert set(payload) == {
            "n", "mean", "variance", "skewness", "excess_kurtosis",
            "jarque_bera", "jb_p_value",
        }
