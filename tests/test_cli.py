import csv
import datetime as dt
import json
import math
import re

import numpy as np
import pytest

from bubblefit import (
    DegeneracyError,
    GeneratorSpec,
    PriceSeries,
    UsageError,
    generate,
    load_csv,
    write_csv,
)
from bubblefit import cli, fitter
from bubblefit.cli import main

from conftest import canonical_params, crash_series, series_from_values

GEN_SPEC = {
    "params": {
        "a": 1000.0, "b": -35.0, "c": 0.04, "beta": 0.33, "omega": 6.36,
        "t2c": 5.0, "phi": 1.0, "anchor_date": "2005-06-30", "scale": "raw",
    },
    "n_weekdays": 320,
    "noise_sigma": 0.0,
    "rng_seed": 12,
}


@pytest.fixture(scope="module")
def crash_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "crash.csv"
    write_csv(crash_series(), path)
    return path


@pytest.fixture(scope="module")
def two_crash_csv(tmp_path_factory):
    """The crash series followed by a copy of itself at 0.85 of its level:
    two crashes, each with a fittable 320-weekday bubble."""
    first = crash_series()
    later = np.busday_offset(np.datetime64(first.dates[-1], "D"),
                             np.arange(1, len(first) + 1))
    series = PriceSeries(first.dates + tuple(d.astype(dt.date) for d in later),
                         np.concatenate([first.values, 0.85 * first.values]))
    path = tmp_path_factory.mktemp("data") / "two_crashes.csv"
    write_csv(series, path)
    return path


def run(*argv):
    return main(list(argv))


# a coarser seed partition than the default, for fast CLI fits
COARSE_SEED_BOUNDS = '{"beta": [0, 2, 0.5], "omega": [0, 20, 5]}'


class TestGenerateCommand:
    def test_writes_csv_matching_library(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(GEN_SPEC))
        out = tmp_path / "out"
        assert run("--input", str(spec_path), "--command", "generate",
                   "--out", str(out)) == 0
        produced = load_csv(out / "synthetic.csv", "date", "value")
        expected = generate(GeneratorSpec(
            canonical_params(c=0.04, t2c=5.0), 320, 0.0, 12))
        assert produced.dates == expected.dates
        assert np.array_equal(produced.values, expected.values)
        assert (out / "manifest.json").exists()

    def test_rng_seed_flag_overrides_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec = dict(GEN_SPEC, noise_sigma=5.0)
        spec_path.write_text(json.dumps(spec))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("--input", str(spec_path), "--command", "generate",
            "--out", str(out_a), "--rng-seed", "77")
        run("--input", str(spec_path), "--command", "generate",
            "--out", str(out_b), "--rng-seed", "78")
        va = load_csv(out_a / "synthetic.csv", "date", "value").values
        vb = load_csv(out_b / "synthetic.csv", "date", "value").values
        assert not np.array_equal(va, vb)

    # json writes NaN and Infinity as bare words, which it also reads
    @pytest.mark.parametrize("text", [
        json.dumps(dict(GEN_SPEC, n_weekdays="many")),
        json.dumps([GEN_SPEC]),
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"],
                                              anchor_date=20050630))),
        json.dumps(GEN_SPEC)[:-1],
        json.dumps(dict(GEN_SPEC, noise_sigma=math.nan)),
        json.dumps(dict(GEN_SPEC, noise_sigma=math.inf)),
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"], a=100.0),
                        noise_sigma=1000.0)),
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"], beta=math.nan))),
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"], omega=math.inf))),
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"], c=math.inf))),
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"], a="1000"))),
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"], c=True))),
        json.dumps(dict(GEN_SPEC, noise_sigma="0")),
        json.dumps(dict(GEN_SPEC, n_weekdays=320.9)),
        json.dumps(dict(GEN_SPEC, rng_seed=12.7)),
        json.dumps(dict(GEN_SPEC, rng_seed=True)),
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"], a=10 ** 400))),
        json.dumps(GEN_SPEC).replace('"rng_seed": 12', '"rng_seed": ' + "1" * 5000),
        # grids that would start before 0001-01-01, refused before they are built
        json.dumps(dict(GEN_SPEC, params=dict(GEN_SPEC["params"],
                                              anchor_date="0001-01-05"))),
        json.dumps(dict(GEN_SPEC, n_weekdays=600000)),
        json.dumps({k: v for k, v in GEN_SPEC.items() if k != "n_weekdays"}),
    ], ids=["bad_count", "list", "numeric_date", "not_json", "nan_noise",
            "inf_noise", "noise_too_large", "nan_beta", "inf_omega", "inf_c",
            "text_a", "bool_c", "text_noise", "fractional_count",
            "fractional_rng_seed", "bool_rng_seed", "a_past_float",
            "rng_seed_of_5000_digits", "grid_before_year_one",
            "grid_of_600000_weekdays", "no_count"])
    def test_malformed_spec_exits_1(self, text, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        assert run("--input", str(spec_path), "--command", "generate",
                   "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec, flags", [
        (dict(GEN_SPEC, rng_seed=-1), ()),
        (GEN_SPEC, ("--rng-seed", "-1")),
    ], ids=["spec", "flag"])
    def test_negative_rng_seed_exits_1(self, spec, flags, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run("--input", str(spec_path), "--command", "generate",
                   "--out", str(tmp_path / "out"), *flags) == 1
        err = capsys.readouterr().err
        assert err == "error: rng_seed must be non-negative (got -1)\n"


class TestStatsCommand:
    def test_stats_json(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "stats",
                   "--out", str(out)) == 0
        payload = json.loads((out / "stats.json").read_text())
        assert set(payload) == {"n", "mean", "variance", "skewness",
                                "excess_kurtosis", "jarque_bera", "jb_p_value"}
        assert payload["n"] == 357  # 358 observations -> 357 returns

    def test_column_sniffing(self, tmp_path):
        series = series_from_values(np.linspace(100, 120, 40))
        path = tmp_path / "col.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Date", "Close"])
            for d, v in zip(series.dates, series.values):
                writer.writerow([d.isoformat(), v])
        out = tmp_path / "out"
        assert run("--input", str(path), "--command", "stats",
                   "--out", str(out)) == 0


class TestDetectCommand:
    def test_monotone_input_empty_report(self, tmp_path):
        series = series_from_values(np.linspace(100, 500, 400))
        path = tmp_path / "mono.csv"
        write_csv(series, path)
        out = tmp_path / "out"
        assert run("--input", str(path), "--command", "detect",
                   "--out", str(out)) == 0
        assert json.loads((out / "crashes.json").read_text()) == []
        assert json.loads((out / "bubbles.json").read_text()) == []

    def test_crash_detected(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "detect",
                   "--out", str(out)) == 0
        crashes = json.loads((out / "crashes.json").read_text())
        assert len(crashes) == 1
        assert crashes[0]["peak_date"] == "2005-06-30"
        assert crashes[0]["drop_ratio"] <= 0.75
        bubbles = json.loads((out / "bubbles.json").read_text())
        assert bubbles[0]["accepted"]
        assert bubbles[0]["end_date"] == "2005-06-30"

    def test_override_moves_bubble_start(self, crash_csv, tmp_path):
        overrides = tmp_path / "overrides.csv"
        overrides.write_text(
            "peak_date,bubble_start_date\n2005-06-30,2004-06-01\n")
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "detect",
                   "--overrides", str(overrides), "--out", str(out)) == 0
        bubbles = json.loads((out / "bubbles.json").read_text())
        assert bubbles[0]["override_applied"]
        assert bubbles[0]["start_date"] >= "2004-06-01"

    @pytest.mark.parametrize("command", ["detect", "fit", "scan"])
    def test_unmatched_override_exits_1_before_fitting(
            self, command, crash_csv, tmp_path, monkeypatch, capsys):
        overrides = tmp_path / "overrides.csv"
        overrides.write_text("peak_date,bubble_start_date\n"
                             "2005-06-30,2004-06-01\n2005-07-30,2004-06-01\n"
                             "2005-06-03,2004-06-01\n")
        fitted = []
        monkeypatch.setattr(cli, "fit_bubble",
                            lambda window, **kwargs: fitted.append(window))
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", command,
                   "--overrides", str(overrides), "--out", str(out)) == 1
        assert fitted == []
        assert capsys.readouterr().err == (
            "error: override peak dates match no detected crash peak: "
            "2005-06-03, 2005-07-30\n")
        assert not (out / "bubbles.json").exists()

    @pytest.mark.parametrize("row", ["2005-06-30", "2005-06-30,"],
                             ids=["missing_cell", "empty_cell"])
    def test_bad_override_cell_names_the_row(self, row, crash_csv, tmp_path,
                                             capsys):
        overrides = tmp_path / "overrides.csv"
        overrides.write_text(f"peak_date,bubble_start_date\n{row}\n")
        assert run("--input", str(crash_csv), "--command", "detect",
                   "--overrides", str(overrides),
                   "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 2: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_a_duplicate_peak_override_exits_2(self, crash_csv, tmp_path, capsys):
        overrides = tmp_path / "overrides.csv"
        overrides.write_text("peak_date,bubble_start_date\n"
                             "2005-06-30,2004-06-01\n2005-06-30,2004-07-01\n")
        assert run("--input", str(crash_csv), "--command", "detect",
                   "--overrides", str(overrides),
                   "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            "error: duplicate override for peak 2005-06-30\n")

    def test_override_before_the_trough_names_its_dates(self, two_crash_csv,
                                                        tmp_path, capsys):
        # the second window's trough is 2005-08-24; the first row is valid
        overrides = tmp_path / "overrides.csv"
        overrides.write_text("peak_date,bubble_start_date\n"
                             "2005-06-30,2004-06-01\n2006-11-14,2005-08-01\n")
        assert run("--input", str(two_crash_csv), "--command", "detect",
                   "--overrides", str(overrides),
                   "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for date in ("2005-08-01", "2005-08-24", "2006-11-14"):
            assert date in err

    # fit lists a rejected window in its index, with no fit and no error
    @pytest.mark.parametrize("command, report", [
        ("detect", "bubbles.json"), ("fit", "fit_index.json")])
    def test_min_bubble_rejection_is_reported(self, command, report, tmp_path):
        decline = np.linspace(400, 100, 300)
        rise = np.linspace(102, 450, 80)
        fall = np.linspace(430, 300, 6)
        series = series_from_values(np.concatenate([decline, rise, fall]))
        path = tmp_path / "short.csv"
        write_csv(series, path)
        out = tmp_path / "out"
        assert run("--input", str(path), "--command", command,
                   "--out", str(out)) == 0
        bubbles = json.loads((out / report).read_text())
        assert len(bubbles) == 1
        assert not bubbles[0]["accepted"]
        assert "131" in bubbles[0]["rejection_reason"]
        if command == "fit":
            assert bubbles[0]["fit"] is None
            assert "fit_error" not in bubbles[0]


class TestFitCommand:
    def test_end_to_end_recovery(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "fit",
                   "--out", str(out)) == 0
        index = json.loads((out / "fit_index.json").read_text())
        assert len(index) == 1
        fit_file = out / index[0]["fit"]
        report = json.loads(fit_file.read_text())
        best = report["best_fit"]["params"]
        assert best["beta"] == pytest.approx(0.33, abs=1e-3)
        assert best["omega"] == pytest.approx(6.36, abs=1e-2)
        assert best["t2c"] == pytest.approx(5.0, abs=0.5)
        assert report["best_fit"]["classification"] == "precursor"
        assert report["scale_used"] == "raw"

        curve_file = out / "curve_2005-06-30.csv"
        rows = curve_file.read_text().strip().splitlines()
        assert rows[0] == "date,observed,fitted"
        assert len(rows) == 1 + report["window"]["n_observations"]

    def test_exit_zero_even_when_not_precursor(self, crash_csv, tmp_path):
        # a narrow beta range makes the planted fit (beta 0.33) non-precursor
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "fit",
                   "--precursor-beta", "0.9", "0.95",
                   "--seed-bounds", '{"beta": [0, 2, 0.5], "omega": [0, 20, 5]}',
                   "--out", str(out)) == 0
        index = json.loads((out / "fit_index.json").read_text())
        report = json.loads((out / index[0]["fit"]).read_text())
        assert report["best_fit"]["classification"] == "not_precursor"
        assert report["best_precursor"] is None

    @pytest.mark.parametrize("command", ["fit", "scan"])
    def test_a_failing_window_does_not_stop_the_others(
            self, command, two_crash_csv, tmp_path, monkeypatch):
        argv = ["--input", str(two_crash_csv), "--command", command,
                "--seed-bounds", COARSE_SEED_BOUNDS,
                "--scan-param", "beta", "--scan-steps", "5"]
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert run(*argv, "--out", str(clean)) == 0
        fit_bubble = cli.fit_bubble

        def failing_first(window, **kwargs):
            if window.end_date == dt.date(2005, 6, 30):
                raise UsageError("planted failure")
            return fit_bubble(window, **kwargs)

        monkeypatch.setattr(cli, "fit_bubble", failing_first)
        assert run(*argv, "--out", str(out)) == 2
        index_name = f"{command}_index.json"
        index = json.loads((out / index_name).read_text())
        clean_index = json.loads((clean / index_name).read_text())
        assert [e["peak_date"] for e in index] == ["2005-06-30", "2006-11-14"]
        assert index[0] == dict(clean_index[0], fit=None,
                                fit_error="UsageError: planted failure")
        assert index[1] == clean_index[1]
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(p.name for p in clean.iterdir()
                                 if "2005-06-30" not in p.name)
        for name in written:
            if name not in ("manifest.json", index_name):
                assert (out / name).read_bytes() == (clean / name).read_bytes()

    @pytest.mark.parametrize("command", ["fit", "scan"])
    def test_a_search_that_keeps_no_fit_fails_its_window(
            self, command, two_crash_csv, tmp_path, monkeypatch, capsys):
        # with the ceiling at 0 every seed is abandoned at its first call
        monkeypatch.setattr(fitter, "BETA_CEILING", 0.0)
        out = tmp_path / "out"
        assert run("--input", str(two_crash_csv), "--command", command,
                   "--seed-bounds", COARSE_SEED_BOUNDS,
                   "--scan-param", "beta", "--scan-steps", "5",
                   "--out", str(out)) == 2
        index = json.loads((out / f"{command}_index.json").read_text())
        assert [e["peak_date"] for e in index] == ["2005-06-30", "2006-11-14"]
        for entry in index:
            assert entry["fit"] is None
            assert re.fullmatch(r"DataError: the search kept no fit: (\d+) seeds "
                                r"searched, \1 abandoned past beta 0\.0, 0 past the "
                                r"horizon, 0 stalled, 0 outside the domain",
                                entry["fit_error"])
        assert (out / "manifest.json").exists()
        assert "Traceback" not in capsys.readouterr().err


class TestScanCommand:
    def test_scan_csvs_written(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "scan",
                   "--scan-param", "omega", "--scan-steps", "41",
                   "--out", str(out)) == 0
        scan_file = out / "scan_2005-06-30_omega.csv"
        lines = scan_file.read_text().strip().splitlines()
        assert lines[0] == "param,value,rmse"
        assert len(lines) == 42

    @pytest.mark.parametrize("settings", [
        # 0 is a half-width like any other, not "use the default"
        ("--scan-halfwidth", "0", "--scan-steps", "5"),
        ("--scan-steps", "4"),
        ("--scan-halfwidth", "inf"),
    ], ids=["halfwidth_0", "steps_4", "halfwidth_inf"])
    def test_bad_scan_settings_exit_1_before_fitting(self, settings, crash_csv,
                                                     tmp_path, monkeypatch):
        fitted = []
        monkeypatch.setattr(cli, "fit_bubble",
                            lambda window, **kwargs: fitted.append(window))
        assert run("--input", str(crash_csv), "--command", "scan", *settings,
                   "--seed-bounds", COARSE_SEED_BOUNDS,
                   "--out", str(tmp_path / "out")) == 1
        assert fitted == []

    def test_reoptimized_scan_csvs_repeat_byte_for_byte(self, crash_csv, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run("--input", str(crash_csv), "--command", "scan",
                       "--reoptimize", "--scan-steps", "5",
                       "--seed-bounds", COARSE_SEED_BOUNDS,
                       "--out", str(out)) == 0
        names = sorted(p.name for p in outs[0].glob("scan_*.csv"))
        assert names == [f"scan_2005-06-30_{p}.csv"
                         for p in ("beta", "omega", "phi", "t2c")]
        for name in names:
            first = (outs[0] / name).read_bytes()
            assert first == (outs[1] / name).read_bytes()
            rows = first.decode().strip().splitlines()[1:]
            assert len(rows) == 5 and any(not r.endswith(",") for r in rows)


class TestErrorHandling:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run("--input", str(tmp_path / "absent.csv"),
                   "--command", "stats", "--out", str(tmp_path))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_column_exits_1(self, crash_csv, tmp_path, capsys):
        code = run("--input", str(crash_csv), "--command", "stats",
                   "--date-column", "nope", "--out", str(tmp_path))
        assert code == 1
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", [
        "{not json",
        '{"beta": ["x", 2]}',
        '{"beta": [null, 2]}',
        '{"beta": [0, 2, "w"]}',
        '{"phi": [0, 1]}',
        '{"beta": [0, true]}',
        '{"beta": ["0", "2"]}',
        '{"omega": [0, 20, true]}',
        '{"t2c": [1, 1%s]}' % ("0" * 400),
        '{"t2c": [1, %s]}' % ("1" * 5000),
        "[0, 2]",
        '{"beta": [1]}',
        '{"t2c": [1, 260, 5]}',
        '{"beta": [2, 1]}',
        '{"beta": [0, 2, 0]}',
    ], ids=["not_json", "text_bound", "null_bound", "text_width", "phi",
            "bool_bound", "numeric_text_bounds", "bool_width", "bound_past_float",
            "bound_of_5000_digits", "not_an_object", "one_bound", "t2c_width",
            "reversed_bounds", "zero_width"])
    def test_bad_seed_bounds_json_exits_1(self, bounds, crash_csv, tmp_path,
                                          capsys):
        code = run("--input", str(crash_csv), "--command", "fit",
                   "--seed-bounds", bounds, "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --seed-bounds")

    @pytest.mark.parametrize("bounds", [
        '{"t2c": [1, Infinity]}',
        '{"beta": [-Infinity, 2]}',
        '{"beta": [0, 2, NaN]}',
        '{"omega": [0, 20, Infinity]}',
    ], ids=["inf_upper", "inf_lower", "nan_width", "inf_width"])
    def test_non_finite_seed_bounds_exit_1_before_fitting(
            self, bounds, crash_csv, tmp_path, monkeypatch):
        fitted = []
        monkeypatch.setattr(cli, "fit_bubble",
                            lambda window, **kwargs: fitted.append(window))
        assert run("--input", str(crash_csv), "--command", "fit",
                   "--seed-bounds", bounds, "--out", str(tmp_path / "out")) == 1
        assert fitted == []

    @pytest.mark.parametrize("option", [
        ("--precursor-omega", "4", "inf"),
        ("--precursor-beta", "0.1", "inf"),
        # every seed's t2c is the t2c midpoint, below 1 day here
        ("--seed-bounds", '{"t2c": [-10, 1]}'),
        # the first seed's beta is the beta midpoint
        ("--seed-bounds", '{"beta": [-2, 1]}'),
        ("--drop-to", "1.5"),
        ("--precursor-beta", "0.5", "0.5"),
    ], ids=["omega_inf", "beta_inf", "t2c_midpoint", "beta_midpoint",
            "drop_past_the_peak", "empty_beta_range"])
    def test_config_outside_the_model_exits_1_before_detection(
            self, option, crash_csv, tmp_path, monkeypatch, capsys):
        detected = []
        monkeypatch.setattr(cli, "find_crash_peaks",
                            lambda *args: detected.append(args))
        assert run("--input", str(crash_csv), "--command", "fit", *option,
                   "--out", str(tmp_path / "out")) == 1
        assert detected == []
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_any_other_package_error_exits_3(self, crash_csv, tmp_path,
                                            monkeypatch, capsys):
        # neither a usage nor a data error: a fault of the package
        def degenerate(*args):
            raise DegeneracyError("collinear columns")

        monkeypatch.setattr(cli, "find_crash_peaks", degenerate)
        assert run("--input", str(crash_csv), "--command", "detect",
                   "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == "internal error: collinear columns\n"
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_a_seed_outside_the_domain_ends_without_a_fit(self, crash_csv,
                                                          tmp_path):
        # the b-floor rule reads the window, so the objective is +inf at
        # some seeds of this box (beta 4.5 among them) and not at others:
        # those seeds end without a fit, and the planted fit is still found
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "fit",
                   "--seed-bounds", '{"beta": [0, 6]}', "--out", str(out)) == 0
        index = json.loads((out / "fit_index.json").read_text())
        best = json.loads((out / index[0]["fit"]).read_text())["best_fit"]
        assert best["classification"] == "precursor"
        assert best["params"]["beta"] == pytest.approx(0.33, abs=1e-6)

    def test_a_box_outside_the_domain_fails_its_window(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "fit",
                   "--seed-bounds", '{"beta": [20, 60, 0.5], "omega": [0, 20, 5]}',
                   "--out", str(out)) == 2
        index = json.loads((out / "fit_index.json").read_text())
        assert re.fullmatch(r"DataError: the search kept no fit: (\d+) seeds "
                            r"searched, 0 abandoned past beta 2\.0, 0 past the "
                            r"horizon, 0 stalled, \1 outside the domain",
                            index[0]["fit_error"])

    def test_paper_mode_seed_box_below_the_beta_floor(self, crash_csv, tmp_path):
        # the box's beta midpoint 0.005 is below BETA_FLOOR, where the
        # floored objective is +inf; the search starts there at the floor,
        # and so does the box below's (midpoint 0.0025), which still ends
        # the recursion
        out = tmp_path / "out"
        assert run("--input", str(crash_csv), "--command", "fit", "--paper-mode",
                   "--seed-bounds", '{"beta": [0, 0.01, 0.005]}',
                   "--out", str(out)) == 0
        index = json.loads((out / "fit_index.json").read_text())
        best = json.loads((out / index[0]["fit"]).read_text())["best_fit"]
        assert best["seed_used"][0] == 0.01
        assert best["classification"] == "precursor"

    def test_non_positive_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("date,value\n2005-06-27,100.0\n2005-06-28,-5\n")
        code = run("--input", str(path), "--command", "stats",
                   "--out", str(tmp_path))
        assert code == 2

    # a byte that is not UTF-8 fails the file it is in, whatever the locale:
    # the input CSV and the overrides file with exit 2, the spec with exit 1
    @pytest.mark.parametrize("command, bad, code", [
        ("stats", "input", 2),
        ("detect", "overrides", 2),
        ("generate", "input", 1),
    ], ids=["csv", "overrides", "spec"])
    def test_a_byte_that_is_not_utf8_names_the_file(
            self, command, bad, code, crash_csv, tmp_path, capsys):
        path = tmp_path / "bad"
        text = (json.dumps(GEN_SPEC) if command == "generate" else
                "peak_date,bubble_start_date\n2005-06-30,2005-01-03\n"
                if bad == "overrides" else crash_csv.read_text())
        # the 0xff sits in the last line, past the first block a reader decodes
        path.write_bytes(text[:-2].encode() + b"\xff" + text[-2:].encode())
        files = {"input": crash_csv, bad: path}
        argv = ["--input", str(files["input"]), "--command", command,
                "--out", str(tmp_path / "out")]
        if bad == "overrides":
            argv += ["--overrides", str(path)]
        assert run(*argv) == code
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (invalid start byte)\n")

    def test_a_csv_with_a_byte_order_mark_reads_its_first_column(
            self, crash_csv, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + crash_csv.read_bytes())
        for name, source in (("bom", path), ("plain", crash_csv)):
            assert run("--input", str(source), "--command", "stats",
                       "--date-column", "date", "--value-column", "value",
                       "--out", str(tmp_path / name)) == 0
        assert ((tmp_path / "bom" / "stats.json").read_bytes()
                == (tmp_path / "plain" / "stats.json").read_bytes())

    def test_a_spec_with_a_byte_order_mark_generates(self, tmp_path):
        for name, bom in (("bom", "\ufeff"), ("plain", "")):
            spec_path = tmp_path / f"{name}.json"
            spec_path.write_text(bom + json.dumps(GEN_SPEC), encoding="utf-8")
            assert run("--input", str(spec_path), "--command", "generate",
                       "--out", str(tmp_path / name)) == 0
        assert ((tmp_path / "bom" / "synthetic.csv").read_bytes()
                == (tmp_path / "plain" / "synthetic.csv").read_bytes())


class TestManifest:
    def test_manifest_contents(self, crash_csv, tmp_path):
        out = tmp_path / "out"
        run("--input", str(crash_csv), "--command", "detect", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "bubblefit"
        assert manifest["config"]["lookback_weekdays"] == 262
        assert manifest["config"]["drop_to_fraction"] == 0.75
        assert manifest["config"]["min_bubble_weekdays"] == 131
        assert len(manifest["config_hash"]) == 64
        assert str(crash_csv) in manifest["inputs"]

    def test_every_option_is_written_under_its_parser_name(self, crash_csv,
                                                           tmp_path):
        overrides = tmp_path / "overrides.csv"
        overrides.write_text(
            "peak_date,bubble_start_date\n2005-06-30,2004-06-01\n")
        out = tmp_path / "out"
        # each option's parser name: its words on the command line and the
        # value the manifest holds for them
        options = {
            "input": (["--input", str(crash_csv)], str(crash_csv)),
            "command": (["--command", "detect"], "detect"),
            "lookback_weekdays": (["--lookback", "300"], 300),
            "drop_to_fraction": (["--drop-to", "0.8"], 0.8),
            "drop_window_weekdays": (["--drop-window", "30"], 30),
            "min_bubble_weekdays": (["--min-bubble", "100"], 100),
            "overrides": (["--overrides", str(overrides)], str(overrides)),
            "scale": (["--scale", "log"], "log"),
            "paper_mode": (["--paper-mode"], True),
            "out": (["--out", str(out)], str(out)),
            "seed_bounds": (["--seed-bounds", '{"t2c": [2, 100]}'],
                            {"lower": [0.0, 0.0, 2.0], "upper": [2.0, 20.0, 100.0],
                             "min_width_beta": 0.2, "min_width_omega": 2.0}),
            "precursor_beta": (["--precursor-beta", "0.1", "0.6"], [0.1, 0.6]),
            "precursor_omega": (["--precursor-omega", "4", "9"], [4.0, 9.0]),
            "scan_params": (["--scan-param", "omega", "--scan-param", "beta"],
                            ["omega", "beta"]),
            "scan_steps": (["--scan-steps", "7"], 7),
            "scan_halfwidth": (["--scan-halfwidth", "0.5"], 0.5),
            "reoptimize": (["--reoptimize"], True),
            "rng_seed": (["--rng-seed", "9"], 9),
            "date_column": (["--date-column", "date"], "date"),
            "value_column": (["--value-column", "value"], "value"),
        }
        defaults = vars(cli.build_parser().parse_args(
            ["--input", "x", "--command", "stats"]))
        assert sorted(defaults) == sorted(options)
        # every value differs from its default, so each one was set
        assert all(defaults[dest] != value
                   for dest, (_, value) in options.items())
        assert run(*(word for words, _ in options.values()
                     for word in words)) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert {dest: config.get(dest) for dest in options} == {
            dest: value for dest, (_, value) in options.items()}
        assert json.loads((out / "bubbles.json").read_text())[0][
            "override_applied"]
