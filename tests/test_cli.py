import csv
import datetime as dt
import json

import numpy as np
import pytest

from bubblefit import GeneratorSpec, generate, load_csv, write_csv
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

    def test_min_bubble_rejection_is_reported(self, tmp_path):
        decline = np.linspace(400, 100, 300)
        rise = np.linspace(102, 450, 80)
        fall = np.linspace(430, 300, 6)
        series = series_from_values(np.concatenate([decline, rise, fall]))
        path = tmp_path / "short.csv"
        write_csv(series, path)
        out = tmp_path / "out"
        assert run("--input", str(path), "--command", "detect",
                   "--out", str(out)) == 0
        bubbles = json.loads((out / "bubbles.json").read_text())
        assert len(bubbles) == 1
        assert not bubbles[0]["accepted"]
        assert "131" in bubbles[0]["rejection_reason"]


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

    def test_zero_halfwidth_exits_1(self, crash_csv, tmp_path):
        # 0 is a half-width like any other, not "use the default"
        assert run("--input", str(crash_csv), "--command", "scan",
                   "--scan-halfwidth", "0", "--scan-steps", "5",
                   "--seed-bounds", COARSE_SEED_BOUNDS,
                   "--out", str(tmp_path / "out")) == 1

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

    def test_bad_seed_bounds_json_exits_1(self, crash_csv, tmp_path, capsys):
        code = run("--input", str(crash_csv), "--command", "fit",
                   "--seed-bounds", "{not json", "--out", str(tmp_path))
        assert code == 1

    def test_non_positive_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("date,value\n2005-06-27,100.0\n2005-06-28,-5\n")
        code = run("--input", str(path), "--command", "stats",
                   "--out", str(tmp_path))
        assert code == 2


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
