"""Seeded benchmark inputs with a planted-truth record beside them.

Every price path comes from `bubblefit.synthetic.generate`; the only
hand-made values are the straight-line falls that join the bubbles of
the chained series. Each build function writes its inputs as CSV files
and the planted parameters as `truth.json` in the same directory, and
the quality metrics are computed from that record.
"""

from __future__ import annotations

import datetime as dt
import json
import os

import numpy as np

# criterion 7b's noisy bubble: inside the precursor ranges, noise 1 % of a
NOISY = dict(a=1000.0, b=-90.0, c=0.2, beta=0.33, omega=6.36, t2c=30.0, phi=1.0)
NOISY_ANCHOR = dt.date(2005, 6, 30)
NOISY_SIGMA = 0.01 * NOISY["a"]

# the chained series: (scale, parameters, weekdays, noise sigma). The
# log-scale bubble rises 2.5x, so `auto` fits it on the log scale; the
# last one has the length of the 2003-2007 Hang Seng bubble. The first
# bubble rises slowly at its start, so its noise is smallest: its lowest
# point, which the detector takes as the bubble start, then stays within
# a few weekdays of the planted start.
CHAIN = (
    ("raw", dict(a=1000.0, b=-60.0, c=0.05, beta=0.33, omega=6.36, t2c=30.0,
                 phi=1.0), 300, 0.1),
    ("log", dict(a=7.78, b=-0.207, c=0.05, beta=0.33, omega=6.36, t2c=30.0,
                 phi=2.0), 300, 0.0005),
    ("raw", dict(a=1850.0, b=-90.0, c=0.05, beta=0.33, omega=6.36, t2c=30.0,
                 phi=0.5), 1150, 1.0),
)
CHAIN_START = dt.date(1996, 1, 1)
FALL_WEEKDAYS = 20          # length of each joining fall
FALL_FLOOR = 1.03           # a fall ends this far above the next bubble's start
FINAL_FALL_TO = 0.6         # the last fall's depth, as a share of the last peak


def subseed(seed: int, index: int) -> int:
    """Independent generator seed for item `index` of benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _params(fields: dict, anchor: dt.date, scale: str):
    from bubblefit import LpplParams, Scale

    return LpplParams(**fields, anchor_date=anchor, scale=Scale(scale))


def _write_truth(directory: str, payload: dict) -> None:
    with open(os.path.join(directory, "truth.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_noisy_windows(directory: str, seed: int, count: int,
                        n_weekdays: int = 400) -> list[str]:
    """`count` noisy raw windows, one CSV each; returns the CSV paths."""
    from bubblefit import GeneratorSpec, generate, write_csv

    os.makedirs(directory, exist_ok=True)
    params = _params(NOISY, NOISY_ANCHOR, "raw")
    paths, planted = [], []
    for k in range(count):
        rng_seed = subseed(seed, k)
        series = generate(GeneratorSpec(params, n_weekdays, NOISY_SIGMA, rng_seed))
        path = os.path.join(directory, f"window_{k}.csv")
        write_csv(series, path)
        paths.append(path)
        planted.append({
            "csv": os.path.basename(path),
            "scale": "raw",
            "params": dict(NOISY),
            "anchor_date": NOISY_ANCHOR.isoformat(),
            "start_date": series.dates[0].isoformat(),
            "n_weekdays": n_weekdays,
            "noise_sigma": NOISY_SIGMA,
            "rng_seed": rng_seed,
        })
    _write_truth(directory, {"seed": seed, "windows": planted})
    return paths


def _weekdays_after(day: dt.date, n: int) -> tuple[dt.date, ...]:
    days = np.busday_offset(np.datetime64(day, "D"), np.arange(1, n + 1))
    return tuple(d.astype(dt.date) for d in days)


def build_chain(directory: str, seed: int) -> str:
    """Write the chained multi-bubble series; returns its CSV path.

    Each bubble is followed by a straight fall of FALL_WEEKDAYS weekdays
    to just above the next bubble's first value, which is at most 0.7 of
    the previous peak, so every fall is a crash for the default detector.
    """
    from bubblefit import GeneratorSpec, PriceSeries, Scale, generate, write_csv

    os.makedirs(directory, exist_ok=True)
    generated = []
    first = CHAIN_START
    for k, (scale, fields, n, sigma) in enumerate(CHAIN):
        anchor = np.busday_offset(np.datetime64(first, "D"), n - 1).astype(dt.date)
        series = generate(GeneratorSpec(_params(fields, anchor, scale), n, sigma,
                                        subseed(seed, k)))
        values = np.exp(series.values) if scale == "log" else series.values
        generated.append((scale, fields, sigma, series.dates, values))
        first = _weekdays_after(anchor, FALL_WEEKDAYS + 1)[-1]

    dates: list[dt.date] = []
    values: list[float] = []
    planted = []
    for k, (scale, fields, sigma, bubble_dates, bubble_values) in enumerate(generated):
        dates.extend(bubble_dates)
        values.extend(bubble_values)
        peak = float(bubble_values[-1])
        if k + 1 < len(generated):
            floor = FALL_FLOOR * float(generated[k + 1][4][0])
        else:
            floor = FINAL_FALL_TO * peak
        dates.extend(_weekdays_after(bubble_dates[-1], FALL_WEEKDAYS))
        values.extend(np.linspace(peak, floor, FALL_WEEKDAYS + 1)[1:])
        planted.append({
            "scale": scale,
            "params": dict(fields),
            "anchor_date": bubble_dates[-1].isoformat(),
            "start_date": bubble_dates[0].isoformat(),
            "n_weekdays": len(bubble_dates),
            "noise_sigma": sigma,
            "rng_seed": subseed(seed, k),
        })
    path = os.path.join(directory, "chain.csv")
    write_csv(PriceSeries(tuple(dates), np.asarray(values), Scale.RAW, "chain"), path)
    _write_truth(directory, {"seed": seed, "csv": "chain.csv", "bubbles": planted})
    return path
