"""Command-line entry point for reproducible detection/fitting runs.

One command per invocation, selected with --command. Diagnostics go to
stderr; data lands in files under --out, together with a manifest that
pins the inputs, configuration hash, and tool version. Identical
invocations write byte-identical JSON.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .crashes import (
    CrashConfig,
    bubble_windows_for_events,
    find_crash_peaks,
    load_overrides,
)
from .errors import BubblefitError, ConfigError, DataError, UsageError
from .fitter import (
    BubbleReport,
    PrecursorRanges,
    SearchBounds,
    fit_bubble,
)
from .lppl import LpplParams, write_curve_csv
from .sensitivity import (
    DEFAULT_HALF_WIDTH,
    PARAMETER_INDEX,
    ScanSpec,
    scan_parameter,
    write_scan_csv,
)
from .series import (
    Scale,
    descriptive_stats,
    load_csv,
    log_returns,
    parse_date,
    write_csv,
)
from .synthetic import GeneratorSpec, generate

COMMANDS = ("stats", "detect", "fit", "scan", "generate")

_DATE_COLUMN_GUESSES = ("date", "day")
_VALUE_COLUMN_GUESSES = ("value", "close", "price", "index", "adj close")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bubblefit",
        description="Detect crash-initiating peaks in a daily price-index CSV "
                    "and fit the log-periodic power law to the bubbles "
                    "preceding them.",
    )
    p.add_argument("--input", required=True,
                   help="input CSV (price series), or generator spec JSON for "
                        "--command generate")
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--lookback", type=int, default=262, metavar="WEEKDAYS",
                   help="trailing weekdays a peak must dominate (default 262)")
    p.add_argument("--drop-to", type=float, default=0.75, metavar="FRACTION",
                   help="fraction of the peak the index must reach (default 0.75)")
    p.add_argument("--drop-window", type=int, default=60, metavar="WEEKDAYS",
                   help="weekdays allowed for the qualifying drop (default 60)")
    p.add_argument("--min-bubble", type=int, default=131, metavar="WEEKDAYS",
                   help="minimum observations in a fittable bubble (default 131)")
    p.add_argument("--overrides", default=None, metavar="CSV",
                   help="CSV of (peak_date, bubble_start_date) start overrides")
    p.add_argument("--scale", choices=("raw", "log", "auto"), default="auto",
                   help="fit the raw index, its log, or choose by the "
                        "validity ratio (default auto)")
    p.add_argument("--paper-mode", action="store_true",
                   help="prefer the raw scale and floor beta at 0.01 in "
                        "reported fits")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="output directory (default current directory)")
    p.add_argument("--seed-bounds", default=None, metavar="JSON",
                   help='seed-bound overrides, e.g. \'{"beta": [0, 2, 0.2], '
                        '"t2c": [1, 260]}\' (third entry = minimum width '
                        "for beta/omega)")
    p.add_argument("--precursor-beta", type=float, nargs=2, default=(0.15, 0.51),
                   metavar=("LO", "HI"), help="beta range for precursor "
                   "classification (default 0.15 0.51)")
    p.add_argument("--precursor-omega", type=float, nargs=2, default=(4.80, 7.92),
                   metavar=("LO", "HI"), help="omega range for precursor "
                   "classification (default 4.80 7.92)")
    p.add_argument("--scan-param", action="append", default=None,
                   choices=tuple(PARAMETER_INDEX),
                   help="parameter(s) to scan; repeatable (default all four)")
    p.add_argument("--scan-steps", type=int, default=201,
                   help="odd sample count per scan (default 201)")
    p.add_argument("--scan-halfwidth", type=float, default=None,
                   help="half-width for scans (default per-parameter)")
    p.add_argument("--reoptimize", action="store_true",
                   help="re-search the other nonlinear parameters at every "
                        "scan sample instead of holding them fixed")
    p.add_argument("--rng-seed", type=int, default=None,
                   help="seed override for --command generate")
    p.add_argument("--date-column", default=None,
                   help="date column name (default: sniffed from the header)")
    p.add_argument("--value-column", default=None,
                   help="value column name (default: sniffed from the header)")
    return p


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str
    out: str
    crash_config: CrashConfig
    overrides_path: str | None
    scale: str
    paper_mode: bool
    bounds: SearchBounds
    ranges: PrecursorRanges
    scan_params: tuple[str, ...]
    scan_steps: int
    scan_halfwidth: float | None
    reoptimize: bool
    rng_seed: int | None
    date_column: str | None
    value_column: str | None

    def manifest_dict(self) -> dict:
        """The configuration as JSON-ready fields, crash settings flattened."""
        d = asdict(self)
        ranges = d.pop("ranges")
        d.update(d.pop("crash_config"), overrides=d.pop("overrides_path"),
                 seed_bounds=d.pop("bounds"),
                 precursor_beta=ranges["beta_range"],
                 precursor_omega=ranges["omega_range"])
        return d


def parse_seed_bounds(text: str | None) -> SearchBounds:
    if not text:
        return SearchBounds()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--seed-bounds is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("--seed-bounds must be a JSON object")
    default = SearchBounds()
    lower = list(default.lower)
    upper = list(default.upper)
    widths = {"beta": default.min_width_beta, "omega": default.min_width_omega}
    for name, entry in spec.items():
        if name not in PARAMETER_INDEX:
            raise ConfigError(f"--seed-bounds: unknown parameter {name!r}")
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
            raise ConfigError(f"--seed-bounds: {name} needs [lower, upper] or "
                              "[lower, upper, min_width]")
        i = PARAMETER_INDEX[name]
        lower[i], upper[i] = float(entry[0]), float(entry[1])
        if len(entry) == 3:
            if name not in widths:
                raise ConfigError(f"--seed-bounds: {name} takes no minimum width")
            widths[name] = float(entry[2])
    return SearchBounds(tuple(lower), tuple(upper),
                        widths["beta"], widths["omega"])


def config_from_args(args: argparse.Namespace) -> RunConfig:
    crash_config = CrashConfig(
        lookback_weekdays=args.lookback,
        drop_to_fraction=args.drop_to,
        drop_window_weekdays=args.drop_window,
        min_bubble_weekdays=args.min_bubble,
    )
    scan_params = tuple(args.scan_param) if args.scan_param else tuple(PARAMETER_INDEX)
    return RunConfig(
        command=args.command,
        input=args.input,
        out=args.out,
        crash_config=crash_config,
        overrides_path=args.overrides,
        scale=args.scale,
        paper_mode=args.paper_mode,
        bounds=parse_seed_bounds(args.seed_bounds),
        ranges=PrecursorRanges(tuple(args.precursor_beta),
                               tuple(args.precursor_omega)),
        scan_params=scan_params,
        scan_steps=args.scan_steps,
        scan_halfwidth=args.scan_halfwidth,
        reoptimize=args.reoptimize,
        rng_seed=args.rng_seed,
        date_column=args.date_column,
        value_column=args.value_column,
    )


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(config: RunConfig) -> None:
    payload = config.manifest_dict()
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "tool": "bubblefit",
        "version": __version__,
        "inputs": [config.input] + ([config.overrides_path]
                                    if config.overrides_path else []),
        "config": payload,
        "config_hash": digest,
    }
    _write_json(manifest, os.path.join(config.out, "manifest.json"))


def sniff_columns(path, date_column: str | None = None,
                  value_column: str | None = None) -> tuple[str, str]:
    """Resolve the date/value column names from explicit choices, common
    header names, or finally column position."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if not header or len(header) < 2:
        raise ConfigError(f"{path}: need a header row with at least two columns")
    lowered = {name.strip().lower(): name for name in header}

    def pick(explicit, guesses, fallback_idx, kind):
        if explicit:
            if explicit not in header:
                raise ConfigError(f"column {explicit!r} not found (header: {header})")
            return explicit
        for guess in guesses:
            if guess in lowered:
                return lowered[guess]
        chosen = header[fallback_idx]
        print(f"note: using column {chosen!r} as the {kind} column",
              file=sys.stderr)
        return chosen

    date_col = pick(date_column, _DATE_COLUMN_GUESSES, 0, "date")
    value_col = pick(value_column, _VALUE_COLUMN_GUESSES, 1, "value")
    return date_col, value_col


def _load_series(config: RunConfig):
    date_col, value_col = sniff_columns(config.input, config.date_column,
                                        config.value_column)
    return load_csv(config.input, date_col, value_col)


def cmd_stats(config: RunConfig) -> None:
    series = _load_series(config)
    report = descriptive_stats(log_returns(series))
    _write_json(report.__dict__, os.path.join(config.out, "stats.json"))


def _detect(config: RunConfig):
    series = _load_series(config)
    events = find_crash_peaks(series, config.crash_config)
    overrides = load_overrides(config.overrides_path) if config.overrides_path else {}
    decisions = bubble_windows_for_events(series, events, config.crash_config,
                                          overrides)
    return series, events, decisions


def cmd_detect(config: RunConfig) -> None:
    _, events, decisions = _detect(config)
    _write_json([e.to_dict() for e in events],
                os.path.join(config.out, "crashes.json"))
    _write_json([d.to_dict() for d in decisions],
                os.path.join(config.out, "bubbles.json"))


def _fit_windows(config: RunConfig):
    _, _, decisions = _detect(config)
    reports: list[tuple[str, BubbleReport]] = []
    index = []
    for decision in decisions:
        tag = decision.event.peak_date.isoformat()
        entry = decision.to_dict()
        if decision.window is None:
            entry["fit"] = None
            index.append(entry)
            continue
        report = fit_bubble(
            decision.window,
            bounds=config.bounds,
            ranges=config.ranges,
            scale_choice=config.scale,
            paper_mode=config.paper_mode,
        )
        entry["fit"] = f"fit_{tag}.json"
        index.append(entry)
        reports.append((tag, report))
    return index, reports


def cmd_fit(config: RunConfig) -> None:
    index, reports = _fit_windows(config)
    for tag, report in reports:
        _write_json(report.to_dict(), os.path.join(config.out, f"fit_{tag}.json"))
        write_curve_csv(report.best.params, report.fitted_window,
                        os.path.join(config.out, f"curve_{tag}.csv"))
    _write_json(index, os.path.join(config.out, "fit_index.json"))


def cmd_scan(config: RunConfig) -> None:
    index, reports = _fit_windows(config)
    for tag, report in reports:
        best = report.best
        target = report.fitted_window
        center = dict(zip(PARAMETER_INDEX, best.params.theta()))
        for name in config.scan_params:
            half = (DEFAULT_HALF_WIDTH[name] if config.scan_halfwidth is None
                    else config.scan_halfwidth)
            spec = ScanSpec(parameter=name, center=center[name],
                            half_width=half, steps=config.scan_steps)
            curve = scan_parameter(best, target, spec,
                                   reoptimize=config.reoptimize)
            write_scan_csv(curve,
                           os.path.join(config.out, f"scan_{tag}_{name}.csv"))
    _write_json(index, os.path.join(config.out, "scan_index.json"))


def _generator_spec_from_json(config: RunConfig) -> GeneratorSpec:
    try:
        with open(config.input) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{config.input}: invalid generator spec JSON: {exc}")
    try:
        p = payload["params"]
        params = LpplParams(
            a=float(p["a"]), b=float(p["b"]), c=float(p["c"]),
            beta=float(p["beta"]), omega=float(p["omega"]),
            t2c=float(p["t2c"]), phi=float(p["phi"]),
            anchor_date=parse_date(p["anchor_date"]),
            scale=Scale(p.get("scale", "raw")),
        )
        seed = config.rng_seed if config.rng_seed is not None else payload.get("rng_seed", 0)
        return GeneratorSpec(
            params=params,
            n_weekdays=int(payload["n_weekdays"]),
            noise_sigma=float(payload.get("noise_sigma", 0.0)),
            rng_seed=int(seed),
        )
    except KeyError as exc:
        raise ConfigError(f"generator spec is missing {exc}") from exc


def cmd_generate(config: RunConfig) -> None:
    spec = _generator_spec_from_json(config)
    series = generate(spec)
    write_csv(series, os.path.join(config.out, "synthetic.csv"))


_DISPATCH = {
    "stats": cmd_stats,
    "detect": cmd_detect,
    "fit": cmd_fit,
    "scan": cmd_scan,
    "generate": cmd_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        os.makedirs(config.out, exist_ok=True)
        _DISPATCH[config.command](config)
        _write_manifest(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BubblefitError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
