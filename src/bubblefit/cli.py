"""Command-line entry point for reproducible detection/fitting runs.

One command per invocation, selected with --command. Diagnostics go to
stderr; data lands in files under --out, together with a manifest that
pins the inputs, configuration hash, and tool version. Identical
invocations write byte-identical JSON.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal.
A window that fails to fit is recorded in the index with its error and
the other windows are still fitted and written; the run then exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

from . import __version__
from .crashes import (
    CrashConfig,
    bubble_windows_for_events,
    find_crash_peaks,
    load_overrides,
)
from .errors import BubblefitError, ConfigError, DataError, UsageError
from .fitter import (
    BETA_CEILING,
    BETA_FLOOR,
    SCALE_CHOICES,
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
    open_input,
    parse_date,
    to_json_data,
    write_csv,
)
from .synthetic import GeneratorSpec, generate

# the parameters of SearchBounds.lower and .upper, in their order
_BOUNDED = ("beta", "omega", "t2c")


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
    p.add_argument("--lookback", dest="lookback_weekdays", type=int,
                   metavar="WEEKDAYS", default=CrashConfig.lookback_weekdays,
                   help="trailing weekdays a peak must dominate (default %(default)s)")
    p.add_argument("--drop-to", dest="drop_to_fraction", type=float,
                   metavar="FRACTION", default=CrashConfig.drop_to_fraction,
                   help="fraction of the peak the index must reach (default %(default)s)")
    p.add_argument("--drop-window", dest="drop_window_weekdays", type=int,
                   metavar="WEEKDAYS", default=CrashConfig.drop_window_weekdays,
                   help="weekdays allowed for the qualifying drop (default %(default)s)")
    p.add_argument("--min-bubble", dest="min_bubble_weekdays", type=int,
                   metavar="WEEKDAYS", default=CrashConfig.min_bubble_weekdays,
                   help="minimum observations in a fittable bubble (default %(default)s)")
    p.add_argument("--overrides", default=None, metavar="CSV",
                   help="CSV of (peak_date, bubble_start_date) start overrides")
    p.add_argument("--scale", choices=SCALE_CHOICES, default="auto",
                   help="fit the raw index, its log, or choose by the "
                        "validity ratio (default auto)")
    p.add_argument("--paper-mode", action="store_true",
                   help="prefer the raw scale and floor beta at "
                        f"{BETA_FLOOR} in reported fits")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="output directory (default current directory)")
    p.add_argument("--seed-bounds", default=None, metavar="JSON",
                   help='seed-bound overrides for beta, omega and t2c, e.g. '
                        '\'{"beta": [0, 2, 0.2], "t2c": [1, 260]}\' (third '
                        "entry = minimum width for beta/omega); the bounds "
                        "place the seeds, and a seed whose search passes "
                        f"beta {BETA_CEILING} or a t2c horizon (the larger "
                        "of the window's span in days and the upper t2c), "
                        "or that is outside the model's domain, ends "
                        "without a fit")
    p.add_argument("--precursor-beta", type=float, nargs=2, metavar=("LO", "HI"),
                   default=PrecursorRanges.beta_range,
                   help="beta range for precursor classification "
                        "(default %(default)s)")
    p.add_argument("--precursor-omega", type=float, nargs=2, metavar=("LO", "HI"),
                   default=PrecursorRanges.omega_range,
                   help="omega range for precursor classification "
                        "(default %(default)s)")
    p.add_argument("--scan-param", dest="scan_params", action="append",
                   default=None, choices=tuple(PARAMETER_INDEX),
                   help="parameter(s) to scan; repeatable (default all four)")
    p.add_argument("--scan-steps", type=int, default=ScanSpec.steps,
                   help="odd sample count per scan (default %(default)s)")
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
    overrides: str | None
    scale: str
    paper_mode: bool
    seed_bounds: SearchBounds
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
        d.update(d.pop("crash_config"), precursor_beta=ranges["beta_range"],
                 precursor_omega=ranges["omega_range"])
        return d


def _json_number(value, name: str, integer: bool = False):
    """A number read from JSON, as a float, or as an int with `integer`.
    float() and int() would take a bool or a numeric string, and int()
    would cut a fraction, so each of those is a ConfigError naming `name`."""
    # type(), not isinstance: a bool is an int
    if type(value) not in ((int,) if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind} (got {json.dumps(value)})")
    try:
        return value if integer else float(value)
    except OverflowError:  # an integer past the largest float
        raise ConfigError(f"{name} is too large for a float") from None


def parse_seed_bounds(text: str | None) -> SearchBounds:
    if not text:
        return SearchBounds()
    try:
        spec = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"--seed-bounds is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("--seed-bounds must be a JSON object")
    default = SearchBounds()
    lower = list(default.lower)
    upper = list(default.upper)
    widths = {"beta": default.min_width_beta, "omega": default.min_width_omega}
    for name, entry in spec.items():
        if name not in _BOUNDED:
            raise ConfigError(f"--seed-bounds: unknown parameter {name!r}")
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
            raise ConfigError(f"--seed-bounds: {name} needs [lower, upper] or "
                              "[lower, upper, min_width]")
        values = [_json_number(v, f"--seed-bounds: {name}") for v in entry]
        i = _BOUNDED.index(name)
        lower[i], upper[i] = values[:2]
        if len(values) == 3:
            if name not in widths:
                raise ConfigError(f"--seed-bounds: {name} takes no minimum width")
            widths[name] = values[2]
    return SearchBounds(tuple(lower), tuple(upper),
                        widths["beta"], widths["omega"])


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run's settings, each under its parser name, which is also its
    manifest key. An option without a RunConfig field, or a field without
    an option, raises TypeError on every run."""
    opts = dict(vars(args))
    opts["crash_config"] = CrashConfig(**{f.name: opts.pop(f.name)
                                          for f in fields(CrashConfig)})
    opts["seed_bounds"] = parse_seed_bounds(opts["seed_bounds"])
    opts["ranges"] = PrecursorRanges(tuple(opts.pop("precursor_beta")),
                                     tuple(opts.pop("precursor_omega")))
    opts["scan_params"] = tuple(opts["scan_params"] or PARAMETER_INDEX)
    return RunConfig(**opts)


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
        "inputs": [config.input] + ([config.overrides] if config.overrides else []),
        "config": payload,
        "config_hash": digest,
    }
    _write_json(manifest, os.path.join(config.out, "manifest.json"))


def cmd_stats(config: RunConfig) -> None:
    series = load_csv(config.input, config.date_column, config.value_column)
    report = descriptive_stats(log_returns(series))
    _write_json(to_json_data(report), os.path.join(config.out, "stats.json"))


def _detect(config: RunConfig):
    series = load_csv(config.input, config.date_column, config.value_column)
    events = find_crash_peaks(series, config.crash_config)
    overrides = load_overrides(config.overrides) if config.overrides else {}
    decisions = bubble_windows_for_events(series, events, config.crash_config,
                                          overrides)
    return series, events, decisions


def cmd_detect(config: RunConfig) -> None:
    _, events, decisions = _detect(config)
    _write_json(to_json_data(events),
                os.path.join(config.out, "crashes.json"))
    _write_json([d.to_dict() for d in decisions],
                os.path.join(config.out, "bubbles.json"))


def _fit_windows(config: RunConfig):
    """Fit every accepted window. A window whose fit raises gets `"fit":
    null` and a `fit_error` in its index entry instead of stopping the run;
    returns (index, reports, number of failed windows)."""
    _, _, decisions = _detect(config)
    reports: list[tuple[str, BubbleReport]] = []
    index = []
    failed = 0
    for decision in decisions:
        tag = decision.event.peak_date.isoformat()
        entry = decision.to_dict()
        index.append(entry)
        entry["fit"] = None
        if decision.window is None:
            continue
        try:
            report = fit_bubble(
                decision.window,
                bounds=config.seed_bounds,
                ranges=config.ranges,
                scale_choice=config.scale,
                paper_mode=config.paper_mode,
            )
        except BubblefitError as exc:
            entry["fit_error"] = f"{type(exc).__name__}: {exc}"
            print(f"error: window {tag}: {entry['fit_error']}", file=sys.stderr)
            failed += 1
            continue
        entry["fit"] = f"fit_{tag}.json"
        reports.append((tag, report))
    return index, reports, failed


def cmd_fit(config: RunConfig) -> int:
    index, reports, failed = _fit_windows(config)
    for tag, report in reports:
        _write_json(report.to_dict(), os.path.join(config.out, f"fit_{tag}.json"))
        write_curve_csv(report.best.params, report.fitted_window,
                        os.path.join(config.out, f"curve_{tag}.csv"))
    _write_json(index, os.path.join(config.out, "fit_index.json"))
    return failed


def cmd_scan(config: RunConfig) -> int:
    # built before any fit so that bad scan settings fail fast; each
    # window's fit then only sets the centers
    half = config.scan_halfwidth
    specs = [ScanSpec(parameter=name, center=0.0,
                      half_width=DEFAULT_HALF_WIDTH[name] if half is None else half,
                      steps=config.scan_steps)
             for name in config.scan_params]
    index, reports, failed = _fit_windows(config)
    for tag, report in reports:
        best = report.best
        center = dict(zip(PARAMETER_INDEX, best.params.theta()))
        for spec in specs:
            name = spec.parameter
            curve = scan_parameter(best, report.fitted_window,
                                   replace(spec, center=center[name]),
                                   reoptimize=config.reoptimize)
            write_scan_csv(curve,
                           os.path.join(config.out, f"scan_{tag}_{name}.csv"))
    _write_json(index, os.path.join(config.out, "scan_index.json"))
    return failed


def _generator_spec_from_json(config: RunConfig) -> GeneratorSpec:
    try:
        with open_input(config.input, ConfigError) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"{config.input}: invalid generator spec JSON: {exc}") from exc
    try:
        p = payload["params"]
        params = LpplParams(
            **{name: _json_number(p[name], f"generator spec: params.{name}")
               for name in ("a", "b", "c", "beta", "omega", "t2c", "phi")},
            anchor_date=parse_date(p["anchor_date"]),
            scale=Scale(p.get("scale", "raw")),
        )
        seed = config.rng_seed if config.rng_seed is not None else payload.get("rng_seed", 0)
        return GeneratorSpec(
            params=params,
            n_weekdays=_json_number(payload["n_weekdays"],
                                    "generator spec: n_weekdays", integer=True),
            noise_sigma=_json_number(payload.get("noise_sigma", 0.0),
                                     "generator spec: noise_sigma"),
            rng_seed=_json_number(seed, "generator spec: rng_seed", integer=True),
        )
    except KeyError as exc:
        raise ConfigError(f"generator spec is missing {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed generator spec: {exc}") from exc


def cmd_generate(config: RunConfig) -> None:
    spec = _generator_spec_from_json(config)
    series = generate(spec)
    write_csv(series, os.path.join(config.out, "synthetic.csv"))


COMMANDS = {
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
        failed = COMMANDS[config.command](config)
        _write_manifest(config)
        if failed:
            print(f"error: {failed} window(s) failed to fit", file=sys.stderr)
            return 2
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
