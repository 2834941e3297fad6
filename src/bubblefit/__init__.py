"""Crash-peak detection and log-periodic power law fitting for daily
price-index series."""

__version__ = "0.1.0"

from .crashes import (
    BubbleWindow,
    CrashConfig,
    CrashEvent,
    bubble_windows_for_events,
    find_crash_peaks,
    find_trough,
    load_overrides,
    make_bubble_window,
)
from .errors import (
    BubblefitError,
    ConfigError,
    DataError,
    DegeneracyError,
    DegenerateInputError,
    GenerationError,
    UsageError,
    WindowRejection,
)
from .fitter import (
    BubbleReport,
    Classification,
    FitResult,
    PrecursorRanges,
    SearchBounds,
    SearchSettings,
    canonicalize_theta,
    fit_bubble,
    nelder_mead,
    recursive_seed_search,
)
from .lppl import (
    FitDiagnostics,
    HazardParams,
    LpplParams,
    hazard_log_price_gain,
    hazard_rate,
    linear_solve,
    lppl_curve,
    monotonicity_check,
    raw_index_validity,
    rmse,
    window_objective,
)
from .sensitivity import ScanCurve, ScanSpec, scan_parameter, write_scan_csv
from .series import (
    PriceSeries,
    ReturnSeries,
    Scale,
    StatsReport,
    descriptive_stats,
    load_csv,
    log_returns,
    to_log,
    write_csv,
)
from .synthetic import GeneratorSpec, generate, weekday_grid

__all__ = [name for name in dir() if not name.startswith("_")]
