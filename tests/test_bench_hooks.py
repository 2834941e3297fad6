"""The benchmark's trace hooks must resolve in this checkout.

perfbench/ traces the program by rebinding module attributes such as
`fitter.window_objective`; a refactor that renames or unbinds one would
make its per-layer metrics vanish from the benchmark without an error.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_benchmark_trace_hooks_resolve():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    assert tracing.missing_hooks() == []
