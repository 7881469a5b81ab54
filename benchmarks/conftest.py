"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper and saves
its rendered rows under ``benchmarks/results/`` (printed output is also
emitted; run pytest with ``-s`` to see it live).
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Worker processes for GCR&M search sweeps inside the benchmarks.
#: Results are jobs-independent (see repro.patterns.search), so this
#: only changes wall-clock time; 0 = auto-select from the CPU count.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture
def bench_jobs() -> int:
    """GCR&M search parallelism for benchmarks (REPRO_BENCH_JOBS env var)."""
    return BENCH_JOBS


@pytest.fixture
def save_result():
    """Persist a FigureResult's rendering next to the benchmarks."""

    def _save(result, name: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = result.render()
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _save


@pytest.fixture
def check_runs():
    """Check a performance figure's campaign runs against their
    predictions: the exact message count (cost/exact.py) and the
    owner-pinned makespan lower bound (cost/schedbounds.py)."""

    def _check(result) -> None:
        assert len(result.runs) == len(result.rows)
        for run in result.runs:
            assert run.simulated_messages == run.predicted_messages, run
            assert run.makespan_s >= run.predicted_makespan_s, run

    return _check
