"""Shared machinery for the pytest benchmarks.

The paper's claims, tables and headline figures are judged by
``paper_scoreboard.py``, a plain script.  The pytest benchmarks here cover
the remaining figures and the subsystem studies: every benchmark registers a
plain-text table with :func:`register_report`; the tables are printed
together at the end of the pytest session (and written to
``benchmarks/results/``).  Figures 9 and 10 share their ablation runs
through a session-scoped fixture.

Scale: the default "fast" scale keeps the whole suite in tens of minutes;
``VDTUNER_FULL=1`` switches to paper-scale iteration counts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.settings import current_scale

_REPORTS: list[tuple[str, str]] = []
_RESULTS_DIR = Path(__file__).parent / "results"


def register_report(title: str, text: str) -> None:
    """Record a regenerated table/figure so it is printed at session end."""
    _REPORTS.append((title, text))
    _RESULTS_DIR.mkdir(exist_ok=True)
    slug = title.lower().replace(" ", "_").replace("/", "-")[:80]
    (_RESULTS_DIR / f"{slug}.txt").write_text(text + "\n", encoding="utf-8")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("VDTuner reproduction: regenerated tables and figures")
    for title, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"==== {title} ====")
        for line in text.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def scale():
    """The experiment scale selected by VDTUNER_FULL."""
    return current_scale()


@pytest.fixture(scope="session")
def ablation_reports(scale):
    """VDTuner component-ablation runs shared by Figures 9 and 10."""
    from repro.experiments.ablation import figure8_ablation

    return figure8_ablation("glove-small", scale=scale)
