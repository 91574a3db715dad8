"""Shared machinery for the pytest benchmarks of the subsystem studies.

Every paper claim, table and figure is judged by ``paper_scoreboard.py``, a
plain script.  The ``bench_*.py`` files here are the subsystem studies, each
run by path (``python -m pytest benchmarks/bench_online_drift.py -q``).  A
study registers its plain-text tables with :func:`register_report`; they are
printed together at the end of the pytest session and written to
``benchmarks/results/``.
"""

from __future__ import annotations

from pathlib import Path

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

