"""Shared test plumbing: the hypothesis profile and the acceptance banner.

Every property test runs under one fixed profile: derandomized, with no
deadline and no example database, so a run is the same on every machine
and leaves no `.hypothesis/` state behind.  Each test sets only its
`max_examples`.

Acceptance tests register one line per criterion through the
`acceptance_report` fixture; the lines are echoed in the terminal
summary so pass/fail status is visible without -s.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("fixed")

_LINES = []


def record_criterion(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d}: {status}  {detail}"
    _LINES.append((number, line))
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_LINES):
        terminalreporter.write_line(line)
