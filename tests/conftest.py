"""Shared test plumbing: the hypothesis profile and the acceptance banner.

Every property test runs under one fixed profile: derandomized, with no
deadline and no example database, so a run is the same on every machine
and stores no examples.  Hypothesis (6.155.2) still writes a
`.hypothesis/constants/` cache, which `.gitignore` lists.  Each test
sets only its `max_examples`.

Acceptance tests register one line per criterion through the
`acceptance_report` fixture; the lines are echoed in the terminal
summary so pass/fail status is visible without -s.

`gen_var` and `log_v` are the reference values the exchange tests and
the acceptance criteria compare against, rebuilt from the selected rows.
"""

import math

import numpy as np
from hypothesis import settings

from subdopt import metrics

settings.register_profile("fixed", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("fixed")

_LINES = []


def gen_var(x, idx):
    """det of the covariance (divisor k) of the selected rows of x."""
    idx = metrics.as_indices(idx)
    xs = np.asarray(x, dtype=float)[idx]
    xc = xs - xs.mean(axis=0)
    return float(np.linalg.det((xc.T @ xc) / idx.size))


def log_v(x, sel):
    """log V of a selection rebuilt from scratch: log det Q minus
    (p+1) log k.  Raises ValueError on a repeated row and
    SingularMomentError on a singular Q."""
    idx = metrics.as_indices(sel)
    log_det = metrics.efficiency(x, idx).log_det_q
    return log_det - (np.shape(x)[1] + 1) * math.log(idx.size)


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
