"""Shared pytest plumbing: the acceptance suite records one line per
criterion here and the terminal summary prints them uncaptured; `relabel`
is the one relabeling helper of the test modules."""

from quandlekit.quandles import Quandle

ACCEPTANCE_LINES = []


def relabel(q, sigma):
    """q with each element v renamed sigma[v], through the checked constructor."""
    n = q.n
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[sigma[i]][sigma[j]] = sigma[q.op(i, j)]
    return Quandle.from_table(table)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
