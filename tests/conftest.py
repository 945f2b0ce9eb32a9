"""Shared fixtures: planes, parity-check matrices, ray sets, codeword pools.

Everything expensive is session-scoped so the suite builds each object once.
The terminal-summary hook prints one PASS/FAIL line per acceptance criterion.
"""

import pytest

from pgcone import build_plane, incidence_matrix, min_weight_codewords, simplex
from pgcone.plane import ParityCheck
from pgcone.rays import enumerate_rays, support_guided_rays


@pytest.fixture(scope="session")
def plane2():
    return build_plane(2)


@pytest.fixture(scope="session")
def plane4():
    return build_plane(4)


@pytest.fixture(scope="session")
def plane8():
    return build_plane(8)


@pytest.fixture(scope="session")
def H2(plane2):
    return incidence_matrix(plane2)


@pytest.fixture(scope="session")
def H4(plane4):
    return incidence_matrix(plane4)


@pytest.fixture(scope="session")
def H8(plane8):
    return incidence_matrix(plane8)


@pytest.fixture(scope="session")
def fixture_h():
    """Single-check 3-variable matrix: the smallest interesting cone."""
    return ParityCheck([[0, 1, 2]], 3)


@pytest.fixture(scope="session")
def rays2(H2):
    """Complete extreme-ray set of the q=2 cone via double description."""
    rs = enumerate_rays(H2)
    assert rs.complete
    return rs


@pytest.fixture(scope="session")
def oracle2(H2):
    """Independent support-guided enumeration of the same ray set."""
    return support_guided_rays(H2)


@pytest.fixture(scope="session")
def codewords2(H2):
    return min_weight_codewords(H2, 4)


@pytest.fixture(scope="session")
def codewords4(H4):
    return min_weight_codewords(H4, 6)


@pytest.fixture
def pivots(monkeypatch):
    """The list of entering labels, one per simplex pivot from now on."""
    seen = []
    pivot = simplex._pivot

    def counted(tableau, z, basis, cols, r, col):
        seen.append(cols[col])
        return pivot(tableau, z, basis, cols, r, col)

    monkeypatch.setattr(simplex, "_pivot", counted)
    return seen


# ---------------------------------------------------------------------------
# Acceptance-criterion summary lines.

_ACCEPTANCE = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    name = item.name
    if item.module and item.module.__name__ == "test_acceptance" \
            and name.startswith("test_criterion_"):
        key = name.split("_")[2]
        _ACCEPTANCE[key] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_ACCEPTANCE, key=int):
        status = "PASS" if _ACCEPTANCE[key] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {int(key)}: {status}")
