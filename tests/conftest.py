import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_results = {}
_notes = []


def record_note(text: str):
    """Make a line show up under the acceptance summary."""
    _notes.append(text)


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _results[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_results):
        mark = "PASS" if _results[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{mark}  {name}")
    for note in _notes:
        terminalreporter.write_line(note)


@pytest.fixture
def model_builds(monkeypatch):
    """The networks whose electrical model gets built, one entry per build,
    in order."""
    from resistive_pricing import electrical

    built = []
    build = electrical._build

    def recording(net):
        built.append(net)
        return build(net)

    monkeypatch.setattr(electrical, "_build", recording)
    return built
