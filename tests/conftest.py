import os

# One BLAS thread, set before NumPy loads, as perfbench/run.py does for its
# jobs: the timing criteria then read the same per-thread cost on any host,
# and a second thread cannot flatten the large sizes of criterion 9's fits.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import pytest  # noqa: E402

_criterion_lines: list[str] = []


@pytest.fixture
def criterion_report():
    """Record one pass/fail line per acceptance criterion and assert it."""

    def report(num: int, ok: bool, detail: str) -> None:
        line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
        _criterion_lines.append(line)
        print(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
