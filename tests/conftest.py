"""Shared reporting for the acceptance gate, and the in-process CLI runner of the CLI tests.

The acceptance tests record one verdict per criterion; printing happens here
in the terminal summary, where pytest's output capture cannot swallow it.
"""

from qrfkit.cli import main

ACCEPTANCE_VERDICTS = {}


def run(capsys, argv):
    """The exit code, stdout and stderr of one in-process CLI run."""
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_VERDICTS):
        ok = ACCEPTANCE_VERDICTS[num]
        terminalreporter.write_line(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}")
