"""The install metadata in ``setup.py``."""

import subprocess
import sys
from pathlib import Path


def test_setup_py_names_the_package():
    """A metadata query runs no command: offline, nothing built.  A
    ``setup()`` without arguments answers ``UNKNOWN`` here."""
    done = subprocess.run(
        [sys.executable, "setup.py", "--name"], capture_output=True,
        text=True, timeout=60, cwd=Path(__file__).resolve().parent.parent)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["repro"]
