"""Pytest bootstrap: make ``src/`` importable without an installed package.

The project is normally installed with ``pip install -e .``; this fallback
keeps ``pytest`` usable in offline environments where the editable install
cannot build (it needs the ``wheel`` package).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

