"""Test-session setup shared by every test file.

`pythonpath = ["src"]` in pyproject.toml puts the package on this process's
path; exporting it on PYTHONPATH as well lets the CLI subprocesses that some
tests start import it without an install.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)
