"""Put the source tree on PYTHONPATH for the subprocesses some tests start,
so plain ``pytest`` works from a checkout without installing the package
(``pyproject.toml`` already puts it on the test process's own path)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
