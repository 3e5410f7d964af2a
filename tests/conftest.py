"""Put the source tree on PYTHONPATH for the subprocesses some tests start,
so plain ``pytest`` works from a checkout without installing the package
(``pyproject.toml`` already puts it on the test process's own path), and
provide the ``svd_counter`` fixture."""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def svd_counter(monkeypatch):
    """The shapes of the arrays passed to ``np.linalg.svd`` while the test
    runs (an empty list: no SVD was taken)."""
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes
