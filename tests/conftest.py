"""Put the source tree on PYTHONPATH for the subprocesses some tests start,
so plain ``pytest`` works from a checkout without installing the package
(``pyproject.toml`` already puts it on the test process's own path), and
provide the ``svd_counter`` and ``eigh_counter`` fixtures."""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def _counter(monkeypatch, name):
    """The shapes of the arrays passed to ``np.linalg.<name>`` from now on."""
    shapes = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


@pytest.fixture
def svd_counter(monkeypatch):
    """The shapes of the arrays passed to ``np.linalg.svd`` while the test
    runs (an empty list: no SVD was taken)."""
    return _counter(monkeypatch, "svd")


@pytest.fixture
def eigh_counter(monkeypatch):
    """The shapes of the arrays passed to ``np.linalg.eigh`` while the test
    runs (an empty list: no eigh was taken)."""
    return _counter(monkeypatch, "eigh")
