"""Put the source tree on PYTHONPATH for the subprocesses some tests start,
so plain ``pytest`` works from a checkout without installing the package
(``pyproject.toml`` already puts it on the test process's own path), and
provide the ``svd_counter`` and ``eigh_counter`` fixtures.

The package takes every LAPACK decomposition through one entry point of
``matfun`` each (``_svdvals``, ``_svd``, ``_eigh``, ``_qr``), and
``test_lapack`` checks that no module calls ``np.linalg`` for one, so the
counters patch those entry points: an SVD the package takes is counted,
one a test takes through ``np.linalg`` is not."""

import os
from pathlib import Path

import numpy as np
import pytest

from equifix import matfun

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def _counter(monkeypatch, *names):
    """The shapes of the arrays passed to the ``matfun`` entry points
    ``names`` from now on, in call order."""
    shapes = []
    for name in names:
        def counted(a, _real=getattr(matfun, name)):
            shapes.append(np.shape(a))
            return _real(a)

        monkeypatch.setattr(matfun, name, counted)
    return shapes


@pytest.fixture
def svd_counter(monkeypatch):
    """The shapes of the stacks the package SVDs, for singular values
    (``_svdvals``) or the full decomposition (``_svd``), while the test runs
    (an empty list: no SVD was taken)."""
    return _counter(monkeypatch, "_svdvals", "_svd")


@pytest.fixture
def eigh_counter(monkeypatch):
    """The shapes of the stacks the package passes to ``eigh`` (``_eigh``)
    while the test runs (an empty list: no eigh was taken)."""
    return _counter(monkeypatch, "_eigh")
