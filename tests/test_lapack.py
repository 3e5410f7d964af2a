"""The package's one route to LAPACK: ``matfun``'s entry points call
numpy.linalg's gufuncs directly.  Their bits are np.linalg's, a LAPACK
failure raises np.linalg's LinAlgError with numpy's message, no warning
leaks out, and no module of the package takes anything from numpy.linalg
or scipy.linalg but the error, the gufuncs and ``matrix_power``, so no
decomposition escapes the SVD and eigh counters, which count the entry
points."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import LinAlgError, _umath_linalg

from equifix import matfun
from equifix.matfun import _eigh, _qr, _svd, _svdvals

SRC = Path(matfun.__file__).parent
seeds = st.integers(0, 2 ** 32 - 1)


# What a module of the package may take from numpy.linalg: the error it
# raises, the gufunc module that matfun's entry points call, and
# matrix_power, which takes no decomposition.
ALLOWED = {"LinAlgError", "_umath_linalg", "matrix_power"}


def linalg_uses(source):
    """The lines of ``source`` that use numpy.linalg for anything outside
    ALLOWED, or scipy.linalg at all: a name or attribute that resolves to
    numpy.linalg (``np.linalg``, ``numpy.linalg``, aliases from ``import
    numpy.linalg as la`` or ``from numpy import linalg``) counts unless it
    is read for an ALLOWED name, and a name imported from numpy.linalg
    counts unless it is ALLOWED."""
    tree = ast.parse(source)
    numpy, linalg, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy"):
                    found.append(node.lineno)
                elif alias.name == "numpy.linalg" and alias.asname:
                    linalg.add(alias.asname)
                elif alias.name in ("numpy", "numpy.linalg"):
                    numpy.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [(a.name, a.asname or a.name) for a in node.names]
            if node.module.startswith("scipy"):
                found.append(node.lineno)
            elif node.module == "numpy":
                linalg.update(bound for name, bound in names if name == "linalg")
            elif node.module == "numpy.linalg":
                found += [node.lineno for name, _ in names if name not in ALLOWED]
    allowed_reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ALLOWED:
            allowed_reads.add(id(node.value))
    for node in ast.walk(tree):
        is_linalg = (isinstance(node, ast.Name) and node.id in linalg) or (
            isinstance(node, ast.Attribute) and node.attr == "linalg"
            and isinstance(node.value, ast.Name) and node.value.id in numpy)
        if is_linalg and id(node) not in allowed_reads:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.linalg.svd(a)",
    "import numpy\nnumpy.linalg.eigh(a)",
    "import numpy.linalg\nnumpy.linalg.qr(a)",
    "import numpy.linalg as la\nla.svd(a)",
    "from numpy import linalg\nlinalg.eigvalsh(a)",
    "from numpy import linalg as la\nla.cond(a)",
    "from numpy.linalg import svd",
    "from numpy.linalg import norm as n\nn(a, 2)",
    "import numpy as np\nnp.linalg.norm(a, ord=2)",
    "import numpy as np\nnp.linalg.pinv(a)",
    "import numpy as np\nnp.linalg.matrix_rank(a)",
    "import numpy as np\nnp.linalg.lstsq(a, b)",
    "import numpy as np\nla = np.linalg",
    "import numpy as np\ngetattr(np.linalg, 'svd')(a)",
    "import scipy.linalg",
    "from scipy.linalg import svd",
    "from scipy import linalg",
])
def test_the_guard_sees_each_route_to_np_linalg(source):
    assert linalg_uses(source) != []


def test_the_guard_lets_the_allowed_names_through():
    assert linalg_uses("import numpy as np\n"
                       "from numpy.linalg import LinAlgError, _umath_linalg\n"
                       "np.linalg.matrix_power(a, 2)\n"
                       "raise np.linalg.LinAlgError('x')") == []


def test_no_module_uses_np_linalg_but_through_the_entry_points():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in linalg_uses(path.read_text())]
    assert found == []


def draw(rng, shape, scale, hermitian):
    """Complex entries of the given shape and size; Hermitian slices if
    asked, made so before the scaling, which keeps them exactly Hermitian."""
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if hermitian:
        a = a + a.conj().swapaxes(-1, -2)
    return a * scale


def results(f, a):
    """f(a) as a tuple of arrays, or the LinAlgError it raised."""
    try:
        out = f(a)
    except LinAlgError as e:
        return str(e)
    return tuple(np.asarray(x) for x in (out if isinstance(out, tuple) else (out,)))


ROUTES = {
    "values": (_svdvals, lambda a: np.linalg.svd(a, compute_uv=False), False),
    "full": (_svd, np.linalg.svd, False),
    "eigh": (_eigh, np.linalg.eigh, True),
    "qr": (_qr, np.linalg.qr, False),
}


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(seeds, st.sampled_from(sorted(ROUTES)), st.integers(1, 24),
       st.sampled_from([(), (0,), (3,), (2, 3)]),
       st.sampled_from([1.0, 1e-300, 1e300, 3e-308]))
def test_entry_points_match_np_linalg_bit_for_bit(seed, route, n, lead, scale):
    """A single matrix, empty stacks, stacks and stacks with two leading
    axes, n from 1 to 24, entries near 1, 1e-300 and 1e300 and subnormal
    ones: values, vectors and factors are np.linalg's to the bit, a failure
    is its failure, and no warning is raised (warnings are errors here)."""
    ours, theirs, hermitian = ROUTES[route]
    a = draw(np.random.default_rng(seed), lead + (n, n), scale, hermitian)
    got, want = results(ours, a.copy()), results(theirs, a.copy())
    if isinstance(want, str):
        assert got == want
        return
    assert [x.shape for x in got] == [x.shape for x in want]
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def nan_gufunc(*args, signature=None):
    """A stand-in for a LAPACK gufunc that fails to converge as the real
    ones do: it fills its outputs with NaN and raises the invalid flag."""
    out = np.subtract(np.full(args[0].shape[:-1], np.inf), np.inf)
    count = len(signature.split("->")[1])
    return out if count == 1 else (args[0] * out[..., None],) * count


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route, gufunc, message", [
    ("values", "svd", "SVD did not converge"),
    ("full", "svd_f", "SVD did not converge"),
    ("eigh", "eigh_lo", "Eigenvalues did not converge"),
    ("qr", "qr_r_raw", "Incorrect argument found while performing QR factorization"),
])
def test_non_convergence_raises_numpys_linalg_error(monkeypatch, route, gufunc,
                                                    message):
    ours, theirs, hermitian = ROUTES[route]
    a = draw(np.random.default_rng(0), (2, 4, 4), 1.0, hermitian)
    monkeypatch.setattr(_umath_linalg, gufunc, nan_gufunc)
    with pytest.raises(LinAlgError, match=message):
        theirs(a.copy())
    with pytest.raises(LinAlgError, match=message):
        ours(a.copy())


def test_import_names_the_gufuncs_an_older_numpy_lacks():
    code = ("from numpy.linalg import _umath_linalg as g\n"
            "del g.svd_f, g.qr_r_raw\n"
            "import equifix\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode != 0
    last = run.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError") and "svd_f, qr_r_raw" in last
    assert "numpy >= 2.4.6" in last
