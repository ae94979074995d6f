"""A fit and a rank search give the same bits whatever the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from maxnorm_completion import ObservationSet, solver

SRC = Path(__file__).resolve().parent.parent / "src"

# OpenBLAS splits a 1-D dot product across threads above about 10000
# elements, which changes its rounding.  Here n, the observed cells and the
# profiles all exceed that.  The truth is an outer product, not a BLAS
# matmul, so both runs start from the same observations.
_FIT_AND_PROFILE_DISTANCE = """
import numpy as np
from maxnorm_completion import (ConstraintSet, NoiseModel, SolverConfig, fit_pgd,
                                make_distribution, observe, sample_indices)
from maxnorm_completion.model_select import profile_distance, spectral_magnitude
d = 200
M0 = np.outer(np.linspace(-1.0, 1.0, d), np.cos(np.arange(d)))
M1 = np.outer(np.cos(0.37 * np.arange(d)), np.sin(1.3 * np.arange(d)))
obs = observe(M0, sample_indices(make_distribution("uniform", d, d), 40_000, seed=1),
              NoiseModel("gaussian", 0.1), seed=1)
result = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=2.0), SolverConfig(k=3, max_iters=10, seed=1))
print(" ".join(x.hex() for x in result.objective_trace))
F0 = spectral_magnitude(M0)
print(" ".join(profile_distance(F0, spectral_magnitude(M0 + 0.01 * s * M1)).hex()
               for s in range(1, 9)))
"""


# At 300 x 700 with k = 6, U @ V.T and G @ V round differently under one and
# two BLAS threads.  n = 1x and 2x d1 d2: the grid kernels run.
_GRID_FITS = """
import numpy as np
from maxnorm_completion import (ConstraintSet, NoiseModel, SolverConfig, fit_pgd,
                                make_distribution, observe, sample_indices)
d1, d2 = 300, 700
M0 = np.outer(np.linspace(-1.0, 1.0, d1), np.cos(np.arange(d2)))
for n in (210_000, 420_000):
    obs = observe(M0, sample_indices(make_distribution("uniform", d1, d2), n, seed=2),
                  NoiseModel("gaussian", 0.1), seed=2)
    result = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=2.0),
                     SolverConfig(k=6, max_iters=10, seed=2))
    print(" ".join(x.hex() for x in result.objective_trace))
"""


# The product-distribution weighting reduces over d1 = 20000 rows.
_PI_WEIGHTED_PRODUCT = """
import numpy as np
from maxnorm_completion import make_distribution, pi_weighted_sq_norm
d1 = 20_000
rng = np.random.default_rng(0)
dist = make_distribution("product", d1, 2, row_marginals=rng.uniform(0.5, 1.5, d1),
                         col_marginals=np.array([1.0, 2.0]))
print(pi_weighted_sq_norm(rng.normal(size=(d1, 2)), dist).hex())
"""


def _run(script: str, threads: int) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads), "MKL_NUM_THREADS": str(threads)}
    return subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True, env=env).stdout


def test_fit_trace_and_profile_distance_do_not_depend_on_blas_threads():
    one, two = _run(_FIT_AND_PROFILE_DISTANCE, 1), _run(_FIT_AND_PROFILE_DISTANCE, 2)
    assert len(one.splitlines()[0].split()) == 11  # the start and ten steps
    assert one == two


def test_grid_fit_trace_does_not_depend_on_blas_threads():
    one, two = _run(_GRID_FITS, 1), _run(_GRID_FITS, 2)
    assert [len(line.split()) for line in one.splitlines()] == [11, 11]
    assert one == two


def test_pi_weighted_product_norm_does_not_depend_on_blas_threads():
    assert _run(_PI_WEIGHTED_PRODUCT, 1) == _run(_PI_WEIGHTED_PRODUCT, 2)


class _BlasCall(Exception):
    pass


_BLAS_FUNCTIONS = {np.dot, np.vdot, np.inner, np.tensordot}


class _NoBlas(np.ndarray):
    """An array whose products refuse every route to BLAS: matmul (`@`),
    np.dot, np.vdot, np.inner, np.tensordot and an optimized einsum.  Every
    other operation runs as on a plain array and returns a _NoBlas."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            raise _BlasCall("matmul")
        inputs = [x.view(np.ndarray) if isinstance(x, _NoBlas) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _NoBlas) else o
                                  for o in out)
        result = super().__array_ufunc__(ufunc, method, *inputs, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result if result is NotImplemented else np.asarray(result).view(_NoBlas)

    def __array_function__(self, func, types, args, kwargs):
        if func in _BLAS_FUNCTIONS or (func is np.einsum and kwargs.get("optimize")):
            raise _BlasCall(func.__name__)
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(_NoBlas) if type(result) is np.ndarray else result


def test_no_blas_arrays_refuse_blas_products():
    a = np.ones((3, 2)).view(_NoBlas)
    for product in (lambda: a @ a.T, lambda: np.matmul(a, a.T), lambda: np.dot(a, a.T),
                    lambda: np.vdot(a, a), lambda: np.inner(a, a),
                    lambda: np.tensordot(a, a.T, axes=1),
                    lambda: np.einsum("ik,jk->ij", a, a, optimize=True)):
        with pytest.raises(_BlasCall):
            product()
    assert type(np.einsum("ik,jk->ij", a, a)) is _NoBlas
    assert type(a + 1.0) is _NoBlas and type(np.multiply(a, a, out=a)) is _NoBlas


def test_grid_kernels_make_no_blas_call():
    # 30 x 50 with cells never drawn: every grid array, factor and buffer the
    # kernels read or fill is a _NoBlas, so any BLAS product among them raises.
    d1, d2, k, n = 30, 50, 4, 900
    rng = np.random.default_rng(0)
    obs = ObservationSet(d1=d1, d2=d2, values=rng.normal(size=n),
                         indices=np.column_stack([rng.integers(0, d1, n), rng.integers(0, d2, n)]))
    with patch.object(solver, "GRID_CELLS_PER_OBSERVED", np.inf):
        grid, _, _ = solver._fit_layout(obs)
    U, V = rng.normal(size=(d1, k)), rng.normal(size=(d2, k))
    loss, G, Vt = solver._grid_loss(grid, U, V)
    want = (loss, G.copy(), *solver._grid_grad_products(grid, G, U, Vt))

    no_blas = grid._replace(**{f: getattr(grid, f).view(_NoBlas)
                               for f in ("counts", "means", "P", "G")})
    loss, G, Vt = solver._grid_loss(no_blas, U.view(_NoBlas), V.view(_NoBlas))
    got = (loss, G, *solver._grid_grad_products(no_blas, G, U.view(_NoBlas), Vt))
    assert got[0].hex() == want[0].hex()
    assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))
