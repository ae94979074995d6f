import numpy as np
import pytest

from maxnorm_completion import (
    ConstraintSet,
    Factorization,
    ObservationSet,
    SolverConfig,
    ValidationError,
    default_factor_width,
    fit_pgd,
)
from maxnorm_completion.solver import empirical_loss_and_grad, linf_rescale, project_factor_rows


def _random_instance(rng, d1=5, d2=4, k=2, n=12):
    F = Factorization(U=rng.normal(size=(d1, k)), V=rng.normal(size=(d2, k)))
    idx = np.column_stack([rng.integers(0, d1, size=n), rng.integers(0, d2, size=n)])
    values = rng.normal(size=n)
    return F, ObservationSet(d1=d1, d2=d2, indices=idx, values=values)


def _loss_of_product(M, obs):
    picked = M[obs.indices[:, 0], obs.indices[:, 1]]
    return float(((obs.values - picked) ** 2).sum()) / obs.n


def test_loss_zero_when_reproducing_observations():
    F = Factorization(U=np.array([[1.0], [2.0]]), V=np.array([[1.0], [0.5]]))
    M = F.product()
    idx = np.array([[0, 0], [1, 1], [0, 1]])
    obs = ObservationSet(d1=2, d2=2, indices=idx, values=M[idx[:, 0], idx[:, 1]])
    loss, grad = empirical_loss_and_grad(F, obs)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros((2, 2)))


def test_single_observation_arithmetic():
    F = Factorization(U=np.zeros((1, 1)), V=np.zeros((1, 1)))
    obs = ObservationSet(d1=1, d2=1, indices=np.array([[0, 0]]), values=np.array([1.0]))
    loss, grad = empirical_loss_and_grad(F, obs)
    assert loss == pytest.approx(1.0, rel=1e-15)
    assert grad[0, 0] == pytest.approx(-2.0, rel=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    h = 1e-5
    for _ in range(10):
        F, obs = _random_instance(rng)
        _, grad = empirical_loss_and_grad(F, obs)
        M = F.product()
        fd = np.zeros_like(M)
        for a in range(M.shape[0]):
            for b in range(M.shape[1]):
                up, down = M.copy(), M.copy()
                up[a, b] += h
                down[a, b] -= h
                fd[a, b] = (_loss_of_product(up, obs) - _loss_of_product(down, obs)) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(grad - fd) / denom < 1e-4


def test_gradient_accumulates_duplicate_draws():
    F = Factorization(U=np.zeros((1, 1)), V=np.zeros((1, 1)))
    idx = np.array([[0, 0], [0, 0]])
    obs = ObservationSet(d1=1, d2=1, indices=idx, values=np.array([1.0, 3.0]))
    loss, grad = empirical_loss_and_grad(F, obs)
    assert loss == pytest.approx((1.0 + 9.0) / 2, rel=1e-15)
    assert grad[0, 0] == pytest.approx(2.0 / 2 * (0.0 - 1.0 + 0.0 - 3.0), rel=1e-15)


def test_project_three_four_row():
    out = project_factor_rows(np.array([[3.0, 4.0]]), radius=4.0)
    assert np.allclose(out, [[1.2, 1.6]], rtol=0, atol=1e-15)


def test_project_leaves_feasible_rows_alone():
    A = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert np.array_equal(project_factor_rows(A, radius=2.0), A)


def test_project_is_idempotent():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        A = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6))) * 3
        R = rng.uniform(0.1, 4.0)
        once = project_factor_rows(A, R)
        twice = project_factor_rows(once, R)
        assert np.max(np.abs(twice - once)) <= 1e-12


def test_projection_is_closest_feasible_point():
    # Euclidean optimality audit: no random feasible row is closer.
    rng = np.random.default_rng(107)
    for _ in range(100):
        k = rng.integers(1, 5)
        row = rng.normal(size=(1, k)) * 2
        R = rng.uniform(0.2, 2.0)
        proj = project_factor_rows(row, R)[0]
        assert proj @ proj <= R + 1e-12
        d_proj = np.linalg.norm(row[0] - proj)
        for _ in range(50):
            z = rng.normal(size=k)
            zn = z * np.sqrt(R * rng.uniform(0, 1)) / max(np.linalg.norm(z), 1e-12)
            assert d_proj <= np.linalg.norm(row[0] - zn) + 1e-9


def test_linf_rescale_scalar_case():
    F = Factorization(U=np.array([[2.0]]), V=np.array([[2.0]]))
    out = linf_rescale(F, alpha=1.0)
    assert out.U[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert out.V[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert out.product()[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_linf_rescale_identity_when_feasible():
    F = Factorization(U=np.array([[0.5]]), V=np.array([[1.0]]))
    assert linf_rescale(F, alpha=1.0) is F
    Z = Factorization(U=np.zeros((2, 1)), V=np.zeros((3, 1)))
    assert linf_rescale(Z, alpha=0.5) is Z


def test_linf_rescale_exact_poststate_on_violations():
    rng = np.random.default_rng(109)
    checked = 0
    while checked < 100:
        F, _ = _random_instance(rng, d1=4, d2=5, k=3)
        alpha = 0.3 * np.abs(F.product()).max()
        if alpha <= 0:
            continue
        out = linf_rescale(F, alpha)
        assert abs(np.abs(out.product()).max() - alpha) <= 1e-12 * alpha
        checked += 1


def test_fit_pgd_scalar_problem():
    obs = ObservationSet(d1=1, d2=1, indices=np.array([[0, 0]]), values=np.array([0.5]))
    cfg = SolverConfig(k=1, tau=0.25, max_iters=2000, tol=1e-14, seed=3)
    res = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=1.0), cfg)
    assert abs(res.completed[0, 0] - 0.5) < 1e-6
    assert res.feasible_rows and res.feasible_linf


def test_fit_pgd_rank_one_full_observation():
    rng = np.random.default_rng(113)
    u = rng.normal(size=(4, 1))
    v = rng.normal(size=(4, 1))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    M0 = u @ v.T
    alpha = np.abs(M0).max()
    idx = np.argwhere(np.ones((4, 4), dtype=bool))
    obs = ObservationSet(d1=4, d2=4, indices=idx, values=M0[idx[:, 0], idx[:, 1]])
    cfg = SolverConfig(k=2, tau=0.5, max_iters=5000, tol=1e-13, seed=5)
    res = fit_pgd(obs, ConstraintSet(alpha=alpha, radius=alpha), cfg)
    rel = np.linalg.norm(res.completed - M0) / np.linalg.norm(M0)
    assert rel < 1e-3


def test_fit_pgd_objective_monotone_at_default_step():
    rng = np.random.default_rng(127)
    for trial in range(20):
        d1, d2 = rng.integers(4, 9, size=2)
        n = int(rng.integers(10, 3 * d1 * d2))
        idx = np.column_stack([rng.integers(0, d1, n), rng.integers(0, d2, n)])
        obs = ObservationSet(d1=d1, d2=d2, indices=idx, values=rng.normal(size=n))
        cfg = SolverConfig(k=3, max_iters=120, tol=1e-12, seed=trial)
        res = fit_pgd(obs, ConstraintSet(alpha=1.0, radius=2.0), cfg)
        trace = np.array(res.objective_trace)
        if trace.size > 1:
            assert np.all(np.diff(trace[1:]) <= 1e-9 * np.maximum(trace[1:-1], 1.0))


def test_fit_pgd_returns_feasible_iterates():
    rng = np.random.default_rng(131)
    for trial in range(10):
        d1, d2 = rng.integers(3, 8, size=2)
        n = int(rng.integers(5, d1 * d2 + 5))
        idx = np.column_stack([rng.integers(0, d1, n), rng.integers(0, d2, n)])
        obs = ObservationSet(d1=d1, d2=d2, indices=idx, values=3 * rng.normal(size=n))
        constraints = ConstraintSet(alpha=0.8, radius=1.1)
        res = fit_pgd(obs, constraints, SolverConfig(k=2, max_iters=60, seed=trial))
        F = res.factorization
        assert (F.U * F.U).sum(axis=1).max() <= constraints.radius + 1e-9
        assert (F.V * F.V).sum(axis=1).max() <= constraints.radius + 1e-9
        assert np.abs(res.completed).max() <= constraints.alpha + 1e-9


def test_fit_pgd_bitwise_deterministic():
    rng = np.random.default_rng(137)
    idx = np.column_stack([rng.integers(0, 6, 40), rng.integers(0, 5, 40)])
    obs = ObservationSet(d1=6, d2=5, indices=idx, values=rng.normal(size=40))
    cfg = SolverConfig(k=3, max_iters=200, seed=11)
    constraints = ConstraintSet(alpha=1.0, radius=1.5)
    a = fit_pgd(obs, constraints, cfg)
    b = fit_pgd(obs, constraints, cfg)
    assert np.array_equal(a.completed, b.completed)
    assert a.objective_trace == b.objective_trace
    assert a.iterations_run == b.iterations_run


@pytest.mark.parametrize("kind", ["normal", "constant"])
def test_fit_pgd_rejects_overflowing_loss(kind):
    # Squared residuals of 1e200 overflow.  Constant values have no spread
    # within a cell, so only the residual at the start overflows there.
    rng = np.random.default_rng(139)
    idx = np.column_stack([rng.integers(0, 5, 30), rng.integers(0, 5, 30)])
    values = 1e200 * (rng.normal(size=30) if kind == "normal" else np.ones(30))
    obs = ObservationSet(d1=5, d2=5, indices=idx, values=values)
    with pytest.raises(ValidationError, match="not finite"):
        fit_pgd(obs, ConstraintSet(alpha=1.0, radius=1.0), SolverConfig(k=2, max_iters=5))


def test_default_factor_width():
    assert default_factor_width(10, 20) == 10
    assert default_factor_width(100, 200) == 32


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(k=0)
    with pytest.raises(ValidationError):
        SolverConfig(k=1, tau=-0.1)


def test_width_checked_against_dimensions():
    obs = ObservationSet(d1=2, d2=2, indices=np.array([[0, 0]]), values=np.array([1.0]))
    with pytest.raises(ValidationError):
        fit_pgd(obs, ConstraintSet(alpha=1.0, radius=1.0), SolverConfig(k=5))
