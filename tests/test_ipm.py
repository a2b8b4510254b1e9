import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drdetect.ipm import (
    _GETRF,
    ConicProblem,
    Status,
    _inner_sum,
    _kkt_solve,
    _max_step,
    _mv,
    _psd_sqrt_pair,
    _sym,
    _sym_kron,
    _t,
    smat,
    solve,
    svec,
    svec_dim,
)


def _random_sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m + m.T) / 2.0


def _random_pd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + 0.1 * np.eye(n)


# Entry-by-entry reference versions of the solver's kernels.  The kernels
# must reproduce them bit for bit, so that a faster kernel never moves an
# iterate, an iteration count or a threshold.


def _svec_loop(mat):
    n = mat.shape[0]
    out = np.empty(svec_dim(n))
    idx = 0
    for j in range(n):
        for i in range(j + 1):
            out[idx] = mat[i, j] if i == j else math.sqrt(2.0) * mat[i, j]
            idx += 1
    return out


def _smat_loop(vec):
    n = int(round((math.sqrt(8 * vec.shape[0] + 1) - 1) / 2))
    out = np.empty((n, n))
    idx = 0
    for j in range(n):
        for i in range(j + 1):
            val = vec[idx] if i == j else vec[idx] / math.sqrt(2.0)
            out[i, j] = val
            out[j, i] = val
            idx += 1
    return out


def _sym_kron_loop(w):
    d = svec_dim(w.shape[0])
    cols = np.empty((d, d))
    basis = np.zeros(d)
    for i in range(d):
        basis[i] = 1.0
        cols[:, i] = _svec_loop(w @ _smat_loop(basis) @ w)
        basis[i] = 0.0
    return cols


def _max_step_solve_triangular(x, dx):
    chol = np.linalg.cholesky(x)
    inner = scipy.linalg.solve_triangular(chol, dx, lower=True)
    inner = scipy.linalg.solve_triangular(chol, inner.T, lower=True)
    lo = float(np.linalg.eigvalsh(_sym(inner))[0])
    if lo >= -1e-14:
        return np.inf
    return -1.0 / lo


def _kkt_solve_lu(kkt, rhs):
    lu = scipy.linalg.lu_factor(kkt, check_finite=False)
    sol = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
    # one step of iterative refinement
    sol += scipy.linalg.lu_solve(lu, rhs - kkt @ sol, check_finite=False)
    return sol


@pytest.mark.parametrize("n", range(1, 8))
def test_svec_and_smat_match_the_loops_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        mat = _random_sym(rng, n, scale=10.0)
        np.testing.assert_array_equal(svec(mat), _svec_loop(mat))
        vec = 10.0 * rng.standard_normal(svec_dim(n))
        np.testing.assert_array_equal(smat(vec), _smat_loop(vec))


@pytest.mark.parametrize("n", range(1, 8))
def test_sym_kron_matches_the_column_loop_bit_for_bit(n):
    # over a stack of blocks, each slice equals the column loop
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        ws = np.stack([_random_sym(rng, n), _random_pd(rng, n)])
        kron = _sym_kron(ws)
        assert kron.flags.c_contiguous
        for j, w in enumerate(ws):
            np.testing.assert_array_equal(kron[j], _sym_kron_loop(w))
            np.testing.assert_array_equal(kron[j], _sym_kron(w))


@pytest.mark.parametrize("n", range(1, 8))
def test_psd_sqrt_pair_stacked_matches_per_slice_bit_for_bit(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(20):
        mats = np.stack([_random_pd(rng, n) for _ in range(2)])
        roots, inv_roots = _psd_sqrt_pair(mats)
        for j, mat in enumerate(mats):
            root, inv_root = _psd_sqrt_pair(mat)
            np.testing.assert_array_equal(roots[j], root)
            np.testing.assert_array_equal(inv_roots[j], inv_root)
    # one slice that is not positive definite fails the whole stack
    with pytest.raises(np.linalg.LinAlgError):
        _psd_sqrt_pair(np.stack([np.eye(n), -np.eye(n)]))


def _max_step_per_slice(xs, dxs):
    steps = []
    for x, dx in zip(xs, dxs):
        try:
            steps.append(_max_step_solve_triangular(x, dx))
        except np.linalg.LinAlgError:
            steps.append(0.0)
    return min(steps)


@pytest.mark.parametrize("n", range(1, 8))
def test_max_step_matches_solve_triangular_bit_for_bit(n):
    # X and S on one stack: each step is the per-side reference step
    rng = np.random.default_rng(200 + n)
    steps = []
    for nb in (1, 2, 3):
        for _ in range(20):
            zs = np.stack([_random_pd(rng, n) for _ in range(2 * nb)])
            dzs = np.stack([_random_sym(rng, n) for _ in range(2 * nb)])
            steps.extend(_max_step(zs, dzs))
            assert steps[-2:] == [
                _max_step_per_slice(zs[:nb], dzs[:nb]),
                _max_step_per_slice(zs[nb:], dzs[nb:]),
            ]
        # a side that is not positive definite gets no step, the other
        # side its reference step
        good = np.stack([_random_pd(rng, n) for _ in range(nb)])
        bad = good.copy()
        bad[-1] = -np.eye(n)
        dzs = np.stack([_random_sym(rng, n) for _ in range(2 * nb)])
        dx, ds = dzs[:nb], dzs[nb:]
        step_x = _max_step_per_slice(good, dx)
        step_s = _max_step_per_slice(good, ds)
        assert _max_step(np.concatenate([bad, good]), dzs) == (0.0, step_s)
        assert _max_step(np.concatenate([good, bad]), dzs) == (step_x, 0.0)
        assert _max_step(np.concatenate([bad, bad]), dzs) == (0.0, 0.0)
        assert min(step_x, step_s) > 0.0
    assert any(np.isfinite(steps))


@pytest.mark.parametrize("k", range(1, 7))
def test_block_products_match_per_block_bit_for_bit(k):
    # the moment program's sizes: 4k + 2 rows, two blocks of size k + 1
    rng = np.random.default_rng(500 + k)
    m, n = 4 * k + 2, k + 1
    d = svec_dim(n)
    for _ in range(20):
        a_mats = ConicProblem(
            c_free=np.ones(1),
            a_free=np.zeros((m, 1)),
            a_blocks=tuple(rng.standard_normal((2, m, d))),
            b=np.zeros(m),
        ).a_blocks
        vecs = rng.standard_normal((2, d))
        lam = rng.standard_normal(m)
        xs = np.stack([_random_sym(rng, n) for _ in range(2)])
        ss = np.stack([_random_sym(rng, n) for _ in range(2)])
        products = _mv(a_mats, vecs)
        transposed = _t(a_mats) @ lam
        for j in range(2):
            np.testing.assert_array_equal(products[j], a_mats[j] @ vecs[j])
            np.testing.assert_array_equal(transposed[j], a_mats[j].T @ lam)
        assert _inner_sum(xs, ss) == sum(
            float(np.sum(x * s)) for x, s in zip(xs, ss)
        )


@pytest.mark.parametrize("k", range(1, 7))
def test_kkt_solve_matches_lu_factor_bit_for_bit(k):
    # the moment program at order k has 4k + 2 rows and k + 1 free
    # variables, so its KKT matrix is 5k + 3 square
    rng = np.random.default_rng(300 + k)
    m, f = 4 * k + 2, k + 1
    for _ in range(20):
        a_mat = rng.standard_normal((m, m))
        # Schur complements near the optimum span many orders of magnitude
        schur = (a_mat * 10.0 ** rng.uniform(-8.0, 8.0, m)) @ a_mat.T
        a_free = rng.standard_normal((m, f))
        kkt = np.block([[schur, a_free], [a_free.T, np.zeros((f, f))]])
        rhs = rng.standard_normal(m + f)
        lu, piv, info = _GETRF(kkt)
        assert info == 0
        np.testing.assert_array_equal(
            _kkt_solve(lu, piv, kkt, rhs), _kkt_solve_lu(kkt, rhs)
        )


def test_svec_round_trip_identity():
    a = np.array([[2.0, 3.0], [3.0, 5.0]])
    v = svec(a)
    assert v.shape == (3,)
    np.testing.assert_allclose(smat(v), a, atol=1e-15)
    # inner products must be preserved
    b = np.array([[1.0, -1.0], [-1.0, 4.0]])
    assert np.dot(svec(a), svec(b)) == pytest.approx(np.sum(a * b), rel=1e-14)


@given(
    v=hnp.arrays(
        np.float64,
        shape=st.sampled_from([svec_dim(n) for n in range(1, 7)]),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
)
@settings(max_examples=100, deadline=None)
def test_svec_smat_inverse_pair(v):
    np.testing.assert_allclose(svec(smat(v)), v, atol=1e-13)


def _costed_problem(c_blocks, a_blocks, b):
    """min sum_j <C_j, X_j> s.t. sum_j A_j svec(X_j) = b, with the cost in
    a free variable t and the row t - sum_j <C_j, X_j> = 0 in front."""
    return ConicProblem(
        c_free=np.ones(1),
        a_free=np.vstack([np.ones((1, 1)), np.zeros((len(b), 1))]),
        a_blocks=tuple(
            np.vstack([-svec(c), a]) for c, a in zip(c_blocks, a_blocks)
        ),
        b=np.concatenate([[0.0], b]),
    )


def test_min_trace_with_fixed_off_diagonal():
    # min tr X s.t. X_01 + X_10 = 2, X PSD: optimum X = ones(2), value 2
    a_row = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    prob = _costed_problem((np.eye(2),), (a_row[None, :],), np.array([2.0]))
    sol = solve(prob)
    assert sol.status == Status.OPTIMAL
    assert sol.x_free[0] == pytest.approx(2.0, abs=1e-7)


def test_diagonal_blocks_reduce_to_linear_programming():
    # diag-constrained SDP == LP; cross-check against scipy's simplex
    rng = np.random.default_rng(0)
    n = 4
    a_lp = rng.uniform(-1.0, 1.0, size=(2, n))
    x_feas = rng.uniform(0.5, 1.5, size=n)
    b_lp = a_lp @ x_feas
    c_lp = rng.uniform(0.1, 2.0, size=n)

    rows = [a_lp[i] for i in range(2)]
    # pin off-diagonals to zero so the block behaves like a vector
    offdiag = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            offdiag.append(svec(e))
    diag_rows = []
    for row in rows:
        diag_rows.append(svec(np.diag(row)))
    a_blk = np.vstack(diag_rows + offdiag)
    b_vec = np.concatenate([b_lp, np.zeros(len(offdiag))])
    prob = _costed_problem((np.diag(c_lp),), (a_blk,), b_vec)
    sol = solve(prob)
    ref = scipy.optimize.linprog(c_lp, A_eq=a_lp, b_eq=b_lp, bounds=(0, None))
    assert sol.status == Status.OPTIMAL
    assert sol.x_free[0] == pytest.approx(ref.fun, abs=1e-6)


@pytest.mark.parametrize("seed", range(8))
def test_constructed_optimum_is_recovered(seed):
    # build an instance with a known complementary primal-dual pair:
    # X* and S* share an eigenbasis with complementary supports, so
    # (X*, y*, S*) is optimal by strong duality.
    rng = np.random.default_rng(seed)
    n, m_rows = 4, 5
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d_x = np.array([1.5, 0.7, 0.0, 0.0])
    d_s = np.array([0.0, 0.0, 0.9, 2.2])
    x_star = basis @ np.diag(d_x) @ basis.T
    s_star = basis @ np.diag(d_s) @ basis.T
    a_rows = np.vstack([svec(_random_sym(rng, n)) for _ in range(m_rows)])
    y_star = rng.standard_normal(m_rows)
    b = a_rows @ svec(x_star)
    c_mat = smat(a_rows.T @ y_star) + s_star
    prob = _costed_problem((c_mat,), (a_rows,), b)
    sol = solve(prob)
    target = float(np.sum(c_mat * x_star))
    assert sol.status == Status.OPTIMAL
    assert sol.gap <= 1e-8
    assert sol.x_free[0] == pytest.approx(target, abs=1e-6)


def test_free_variables_conjoined_with_block():
    # min u s.t. u - X_00 = 0, X_00 + X_11 = 3, X_01 = 0:
    # X = diag(a, 3-a), minimize a over PSD -> a = 0
    e00 = svec(np.diag([1.0, 0.0]))
    tr = svec(np.eye(2))
    off = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    prob = ConicProblem(
        c_free=np.array([1.0]),
        a_free=np.array([[1.0], [0.0], [0.0]]),
        a_blocks=(np.vstack([-e00, tr, off]),),
        b=np.array([0.0, 3.0, 0.0]),
    )
    sol = solve(prob)
    assert sol.status == Status.OPTIMAL
    assert sol.x_free[0] == pytest.approx(0.0, abs=1e-6)


def test_two_blocks_split_objective():
    # independent copies of the trace problem in two blocks
    a_row = svec(np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = np.zeros_like(a_row)
    prob = _costed_problem(
        (np.eye(2), 2.0 * np.eye(2)),
        (np.vstack([a_row, z]), np.vstack([z, a_row])),
        np.array([2.0, 2.0]),
    )
    sol = solve(prob)
    assert sol.status == Status.OPTIMAL
    assert sol.x_free[0] == pytest.approx(2.0 + 4.0, abs=1e-6)


def test_infeasible_problem_does_not_claim_optimality():
    # X_00 = 1 and X_00 = -1 cannot both hold; the repeated row makes the
    # KKT matrix exactly singular, which ends the run at the first
    # factorization, without a warning
    e00 = svec(np.diag([1.0, 0.0]))
    prob = _costed_problem(
        (np.eye(2),), (np.vstack([e00, e00]),), np.array([1.0, -1.0])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(prob)
    assert sol.status == Status.NUMERICAL_TROUBLE
    assert sol.iterations == 0


def _trace_problem(**changes):
    data = dict(
        c_free=np.ones(1),
        a_free=np.ones((1, 1)),
        a_blocks=(svec(np.array([[0.0, 1.0], [1.0, 0.0]]))[None, :],),
        b=np.array([2.0]),
    )
    data.update(changes)
    return ConicProblem(**data)


def test_problem_validation():
    with pytest.raises(ValueError):
        _trace_problem(a_free=np.zeros((1, 2)))  # wrong free width
    with pytest.raises(ValueError):
        # svec width of a 2x2 block is 3
        _trace_problem(a_blocks=(np.zeros((1, 4)),))
    with pytest.raises(ValueError):
        _trace_problem(a_blocks=(np.zeros((2, 3)),))  # one row too many
    with pytest.raises(ValueError, match="free variable"):
        _trace_problem(c_free=np.zeros(0), a_free=np.zeros((1, 0)))
    with pytest.raises(ValueError, match="at least one PSD block"):
        _trace_problem(a_blocks=())
    with pytest.raises(ValueError, match="same size"):
        # a 2x2 block next to a 3x3 block
        _trace_problem(a_blocks=(np.zeros((1, 3)), np.zeros((1, 6))))
    assert _trace_problem().a_blocks.shape == (1, 1, 3)
    stacked = _trace_problem(a_blocks=(np.zeros((1, 3)),) * 2)
    assert stacked.a_blocks.shape == (2, 1, 3)
    assert not stacked.a_blocks.flags.writeable
    # non-finite data is rejected when the problem is built
    for field in ("b", "c_free", "a_free", "a_blocks"):
        for bad in (np.nan, np.inf, -np.inf):
            value = getattr(_trace_problem(), field).copy()
            value.flat[0] = bad
            with pytest.raises(ValueError, match="finite"):
                _trace_problem(**{field: value})
