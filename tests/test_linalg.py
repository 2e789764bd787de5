import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkdx.linalg import (
    SvdNonConvergence,
    finite_diff_grad,
    log_softmax_rows,
    softmax_rows,
    thin_svd,
)


def random_matrix(rng, p, q, kind):
    if kind == "full":
        return rng.normal(size=(p, q))
    if kind == "lowrank":
        r = rng.integers(1, max(2, q // 2 + 1))
        return rng.normal(size=(p, r)) @ rng.normal(size=(r, q))
    if kind == "scaled":
        # columns spanning ten orders of magnitude
        return rng.normal(size=(p, q)) * np.logspace(-5, 5, q)
    if kind == "dup":
        g = rng.normal(size=(p, q))
        g[:, -1] = g[:, 0]
        return g
    g = rng.normal(size=(p, q))  # "zerocol"
    g[:, q // 2] = 0.0
    return g


def check_factorization(g, u, s, v):
    p, q = g.shape
    assert u.shape == (p, q) and s.shape == (q,) and v.shape == (q, q)
    # non-increasing, non-negative spectrum
    assert np.all(s >= 0)
    assert np.all(s[:-1] >= s[1:] - 1e-12)
    scale = max(np.linalg.norm(g), 1.0)
    assert np.linalg.norm(u @ np.diag(s) @ v.T - g) <= 1e-10 * scale
    assert np.linalg.norm(u.T @ u - np.eye(q)) <= 1e-10
    assert np.linalg.norm(v.T @ v - np.eye(q)) <= 1e-10


def test_thin_svd_factorizes_random_matrices():
    rng = np.random.default_rng(7)
    kinds = ("full", "lowrank", "scaled", "dup", "zerocol")
    for i in range(60):
        p = int(rng.integers(2, 40))
        q = int(rng.integers(1, p + 1))
        g = random_matrix(rng, p, q, kinds[i % len(kinds)])
        u, s, v = thin_svd(g)
        check_factorization(g, u, s, v)


def test_thin_svd_matches_lapack_spectrum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = rng.normal(size=(rng.integers(2, 60), rng.integers(1, 30)))
        if g.shape[0] < g.shape[1]:
            g = g.T
        _, s, _ = thin_svd(g)
        ref = np.linalg.svd(g, compute_uv=False)
        assert np.allclose(s, ref, rtol=1e-10, atol=1e-10 * max(ref[0], 1.0))


def test_thin_svd_diagonal_spectrum_is_exact():
    g = np.diag([3.0, 2.0, 1.0])
    u, s, v = thin_svd(g)
    assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-12)
    check_factorization(g, u, s, v)


def test_thin_svd_zero_matrix():
    g = np.zeros((5, 3))
    u, s, v = thin_svd(g)
    assert np.all(s == 0.0)
    # a zero spectrum still comes with an orthonormal basis
    assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-10


def test_thin_svd_rejects_wide_and_nonfinite():
    with pytest.raises(ValueError):
        thin_svd(np.ones((2, 5)))
    with pytest.raises(ValueError):
        thin_svd(np.array([[1.0], [np.nan]]))


def test_thin_svd_raises_when_gesdd_does_not_converge(monkeypatch):
    def no_gesdd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", no_gesdd)
    with pytest.raises(SvdNonConvergence, match="did not converge"):
        thin_svd(np.random.default_rng(0).normal(size=(8, 4)))


def test_thin_svd_sign_convention():
    rng = np.random.default_rng(13)
    mats = [rng.normal(size=(30, 7)), rng.normal(size=(9, 9)),
            rng.normal(size=(40, 3)) * np.logspace(-3, 3, 3)]
    for g in mats:
        u, _, _ = thin_svd(g)
        pivot = np.abs(u).argmax(axis=0)
        assert np.all(u[pivot, np.arange(g.shape[1])] > 0)


def test_thin_svd_factor_layout():
    # u Fortran- and v C-contiguous: the f64 bits of compression's
    # ``work @ v`` depend on the operands' layout
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(30, 7)), rng.normal(size=(9, 9)), rng.normal(size=(12, 1))]
    for g in mats:
        u, _, v = thin_svd(g)
        assert u.flags.f_contiguous and v.flags.c_contiguous, g.shape


@settings(max_examples=40)
@given(
    p=st.integers(min_value=1, max_value=24),
    q=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_thin_svd_property_reconstruction(p, q, seed):
    if p < q:
        p, q = q, p
    g = np.random.default_rng(seed).normal(size=(p, q))
    u, s, v = thin_svd(g)
    check_factorization(g, u, s, v)


# --------------------------------------------------------------- softmax

def test_softmax_pinned_values():
    # exp(2), exp(1), exp(0) normalized, evaluated with 50 decimal digits
    want = np.array([0.66524095577482189,
                     0.244728471054797652,
                     0.090030573170380458])
    got = softmax_rows(np.array([[2.0, 1.0, 0.0]]), 1.0)[0]
    assert np.abs(got - want).max() < 5e-16


def test_softmax_temperature_is_logit_scaling():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 6))
    for tau in (0.25, 1.0, 3.0):
        assert np.allclose(softmax_rows(z, tau), softmax_rows(z / tau, 1.0),
                           atol=1e-15)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=0.1, max_value=10.0))
def test_softmax_rows_normalized_and_shift_invariant(seed, tau):
    z = np.random.default_rng(seed).normal(size=(3, 5)) * 10
    p = softmax_rows(z, tau)
    assert np.all(p > 0)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    shifted = softmax_rows(z + 123.456, tau)
    assert np.abs(p - shifted).max() < 1e-12


def test_log_softmax_stable_at_extreme_logits():
    z = np.array([[1e4, 0.0, -1e4]])
    lp = log_softmax_rows(z, 1.0)
    assert np.all(np.isfinite(lp))
    assert np.abs(np.exp(lp).sum() - 1.0) < 1e-12
    assert np.allclose(np.exp(lp), softmax_rows(z, 1.0), atol=1e-15)


def test_finite_diff_matches_quadratic_form():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    a = a + a.T
    x = rng.normal(size=4)
    grad = finite_diff_grad(lambda v: float(v @ a @ v), x)
    assert np.abs(grad - 2 * a @ x).max() < 1e-6
