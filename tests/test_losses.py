import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from fedkdx.linalg import finite_diff_grad, softmax_rows
from fedkdx.losses import (
    CTL_NORM_FLOOR,
    PROB_FLOOR,
    TOWARD_STUDENT,
    TOWARD_TEACHER,
    LossConfig,
    ce_batch,
    combined_loss,
    cross_entropy,
    ctl_loss,
    kd_loss,
    nkd_loss,
)
from fedkdx.nn import backward, build_cnn_har, forward
from helpers import rel_err

FD_CASES = 15  # quick per-loss screening; the acceptance suite runs the deep pass


def fd_check(f, x, analytic, tol=1e-4):
    numeric = finite_diff_grad(f, x)
    worst = rel_err(analytic, numeric).max()
    assert worst < tol, f"worst relative gradient error {worst:.3e}"


# ----------------------------------------------------------- cross entropy

def test_cross_entropy_pinned_value():
    # -log softmax([2,1,0])[0]; 50-digit arithmetic gives
    # 0.40760596444438030448
    v, g = cross_entropy([2.0, 1.0, 0.0], 0)
    assert abs(v - 0.4076059644443803) < 5e-15
    soft = np.array([0.66524095577482189, 0.244728471054797652,
                     0.090030573170380458])
    want = soft - np.array([1.0, 0.0, 0.0])
    assert np.abs(g - want).max() < 5e-15


def test_cross_entropy_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(FD_CASES):
        z = rng.normal(size=5) * 3
        y = int(rng.integers(5))
        _, g = cross_entropy(z, y)
        fd_check(lambda v: cross_entropy(v, y)[0], z, g)


def test_cross_entropy_rejects_bad_input():
    # the public one-sample loss checks its values; ce_batch, on the
    # minibatch path, checks shapes only
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
        cross_entropy([1.0, 2.0], 2)  # label out of range
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
        cross_entropy([1.0, 2.0], -1)
    with pytest.raises(ValueError, match="labels must be integers"):
        cross_entropy([1.0, 2.0], 0.0)
    with pytest.raises(ValueError, match="single logit vector"):
        cross_entropy([[1.0, 2.0], [0.0, 1.0]], 0)  # batch where vector expected
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            cross_entropy([bad, 0.0], 0)


def test_ce_batch_is_mean_of_rows_with_batch_scaled_gradient():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(4, 3))
    y = np.array([0, 2, 1, 1])
    v, g = ce_batch(z, y)
    singles = [cross_entropy(z[i], y[i]) for i in range(4)]
    assert abs(v - np.mean([s[0] for s in singles])) < 1e-15
    assert np.abs(g - np.stack([s[1] for s in singles]) / 4).max() < 1e-15
    with pytest.raises(ValueError, match="must share one batch"):
        ce_batch(z, y[:3])
    with pytest.raises(ValueError, match="must share one batch"):
        ce_batch(z[0], y[:1])  # a logit vector is not a batch
    with pytest.raises(ValueError, match="must share one batch"):
        ce_batch(z, y[:, None])


# ------------------------------------------------------------ distillation

def test_kd_pinned_value():
    # own [1,0], peer [0,1], tau 2: tau^2 KL(peer||own) at that temperature,
    # 50-digit arithmetic gives 0.48983732480741825856
    v, _ = kd_loss([1.0, 0.0], [0.0, 1.0], 2.0, TOWARD_TEACHER)
    assert abs(v - 0.48983732480741826) < 5e-15


def test_kd_zero_for_identical_logits():
    z = [0.3, -1.2, 2.0]
    v, g = kd_loss(z, z, 0.7, TOWARD_STUDENT)
    assert v == 0.0
    assert np.all(g == 0.0)


def test_kd_value_matches_scaled_kl_oracle():
    rng = np.random.default_rng(2)
    for _ in range(FD_CASES):
        own = rng.normal(size=4) * 2
        peer = rng.normal(size=4) * 2
        tau = float(rng.uniform(0.3, 4.0))
        v, g = kd_loss(own, peer, tau, TOWARD_TEACHER)
        p_own = softmax_rows(own[None, :], tau)[0]
        p_peer = softmax_rows(peer[None, :], tau)[0]
        assert abs(v - tau * tau * rel_entr(p_peer, p_own).sum()) < 1e-12
        fd_check(lambda z: kd_loss(z, peer, tau, TOWARD_TEACHER)[0], own, g)


def test_kd_rejects_unknown_direction():
    with pytest.raises(ValueError):
        kd_loss([1.0, 0.0], [0.0, 1.0], 1.0, "sideways")
    with pytest.raises(ValueError, match="peer_logits must be finite"):
        kd_loss([1.0, 0.0], [np.inf, 1.0], 1.0, TOWARD_TEACHER)
    with pytest.raises(ValueError, match="temperature"):
        kd_loss([1.0, 0.0], [0.0, 1.0], 0.0, TOWARD_TEACHER)


def test_nkd_pinned_value():
    # student [1,1,1], teacher [2,1,0], target 0, tau 0.8, gamma 0.9;
    # 50-digit arithmetic gives 0.47952608304406723233
    v, _ = nkd_loss([1.0, 1.0, 1.0], [2.0, 1.0, 0.0], 0, 0.8, 0.9)
    assert abs(v - 0.47952608304406719) < 5e-15


def test_nkd_gamma_zero_keeps_only_the_target_term():
    own = np.array([0.5, -0.3, 1.1])
    peer = np.array([2.0, 0.1, -1.0])
    tau = 1.3
    v, _ = nkd_loss(own, peer, 0, tau, 0.0)
    p_own = softmax_rows(own[None, :], tau)[0]
    p_peer = softmax_rows(peer[None, :], tau)[0]
    assert abs(v - (-p_peer[0] * np.log(p_own[0]))) < 1e-12


def test_nkd_gamma_one_ignores_both_target_logits():
    # the non-target renormalization divides the target mass out entirely
    own = np.array([0.5, -0.3, 1.1])
    peer = np.array([2.0, 0.1, -1.0])
    v1, _ = nkd_loss(own, peer, 2, 0.9, 1.0)
    own2, peer2 = own.copy(), peer.copy()
    own2[2] += 5.0
    peer2[2] -= 7.0
    v2, _ = nkd_loss(own2, peer2, 2, 0.9, 1.0)
    assert abs(v1 - v2) < 1e-12


def test_nkd_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(FD_CASES):
        own = rng.normal(size=5) * 2
        peer = rng.normal(size=5) * 2
        y = int(rng.integers(5))
        tau = float(rng.uniform(0.3, 3.0))
        gamma = float(rng.uniform(0.0, 1.0))
        _, g = nkd_loss(own, peer, y, tau, gamma)
        fd_check(lambda z: nkd_loss(z, peer, y, tau, gamma)[0], own, g)


def test_nkd_survives_extreme_confidence():
    # near one-hot distributions push the non-target mass to the floor
    v, g = nkd_loss([60.0, -60.0, -60.0], [60.0, -60.0, -60.0], 0, 1.0, 0.9)
    assert np.isfinite(v)
    assert np.all(np.isfinite(g))
    assert PROB_FLOOR > 0


def test_nkd_rejects_bad_arguments():
    with pytest.raises(ValueError):
        nkd_loss([1.0], [1.0], 0, 1.0, 0.5)  # one class
    with pytest.raises(ValueError):
        nkd_loss([1.0, 0.0], [1.0, 0.0], 0, 1.0, 1.5)  # gamma out of range
    with pytest.raises(ValueError, match="own_logits must be finite"):
        nkd_loss([np.nan, 0.0], [1.0, 0.0], 0, 1.0, 0.5)


# ------------------------------------------------------------- contrastive

def test_ctl_identity_features_pinned_value():
    # two orthonormal anchors, student equals teacher, tau 1:
    # each row scores -log(e/(e+1)) = 0.31326168751822283405
    v, _, _ = ctl_loss(np.eye(2), np.eye(2), 1.0)
    assert abs(v - 0.3132616875182228) < 5e-15


def test_ctl_all_rows_identical_gives_log_batch():
    same = np.tile([[3.0, 4.0]], (3, 1))
    v, gt, gs = ctl_loss(same, same, 0.7)
    assert abs(v - np.log(3.0)) < 1e-12
    # fully symmetric batch: no direction improves the objective
    assert np.abs(gt).max() < 1e-12
    assert np.abs(gs).max() < 1e-12


def test_ctl_value_invariant_to_row_scale():
    rng = np.random.default_rng(4)
    ft = rng.normal(size=(5, 7))
    fs = rng.normal(size=(5, 7))
    v1, _, _ = ctl_loss(ft, fs, 0.8)
    v2, _, _ = ctl_loss(ft * 2.5, fs * 0.1, 0.8)
    assert abs(v1 - v2) < 1e-12


def test_ctl_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(FD_CASES):
        b, d = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        ft = rng.normal(size=(b, d))
        fs = rng.normal(size=(b, d))
        tau = float(rng.uniform(0.3, 3.0))
        _, gt, gs = ctl_loss(ft, fs, tau)
        fd_check(lambda a: ctl_loss(a.reshape(b, d), fs, tau)[0], ft.ravel(),
                 gt.ravel())
        fd_check(lambda a: ctl_loss(ft, a.reshape(b, d), tau)[0], fs.ravel(),
                 gs.ravel())


def test_ctl_rejects_degenerate_batches():
    with pytest.raises(ValueError):
        ctl_loss(np.ones((1, 4)), np.ones((1, 4)), 1.0)  # single row
    bad = np.ones((3, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="features must be finite"):
        ctl_loss(np.ones((3, 4)), bad, 1.0)
    with pytest.raises(ValueError):
        ctl_loss(np.ones((3, 4)), np.ones((3, 5)), 1.0)  # shape mismatch
    with pytest.raises(ValueError):
        ctl_loss(np.ones((3, 4)), np.ones((3, 4)), 0.0)  # temperature


def test_ctl_zero_norm_row_normalizes_to_zero():
    # the norm is clamped at CTL_NORM_FLOOR: a zero row scores zero
    # similarity against every row, so a zero anchor's term is log(B), and
    # its gradient is the upstream one divided by the floor
    rng = np.random.default_rng(13)
    b, d, tau = 4, 5, 0.7
    ft = rng.normal(size=(b, d))
    fs = rng.normal(size=(b, d))
    ft[1] = 0.0
    v, gt, gs = ctl_loss(ft, fs, tau)
    norms = np.linalg.norm(ft, axis=1, keepdims=True)
    norms[1] = 1.0  # any positive divisor leaves the zero row zero
    at = ft / norms
    as_ = fs / np.linalg.norm(fs, axis=1, keepdims=True)
    logq = np.log(softmax_rows(at @ as_.T, tau))
    assert abs(logq[1, 1] + np.log(b)) < 1e-15
    assert abs(v - (-np.trace(logq) / b)) < 1e-12
    w = (np.exp(logq) - np.eye(b)) / (b * tau)
    assert np.abs(gt[1] * CTL_NORM_FLOOR - (w @ as_)[1]).max() < 1e-12
    assert np.all(np.isfinite(gt)) and np.all(np.isfinite(gs))
    # a zero student (candidate) row is clamped the same way
    v2, _, gs2 = ctl_loss(fs, ft, tau)
    assert np.isfinite(v2) and np.all(np.isfinite(gs2))


def test_a_zero_cnn_feature_row_gives_finite_parameter_gradients():
    # an all-zero input window has an all-zero feature row in eval mode at
    # init (zero biases); the relu at the tap masks the row's feature
    # gradient, so every parameter gradient stays finite
    teacher, student = build_cnn_har(2, 28, 3, seed=0), build_cnn_har(2, 28, 3, seed=1)
    x = np.random.default_rng(14).normal(size=(4, 2, 28))
    x[2] = 0.0
    y = np.array([0, 1, 2, 1])
    t_tr, s_tr = forward(teacher, x, "eval"), forward(student, x, "eval")
    assert np.all(t_tr.features[2] == 0.0) and np.all(s_tr.features[2] == 0.0)
    (vt, gl_t, gf_t), (vs, gl_s, gf_s) = combined_loss(
        t_tr.logits, s_tr.logits, t_tr.features, s_tr.features, y, default_cfg())
    assert np.isfinite(vt) and np.isfinite(vs)
    for model, tr, gl, gf in ((teacher, t_tr, gl_t, gf_t), (student, s_tr, gl_s, gf_s)):
        assert np.all(np.isfinite(gf))
        grads = backward(model.params, tr, gl, gf)
        assert all(np.isfinite(layer.values).all() for layer in grads.layers)


# ---------------------------------------------------------------- combined

def default_cfg(**kw):
    base = dict(tau=0.8, gamma=0.9, enable_nkd=True, enable_ctl=True,
                kd_weight=1.0, nkd_weight=1.0, ctl_weight=1.0)
    base.update(kw)
    return LossConfig(**base)


@pytest.mark.parametrize("name", ["kd_weight", "nkd_weight", "ctl_weight"])
def test_loss_config_rejects_negative_and_nan_weights(name):
    for w in (-0.5, float("nan")):
        with pytest.raises(ValueError, match=name):
            default_cfg(**{name: w})


def random_batch(rng, b=4, c=3, h=5):
    return (rng.normal(size=(b, c)), rng.normal(size=(b, c)),
            rng.normal(size=(b, h)) + 2.0, rng.normal(size=(b, h)) + 2.0,
            rng.integers(0, c, size=b))


def test_combined_decomposes_into_its_terms():
    rng = np.random.default_rng(6)
    zt, zs, ft, fs, y = random_batch(rng)
    cfg = default_cfg(kd_weight=0.7, nkd_weight=1.3, ctl_weight=0.4)
    b = zt.shape[0]

    teacher, student = combined_loss(zt, zs, ft, fs, y, cfg)

    ctl, g_anchor, g_cand = ctl_loss(ft, fs, cfg.tau)
    for (value, gl, gf), own, peer, g_ctl in ((teacher, zt, zs, g_anchor),
                                              (student, zs, zt, g_cand)):
        ce = np.mean([cross_entropy(own[i], y[i])[0] for i in range(b)])
        kd = np.mean([kd_loss(own[i], peer[i], cfg.tau, TOWARD_STUDENT)[0]
                      for i in range(b)])
        nkd = np.mean([nkd_loss(own[i], peer[i], y[i], cfg.tau, cfg.gamma)[0]
                       for i in range(b)])
        want = ce + 0.7 * kd + 1.3 * nkd + 0.4 * ctl
        assert abs(value - want) < 1e-12
        assert np.abs(gf - 0.4 * g_ctl).max() < 1e-12

        g_manual = np.stack([
            cross_entropy(own[i], y[i])[1]
            + 0.7 * kd_loss(own[i], peer[i], cfg.tau, TOWARD_STUDENT)[1]
            + 1.3 * nkd_loss(own[i], peer[i], y[i], cfg.tau, cfg.gamma)[1]
            for i in range(b)]) / b
        assert np.abs(gl - g_manual).max() < 1e-12


def test_combined_role_selects_the_contrastive_side():
    rng = np.random.default_rng(7)
    zt, zs, ft, fs, y = random_batch(rng)
    (_, _, gf_teacher), (_, _, gf_student) = combined_loss(zt, zs, ft, fs, y,
                                                           default_cfg())
    # teacher rows are the anchors, student rows the candidates
    _, g_anchor, g_cand = ctl_loss(ft, fs, default_cfg().tau)
    assert np.abs(gf_teacher - g_anchor).max() < 1e-15
    assert np.abs(gf_student - g_cand).max() < 1e-15


@pytest.mark.parametrize("nkd", [True, False])
def test_combined_is_swap_symmetric(nkd):
    # each side's peer is the other side; swapping the arguments swaps the
    # sides bit for bit, except that the contrastive anchor and candidate
    # roles do not swap
    rng = np.random.default_rng(12)
    for b in (1, 5, 33):
        zt, zs, ft, fs, y = random_batch(rng, b=b, c=4, h=6)
        cfg = default_cfg(enable_nkd=nkd, enable_ctl=False, kd_weight=0.7,
                          nkd_weight=1.3, tau=1.7, gamma=0.4)
        teacher, student = combined_loss(zt, zs, ft, fs, y, cfg)
        swapped = combined_loss(zs, zt, fs, ft, y, cfg)
        for want, got in ((teacher, swapped[1]), (student, swapped[0])):
            assert want[0] == got[0]
            assert np.array_equal(want[1], got[1])
            assert np.array_equal(want[2], got[2])

        cfg = default_cfg(enable_nkd=nkd, ctl_weight=0.4)
        (v_t, gl_t, _), (v_s, gl_s, _) = combined_loss(zt, zs, ft, fs, y, cfg)
        (w_t, hl_t, _), (w_s, hl_s, _) = combined_loss(zs, zt, ft, fs, y, cfg)
        assert (v_t, v_s) == (w_s, w_t)
        assert np.array_equal(gl_t, hl_s) and np.array_equal(gl_s, hl_t)


def test_combined_flags_drop_terms():
    rng = np.random.default_rng(8)
    batch = random_batch(rng)
    (v_all, _, _), _ = combined_loss(*batch, default_cfg())
    (v_nonkd, _, _), _ = combined_loss(*batch, default_cfg(enable_nkd=False))
    (v_noctl, _, gf_t), (_, _, gf_s) = combined_loss(*batch,
                                                     default_cfg(enable_ctl=False))
    assert v_nonkd < v_all
    assert v_noctl != v_all
    assert np.all(gf_t == 0.0) and np.all(gf_s == 0.0)


def test_combined_single_row_batch_drops_the_contrastive_term():
    rng = np.random.default_rng(9)
    batch = random_batch(rng, b=1)
    on = combined_loss(*batch, default_cfg())
    off = combined_loss(*batch, default_cfg(enable_ctl=False))
    for (v_on, gl_on, gf), (v_off, gl_off, _) in zip(on, off):
        assert v_on == v_off
        assert np.array_equal(gl_on, gl_off)
        assert np.all(gf == 0.0)


def test_combined_gradients_match_finite_differences_both_roles():
    rng = np.random.default_rng(10)
    cfg = default_cfg(kd_weight=0.5, nkd_weight=0.8, ctl_weight=1.2)
    zt, zs, ft, fs, y = random_batch(rng)
    b, c = zt.shape
    teacher, student = combined_loss(zt, zs, ft, fs, y, cfg)
    # each side's value is differentiated in its own inputs, the peer's held
    fd_check(lambda z: combined_loss(z.reshape(b, c), zs, ft, fs, y, cfg)[0][0],
             zt.ravel(), teacher[1].ravel())
    fd_check(lambda a: combined_loss(zt, zs, a.reshape(ft.shape), fs, y, cfg)[0][0],
             ft.ravel(), teacher[2].ravel())
    fd_check(lambda z: combined_loss(zt, z.reshape(b, c), ft, fs, y, cfg)[1][0],
             zs.ravel(), student[1].ravel())
    fd_check(lambda a: combined_loss(zt, zs, ft, a.reshape(fs.shape), y, cfg)[1][0],
             fs.ravel(), student[2].ravel())


def test_combined_validates_shapes():
    rng = np.random.default_rng(11)
    zt, zs, ft, fs, y = random_batch(rng)
    with pytest.raises(ValueError):
        combined_loss(zt, zs[:2], ft, fs, y, default_cfg())
    with pytest.raises(ValueError):
        combined_loss(zt, zs, ft[:2], fs[:2], y, default_cfg())
    with pytest.raises(ValueError):
        combined_loss(zt, zs, ft, fs, y[:2], default_cfg())


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=2**31),
       st.booleans(), st.booleans())
def test_combined_finite_on_random_input(seed, nkd, ctl):
    rng = np.random.default_rng(seed)
    batch = random_batch(rng)
    cfg = default_cfg(enable_nkd=nkd, enable_ctl=ctl,
                      tau=float(rng.uniform(0.2, 4.0)))
    for v, gl, gf in combined_loss(*batch, cfg):
        assert np.isfinite(v)
        assert np.all(np.isfinite(gl)) and np.all(np.isfinite(gf))
