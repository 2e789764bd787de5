"""Training objectives for the mutual-distillation pair.

Every loss returns its scalar value together with analytic gradients, so
the networks never need an autograd engine.  Distillation terms always
treat the peer model's outputs as constants: gradients flow only into the
first (own) argument.

The row kernels take (..., B, C) arrays.  ``combined_loss`` stacks the
teacher and student logits into one (2, B, C) array, teacher first, so
each kernel runs once for both sides; a side's peer is the stack reversed
along its leading axis.  The one-sample losses call the same kernels.

The minibatch losses compute in the dtype of the logits and features they
are given: float32 for the CNN, float64 for the MLP.  The one-sample losses
and ``ctl_loss`` cast their arguments to float64.

Values are checked where they enter.  The one-sample losses and
``ctl_loss`` check their arguments.  ``combined_loss``, ``ce_batch`` and the
row kernels run per minibatch on arrays the program built and check shapes
only: the loaders check data
values at load, labels lie in [0, C) for C = largest label + 1, and a
non-finite value made in a round fails it at the uplink check
(``compress_layer`` or ``decode_packet``), which names the client.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import log_softmax_rows, log_softmax_shifted

# Probabilities are clamped here before any log on the renormalized
# non-target masses; far below every gradient-check tolerance.
PROB_FLOOR = 1e-12

TOWARD_TEACHER = "toward_teacher"
TOWARD_STUDENT = "toward_student"


@dataclass(frozen=True)
class LossConfig:
    """Weights and switches for the combined objective."""

    tau: float = 0.8
    gamma: float = 0.9
    enable_nkd: bool = True
    enable_ctl: bool = True
    kd_weight: float = 1.0
    nkd_weight: float = 1.0
    ctl_weight: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        for name in ("kd_weight", "nkd_weight", "ctl_weight"):
            w = getattr(self, name)
            if not w >= 0:
                raise ValueError(f"{name} must be non-negative, got {w}")


def _as_logit_rows(a, name: str) -> np.ndarray:
    z = np.asarray(a, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] < 1:
        raise ValueError(f"{name} must be a logit vector or (B, C) array")
    if not np.isfinite(z).all():
        raise ValueError(f"{name} must be finite (found NaN or Inf)")
    return z


def _check_labels(labels, num_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim == 0:
        y = y[None]
    if y.ndim != 1 or not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    return y.astype(np.intp)


def _ce_rows(logp: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row cross entropy from temperature-1 log-softmaxes (..., B, C):
    values (..., B), grads (..., B, C)."""
    rows = np.arange(logp.shape[-2])
    values = -logp[..., rows, labels]
    grads = np.exp(logp)
    grads[..., rows, labels] -= 1.0
    return values, grads


def _kd_rows(log_own: np.ndarray, log_peer: np.ndarray, p_own: np.ndarray,
             p_peer: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row tau^2-scaled KL(peer || own) from the tempered log-softmaxes
    of both sides and their exps; peer is a constant reference."""
    contrib = np.where(p_peer > 0.0, p_peer * (log_peer - log_own), 0.0)
    values = tau * tau * contrib.sum(axis=-1)
    grads = tau * (p_own - p_peer)
    return values, grads


def _nkd_rows(log_own: np.ndarray, p_own: np.ndarray, p_peer: np.ndarray,
              labels: np.ndarray, tau: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row decoupled distillation: a target-confidence term plus a
    tau^2-scaled cross entropy between the renormalized non-target masses
    of peer and own distributions, given their tempered softmaxes and the
    own log-softmax."""
    rows = np.arange(log_own.shape[-2])
    pt_target = p_peer[..., rows, labels]
    ps_target = p_own[..., rows, labels]
    term1 = -pt_target * log_own[..., rows, labels]

    m_peer = np.maximum(1.0 - pt_target, PROB_FLOOR)[..., None]
    m_own = np.maximum(1.0 - ps_target, PROB_FLOOR)[..., None]
    onehot = np.zeros(log_own.shape, log_own.dtype)
    onehot[..., rows, labels] = 1.0
    non_target = onehot == 0.0

    n_peer = np.where(non_target, p_peer / m_peer, 0.0)
    n_own = np.where(non_target, p_own / m_own, 0.0)
    log_n_own = np.log(np.maximum(n_own, PROB_FLOOR))
    term2 = -(np.where(non_target, n_peer * log_n_own, 0.0)).sum(axis=-1)

    values = (1.0 - gamma) * term1 + gamma * tau * tau * term2

    # d(term1)/dz_j = -pt_target * (delta_{target,j} - p_own_j) / tau
    g1 = -(pt_target[..., None]) * (onehot - p_own) / tau
    # d(term2 * tau^2)/dz_j = -tau * (n_peer_j - p_own_j
    #                                 + (p_own_target / m_own)(delta - p_own_j))
    g2 = -tau * (n_peer - p_own + ps_target[..., None] / m_own * (onehot - p_own))
    grads = (1.0 - gamma) * g1 + gamma * g2
    return values, grads


def ce_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy of (B, C) logits against B labels; the gradient
    carries the 1/B factor and the logits' dtype.  The minibatch loss of
    the averaging strategies: like ``combined_loss`` it checks shapes only."""
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ValueError(f"logits {logits.shape} and labels {labels.shape} "
                         "must share one batch")
    values, grads = _ce_rows(log_softmax_rows(logits, 1.0), labels)
    return float(values.mean()), grads / logits.shape[0]


def cross_entropy(logits, label) -> tuple[float, np.ndarray]:
    """Cross entropy of a single logit vector against an integer label."""
    if np.ndim(logits) != 1:
        raise ValueError("cross_entropy takes a single logit vector")
    z = _as_logit_rows(logits, "logits")
    value, grads = ce_batch(z, _check_labels(label, z.shape[1]))
    return value, grads[0]


def _vector_pair(own_logits, peer_logits, tau: float, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Tempered log-softmaxes of an own and a peer logit vector, stacked
    (2, 1, C) own first, and their exps."""
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    own = _as_logit_rows(own_logits, "own_logits")
    peer = _as_logit_rows(peer_logits, "peer_logits")
    if own.shape != peer.shape or own.shape[0] != 1:
        raise ValueError(f"{name} takes two logit vectors of equal length")
    log = log_softmax_rows(np.concatenate((own, peer)), tau)[:, None]
    return log, np.exp(log)


def kd_loss(own_logits, peer_logits, tau: float, direction: str) -> tuple[float, np.ndarray]:
    """Temperature-scaled distillation loss between two logit vectors.

    Value is tau^2 * KL(peer || own) with the peer distribution detached;
    the gradient is with respect to ``own_logits``.  ``direction`` records
    which model is learning: ``toward_teacher`` when a student distills
    from its teacher, ``toward_student`` for the reverse update.
    """
    if direction not in (TOWARD_TEACHER, TOWARD_STUDENT):
        raise ValueError(f"unknown distillation direction {direction!r}")
    log, p = _vector_pair(own_logits, peer_logits, tau, "kd_loss")
    values, grads = _kd_rows(log[0], log[1], p[0], p[1], tau)
    return float(values[0]), grads[0]


def nkd_loss(own_logits, peer_logits, target, tau: float, gamma: float) -> tuple[float, np.ndarray]:
    """Decoupled distillation for one sample: the peer's target confidence
    weights a target cross-entropy term, and the remaining classes are
    renormalized (target mass excluded) and distilled separately with
    weight gamma.  Gradient is with respect to ``own_logits``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    log, p = _vector_pair(own_logits, peer_logits, tau, "nkd_loss")
    if log.shape[-1] < 2:
        raise ValueError("nkd_loss needs at least two classes")
    y = _check_labels(target, log.shape[-1])
    values, grads = _nkd_rows(log[0], p[0], p[1], y, tau, gamma)
    return float(values[0]), grads[0]


# feature rows are divided by max(norm, floor), as InfoNCE code does
CTL_NORM_FLOOR = 1e-12


def _ctl_pair(f: np.ndarray, tau: float) -> tuple[float, np.ndarray]:
    """Contrastive value and (2, B, D) feature gradients of a stacked pair,
    teacher anchors first.  A zero row scores zero against every row; its
    gradient is the upstream one over the floor, the clamped map's slope."""
    b = f.shape[1]
    norms = np.maximum(np.linalg.norm(f, axis=-1, keepdims=True), CTL_NORM_FLOOR)
    a = f / norms
    logq = log_softmax_rows(a[0] @ a[1].T, tau)
    value = float(-np.trace(logq) / b)

    w = (np.exp(logq) - np.eye(b, dtype=logq.dtype)) / (b * tau)
    g = np.stack((w @ a[1], w.T @ a[0]))
    # back through row normalization: project out the radial component
    return value, (g - (g * a).sum(axis=-1, keepdims=True) * a) / norms


def ctl_loss(teacher_feats, student_feats, tau: float) -> tuple[float, np.ndarray, np.ndarray]:
    """In-batch contrastive alignment between teacher and student features.

    Each teacher feature row is an anchor whose positive is the student
    feature at the same index; every student row in the batch serves as a
    candidate.  Returns the mean InfoNCE value and gradients for both
    feature arrays.  A zero-norm row is allowed; see ``_ctl_pair``.
    """
    if not tau > 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    ft = np.asarray(teacher_feats, dtype=np.float64)
    fs = np.asarray(student_feats, dtype=np.float64)
    if ft.ndim != 2 or ft.shape != fs.shape:
        raise ValueError(
            f"feature arrays must share one (B, D) shape, got {ft.shape} vs {fs.shape}"
        )
    if ft.shape[0] < 2:
        raise ValueError("contrastive loss needs a batch of at least 2")
    f = np.stack((ft, fs))
    if not np.isfinite(f).all():
        raise ValueError("features must be finite")
    value, g = _ctl_pair(f, tau)
    return value, g[0], g[1]


# one side's (value, grad_logits, grad_feats)
SideLoss = tuple[float, np.ndarray, np.ndarray]


def combined_loss(teacher_logits, student_logits, teacher_feats, student_feats,
                  labels, cfg: LossConfig) -> tuple[SideLoss, SideLoss]:
    """Batch objectives of both sides of the mutual-distillation pair.

    Each side's value = mean CE + kd_weight * mean KD + nkd_weight * mean
    NKD + ctl_weight * CTL (the two optional terms gated by the config
    switches), with the other side's outputs held constant.  The sides
    share ``ctl_loss(teacher_feats, student_feats)``: the teacher takes its
    anchor gradient, the student its candidate gradient.  Returns
    ``(value, grad_logits, grad_feats)`` for the teacher, then the student.
    Checks shapes only; the module docstring says what checks the values.
    """
    # (2, B, C) and (2, B, H), teacher first; each side's peer is the
    # reversed stack.  np.stack refuses sides of unequal shapes.
    z = np.stack((teacher_logits, student_logits))
    f = np.stack((teacher_feats, student_feats))
    if z.ndim != 3 or f.ndim != 3 or f.shape[1] != z.shape[1] or labels.shape != z.shape[1:2]:
        raise ValueError(f"logits {z.shape}, features {f.shape} and labels {labels.shape} "
                         "must share one batch")
    _, b, c = z.shape
    if cfg.enable_nkd and c < 2:
        raise ValueError("nkd term needs at least two classes")

    # one shift serves both temperatures: dividing it by 1.0 is exact
    shift = z - z.max(axis=-1, keepdims=True)
    log_tau = log_softmax_shifted(shift / cfg.tau)
    p = np.exp(log_tau)
    ce_vals, grads = _ce_rows(log_softmax_shifted(shift), labels)
    kd_vals, kd_grads = _kd_rows(log_tau, log_tau[::-1], p, p[::-1], cfg.tau)
    # a C-contiguous copy keeps each side's sum in the order of a 1-D mean
    values = (np.ascontiguousarray(ce_vals).sum(axis=-1) / b
              + cfg.kd_weight * (kd_vals.sum(axis=-1) / b))
    grads = (grads + cfg.kd_weight * kd_grads) / b
    if cfg.enable_nkd:
        nkd_vals, nkd_grads = _nkd_rows(log_tau, p, p[::-1], labels, cfg.tau, cfg.gamma)
        values += cfg.nkd_weight * (nkd_vals.sum(axis=-1) / b)
        grads += cfg.nkd_weight * nkd_grads / b

    # a single-row batch has no in-batch negatives; the contrastive term
    # drops out rather than erroring on the last short minibatch
    if cfg.enable_ctl and b >= 2:
        ctl_value, g_ctl = _ctl_pair(f, cfg.tau)
        values += cfg.ctl_weight * ctl_value
        grad_feats = cfg.ctl_weight * g_ctl
    else:
        grad_feats = np.zeros_like(f)
    return tuple((float(v), g, gf) for v, g, gf in zip(values, grads, grad_feats))
