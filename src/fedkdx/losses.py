"""Training objectives for the mutual-distillation pair.

Every loss has analytic gradients, so the networks never need an autograd
engine.  Distillation terms always treat the peer model's outputs as
constants: gradients flow only into the first (own) argument.

Each term has a value kernel and a gradient kernel over (..., B, C) row
stacks, own side first (cross entropy's gradient is the softmax minus the
target mask, written where it is used); a side's peer is the stack reversed along its
leading axis.  ``combined_loss`` stacks the teacher and student logits into
one (2, B, C) array, teacher first, so each kernel runs once for both sides.

The minibatch losses return gradients only, since the clients read nothing
else: ``combined_loss`` each side's logit and feature gradients,
``ce_batch`` the logit gradient.  The objective's values come from
``combined_value``, which runs the value kernels on the same prepared
stack, and from the one-sample losses, which keep their (value, gradient)
API and call both kernels of a term.

The minibatch losses compute in the dtype of the logits and features they
are given: float32 for the CNN, float64 for the MLP.  The one-sample losses
and ``ctl_loss`` cast their arguments to float64.

Values are checked where they enter.  The one-sample losses and
``ctl_loss`` check their arguments.  ``combined_loss``, ``combined_value``,
``ce_batch`` and the kernels check shapes only: the loaders check data
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
        problems = self.problems(self)
        if problems:
            raise ValueError("; ".join(problems))

    @staticmethod
    def problems(s) -> list[str]:
        """Each rule that ``s`` (any object with these fields) breaks, as ``field: message``."""
        problems = []
        if not s.tau > 0:
            problems.append(f"tau: must be positive, got {s.tau}")
        if not 0.0 <= s.gamma <= 1.0:
            problems.append(f"gamma: must lie in [0, 1], got {s.gamma}")
        for name in ("kd_weight", "nkd_weight", "ctl_weight"):
            w = getattr(s, name)
            if not w >= 0:
                problems.append(f"{name}: must be non-negative, got {w}")
        return problems


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


def _onehot(labels: np.ndarray, shape: tuple[int, ...], dtype) -> np.ndarray:
    """(B, C) mask of B labels, 1 at each row's target: the target mask of
    every kernel, broadcast over a stack's leading axis."""
    onehot = np.zeros(shape[-2:], dtype)
    onehot[np.arange(shape[-2]), labels] = 1.0
    return onehot


def _target(a: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's entry at its label: (..., B) from (..., B, C)."""
    return a[..., np.arange(a.shape[-2]), labels]


def _ce_values(logp: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row cross entropy (..., B) from temperature-1 log-softmaxes."""
    return -_target(logp, labels)


def _kd_values(log_tau: np.ndarray, p: np.ndarray, tau: float) -> np.ndarray:
    """Per-row tau^2-scaled KL(peer || own) from the tempered log-softmaxes
    of a stack and their exps; the peer is a constant reference."""
    p_peer = p[::-1]
    contrib = np.where(p_peer > 0.0, p_peer * (log_tau[::-1] - log_tau), 0.0)
    return tau * tau * contrib.sum(axis=-1)


def _kd_grads(p: np.ndarray, tau: float) -> np.ndarray:
    """Per-row gradients of ``_kd_values`` in the own logits."""
    return tau * (p - p[::-1])


def _non_target(p: np.ndarray, labels: np.ndarray,
                onehot: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stack's target probabilities (..., B), its non-target masses
    (..., B, 1) clamped at the floor, and the renormalized non-target
    distributions (..., B, C), zero at the target."""
    target = _target(p, labels)
    mass = np.maximum(1.0 - target, PROB_FLOOR)[..., None]
    return target, mass, np.where(onehot == 0.0, p / mass, 0.0)


def _nkd_values(log_tau: np.ndarray, labels: np.ndarray, onehot: np.ndarray,
                split, tau: float, gamma: float) -> np.ndarray:
    """Per-row decoupled distillation: a target-confidence term plus a
    tau^2-scaled cross entropy between the renormalized non-target masses
    of peer and own distributions, given the tempered log-softmaxes and
    ``_non_target`` of the stack."""
    target, _, n = split
    term1 = -target[::-1] * _target(log_tau, labels)
    log_n_own = np.log(np.maximum(n, PROB_FLOOR))
    term2 = -(np.where(onehot == 0.0, n[::-1] * log_n_own, 0.0)).sum(axis=-1)
    return (1.0 - gamma) * term1 + gamma * tau * tau * term2


def _nkd_grads(p: np.ndarray, onehot: np.ndarray, split, tau: float,
               gamma: float) -> np.ndarray:
    target, mass, n = split
    d = onehot - p
    # d(term1)/dz_j = -pt_target * (delta_{target,j} - p_own_j) / tau
    g1 = -(target[::-1, ..., None]) * d / tau
    # d(term2 * tau^2)/dz_j = -tau * (n_peer_j - p_own_j
    #                                 + (p_own_target / m_own)(delta - p_own_j))
    g2 = -tau * (n[::-1] - p + target[..., None] / mass * d)
    return (1.0 - gamma) * g1 + gamma * g2


def ce_batch(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross entropy of (B, C) logits against B labels;
    it carries the 1/B factor and the logits' dtype.  The minibatch loss of
    the averaging strategies: like ``combined_loss`` it checks shapes only."""
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ValueError(f"logits {logits.shape} and labels {labels.shape} "
                         "must share one batch")
    # a row's cross-entropy gradient is its softmax minus its target mask
    grads = np.exp(log_softmax_rows(logits, 1.0)) - _onehot(labels, logits.shape, logits.dtype)
    grads /= logits.shape[0]
    return grads


def cross_entropy(logits, label) -> tuple[float, np.ndarray]:
    """Cross entropy of a single logit vector against an integer label."""
    if np.ndim(logits) != 1:
        raise ValueError("cross_entropy takes a single logit vector")
    z = _as_logit_rows(logits, "logits")
    y = _check_labels(label, z.shape[1])
    logp = log_softmax_rows(z, 1.0)
    return float(_ce_values(logp, y)[0]), (np.exp(logp) - _onehot(y, z.shape, z.dtype))[0]


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
    return float(_kd_values(log, p, tau)[0, 0]), _kd_grads(p, tau)[0, 0]


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
    onehot = _onehot(y, log.shape, log.dtype)
    split = _non_target(p, y, onehot)
    return (float(_nkd_values(log, y, onehot, split, tau, gamma)[0, 0]),
            _nkd_grads(p, onehot, split, tau, gamma)[0, 0])


# feature rows are divided by max(norm, floor), as InfoNCE code does
CTL_NORM_FLOOR = 1e-12


def _ctl_scores(f: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stacked (2, B, D) feature pair, teacher anchors first: the row
    norms clamped at the floor, the normalized rows, and each anchor's
    log-softmax over the candidates (B, B).  A zero row scores zero
    against every row."""
    # np.linalg.norm's own steps along one axis
    norms = np.maximum(np.sqrt(np.add.reduce(f * f, axis=-1, keepdims=True)),
                       CTL_NORM_FLOOR)
    a = f / norms
    return norms, a, log_softmax_rows(a[0] @ a[1].T, tau)


def _ctl_value(logq: np.ndarray) -> float:
    return float(-np.trace(logq) / logq.shape[0])


def _ctl_grads(norms: np.ndarray, a: np.ndarray, logq: np.ndarray,
               tau: float) -> np.ndarray:
    """(2, B, D) feature gradients of the contrastive value.  A zero row's
    gradient is the upstream one over the floor, the clamped map's slope."""
    b = logq.shape[0]
    # minus the positives on the diagonal; exp's output is C-ordered, so
    # ravel is a view
    w = np.exp(logq)
    w.ravel()[::b + 1] -= 1.0
    w /= b * tau
    g = np.empty_like(a)
    np.matmul(w, a[1], out=g[0])
    np.matmul(w.T, a[0], out=g[1])
    # back through row normalization: project out the radial component
    g -= (g * a).sum(axis=-1, keepdims=True) * a
    g /= norms
    return g


def ctl_loss(teacher_feats, student_feats, tau: float) -> tuple[float, np.ndarray, np.ndarray]:
    """In-batch contrastive alignment between teacher and student features.

    Each teacher feature row is an anchor whose positive is the student
    feature at the same index; every student row in the batch serves as a
    candidate.  Returns the mean InfoNCE value and gradients for both
    feature arrays.  A zero-norm row is allowed; see ``_ctl_scores``.
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
    norms, a, logq = _ctl_scores(f, tau)
    g = _ctl_grads(norms, a, logq, tau)
    return _ctl_value(logq), g[0], g[1]


# one side's (grad_logits, grad_feats)
SideGrads = tuple[np.ndarray, np.ndarray]


@dataclass
class _Pair:
    """A minibatch of both sides, stacked teacher first, with what both the
    value and the gradient kernels read from it."""
    f: np.ndarray          # (2, B, H) features
    log_tau: np.ndarray    # (2, B, C) log-softmax at temperature tau
    p: np.ndarray          # its exp
    logp: np.ndarray       # (2, B, C) log-softmax at temperature 1
    soft: np.ndarray       # its exp
    onehot: np.ndarray     # (B, C) target mask
    split: tuple | None    # ``_non_target`` of p when the NKD term is on
    ctl: bool              # the contrastive term is on and has negatives

    @property
    def b(self) -> int:
        return self.p.shape[1]


def _pair(teacher_logits, student_logits, teacher_feats, student_feats,
          labels, cfg: LossConfig) -> _Pair:
    # (2, B, C) and (2, B, H), teacher first; each side's peer is the
    # reversed stack.  np.array refuses sides of unequal shapes.
    z = np.array((teacher_logits, student_logits))
    f = np.array((teacher_feats, student_feats))
    if z.ndim != 3 or f.ndim != 3 or f.shape[1] != z.shape[1] or labels.shape != z.shape[1:2]:
        raise ValueError(f"logits {z.shape}, features {f.shape} and labels {labels.shape} "
                         "must share one batch")
    if cfg.enable_nkd and z.shape[2] < 2:
        raise ValueError("nkd term needs at least two classes")

    # one shift serves both temperatures, stacked tau first, so one pass of
    # each kernel serves both; the temperature-1 half is the shift itself,
    # as dividing by 1.0 is exact
    shift = np.empty((2, *z.shape), z.dtype)
    np.subtract(z, z.max(axis=-1, keepdims=True), out=shift[1])
    np.divide(shift[1], cfg.tau, out=shift[0])
    logs = log_softmax_shifted(shift)
    probs = np.exp(logs)
    onehot = _onehot(labels, z.shape, z.dtype)
    # a single-row batch has no in-batch negatives; the contrastive term
    # drops out rather than erroring on the last short minibatch
    return _Pair(f, logs[0], probs[0], logs[1], probs[1], onehot,
                 _non_target(probs[0], labels, onehot) if cfg.enable_nkd else None,
                 cfg.enable_ctl and z.shape[1] >= 2)


def combined_loss(teacher_logits, student_logits, teacher_feats, student_feats,
                  labels, cfg: LossConfig) -> tuple[SideGrads, SideGrads]:
    """Gradients of both sides' batch objectives (see ``combined_value``):
    ``(grad_logits, grad_feats)`` for the teacher, then the student.  The
    teacher takes the contrastive anchor gradient, the student the
    candidate one.  Checks shapes only; the module docstring says what
    checks the values.
    """
    s = _pair(teacher_logits, student_logits, teacher_feats, student_feats, labels, cfg)
    grads = s.soft - s.onehot   # cross entropy
    grads += cfg.kd_weight * _kd_grads(s.p, cfg.tau)
    grads /= s.b
    if s.split is not None:
        grads += cfg.nkd_weight * _nkd_grads(s.p, s.onehot, s.split, cfg.tau, cfg.gamma) / s.b
    if s.ctl:
        grad_feats = cfg.ctl_weight * _ctl_grads(*_ctl_scores(s.f, cfg.tau), cfg.tau)
    else:
        grad_feats = np.zeros_like(s.f)
    return (grads[0], grad_feats[0]), (grads[1], grad_feats[1])


def combined_value(teacher_logits, student_logits, teacher_feats, student_feats,
                   labels, cfg: LossConfig) -> tuple[float, float]:
    """Batch objectives of both sides of the mutual-distillation pair,
    teacher first.

    Each side's value = mean CE + kd_weight * mean KD + nkd_weight * mean
    NKD + ctl_weight * CTL (the two optional terms gated by the config
    switches, CTL also by a batch of two rows or more), with the other
    side's outputs held constant.  The sides share ``ctl_loss(teacher_feats,
    student_feats)``.  Checks shapes only, as ``combined_loss`` does.
    """
    s = _pair(teacher_logits, student_logits, teacher_feats, student_feats, labels, cfg)
    b = s.b
    # a C-contiguous copy keeps each side's sum in the order of a 1-D mean
    values = (np.ascontiguousarray(_ce_values(s.logp, labels)).sum(axis=-1) / b
              + cfg.kd_weight * (_kd_values(s.log_tau, s.p, cfg.tau).sum(axis=-1) / b))
    if s.split is not None:
        nkd = _nkd_values(s.log_tau, labels, s.onehot, s.split, cfg.tau, cfg.gamma)
        values += cfg.nkd_weight * (nkd.sum(axis=-1) / b)
    if s.ctl:
        values += cfg.ctl_weight * _ctl_value(_ctl_scores(s.f, cfg.tau)[2])
    return float(values[0]), float(values[1])
