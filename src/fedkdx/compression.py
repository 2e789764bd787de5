"""Energy-thresholded low-rank gradient compression.

Each gradient tensor is treated as a matrix G (conv kernels flatten to
filters x rest, and a wide matrix is transposed so it is tall, P x Q) and
truncated at the smallest rank whose retained squared-singular-value energy
strictly exceeds the threshold.  The factors come from a thin SVD of the
small Q x Q Gram matrix G'G; the exact energy the truncation keeps is
checked against the threshold, and a matrix that fails the check is
factored directly with a thin SVD of G.  A layer is only sent factored when
the factor payload is strictly smaller than the raw matrix; everything
else, including SVD non-convergence, falls back to a raw entry so a round
never aborts.

Packets travel in the byte format of ``wire``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SvdNonConvergence, thin_svd
from .nn import LayerParam, ModelParams
# the codec names too, which callers import from here
from .wire import (MODE_LOWRANK, MODE_LOWRANK_T, MODE_RAW, PACKET_MAGIC, WIRE_DTYPE,
                   CodecError, GradientPacket, PacketEntry, decode_packet, encode_packet,
                   packet_size_bytes, raw_entry)


@dataclass(frozen=True)
class CompressionPolicy:
    eps_start: float = 0.9
    eps_end: float = 0.9
    wire_precision: str = "f32"

    def __post_init__(self):
        problems = self.problems(self)
        if problems:
            raise ValueError("; ".join(problems))

    @staticmethod
    def problems(s) -> list[str]:
        """Each rule that ``s`` (any object with these fields) breaks, as ``field: message``."""
        problems = [f"{label}: must lie in (0, 1], got {v}"
                    for label, v in (("eps_start", s.eps_start), ("eps_end", s.eps_end))
                    if not 0.0 < v <= 1.0]
        if s.wire_precision not in WIRE_DTYPE:
            problems.append(f"wire_precision: must be f32 or f64, got {s.wire_precision!r}")
        return problems


def dynamic_threshold(rho: float, policy: CompressionPolicy) -> float:
    """Linear schedule between the endpoint thresholds as training advances."""
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return policy.eps_start + (policy.eps_end - policy.eps_start) * rho


def select_rank(sigma: np.ndarray, eps: float) -> int:
    """Smallest rank whose cumulative squared energy strictly exceeds eps.

    Returns 0 for an all-zero spectrum (the caller sends the layer raw); a
    threshold no prefix can strictly exceed keeps every component.  The
    caller has checked eps in (0, 1], as ``CompressionPolicy`` does.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValueError("sigma must be a non-empty vector")
    # a non-increasing vector is non-negative when its last entry is; NaN fails both
    if not (sigma[-1] >= 0 and (sigma[:-1] >= sigma[1:]).all()):
        raise ValueError("sigma must be non-negative and non-increasing")
    energy = sigma * sigma
    total = energy.sum()
    if total == 0.0:
        return 0
    # the cumulative share never decreases, so the satisfied prefixes form a suffix
    satisfied = np.count_nonzero(energy.cumsum() / total > eps)
    return sigma.size - satisfied + 1 if satisfied else sigma.size


def _working_matrix(values: np.ndarray) -> np.ndarray:
    # conv kernels and anything higher-dimensional: first axis vs the rest
    return values.reshape(values.shape[0], -1)


def _truncated_factors(work: np.ndarray, eps: float):
    """(u, sigma, v) of the rank select_rank keeps for a tall P x Q matrix
    ``work``, with ``(u * sigma) @ v.T`` the part that is sent; all three
    are empty along the rank axis for a zero matrix.

    The factors come from the Q x Q Gram matrix: with V the right singular
    vectors of G'G and r the rank its spectrum gives, what is sent is
    G V_r V_r', the orthogonal projection of G onto span(V_r), so its error
    is ||G||^2 - ||G V_r||^2 exactly.  The rank is kept only when that
    certificate meets the threshold and no kept direction is null; any
    other matrix, and one whose Gram trace is zero or overflows, is
    factored directly.
    """
    gram = work.T @ work
    total = gram.trace()
    if 0.0 < total < np.inf:
        _, lam, v = thin_svd(gram)
        r = select_rank(np.sqrt(lam), eps)
        v = v[:, :r]
        gv = work @ v
        kept = np.einsum("ij,ij->j", gv, gv)
        if kept.sum() > eps * total and kept.all():
            sigma = np.sqrt(kept)
            return gv / sigma, sigma, v
    u, sigma, v = thin_svd(work)
    r = select_rank(sigma, eps)
    return u[:, :r], sigma[:r], v[:, :r]


def compress_layer(name: str, values: np.ndarray, eps: float,
                   precision: str) -> tuple[PacketEntry, bool]:
    """Build the packet entry for one tensor.

    Returns (entry, svd_failed).  Vectors and scalars always go raw; a
    factored form is emitted only when it strictly beats the raw payload
    in value count.  The factors are computed in float64 whatever the
    tensor's dtype.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"layer {name!r} has non-finite values")
    if values.ndim < 2:
        return raw_entry(name, values, precision), False

    work = _working_matrix(values)
    transposed = work.shape[0] < work.shape[1]
    if transposed:
        work = work.T
    p, q = work.shape

    try:
        u, sigma, v = _truncated_factors(work, eps)
    except SvdNonConvergence:
        return raw_entry(name, values, precision), True

    r = sigma.size
    if r == 0 or p * r + r * r + r * q >= p * q:
        return raw_entry(name, values, precision), False

    dtype = WIRE_DTYPE[precision]
    return PacketEntry(
        name, tuple(values.shape),
        MODE_LOWRANK_T if transposed else MODE_LOWRANK, precision,
        rank=r,
        u=np.ascontiguousarray(u, dtype=dtype),
        sigma=np.ascontiguousarray(sigma, dtype=dtype),
        vt=np.ascontiguousarray(v.T, dtype=dtype),
    ), False


def compress_gradient(grads: ModelParams, eps: float,
                      policy: CompressionPolicy) -> tuple[GradientPacket, int]:
    """Compress every layer of a gradient under one threshold.

    Returns the packet and how many layers went raw because their SVD
    failed.
    """
    pkt = GradientPacket()
    svd_fallbacks = 0
    for layer in grads.layers:
        entry, failed = compress_layer(layer.name, layer.values, eps, policy.wire_precision)
        pkt.entries.append(entry)
        svd_fallbacks += failed
    return pkt, svd_fallbacks


def raw_packet(grads: ModelParams, policy: CompressionPolicy) -> GradientPacket:
    """Uncompressed packet: every layer as raw values at the wire precision."""
    return GradientPacket([raw_entry(l.name, l.values, policy.wire_precision)
                           for l in grads.layers])


def decompress(pkt: GradientPacket, template: ModelParams) -> ModelParams:
    """Reconstruct a gradient with the template's layer structure, each
    layer in its template layer's dtype: a factored one is multiplied out
    in that dtype, and a raw one already in it shares the entry's memory."""
    if [e.name for e in pkt.entries] != template.names():
        raise ValueError(
            f"packet layers {[e.name for e in pkt.entries]} do not match "
            f"template {template.names()}")
    out = []
    for entry, layer in zip(pkt.entries, template.layers):
        if entry.shape != layer.values.shape:
            raise ValueError(
                f"layer {entry.name!r}: packet shape {entry.shape} != "
                f"expected {layer.values.shape}")
        dtype = layer.values.dtype
        if entry.mode == MODE_RAW:
            rec = entry.raw.astype(dtype, copy=False).reshape(entry.shape)
        else:
            u, s, vt = (a.astype(dtype, copy=False) for a in (entry.u, entry.sigma, entry.vt))
            rec = (u * s) @ vt
            if entry.mode == MODE_LOWRANK_T:
                rec = rec.T
            rec = rec.reshape(entry.shape)
        out.append(LayerParam(entry.name, rec))
    return ModelParams(template.arch, out, dict(template.meta))
