"""Energy-thresholded low-rank gradient compression and its wire codec.

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

The byte format is fixed and bit-exact: magic ``FKDG0001``, u32 entry
count, then per entry a u16-length-prefixed UTF-8 name, u8 mode, u8
precision, u32 dim count (at most 64) + u32 dims (original tensor shape),
and the payload in little-endian row-major order (low-rank payloads carry
u32 R, then U, sigma, V).  Decoding rejects a non-finite value, so a
poisoned uplink fails before the server applies anything.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .linalg import SvdNonConvergence, thin_svd
from .nn import ByteReader, LayerParam, ModelParams

PACKET_MAGIC = b"FKDG0001"

MODE_RAW = 0
MODE_LOWRANK = 1
MODE_LOWRANK_T = 2

_PRECISION_CODE = {"f32": 0, "f64": 1}
_PRECISION_NAME = {v: k for k, v in _PRECISION_CODE.items()}
_WIRE_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


class CodecError(ValueError):
    """Packet bytes are malformed."""


@dataclass(frozen=True)
class CompressionPolicy:
    eps_start: float = 0.9
    eps_end: float = 0.9
    wire_precision: str = "f32"

    def __post_init__(self):
        for label, v in (("eps_start", self.eps_start), ("eps_end", self.eps_end)):
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{label} must lie in (0, 1], got {v}")
        if self.wire_precision not in _WIRE_DTYPE:
            raise ValueError(f"wire_precision must be f32 or f64, got {self.wire_precision!r}")


def dynamic_threshold(rho: float, policy: CompressionPolicy) -> float:
    """Linear schedule between the endpoint thresholds as training advances."""
    if not (0.0 <= rho <= 1.0):
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return policy.eps_start + (policy.eps_end - policy.eps_start) * rho


def select_rank(sigma: np.ndarray, eps: float) -> int:
    """Smallest rank whose cumulative squared energy strictly exceeds eps.

    Returns 0 for an all-zero spectrum (the caller sends the layer raw); a
    threshold no prefix can strictly exceed keeps every component.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 1 or sigma.size == 0:
        raise ValueError("sigma must be a non-empty vector")
    # a non-increasing vector is non-negative when its last entry is; NaN fails both
    if not (sigma[-1] >= 0 and (sigma[:-1] >= sigma[1:]).all()):
        raise ValueError("sigma must be non-negative and non-increasing")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    energy = sigma * sigma
    total = energy.sum()
    if total == 0.0:
        return 0
    # the cumulative share never decreases, so the satisfied prefixes form a suffix
    satisfied = np.count_nonzero(energy.cumsum() / total > eps)
    return sigma.size - satisfied + 1 if satisfied else sigma.size


@dataclass
class PacketEntry:
    """One layer of a gradient packet; arrays live in the wire dtype so
    encoding is a plain byte copy."""

    name: str
    shape: tuple[int, ...]
    mode: int
    precision: str
    raw: np.ndarray | None = None     # MODE_RAW: values in the original shape
    rank: int = 0
    u: np.ndarray | None = None       # (P, R) of the working matrix
    sigma: np.ndarray | None = None   # (R,)
    vt: np.ndarray | None = None      # (R, Q) of the working matrix


@dataclass
class GradientPacket:
    entries: list[PacketEntry] = field(default_factory=list)


def _working_matrix(values: np.ndarray) -> np.ndarray:
    # conv kernels and anything higher-dimensional: first axis vs the rest
    return values.reshape(values.shape[0], -1)


def _raw_entry(name: str, values: np.ndarray, precision: str) -> PacketEntry:
    wire = np.ascontiguousarray(values, dtype=_WIRE_DTYPE[precision])
    return PacketEntry(name, tuple(values.shape), MODE_RAW, precision, raw=wire)


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
        return _raw_entry(name, values, precision), False

    work = _working_matrix(values)
    transposed = work.shape[0] < work.shape[1]
    if transposed:
        work = work.T
    p, q = work.shape

    try:
        u, sigma, v = _truncated_factors(work, eps)
    except SvdNonConvergence:
        return _raw_entry(name, values, precision), True

    r = sigma.size
    if r == 0 or p * r + r * r + r * q >= p * q:
        return _raw_entry(name, values, precision), False

    dtype = _WIRE_DTYPE[precision]
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
    return GradientPacket([_raw_entry(l.name, l.values, policy.wire_precision)
                           for l in grads.layers])


def decompress(pkt: GradientPacket, template: ModelParams) -> ModelParams:
    """Reconstruct a gradient with the template's layer structure, each
    layer in its template layer's dtype: a factored one is multiplied out
    in that dtype."""
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
            rec = entry.raw.astype(dtype).reshape(entry.shape)
        else:
            u, s, vt = (a.astype(dtype, copy=False) for a in (entry.u, entry.sigma, entry.vt))
            rec = (u * s) @ vt
            if entry.mode == MODE_LOWRANK_T:
                rec = rec.T
            rec = rec.reshape(entry.shape)
        out.append(LayerParam(entry.name, rec))
    return ModelParams(template.arch, out, dict(template.meta))


# ------------------------------------------------------------------ codec

def packet_size_bytes(pkt: GradientPacket) -> int:
    """Length of the packet on the wire."""
    return len(encode_packet(pkt))


def encode_packet(pkt: GradientPacket) -> bytes:
    out = [PACKET_MAGIC, struct.pack("<I", len(pkt.entries))]
    for e in pkt.entries:
        nb = e.name.encode("utf-8")
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<BB", e.mode, _PRECISION_CODE[e.precision]))
        out.append(struct.pack("<I", len(e.shape)))
        out.append(struct.pack(f"<{len(e.shape)}I", *e.shape))
        if e.mode == MODE_RAW:
            out.append(np.ascontiguousarray(e.raw).tobytes())
        else:
            out.append(struct.pack("<I", e.rank))
            for arr in (e.u, e.sigma, e.vt):
                out.append(np.ascontiguousarray(arr).tobytes())
    return b"".join(out)


def decode_packet(buf: bytes) -> GradientPacket:
    r = ByteReader(buf, CodecError, "<I")
    if r.take(len(PACKET_MAGIC), "packet magic") != PACKET_MAGIC:
        raise CodecError(f"bad magic, expected {PACKET_MAGIC!r}")
    (count,) = r.unpack("<I", "entry count")
    entries = []
    for i in range(count):
        (name_len,) = r.unpack("<H", f"entry {i} name length")
        name = r.text(name_len, f"entry {i} layer name")
        mode, prec_code = r.unpack("<BB", f"layer {name!r} header")
        if mode not in (MODE_RAW, MODE_LOWRANK, MODE_LOWRANK_T):
            raise CodecError(f"layer {name!r}: unknown mode {mode}")
        if prec_code not in _PRECISION_NAME:
            raise CodecError(f"layer {name!r}: unknown precision code {prec_code}")
        precision = _PRECISION_NAME[prec_code]
        dtype = _WIRE_DTYPE[precision]
        shape, size = r.shape(f"layer {name!r}")

        if mode == MODE_RAW:
            values = r.array(size, dtype, f"layer {name!r} values").reshape(shape)
            entries.append(PacketEntry(name, shape, mode, precision, raw=values))
            continue

        if not shape:
            raise CodecError(f"layer {name!r}: low-rank entry cannot be a scalar")
        p = shape[0]
        q = size // p if p else 0
        if mode == MODE_LOWRANK_T:
            p, q = q, p
        (rank,) = r.unpack("<I", f"layer {name!r} rank")
        if rank < 1 or rank > min(p, q):
            raise CodecError(f"layer {name!r}: rank {rank} invalid for {p}x{q}")
        u = r.array(p * rank, dtype, f"layer {name!r} U").reshape(p, rank)
        sigma = r.array(rank, dtype, f"layer {name!r} sigma")
        vt = r.array(rank * q, dtype, f"layer {name!r} V").reshape(rank, q)
        entries.append(PacketEntry(name, shape, mode, precision,
                                   rank=rank, u=u, sigma=sigma, vt=vt))
    r.finish("entry")
    for e in entries:
        if not all(np.isfinite(a).all() for a in (e.raw, e.u, e.sigma, e.vt) if a is not None):
            raise CodecError(f"layer {e.name!r} has non-finite values")
    return GradientPacket(entries)
