"""The one byte format for named tensors, and bounded reads over untrusted
bytes.

A packet is magic ``FKDG0001``, u32 entry count, then per entry a
u16-length-prefixed UTF-8 name, u8 mode, u8 precision, u32 dim count (at
most 64) + u32 dims (original tensor shape), and the payload in
little-endian row-major order (low-rank payloads carry u32 R, then U,
sigma, V).  Gradient packets and checkpoints both carry their tensors this
way, and ``decode_packet`` is their one parser: it rejects a non-finite
value, so a poisoned uplink fails before the server applies anything.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

PACKET_MAGIC = b"FKDG0001"

MODE_RAW = 0
MODE_LOWRANK = 1
MODE_LOWRANK_T = 2

_PRECISION_CODE = {"f32": 0, "f64": 1}
_PRECISION_NAME = {v: k for k, v in _PRECISION_CODE.items()}
WIRE_DTYPE = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}

# numpy's limit on array rank; a stored shape with more dims is corrupt
MAX_DIMS = 64


class CodecError(ValueError):
    """Packet bytes are malformed."""


class ByteReader:
    """Bounded reads over untrusted bytes, raising the format's own error
    class.  Lengths are checked before anything is sliced or allocated, and
    element counts are Python ints, so a hostile shape cannot wrap to 0."""

    def __init__(self, buf: bytes, error: type[Exception]):
        # a view, so that taking a slice copies nothing
        self.buf, self.pos, self.error = memoryview(buf), 0, error

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.buf):
            raise self.error(f"truncated {what}: wanted {n} bytes at offset {self.pos}, "
                             f"have {len(self.buf) - self.pos}")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def rest(self) -> memoryview:
        return self.take(len(self.buf) - self.pos, "remainder")

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        try:
            return str(self.take(n, what), "utf-8")
        except UnicodeDecodeError as e:
            raise self.error(f"{what} is not UTF-8: {e}") from e

    def shape(self, what: str) -> tuple[tuple[int, ...], int]:
        """A u32 dim count, then that many u32 dims; returns (dims, element count)."""
        (ndim,) = self.unpack("<I", f"{what} dim count")
        if ndim > MAX_DIMS:
            raise self.error(f"{what}: {ndim} dims, at most {MAX_DIMS}")
        dims = self.unpack(f"<{ndim}I", f"{what} dims") if ndim else ()
        return dims, math.prod(dims)

    def array(self, count: int, dtype: np.dtype, what: str) -> np.ndarray:
        return np.frombuffer(self.take(count * dtype.itemsize, what), dtype=dtype).copy()

    def finish(self, what: str) -> None:
        if self.pos != len(self.buf):
            raise self.error(f"{len(self.buf) - self.pos} trailing bytes after last {what}")


@dataclass
class PacketEntry:
    """One named tensor of a packet; arrays live in the wire dtype so
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


def raw_entry(name: str, values: np.ndarray, precision: str) -> PacketEntry:
    """``values`` as a raw entry at ``precision``, "f32" or "f64"."""
    wire = np.ascontiguousarray(values, dtype=WIRE_DTYPE[precision])
    return PacketEntry(name, tuple(values.shape), MODE_RAW, precision, raw=wire)


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
        # C-contiguous arrays are bytes-like: the join is their one copy
        if e.mode == MODE_RAW:
            out.append(np.ascontiguousarray(e.raw))
        else:
            out.append(struct.pack("<I", e.rank))
            out.extend(np.ascontiguousarray(a) for a in (e.u, e.sigma, e.vt))
    return b"".join(out)


def decode_packet(buf: bytes) -> GradientPacket:
    r = ByteReader(buf, CodecError)
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
        dtype = WIRE_DTYPE[precision]
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
