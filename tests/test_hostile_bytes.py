"""Mutation fuzzing of the two byte formats read from outside a run: uplink
packets and checkpoints.  Every mutant of a valid input either decodes or
raises the format's own error, never anything else."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkdx.compression import (MODE_RAW, CodecError, CompressionPolicy,
                                compress_gradient, decode_packet, encode_packet)
from fedkdx.nn import (CheckpointError, LayerParam, ModelParams, build_mlp,
                       load_checkpoint, save_checkpoint)

# words that make a length, count or dim field huge, mid-sized or empty
HOSTILE_WORDS = (b"\xff\xff\xff\xff", struct.pack("<I", 0x00010000), b"\x00" * 4)


def _valid_packet() -> bytes:
    # the first entry's 1200 values are enough words for a dim count that a
    # flipped high bit makes larger than any array rank
    rng = np.random.default_rng(0)
    grads = ModelParams("mlp", [
        LayerParam("fc1.w", rng.normal(size=(40, 30))),
        LayerParam("fc1.b", np.zeros(5)),
        LayerParam("head.w", rng.normal(size=(12, 1)) @ rng.normal(size=(1, 5))),
    ])
    pkt, _ = compress_gradient(grads, 0.9, CompressionPolicy())
    assert [e.mode != MODE_RAW for e in pkt.entries] == [False, False, True]
    return encode_packet(pkt)


PACKET = _valid_packet()


@st.composite
def mutants(draw, blob: bytes) -> bytes:
    """One to three truncations, bit flips, appends or word overwrites."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("truncate", "flip", "append", "word")))
        if kind == "append":
            out += draw(st.binary(min_size=1, max_size=16))
        elif len(out) < 4:
            continue
        elif kind == "truncate":
            del out[draw(st.integers(0, len(out) - 1)):]
        elif kind == "flip":
            out[draw(st.integers(0, len(out) - 1))] ^= 1 << draw(st.integers(0, 7))
        else:
            at = draw(st.integers(0, len(out) - 4))
            out[at:at + 4] = draw(st.sampled_from(HOSTILE_WORDS))
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(mutants(PACKET))
def test_mutated_packets_decode_or_raise_codec_error(blob):
    try:
        pkt = decode_packet(blob)
    except CodecError:
        return
    # whatever decodes is a packet, and encodes back to the same bytes
    assert encode_packet(pkt) == blob


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(build_mlp(4, 3, seed=0), str(path))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoints_load_or_raise_checkpoint_error(checkpoint, data):
    blob = data.draw(mutants(checkpoint.read_bytes()))
    path = checkpoint.with_name("mutant.ckpt")
    path.write_bytes(blob)
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass
