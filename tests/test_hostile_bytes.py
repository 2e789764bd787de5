"""Mutation fuzzing of the bytes read from outside a run: uplink packets
and checkpoints, whose tensors are one packet behind a header.  Every
mutant of a valid input either decodes or raises the format's own error,
never anything else.  Label and subject
files whose ids do not fit int64, and labels beyond the six activities, are
refused with the loader's own error."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkdx.compression import (MODE_RAW, PACKET_MAGIC, CodecError, CompressionPolicy,
                                compress_gradient, decode_packet, encode_packet)
from fedkdx.data import DataError, load_ucihar
from fedkdx.nn import (CheckpointError, LayerParam, ModelParams, build_cnn_har,
                       build_mlp, load_checkpoint, save_checkpoint)
from helpers import write_fake_archive

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
def checkpoints(tmp_path_factory):
    """The paths of a float64 MLP checkpoint and of a float32 small-CNN one."""
    root = tmp_path_factory.mktemp("ckpt")
    out = {}
    for name, model in (("mlp", build_mlp(4, 3, seed=0)),
                        ("cnn", build_cnn_har(2, 28, 3, seed=0, dtype=np.float32))):
        out[name] = root / f"{name}.ckpt"
        save_checkpoint(model, str(out[name]))
    return out


def _load_mutant(path, data):
    blob = data.draw(mutants(path.read_bytes()))
    mutant = path.with_name("mutant.ckpt")
    mutant.write_bytes(blob)
    try:
        load_checkpoint(str(mutant))
    except CheckpointError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoints_load_or_raise_checkpoint_error(checkpoints, data):
    _load_mutant(checkpoints["mlp"], data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_float32_cnn_checkpoints_load_or_raise_checkpoint_error(checkpoints, data):
    _load_mutant(checkpoints["cnn"], data)


def _precision_offsets(blob: bytes) -> list[int]:
    """The offset of each tensor's precision byte in a checkpoint."""
    at = 10 + struct.unpack("<H", blob[8:10])[0]
    at += 4 + struct.unpack("<I", blob[at:at + 4])[0]
    entries = decode_packet(blob[at:]).entries
    at += len(PACKET_MAGIC) + 4  # magic, entry count
    offsets = []
    for e in entries:
        at += 2 + len(e.name.encode())
        offsets.append(at + 1)
        at += 2 + 4 + 4 * len(e.shape) + e.raw.nbytes
    assert at == len(blob)
    return offsets


@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_a_flipped_precision_code_loads_or_raises_checkpoint_error(checkpoints, tmp_path, arch):
    blob = checkpoints[arch].read_bytes()
    path = tmp_path / "flipped.ckpt"
    for at in _precision_offsets(blob):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[at] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                load_checkpoint(str(path))
            except CheckpointError:
                pass


# integral, so they pass the integer check, but an int64 cast would wrap them
@pytest.mark.parametrize("fname, text", [
    ("train/y_train.txt", "1\n1e20\n2\n"),
    ("test/subject_test.txt", "3\n-1e19\n"),
    ("train/subject_train.txt", "1\n2\n9223372036854775808\n"),
])
def test_ids_beyond_int64_are_refused_at_load(tmp_path, fname, text):
    root = write_fake_archive(str(tmp_path))
    with open(os.path.join(root, fname), "w") as fh:
        fh.write(text)
    with pytest.raises(DataError, match=os.path.basename(fname)
                       + ": an id lies beyond the 64-bit integer range"):
        load_ucihar(root)


def test_a_stray_label_beyond_the_activities_is_refused_at_load(tmp_path):
    # the model is sized by the largest label: 20001 would build 20001 classes
    root = write_fake_archive(str(tmp_path))
    path = os.path.join(root, "train", "y_train.txt")
    with open(path, "w") as fh:
        fh.write("1\n20001\n6\n")
    with pytest.raises(DataError, match="y_train.txt: labels count from 1 to 6, found 20001"):
        load_ucihar(root)
