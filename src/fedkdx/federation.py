"""Round-based federated training.

One round: sample participants, run each one's local step (mutual
distillation for the distilling strategies, plain local SGD for the
averaging ones), ship the results uplink through the packet codec,
aggregate on the server, and ship the aggregate back downlink.  The server
and every client share one student model.  The server updates it once per
round with the reconstruction of the downlink packet; the codec round-trips
bitwise, so that is exactly what a client decoding the downlink bytes would
apply, and one copy stands for all.

The server folds each uplink into the aggregate as it arrives, in
ascending client order, and drops it before it takes the next; one uplink
and one aggregate are alive at a time, so a round's memory does not grow
with its participants.  ``run_round`` fixes every participant's weight
before any client runs.

Clients inside a round may execute on a thread pool.  ``forward`` and
``backward`` never write a model; a model's owner stores what they return
or, for ``backward``, what it hands over one layer at a time.
Each client owns its rng and, when distilling, its teacher, and only
reads the shared student; the averaging strategies train a private copy.
Folding in client-id order keeps results independent of thread count.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import metrics as mt
from .compression import (CompressionPolicy, compress_gradient, decode_packet,
                          decompress, dynamic_threshold, encode_packet, raw_packet)
from .linalg import softmax_rows
from .losses import LossConfig, ce_batch, combined_loss
from .nn import (Model, ModelParams, backward, forward, iadd_scaled, params_iadd_scaled,
                 widest_row_bytes)

STRATEGY_FEDAVG = "FEDAVG"
STRATEGY_FEDPROX = "FEDPROX"
STRATEGY_FEDKD = "FEDKD"
STRATEGY_FEDKDX = "FEDKDX"
STRATEGIES = (STRATEGY_FEDAVG, STRATEGY_FEDPROX, STRATEGY_FEDKD, STRATEGY_FEDKDX)

_DISTILLING = (STRATEGY_FEDKD, STRATEGY_FEDKDX)

# fixed stream tags: every random decision in a run draws from
# default_rng(SeedSequence([global_seed, tag, ...])) so streams never collide
STREAM_SAMPLER = 1
STREAM_PARTITION = 2
STREAM_DATA = 3
STREAM_STUDENT_INIT = 4
STREAM_TEACHER_INIT = 5
STREAM_CLIENT = 6


def derive_rng(global_seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([global_seed, *tags]))


def derive_seed(global_seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([global_seed, *tags]).generate_state(1)[0])


class RoundError(RuntimeError):
    """A round could not complete; carries the offending client where known."""


@dataclass
class ClientState:
    """One client's private state; ``teacher`` is None for averaging strategies."""
    client_id: int
    teacher: Model | None           # private; never serialized
    student_view: Model             # the shared student; read-only here
    x_train: np.ndarray
    y_train: np.ndarray
    rng: np.random.Generator        # minibatch shuffles, owned exclusively
    teacher_lr: float
    batch_size: int

    @property
    def num_train(self) -> int:
        return self.x_train.shape[0]


@dataclass
class ServerState:
    """The server's side of a run; ``config`` has checked its strategy,
    ``total_rounds`` >= 1 and ``join_ratio`` in (0, 1]."""
    student: Model
    strategy: str
    policy: CompressionPolicy
    total_rounds: int
    join_ratio: float
    student_lr: float
    sampler_rng: np.random.Generator  # a derived stream, never OS entropy
    compress: bool = True
    fedprox_mu: float = 0.0         # the proximal weight; 0 for all but FEDPROX
    local_epochs: int = 1
    round_index: int = 1            # next round to run, 1-based


@dataclass
class RoundRecord:
    round: int
    strategy: str
    participants: tuple[int, ...]
    accuracy: float
    f1_macro: float
    recall_macro: float
    auc_macro: float
    bytes_up: int
    bytes_down: int
    wall_seconds: float
    svd_fallbacks: int


def sample_clients(client_ids: list[int], join_ratio: float,
                   rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform sample without replacement, at least one, ids ascending.
    The caller has checked that ``client_ids`` is not empty and that
    ``join_ratio`` lies in (0, 1], as ``PartitionSpec`` and ``config`` do."""
    k = len(client_ids)
    m = max(1, int(np.floor(join_ratio * k + 0.5)))
    picked = rng.choice(np.sort(np.asarray(client_ids)), size=m, replace=False)
    return tuple(int(c) for c in np.sort(picked))


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Index slices covering one shuffled pass; the last slice may be short."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def client_local_step_fedkdx(state: ClientState, student: Model,
                             cfg: LossConfig) -> ModelParams:
    """One local epoch of mutual distillation.

    Per minibatch: forward teacher (training mode) and student (evaluation
    mode, reading the teacher's conv1 patches), evaluate both sides'
    objectives on those outputs, store the teacher's new running
    statistics, then backpropagate each side, stepping the teacher and
    accumulating the student's gradient one layer at a time as backward
    hands it over.  A step holds one trace pair, one conv1 patch matrix,
    the accumulator and at most one layer's gradient.  The teacher mutates
    in place; the student is read-only here, its update arrives downlink.

    Returns the student gradient averaged over minibatches.
    """
    n = state.num_train
    if n == 0:
        raise RoundError("empty training shard")
    teacher, lr = state.teacher.params, state.teacher_lr
    grad_acc = student.params.zeros_like()

    def step_teacher(name: str, grad: np.ndarray) -> None:
        if lr != 0.0:
            iadd_scaled(teacher.get(name), grad, -lr)

    def accumulate(name: str, grad: np.ndarray) -> None:
        iadd_scaled(grad_acc.get(name), grad, 1.0)

    for done, idx in enumerate(_epoch_batches(n, state.batch_size, state.rng), 1):
        xb = state.x_train[idx]
        t_tr = forward(state.teacher, xb, "train")
        state.teacher.bn = t_tr.stats
        s_tr = forward(student, xb, "eval", t_tr.caches.get("conv1"))

        (gl_t, gf_t), (gl_s, gf_s) = combined_loss(
            t_tr.logits, s_tr.logits, t_tr.features, s_tr.features,
            state.y_train[idx], cfg)
        backward(teacher, t_tr, gl_t, gf_t, take=step_teacher)
        # released before the student's backward, and the student's trace
        # before the next minibatch's forwards build their caches
        del t_tr
        backward(student.params, s_tr, gl_s, gf_s, take=accumulate)
        del xb, s_tr, gl_t, gf_t, gl_s, gf_s
    for layer in grad_acc.layers:
        layer.values /= done
    return grad_acc


def client_local_step_fedavg(state: ClientState, lr: float, prox_mu: float,
                             epochs: int = 1) -> ModelParams:
    """Local SGD at step size ``lr`` from the shared model; returns the
    parameter delta.

    A positive ``prox_mu`` adds the proximal pull toward the round-start
    parameters (the gradient of (mu/2)||W - W_start||^2); zero leaves the
    arithmetic bitwise identical to the plain variant.  Each layer takes
    its pull and its step as backward hands its gradient over, so a step
    holds one trace, the private copy and at most one layer's gradient.
    """
    n = state.num_train
    if n == 0:
        raise RoundError("empty training shard")
    start = state.student_view.params
    local = state.student_view.copy()

    def step(name: str, grad: np.ndarray) -> None:
        w = local.params.get(name)
        if prox_mu != 0.0:
            grad += prox_mu * (w - start.get(name))
        iadd_scaled(w, grad, -lr)

    for _ in range(epochs):
        for idx in _epoch_batches(n, state.batch_size, state.rng):
            tr = forward(local, state.x_train[idx], "train")
            local.bn = tr.stats
            backward(local.params, tr, ce_batch(tr.logits, state.y_train[idx]), take=step)
            # released before the next minibatch's forward builds its cache
            del tr
    # the private copy becomes the delta
    params_iadd_scaled(local.params, start, -1.0)
    return local.params


def _pack(update: ModelParams, server: ServerState, eps: float):
    """The packet for one direction and its count of SVD fallbacks:
    low-rank when the run compresses and distills, raw values otherwise."""
    if server.compress and server.strategy in _DISTILLING:
        return compress_gradient(update, eps, server.policy)
    return raw_packet(update, server.policy), 0


def _client_uplink(state: ClientState, server: ServerState, cfg: LossConfig,
                   eps: float) -> tuple[bytes, int]:
    """The client's encoded uplink and its count of SVD fallbacks."""
    if server.strategy in _DISTILLING:
        update = client_local_step_fedkdx(state, state.student_view, cfg)
    else:
        update = client_local_step_fedavg(state, server.student_lr, server.fedprox_mu,
                                          server.local_epochs)
    pkt, fallbacks = _pack(update, server, eps)
    return encode_packet(pkt), fallbacks


def server_aggregate(uplinks: Iterable[tuple[int, bytes]], server: ServerState,
                     eps: float, weights: dict[int, float]) -> tuple[bytes, int]:
    """Fold the uplinks into the weighted aggregate, update the shared
    student, and produce the downlink bytes with their count of SVD
    fallbacks.

    ``uplinks`` yields ``(client id, bytes)`` in ascending client order; that
    order is the caller's contract, and it fixes the floating-point sum.
    Each uplink is decoded, scaled by ``weights[cid]`` into the aggregate
    and dropped before the next is taken, so one uplink and one aggregate
    are alive at a time.  The student is written only once the last uplink
    is folded: an undecodable one leaves it untouched.

    Distilling strategies descend by the student rate along the aggregate
    gradient; averaging strategies add the aggregate delta directly.  In
    both cases what the server applies is the reconstruction of the
    downlink packet itself; its entries already hold the wire-dtype arrays
    the bytes carry, so a client decoding and applying those bytes lands on
    exactly the same parameters.
    """
    acc = server.student.params.zeros_like()
    folded = 0
    for cid, blob in uplinks:
        try:
            grad = decompress(decode_packet(blob), server.student.params)
        except ValueError as e:
            raise RoundError(f"client {cid}: undecodable uplink: {e}") from e
        params_iadd_scaled(acc, grad, weights[cid])
        folded += 1
        # dropped before the next uplink is taken
        del blob, grad
    if not folded:
        raise RoundError("no uplink packets to aggregate")

    down_pkt, down_fallbacks = _pack(acc, server, eps)
    down_blob = encode_packet(down_pkt)

    applied = decompress(down_pkt, server.student.params)
    scale = -server.student_lr if server.strategy in _DISTILLING else 1.0
    params_iadd_scaled(server.student.params, applied, scale)
    return down_blob, down_fallbacks


# bound on the largest buffer one evaluation forward builds: the HAR CNN's
# float32 conv2 patches take 58.5 KiB a window, so 64 windows a chunk stay
# in cache; a whole MLP evaluation set fits in one chunk
EVAL_BYTES = 4 << 20


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Metrics of the model's softmax scores on a labeled set.

    Forwarding happens in chunks of at most about ``EVAL_BYTES`` of im2col
    patches; evaluation mode is a pure function of each window.  Chunks
    start on multiples of 8 rows, where OpenBLAS's GEMM row tiles start, and
    a tail under 8 rows, which a GEMM takes on another path (gemv for one
    row), joins the chunk before it.  The CNN's logits then equal those of
    one whole-set forward bit for bit.  The MLP's need not: its head GEMM
    rounds differently at other row counts, so on a set over one chunk
    (8192 rows) its logits depend on ``EVAL_BYTES``.  They are still
    deterministic for a given ``EVAL_BYTES``.
    """
    rows = max(8, EVAL_BYTES // widest_row_bytes(model.params) // 8 * 8)
    bounds = list(range(0, x.shape[0], rows)) + [x.shape[0]]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] < 8:
        del bounds[-2]
    logits = np.concatenate([forward(model, x[a:b], "eval").logits
                             for a, b in zip(bounds, bounds[1:])])
    # scored in float64 whatever the compute dtype
    batch = mt.EvalBatch(softmax_rows(logits.astype(np.float64, copy=False), 1.0), y)
    return {"accuracy": mt.accuracy(batch),
            "f1_macro": mt.macro_f1(batch),
            "recall_macro": mt.macro_recall(batch),
            "auc_macro": mt.macro_auc_ovr(batch)}


def run_round(server: ServerState, clients: dict[int, ClientState], cfg: LossConfig,
              eval_x: np.ndarray, eval_y: np.ndarray, threads: int = 1,
              measure_time: bool = True) -> RoundRecord:
    """Execute one full communication round and score the updated student."""
    t0 = time.perf_counter() if measure_time else 0.0
    t = server.round_index
    rho = 0.0 if server.total_rounds == 1 else (t - 1) / (server.total_rounds - 1)
    eps = dynamic_threshold(rho, server.policy)

    participants = sample_clients(sorted(clients), server.join_ratio, server.sampler_rng)
    if server.strategy in _DISTILLING:
        weights = {cid: 1.0 / len(participants) for cid in participants}
    else:
        total = sum(clients[cid].num_train for cid in participants)
        weights = {cid: clients[cid].num_train / total for cid in participants}

    def one(cid: int) -> tuple[bytes, int]:
        try:
            return _client_uplink(clients[cid], server, cfg, eps)
        except Exception as e:
            raise RoundError(f"client {cid}: {e}") from e

    bytes_up = fallbacks = 0

    def uplinks(pull: Callable[[int], tuple[bytes, int]]) -> Iterator[tuple[int, bytes]]:
        # each participant's uplink in ascending order, counted as it passes
        # and dropped here once the server has folded it
        nonlocal bytes_up, fallbacks
        for cid in participants:
            blob, n = pull(cid)
            bytes_up += len(blob)
            fallbacks += n
            yield cid, blob
            del blob

    if threads == 1:
        down_blob, down_fallbacks = server_aggregate(uplinks(one), server, eps, weights)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {cid: pool.submit(one, cid) for cid in participants}
            down_blob, down_fallbacks = server_aggregate(
                uplinks(lambda cid: futures.pop(cid).result()), server, eps, weights)
    fallbacks += down_fallbacks

    # every client receives the broadcast, participant or not
    bytes_down = len(down_blob) * len(clients)
    del down_blob

    scores = evaluate(server.student, eval_x, eval_y)
    server.round_index += 1
    wall = time.perf_counter() - t0 if measure_time else 0.0
    return RoundRecord(round=t, strategy=server.strategy, participants=participants,
                       bytes_up=bytes_up, bytes_down=bytes_down, wall_seconds=wall,
                       svd_fallbacks=fallbacks, **scores)
