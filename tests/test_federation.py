import copy
import sys
import tracemalloc

import numpy as np
import pytest

from fedkdx import federation as fed
from fedkdx.compression import (MODE_RAW, CompressionPolicy, decode_packet, decompress,
                                encode_packet, raw_packet)
from fedkdx.federation import (
    STRATEGY_FEDAVG,
    STRATEGY_FEDKDX,
    STRATEGY_FEDPROX,
    ClientState,
    RoundError,
    ServerState,
    client_local_step_fedavg,
    client_local_step_fedkdx,
    derive_rng,
    derive_seed,
    evaluate,
    run_round,
    sample_clients,
    server_aggregate,
)
from fedkdx.linalg import finite_diff_grad, softmax_rows
from fedkdx.losses import LossConfig, combined_loss, combined_value
from fedkdx.nn import (LayerParam, ModelParams, backward, build_cnn_har, build_mlp,
                       forward, params_iadd_scaled, widest_row_bytes)
from helpers import make_experiment, params_equal, rel_err


def tiny_client(seed=0, n=12, teacher_lr=0.05, batch_size=4):
    rng = np.random.default_rng(seed)
    return ClientState(
        client_id=seed,
        teacher=build_mlp(4, 3, seed=100 + seed),
        student_view=build_mlp(4, 3, seed=999),
        x_train=rng.normal(size=(n, 4)),
        y_train=rng.integers(0, 3, size=n),
        rng=np.random.default_rng(1000 + seed),
        teacher_lr=teacher_lr,
        batch_size=batch_size,
    )


def loss_cfg(**kw):
    base = dict(tau=0.8, gamma=0.9, enable_nkd=True, enable_ctl=True,
                kd_weight=1.0, nkd_weight=1.0, ctl_weight=1.0)
    base.update(kw)
    return LossConfig(**base)


# --------------------------------------------------------------- rng streams

def test_derived_streams_are_stable_and_distinct():
    a = derive_rng(7, fed.STREAM_SAMPLER).normal(size=4)
    b = derive_rng(7, fed.STREAM_SAMPLER).normal(size=4)
    c = derive_rng(7, fed.STREAM_PARTITION).normal(size=4)
    d = derive_rng(8, fed.STREAM_SAMPLER).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert derive_seed(7, fed.STREAM_CLIENT, 3) == derive_seed(7, fed.STREAM_CLIENT, 3)
    assert derive_seed(7, fed.STREAM_CLIENT, 3) != derive_seed(7, fed.STREAM_CLIENT, 4)


# ------------------------------------------------------------------ sampling

def test_sample_size_rounds_half_up_with_a_floor_of_one():
    ids = list(range(8))
    rng = np.random.default_rng(0)
    assert len(sample_clients(ids, 0.2, rng)) == 2
    assert len(sample_clients(ids, 0.5, rng)) == 4
    assert len(sample_clients(ids, 0.8, rng)) == 6
    assert sample_clients(ids, 1.0, rng) == tuple(range(8))
    assert len(sample_clients(ids, 0.01, rng)) == 1


def test_sample_is_sorted_without_replacement():
    ids = [9, 3, 5, 1, 7]
    for seed in range(10):
        picked = sample_clients(ids, 0.6, np.random.default_rng(seed))
        assert list(picked) == sorted(set(picked))
        assert set(picked) <= set(ids)


# ---------------------------------------------------------- distilling step

def test_single_batch_step_matches_hand_backprop():
    st = tiny_client(n=6, batch_size=6)  # one minibatch per epoch
    st_clone = copy.deepcopy(st)
    student = st.student_view.copy()
    cfg = loss_cfg()

    grad = client_local_step_fedkdx(st, student, cfg)

    # replay: the student learns against the teacher outputs before the
    # teacher's own update, in evaluation mode
    idx = st_clone.rng.permutation(6)[:6]
    x, y = st_clone.x_train[idx], st_clone.y_train[idx]
    t_tr = forward(st_clone.teacher, x, "train")
    s_tr = forward(student, x, "eval")
    _, (gl, gf) = combined_loss(t_tr.logits, s_tr.logits, t_tr.features,
                                s_tr.features, y, cfg)
    want = backward(student.params, s_tr, gl, gf)
    assert np.abs(grad.flatten() - want.flatten()).max() < 1e-15


def test_student_gradient_matches_finite_differences():
    cfg = loss_cfg()
    for case in range(4):
        st = tiny_client(seed=case, n=8, batch_size=8)
        student = st.student_view.copy()
        grad = client_local_step_fedkdx(copy.deepcopy(st), student, cfg)

        flat = student.params.flatten()
        probes = np.random.default_rng(case).choice(flat.size, 6, replace=False)
        for i in probes:
            def f(theta, i=i):
                v = flat.copy()
                v[i] = theta[0]
                probe = student.copy()
                probe.params = student.params.unflatten(v)
                clone = copy.deepcopy(st)
                idx = clone.rng.permutation(8)
                x, y = clone.x_train[idx], clone.y_train[idx]
                t_tr = forward(clone.teacher, x, "train")
                s_tr = forward(probe, x, "eval")
                return combined_value(t_tr.logits, s_tr.logits, t_tr.features,
                                      s_tr.features, y, cfg)[1]
            fd = finite_diff_grad(f, np.array([flat[i]]))[0]
            assert rel_err(grad.flatten()[i], fd).max() < 1e-4


def test_zero_teacher_rate_leaves_teacher_parameters_untouched():
    st = tiny_client(teacher_lr=0.0)
    before = st.teacher.params.copy()
    client_local_step_fedkdx(st, st.student_view.copy(), loss_cfg())
    assert params_equal(st.teacher.params, before)
    # and a learning teacher moves
    st2 = tiny_client(teacher_lr=0.1)
    before2 = st2.teacher.params.copy()
    client_local_step_fedkdx(st2, st2.student_view.copy(), loss_cfg())
    assert not params_equal(st2.teacher.params, before2)


def test_epoch_gradient_is_the_mean_of_replayed_minibatches():
    st = tiny_client(n=8, batch_size=4)  # two minibatches per epoch
    clone = copy.deepcopy(st)
    student = st.student_view.copy()
    cfg = loss_cfg()
    grad = client_local_step_fedkdx(st, student, cfg)

    # replay: both sides learn from one minibatch's outputs, then the
    # teacher steps before the next minibatch
    perm = clone.rng.permutation(8)
    want = []
    for idx in (perm[:4], perm[4:]):
        x, y = clone.x_train[idx], clone.y_train[idx]
        t_tr = forward(clone.teacher, x, "train")
        s_tr = forward(student, x, "eval")
        (gl_t, gf_t), (gl_s, gf_s) = combined_loss(
            t_tr.logits, s_tr.logits, t_tr.features, s_tr.features, y, cfg)
        params_iadd_scaled(clone.teacher.params,
                           backward(clone.teacher.params, t_tr, gl_t, gf_t),
                           -clone.teacher_lr)
        want.append(backward(student.params, s_tr, gl_s, gf_s).flatten())
    assert np.abs(grad.flatten() - np.mean(want, axis=0)).max() < 1e-15
    assert params_equal(st.teacher.params, clone.teacher.params)


def test_empty_shard_raises():
    st = tiny_client(n=0)
    with pytest.raises(RoundError, match="empty training shard"):
        client_local_step_fedkdx(st, st.student_view.copy(), loss_cfg())
    with pytest.raises(RoundError):
        client_local_step_fedavg(tiny_client(n=0), 0.05, 0.0)


# ----------------------------------------------------------- averaging step

def test_fedavg_delta_matches_hand_sgd():
    st = tiny_client(n=5, batch_size=5)
    clone = copy.deepcopy(st)
    delta = client_local_step_fedavg(st, 0.1, 0.0)

    from fedkdx.losses import ce_batch
    from fedkdx.nn import backward, params_iadd_scaled
    local = clone.student_view.copy()
    idx = clone.rng.permutation(5)
    tr = forward(local, clone.x_train[idx], "train")
    g = backward(local.params, tr, ce_batch(tr.logits, clone.y_train[idx]))
    params_iadd_scaled(local.params, g, -0.1)
    want = local.params.copy()
    params_iadd_scaled(want, clone.student_view.params, -1.0)
    assert np.abs(delta.flatten() - want.flatten()).max() < 1e-15


def test_zero_mu_is_bitwise_plain_averaging():
    a = client_local_step_fedavg(tiny_client(seed=3), 0.05, 0.0, epochs=2)
    b = client_local_step_fedavg(tiny_client(seed=3), 0.05, 0.0, epochs=2)
    assert np.array_equal(a.flatten(), b.flatten())
    c = client_local_step_fedavg(tiny_client(seed=3), 0.05, 0.01, epochs=2)
    assert not np.array_equal(a.flatten(), c.flatten())


def test_proximal_pull_shrinks_the_excursion():
    # keep lr * mu well under the SGD stability bound so the pull contracts
    light = client_local_step_fedavg(tiny_client(seed=4, n=32), 0.05, 0.0, epochs=5)
    heavy = client_local_step_fedavg(tiny_client(seed=4, n=32), 0.05, 10.0, epochs=5)
    assert np.linalg.norm(heavy.flatten()) < np.linalg.norm(light.flatten())


# ---------------------------------------------------------------- aggregate

def known_grads(template, fill):
    g = template.zeros_like()
    for layer in g.layers:
        layer.values += fill
    return g


def test_distilling_aggregate_descends_by_the_mean():
    student = build_mlp(4, 3, seed=5)
    w0 = student.params.flatten()
    policy = CompressionPolicy(wire_precision="f64")
    server = ServerState(student=student, strategy=STRATEGY_FEDKDX,
                         policy=policy, total_rounds=10, join_ratio=1.0,
                         student_lr=0.5, compress=False,
                         sampler_rng=derive_rng(0, fed.STREAM_SAMPLER))
    g1 = known_grads(student.params, 1.0)
    g2 = known_grads(student.params, 2.0)
    blobs = [(0, encode_packet(raw_packet(g1, policy))),
             (1, encode_packet(raw_packet(g2, policy)))]
    down, _ = server_aggregate(blobs, server, eps=0.9, weights={0: 0.5, 1: 0.5})
    assert np.abs(student.params.flatten() - (w0 - 0.5 * 1.5)).max() < 1e-15
    assert len(down) > 0


def test_averaging_aggregate_adds_the_weighted_blend():
    student = build_mlp(4, 3, seed=6)
    w0 = student.params.flatten()
    policy = CompressionPolicy(wire_precision="f64")
    server = ServerState(student=student, strategy=STRATEGY_FEDAVG,
                         policy=policy, total_rounds=10, join_ratio=1.0,
                         student_lr=0.5, compress=False,
                         sampler_rng=derive_rng(0, fed.STREAM_SAMPLER))
    d1 = known_grads(student.params, 1.0)
    d2 = known_grads(student.params, 5.0)
    blobs = [(0, encode_packet(raw_packet(d1, policy))),
             (1, encode_packet(raw_packet(d2, policy)))]
    server_aggregate(blobs, server, eps=0.9, weights={0: 0.75, 1: 0.25})
    assert np.abs(student.params.flatten() - (w0 + 2.0)).max() < 1e-15


def test_aggregate_rejects_undecodable_uplink():
    student = build_mlp(4, 3, seed=7)
    policy = CompressionPolicy()
    server = ServerState(student=student, strategy=STRATEGY_FEDKDX,
                         policy=policy, total_rounds=10, join_ratio=1.0,
                         student_lr=0.1, sampler_rng=derive_rng(0, fed.STREAM_SAMPLER))
    good = encode_packet(raw_packet(known_grads(student.params, 1.0), policy))
    poisoned = known_grads(student.params, 1.0)
    poisoned.layers[0].values[0, 0] = np.nan
    before = copy.deepcopy(student.params)
    with pytest.raises(RoundError, match="client 4"):
        server_aggregate([(4, good[:-3])], server, eps=0.9, weights={4: 1.0})
    with pytest.raises(RoundError, match="^client 4: undecodable uplink: "
                                         "layer 'fc1.w' has non-finite values$"):
        server_aggregate([(1, good), (4, encode_packet(raw_packet(poisoned, policy)))],
                         server, eps=0.9, weights={1: 0.5, 4: 0.5})
    assert params_equal(student.params, before)
    with pytest.raises(RoundError):
        server_aggregate([], server, eps=0.9, weights={})


def test_aggregate_pulls_each_uplink_once_in_the_given_order():
    def fresh_server():
        return ServerState(student=build_mlp(4, 3, seed=11), strategy=STRATEGY_FEDAVG,
                           policy=CompressionPolicy(wire_precision="f64"), total_rounds=10,
                           join_ratio=1.0, student_lr=0.5, compress=False,
                           sampler_rng=derive_rng(0, fed.STREAM_SAMPLER))
    listed, pulled = fresh_server(), fresh_server()
    policy = listed.policy
    blobs = [(cid, encode_packet(raw_packet(known_grads(listed.student.params, fill), policy)))
             for cid, fill in ((2, 1.0), (5, -3.0), (7, 0.5))]
    weights = {2: 0.5, 5: 0.3, 7: 0.2}
    pulls = []

    def uplinks():
        for cid, blob in blobs:
            pulls.append(cid)
            yield cid, blob

    stream = uplinks()
    want = server_aggregate(blobs, listed, 0.9, weights)
    assert server_aggregate(stream, pulled, 0.9, weights) == want
    assert pulls == [2, 5, 7]
    assert next(stream, None) is None
    assert params_equal(pulled.student.params, listed.student.params)


def test_a_server_needs_a_derived_sampler_stream():
    # config owns the strategy, rounds and join_ratio rules (test_config);
    # the sampler has no default, so no run draws participants from OS entropy
    with pytest.raises(TypeError, match="sampler_rng"):
        ServerState(student=build_mlp(4, 3, seed=8), strategy=STRATEGY_FEDKDX,
                    policy=CompressionPolicy(), total_rounds=10, join_ratio=0.5,
                    student_lr=0.1)


# ------------------------------------------------------------------- rounds

def test_round_keeps_one_shared_student():
    # more client threads than cores, switching often, all reading the one
    # student: the result must match the serial run bit for bit
    for strategy in (STRATEGY_FEDKDX, STRATEGY_FEDAVG):
        serial = make_experiment(strategy=strategy, rounds=4)
        for _ in range(4):
            run_round(serial.server, serial.clients, serial.loss_cfg,
                      serial.eval_x, serial.eval_y, measure_time=False)
        exp = make_experiment(strategy=strategy, rounds=4)
        student = exp.server.student
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                rec = run_round(exp.server, exp.clients, exp.loss_cfg,
                                exp.eval_x, exp.eval_y, threads=4, measure_time=False)
        finally:
            sys.setswitchinterval(interval)
        assert exp.server.student is student
        for st in exp.clients.values():
            assert st.student_view is student
        assert params_equal(student.params, serial.server.student.params)
        assert rec.round == 4
        assert exp.server.round_index == 5


def test_round_folds_lazily_and_stops_at_an_undecodable_uplink(monkeypatch):
    exp = make_experiment(rounds=2, join_ratio=1.0)
    participants = sorted(exp.clients)
    bad = participants[1]
    later = participants[2:]
    assert later
    student = exp.server.student.copy()
    rng_states = {cid: exp.clients[cid].rng.bit_generator.state for cid in later}
    teachers = {cid: exp.clients[cid].teacher.copy() for cid in later}
    ran = []
    real = fed._client_uplink

    def truncating(state, *args):
        ran.append(state.client_id)
        blob, fallbacks = real(state, *args)
        return (blob[:-3] if state.client_id == bad else blob), fallbacks

    monkeypatch.setattr(fed, "_client_uplink", truncating)
    with pytest.raises(RoundError, match=f"^client {bad}: undecodable uplink"):
        run_round(exp.server, exp.clients, exp.loss_cfg, exp.eval_x, exp.eval_y,
                  measure_time=False)
    assert ran == participants[:2]
    assert params_equal(exp.server.student.params, student.params)
    for cid in later:
        assert exp.clients[cid].rng.bit_generator.state == rng_states[cid]
        assert params_equal(exp.clients[cid].teacher.params, teachers[cid].params)


def round_peak_bytes(join_ratio):
    """The traced peak of one serial FEDAVG round over 8 equal MLP shards,
    and the length of one uplink."""
    exp = make_experiment(strategy="FEDAVG", join_ratio=join_ratio, compress=False,
                          wire_precision="f64",
                          partition={"mode": "iid_shuffle", "num_clients": 8})
    assert len({st.num_train for st in exp.clients.values()}) == 1
    uplink = len(encode_packet(raw_packet(exp.server.student.params, exp.server.policy)))
    tracemalloc.start()
    try:
        rec = run_round(exp.server, exp.clients, exp.loss_cfg, exp.eval_x, exp.eval_y,
                        measure_time=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.bytes_up == uplink * len(rec.participants)
    return peak, uplink


def test_round_memory_stays_flat_in_the_participant_count():
    # the server folds each uplink as it arrives: 8 participants hold no
    # more packets at once than 2 do
    few, uplink = round_peak_bytes(0.25)
    many, _ = round_peak_bytes(1.0)
    assert abs(many - few) < uplink, (few, many, uplink)


@pytest.mark.parametrize("strategy,compress", [("FEDKDX", True), ("FEDAVG", False)])
def test_client_decode_of_the_downlink_reproduces_the_server(strategy, compress):
    exp = make_experiment(strategy=strategy, compress=compress, rounds=2,
                          eps_start=0.7, eps_end=0.7)
    server = exp.server
    before = server.student.copy()
    blobs = [(cid, fed._client_uplink(st, server, exp.loss_cfg, 0.7)[0])
             for cid, st in exp.clients.items()]
    down, _ = server_aggregate(blobs, server, 0.7, {cid: 1.0 / len(blobs) for cid, _ in blobs})

    # what a client holding its own copy would do with the broadcast bytes
    pkt = decode_packet(down)
    update = decompress(pkt, before.params.zeros_like())
    scale = -server.student_lr if strategy == STRATEGY_FEDKDX else 1.0
    params_iadd_scaled(before.params, update, scale)
    assert params_equal(before.params, server.student.params)
    if compress:
        assert any(e.mode != MODE_RAW for e in pkt.entries)


def test_client_steps_leave_the_shared_student_untouched():
    rng = np.random.default_rng(5)
    student = build_cnn_har(2, 28, 3, seed=1)
    # non-trivial running statistics, so an accidental update would show
    student.bn = forward(student, rng.normal(size=(8, 2, 28)), "train").stats
    st = ClientState(client_id=0, teacher=build_cnn_har(2, 28, 3, seed=2),
                     student_view=student, x_train=rng.normal(size=(10, 2, 28)),
                     y_train=rng.integers(0, 3, size=10),
                     rng=np.random.default_rng(6), teacher_lr=0.05,
                     batch_size=4)
    snapshot = student.copy()
    teacher_stats = st.teacher.bn
    client_local_step_fedkdx(st, st.student_view, loss_cfg())
    # the teacher, which the client owns, keeps the statistics its forwards return
    assert all(not np.array_equal(st.teacher.bn[k], v) for k, v in teacher_stats.items())
    client_local_step_fedavg(st, 0.05, prox_mu=0.1, epochs=2)
    assert st.student_view is student
    assert params_equal(student.params, snapshot.params)
    assert sorted(student.bn) == sorted(snapshot.bn)
    for k in snapshot.bn:
        assert np.array_equal(student.bn[k], snapshot.bn[k])


def test_round_records_byte_counts_from_the_codec():
    exp = make_experiment(rounds=2, compress=False, wire_precision="f64")
    policy = exp.server.policy
    raw_size = len(encode_packet(raw_packet(
        exp.server.student.params.zeros_like(), policy)))
    rec = run_round(exp.server, exp.clients, exp.loss_cfg,
                    exp.eval_x, exp.eval_y, measure_time=False)
    assert rec.bytes_up == raw_size * len(rec.participants)
    assert rec.bytes_down == raw_size * len(exp.clients)
    assert rec.svd_fallbacks == 0
    assert rec.strategy == STRATEGY_FEDKDX
    assert rec.participants == tuple(sorted(rec.participants))


def test_round_timing_switch():
    exp = make_experiment(rounds=2)
    rec = run_round(exp.server, exp.clients, exp.loss_cfg,
                    exp.eval_x, exp.eval_y, measure_time=False)
    assert rec.wall_seconds == 0.0
    rec = run_round(exp.server, exp.clients, exp.loss_cfg,
                    exp.eval_x, exp.eval_y, measure_time=True)
    assert rec.wall_seconds > 0.0


def test_thread_count_does_not_change_the_trajectory():
    records = {}
    for threads in (1, 4):
        exp = make_experiment(rounds=3)
        out = []
        for _ in range(3):
            out.append(run_round(exp.server, exp.clients, exp.loss_cfg,
                                 exp.eval_x, exp.eval_y, threads=threads,
                                 measure_time=False))
        records[threads] = out
    assert records[1] == records[4]


def test_fedprox_and_fedavg_rounds_diverge_only_through_mu():
    base = {"strategy": "FEDAVG", "rounds": 2, "fedprox_mu": 0.0}
    a = make_experiment(**base)
    b = make_experiment(**{**base, "strategy": "FEDPROX"})
    for _ in range(2):
        ra = run_round(a.server, a.clients, a.loss_cfg, a.eval_x, a.eval_y,
                       measure_time=False)
        rb = run_round(b.server, b.clients, b.loss_cfg, b.eval_x, b.eval_y,
                       measure_time=False)
    assert np.array_equal(a.server.student.params.flatten(),
                          b.server.student.params.flatten())
    c = make_experiment(**{**base, "strategy": "FEDPROX", "fedprox_mu": 0.5})
    for _ in range(2):
        run_round(c.server, c.clients, c.loss_cfg, c.eval_x, c.eval_y,
                  measure_time=False)
    assert not np.array_equal(a.server.student.params.flatten(),
                              c.server.student.params.flatten())


# ---------------------------------------------------------------- evaluation

def chunked_evaluation(monkeypatch, model, x, y):
    """evaluate's scores and the logits of each chunk it forwarded."""
    chunks = []

    def keep(model, x, mode):
        tr = forward(model, x, mode)
        chunks.append(tr.logits)
        return tr

    with monkeypatch.context() as m:
        m.setattr(fed, "forward", keep)
        return evaluate(model, x, y), chunks


def metrics_of(logits, y):
    from fedkdx import metrics as mt
    batch = mt.EvalBatch(softmax_rows(logits, 1.0), y)
    return {"accuracy": mt.accuracy(batch),
            "f1_macro": mt.macro_f1(batch),
            "recall_macro": mt.macro_recall(batch),
            "auc_macro": mt.macro_auc_ovr(batch)}


def test_evaluation_chunking_is_exact(monkeypatch):
    model = build_mlp(6, 3, seed=9)
    rng = np.random.default_rng(10)
    budget = fed.EVAL_BYTES // widest_row_bytes(model.params)
    n = budget * 2 + 37  # forces three chunks, last one short
    x = rng.normal(size=(n, 6))
    y = rng.integers(0, 3, size=n)
    got, chunks = chunked_evaluation(monkeypatch, model, x, y)
    assert [len(c) for c in chunks] == [budget, budget, 37]
    # the MLP's tiny head GEMM rounds its last bits differently past
    # thousands of rows, so the scores are compared, not the logits
    assert got == metrics_of(forward(model, x, "eval").logits, y)


def test_cnn_evaluation_chunking_is_exact(monkeypatch):
    model = build_cnn_har(9, 128, 3, seed=9)
    rng = np.random.default_rng(10)
    model.bn = forward(model, rng.normal(size=(16, 9, 128)), "train").stats  # off their init
    budget = fed.EVAL_BYTES // widest_row_bytes(model.params)
    n = budget * 2 + 11  # two whole chunks and a short one
    x = rng.normal(size=(n, 9, 128))
    y = rng.integers(0, 3, size=n)
    got, chunks = chunked_evaluation(monkeypatch, model, x, y)
    sizes = [len(c) for c in chunks]
    assert len(sizes) == 3 and max(sizes) <= budget and sizes[-1] < sizes[0]
    full = forward(model, x, "eval").logits
    assert np.concatenate(chunks).tobytes() == full.tobytes()
    assert got == metrics_of(full, y)

    # a one-row tail, which a GEMM takes on another path, joins the chunk before
    n = sizes[0] * 2 + 1
    _, chunks = chunked_evaluation(monkeypatch, model, x[:n], y[:n])
    assert [len(c) for c in chunks] == [sizes[0], sizes[0] + 1]
    assert np.concatenate(chunks).tobytes() == forward(model, x[:n], "eval").logits.tobytes()
