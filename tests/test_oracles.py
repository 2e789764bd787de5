"""Reduction oracles: a degenerate federation must equal the central
computation it reduces to, written here from the public ``nn`` and
``losses`` functions."""

import copy
import csv

import numpy as np
import pytest

from fedkdx import compression
from fedkdx.experiment import run_experiment
from fedkdx.federation import run_round
from fedkdx.linalg import SvdNonConvergence
from fedkdx.losses import ce_batch, combined_loss
from fedkdx.nn import backward, forward, params_iadd_scaled
from helpers import SMALL_SYNTH, make_config, make_experiment, write_fake_archive

# the train and test rows of the CNN runs' recorded-sensor tree
HAR_ROWS = (30, 6)


def test_one_fedavg_round_of_full_batches_is_one_central_step():
    """FedSGD (McMahan et al., AISTATS 2017): with one local epoch and a
    batch that holds the whole shard, each client takes one full-batch step,
    and blending the deltas by sample count gives one full-batch step on
    the union of the shards."""
    exp = make_experiment(strategy="FEDAVG", join_ratio=1.0, local_epochs=1,
                          batch_size=1000, wire_precision="f64",
                          partition={"mode": "dirichlet", "num_clients": 4, "alpha": 0.5})
    server, clients = exp.server, exp.clients
    sizes = [c.num_train for c in clients.values()]
    # unequal shards, so that only the sample-count weights give the central step
    assert len(set(sizes)) == len(sizes) and max(sizes) <= 1000
    x = np.concatenate([c.x_train for c in clients.values()])
    y = np.concatenate([c.y_train for c in clients.values()])

    for _ in range(3):
        central = server.student.copy()
        w0 = central.params.flatten()
        trace = forward(central, x, "train")
        grad_logits = ce_batch(trace.logits, y)
        params_iadd_scaled(central.params,
                           backward(central.params, trace, grad_logits), -server.student_lr)

        rec = run_round(server, clients, exp.loss_cfg, exp.eval_x, exp.eval_y)
        assert rec.participants == tuple(clients)
        # each client's delta is (w0 - lr*g_k) - w0, which rounds at the
        # scale of w0, and the blend is added back to w0: a few ulps of w0.
        # The gradients' other summation order is far below that.
        tol = 8 * np.finfo(np.float64).eps * np.abs(w0).max()
        err = np.abs(server.student.params.flatten() - central.params.flatten()).max()
        assert err <= tol, (err, tol)
        # the step itself is far above the tolerance
        assert np.abs(central.params.flatten() - w0).max() > 1e6 * tol


@pytest.fixture(scope="module")
def har_root(tmp_path_factory):
    return write_fake_archive(str(tmp_path_factory.mktemp("har")), rows=HAR_ROWS)


def sgd_epochs(model, x, y, rng, epochs, batch_size, lr):
    """Plain minibatch SGD on ``model`` in place, in the batch order that
    ``rng`` draws, keeping the running statistics each forward returns."""
    for _ in range(epochs):
        perm = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = perm[start:start + batch_size]
            trace = forward(model, x[idx], "train")
            model.bn = trace.stats
            grad_logits = ce_batch(trace.logits, y[idx])
            params_iadd_scaled(model.params, backward(model.params, trace, grad_logits), -lr)


def one_client_rounds(arch, strategy, epochs, har_root, rounds=2):
    """Each round's (student at the start, student after the round, central
    copy of the start trained on the client's batch order) for one averaging
    client that holds every window."""
    if arch == "mlp":
        data, windows = {"wire_precision": "f64"}, 3 * SMALL_SYNTH["samples_per_class"]
    else:
        data, windows = {"dataset": {"kind": "ucihar", "root": har_root}}, sum(HAR_ROWS)
    exp = make_experiment(strategy=strategy, fedprox_mu=0.0, local_epochs=epochs,
                          join_ratio=1.0, batch_size=20,
                          partition={"mode": "iid_shuffle", "num_clients": 1}, **data)
    server, (client,) = exp.server, exp.clients.values()
    # the loaders pool every window, and the one client's test rows are the
    # evaluation set; its last minibatch is a short one
    assert client.num_train + len(exp.eval_y) == windows
    assert client.num_train % client.batch_size != 0
    for _ in range(rounds):
        start = server.student.copy()
        central = start.copy()
        sgd_epochs(central, client.x_train, client.y_train, copy.deepcopy(client.rng),
                   epochs, client.batch_size, server.student_lr)
        run_round(server, exp.clients, exp.loss_cfg, exp.eval_x, exp.eval_y)
        yield start, server.student, central


# a few random test windows need not hold every class
NO_POSITIVES = "ignore:class .* has no positives"


@pytest.mark.filterwarnings(NO_POSITIVES)
@pytest.mark.parametrize("epochs", [1, 2])
@pytest.mark.parametrize("strategy", ["FEDAVG", "FEDPROX"])
@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_one_averaging_client_is_sgd(arch, strategy, epochs, har_root):
    """One client holding every window, with no proximal pull, sends the
    delta of plain SGD, and its weight is 1: the round is that SGD."""
    for start, student, central in one_client_rounds(arch, strategy, epochs, har_root):
        layers = zip(start.params.layers, student.params.layers, central.params.layers)
        for w0, got, want in layers:
            # under train-mode batch norm the conv biases' gradients are
            # zero up to rounding, so their values are rounding noise
            if got.name in ("conv1.b", "conv2.b"):
                continue
            # the client's delta rounds once, the wire carries it exactly
            # at the compute dtype, and adding it back to w0 rounds again:
            # two roundings at the scale of the layer (under 1 ulp seen)
            tol = 4 * np.finfo(want.values.dtype).eps * np.abs(want.values).max()
            assert np.abs(got.values - want.values).max() <= tol, got.name
            # the step itself is far above the tolerance
            assert np.abs(want.values - w0.values).max() > 100 * tol, got.name


@pytest.mark.filterwarnings(NO_POSITIVES)
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_one_averaging_client_keeps_the_sgd_running_statistics(har_root):
    """The statistics half of the oracle above, on the batch-norm CNN: only
    parameters travel, so the student keeps its initial statistics."""
    for strategy in ("FEDAVG", "FEDPROX"):
        for epochs in (1, 2):
            for _, student, central in one_client_rounds("cnn", strategy, epochs, har_root):
                assert list(student.bn) == list(central.bn)
                for name, want in central.bn.items():
                    tol = 4 * np.finfo(want.dtype).eps * np.abs(want).max()
                    assert np.abs(student.bn[name] - want).max() <= tol, name


def mutual_distillation_epoch(teacher, student, x, y, rng, batch_size, teacher_lr, loss_cfg):
    """One pass of mutual distillation in the batch order that ``rng``
    draws: the teacher steps in place and keeps the running statistics each
    forward returns; the student is only read.  Returns the mean of the
    per-minibatch student gradients, summed in batch order."""
    total, batches = student.params.zeros_like(), 0
    perm = rng.permutation(len(y))
    for start in range(0, len(y), batch_size):
        idx = perm[start:start + batch_size]
        t_tr = forward(teacher, x[idx], "train")
        teacher.bn = t_tr.stats
        s_tr = forward(student, x[idx], "eval")
        (gl_t, gf_t), (gl_s, gf_s) = combined_loss(t_tr.logits, s_tr.logits, t_tr.features,
                                                   s_tr.features, y[idx], loss_cfg)
        params_iadd_scaled(teacher.params, backward(teacher.params, t_tr, gl_t, gf_t),
                           -teacher_lr)
        params_iadd_scaled(total, backward(student.params, s_tr, gl_s, gf_s), 1.0)
        batches += 1
    for layer in total.layers:
        layer.values /= batches
    return total


def assert_bitwise_equal(got, want, what):
    assert got.params.names() == want.params.names(), what
    for g, w in zip(got.params.layers, want.params.layers):
        assert g.values.dtype == w.values.dtype and np.array_equal(g.values, w.values), \
            (what, g.name)
    assert list(got.bn) == list(want.bn), what
    for name, w in want.bn.items():
        assert np.array_equal(got.bn[name], w), (what, name)


@pytest.mark.filterwarnings(NO_POSITIVES)
@pytest.mark.parametrize("arch", ["mlp", "cnn"])
def test_one_distilling_client_is_mutual_distillation(arch, har_root):
    """One FEDKDX client holding every window, uncompressed: its teacher
    follows a hand loop of mutual distillation over the same minibatches,
    and the student takes one step of the mean student gradient a round.

    The comparison is bitwise.  The loop makes the client's operations in
    the client's order; a raw packet at the compute dtype (f64 on the MLP,
    f32 on the CNN) carries the gradient exactly, both ways; and the one
    client's weight is 1, so the server's average adds it to zeros, which
    is exact.  Any other rounding is a defect of the round."""
    if arch == "mlp":
        data, windows = {"wire_precision": "f64"}, 3 * SMALL_SYNTH["samples_per_class"]
    else:
        data, windows = {"dataset": {"kind": "ucihar", "root": har_root}}, sum(HAR_ROWS)
    exp = make_experiment(strategy="FEDKDX", join_ratio=1.0, compress=False, batch_size=20,
                          partition={"mode": "iid_shuffle", "num_clients": 1}, **data)
    server, (client,) = exp.server, exp.clients.values()
    assert client.num_train + len(exp.eval_y) == windows
    # the last minibatch is a short one
    assert client.num_train % client.batch_size != 0
    for _ in range(2):
        teacher0, student0 = client.teacher.copy(), server.student.copy()
        teacher, student = teacher0.copy(), student0.copy()
        mean_grad = mutual_distillation_epoch(
            teacher, student, client.x_train, client.y_train, copy.deepcopy(client.rng),
            client.batch_size, client.teacher_lr, exp.loss_cfg)
        params_iadd_scaled(student.params, mean_grad, -server.student_lr)

        rec = run_round(server, exp.clients, exp.loss_cfg, exp.eval_x, exp.eval_y)
        assert rec.participants == (client.client_id,)
        assert_bitwise_equal(client.teacher, teacher, "teacher")
        # only parameters travel: the student keeps its statistics
        assert_bitwise_equal(server.student, student, "student")
        # both models moved
        for before, after in ((teacher0, teacher), (student0, student)):
            assert not np.array_equal(before.params.flatten(), after.params.flatten())


def _svd_fails(g):
    raise SvdNonConvergence("svd did not converge")


@pytest.mark.parametrize("strategy", ["FEDKDX", "FEDKD"])
def test_an_svd_failure_is_the_uncompressed_run(strategy, tmp_path, monkeypatch):
    """When gesdd fails on every matrix, each layer ships raw: the run is
    the ``compress: false`` run, with every fallback counted."""
    raw_dir, failed_dir = tmp_path / "raw", tmp_path / "failed"
    run_experiment(make_config(strategy=strategy, rounds=4, compress=False), str(raw_dir))
    monkeypatch.setattr(compression, "thin_svd", _svd_fails)
    run_experiment(make_config(strategy=strategy, rounds=4, compress=True), str(failed_dir))

    def rows(out):
        with open(out / "metrics.csv", newline="") as f:
            return list(csv.DictReader(f))
    want, got = rows(raw_dir), rows(failed_dir)
    assert len(got) == 4
    # 3 weight matrices x (2 uplinks + 1 downlink) a round
    assert [row.pop("svd_fallbacks") for row in got] == ["9"] * 4
    assert [row.pop("svd_fallbacks") for row in want] == ["0"] * 4
    assert got == want
    assert (failed_dir / "student.ckpt").read_bytes() == (raw_dir / "student.ckpt").read_bytes()
