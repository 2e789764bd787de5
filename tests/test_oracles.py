"""Reduction oracles: a degenerate federation must equal the central
computation it reduces to, written here from the public ``nn`` and
``losses`` functions."""

import copy

import numpy as np
import pytest

from fedkdx.federation import run_round
from fedkdx.losses import ce_batch
from fedkdx.nn import backward, forward, params_iadd_scaled
from helpers import SMALL_SYNTH, make_experiment, write_fake_archive

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
                   epochs, client.batch_size, client.student_lr)
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
