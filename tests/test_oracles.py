"""Reduction oracles: a degenerate federation must equal the central
computation it reduces to, written here from the public ``nn`` and
``losses`` functions."""

import numpy as np

from fedkdx.federation import run_round
from fedkdx.losses import ce_batch
from fedkdx.nn import backward, forward, params_iadd_scaled
from helpers import make_experiment


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
        _, grad_logits = ce_batch(trace.logits, y)
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
