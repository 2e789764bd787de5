"""Federated mutual-distillation simulator.

Clients train a private teacher and a shared student jointly; student
gradients travel through an energy-thresholded low-rank codec, the server
averages and redistributes them, and everything stays bit-reproducible
for a fixed seed.

Submodules: linalg, losses, wire, nn, compression, metrics, data,
federation, config, experiment, cli.
"""

__version__ = "0.1.0"
