"""Saving and loading trained agents.

Training an interactive agent is the expensive step (Section V trains on
10,000 utility vectors); a deployment answers many user sessions with one
trained Q-function.  This module persists a trained
:class:`~repro.core.trainer.TrainedAgent` (EA's or AA's) to a single
``.npz`` file: network weights and dataset as arrays, the algorithm
configuration as JSON in a string array.  The agent's ``family``
round-trips through the ``algorithm`` field (upper-cased, ``"EA"`` /
``"AA"``); loading resolves the family's session and config classes
through :mod:`repro.registry`.

Format (npz keys)
-----------------
``meta``            JSON: algorithm name, config, network shape/activation
``dataset_points``  the (skyline-preprocessed) dataset the agent is bound to
``dataset_names``   attribute names
``w{i}`` / ``b{i}`` weight matrices and bias vectors of the main network

The target network is not stored — it is only a training-time aid and is
re-initialised as a copy of the main network on load.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.data.datasets import Dataset
from repro.errors import ConfigurationError, DataError
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.network import MLP
from repro.rl.schedules import ConstantSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.trainer import TrainedAgent

_FORMAT_VERSION = 1


def save_agent(agent: "TrainedAgent", path: str | Path) -> Path:
    """Persist a trained agent to ``path`` (``.npz`` appended if missing).

    Returns the path actually written.
    """
    from repro.core.trainer import TrainedAgent

    if not isinstance(agent, TrainedAgent):
        raise TypeError(f"cannot serialise {type(agent).__name__}")
    network = agent.dqn.network
    meta = {
        "format_version": _FORMAT_VERSION,
        "algorithm": agent.family.upper(),
        "config": dataclasses.asdict(agent.config),
        "dataset_name": agent.dataset.name,
        "layer_sizes": list(network.layer_sizes),
        "activation": network.activation_name,
        "state_dim": agent.dqn.state_dim,
        "action_dim": agent.dqn.action_dim,
        "discount": agent.dqn.config.discount,
    }
    arrays: dict[str, np.ndarray] = {
        "meta": np.array(json.dumps(meta)),
        "dataset_points": agent.dataset.points,
        "dataset_names": np.array(agent.dataset.attribute_names),
    }
    for index, (weight, bias) in enumerate(
        zip(network.weights, network.biases)
    ):
        arrays[f"w{index}"] = weight
        arrays[f"b{index}"] = bias
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(path, **arrays)
    return path


def load_agent(path: str | Path) -> "TrainedAgent":
    """Load an agent previously written by :func:`save_agent`."""
    from repro.core.trainer import TrainedAgent
    from repro.registry import session_spec

    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["meta"]))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise DataError(
                f"unsupported agent file version {meta.get('format_version')}"
            )
        dataset = Dataset(
            archive["dataset_points"],
            name=meta["dataset_name"],
            attribute_names=tuple(str(n) for n in archive["dataset_names"]),
        )
        weights = []
        biases = []
        index = 0
        while f"w{index}" in archive:
            weights.append(archive[f"w{index}"])
            biases.append(archive[f"b{index}"])
            index += 1
    dqn = DQNAgent(
        state_dim=int(meta["state_dim"]),
        action_dim=int(meta["action_dim"]),
        config=DQNConfig(
            hidden_sizes=tuple(meta["layer_sizes"][1:-1]),
            activation=meta["activation"],
            discount=float(meta["discount"]),
            exploration=ConstantSchedule(0.0),
        ),
        rng=0,
    )
    try:
        spec = session_spec(meta["algorithm"])
    except ConfigurationError:
        spec = None
    if spec is None or spec.config is None:
        raise DataError(
            f"unknown algorithm {meta['algorithm']!r} in agent file"
        )
    _install_parameters(dqn.network, weights, biases)
    dqn.sync_target()
    fields = dict(meta["config"])
    # Older EA headers carry the retired range-policy block; drop it.
    fields.pop("range_config", None)
    return TrainedAgent(spec.factory, dataset, spec.config(**fields), dqn)


def _install_parameters(
    network: MLP, weights: list[np.ndarray], biases: list[np.ndarray]
) -> None:
    """Copy loaded arrays into a freshly built network, shape-checked."""
    if len(weights) != network.n_layers:
        raise DataError(
            f"agent file has {len(weights)} layers, expected {network.n_layers}"
        )
    for index, (weight, bias) in enumerate(zip(weights, biases)):
        if network.weights[index].shape != weight.shape:
            raise DataError(
                f"layer {index} shape mismatch: file {weight.shape}, "
                f"network {network.weights[index].shape}"
            )
        network.weights[index][...] = weight
        network.biases[index][...] = bias
