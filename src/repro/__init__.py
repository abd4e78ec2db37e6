"""Reproduction of *Interactive Search with Reinforcement Learning* (ICDE 2025).

The interactive regret query finds a tuple whose regret ratio w.r.t. an
unknown linear user utility is below a threshold ``epsilon``, by asking
the user pairwise "which do you prefer?" questions.  This package
implements the paper's two RL-based interactive algorithms — the exact
**EA** and the scalable approximate **AA** — together with every substrate
they need (computational geometry over the utility simplex, a from-scratch
numpy DQN, dataset generators) and the three published baselines
(UH-Random, UH-Simplex, SinglePass) plus the historical UtilityApprox.

Quickstart
----------
>>> from repro import (
...     synthetic_dataset, sample_training_utilities,
...     train_ea, run_session, OracleUser,
... )
>>> dataset = synthetic_dataset("anti", 1000, 3, rng=0)
>>> agent = train_ea(
...     dataset, sample_training_utilities(3, 20, rng=1), rng=2,
... )
>>> user = OracleUser(sample_training_utilities(3, 1, rng=3)[0])
>>> result = run_session(agent.new_session(rng=4), user)
>>> result.rounds < 20
True

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
reproduction of every figure in the paper's evaluation.
"""

from repro.baselines import (
    AdaptiveSession,
    SinglePassSession,
    UHRandomSession,
    UHSimplexSession,
    UtilityApproxSession,
)
from repro.core import (
    AAConfig,
    AASession,
    EAConfig,
    EASession,
    InteractiveAlgorithm,
    Question,
    SessionResult,
    TrainedAgent,
    run_session,
    train_aa,
    train_ea,
)
from repro.data import (
    Dataset,
    load_car,
    load_player,
    sample_training_utilities,
    synthetic_dataset,
    toy_database,
)
from repro.data.io import load_csv, save_csv
from repro.data.summary import DatasetSummary, summarize
from repro.errors import ReproError
from repro.registry import (
    make_config,
    make_session,
    make_trainer,
    session_names,
)
from repro.rl.serialization import load_agent, save_agent
from repro.eval import evaluate_algorithm, max_regret_ratio
from repro.geometry.vectors import regret_ratio
from repro.serve import ContinuousEngine, run_serve_bench
from repro.users import NoisyUser, OracleUser

__version__ = "1.0.0"

__all__ = [
    "AdaptiveSession",
    "AAConfig",
    "AASession",
    "EAConfig",
    "EASession",
    "Dataset",
    "InteractiveAlgorithm",
    "NoisyUser",
    "OracleUser",
    "Question",
    "ReproError",
    "SessionResult",
    "SinglePassSession",
    "TrainedAgent",
    "UHRandomSession",
    "UHSimplexSession",
    "UtilityApproxSession",
    "ContinuousEngine",
    "evaluate_algorithm",
    "load_agent",
    "load_car",
    "load_csv",
    "load_player",
    "make_config",
    "make_session",
    "make_trainer",
    "max_regret_ratio",
    "regret_ratio",
    "run_serve_bench",
    "run_session",
    "session_names",
    "sample_training_utilities",
    "save_agent",
    "save_csv",
    "DatasetSummary",
    "summarize",
    "synthetic_dataset",
    "toy_database",
    "train_aa",
    "train_ea",
]
