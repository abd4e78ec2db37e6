"""The paper's primary contribution: RL-driven interactive regret search.

Layout:

* :mod:`~repro.core.session` — the interaction protocol shared by every
  algorithm (EA, AA and the baselines): propose a question, observe the
  answer, repeat until the stopping condition holds.
* :mod:`~repro.core.terminal` — terminal polyhedra (Lemmas 4 and 6) and
  the anchor-point set ``P_R`` that restricts EA's action space.
* :mod:`~repro.core.state_encoding` — EA's fixed-length state vector:
  greedy max-coverage extreme-vector selection plus the outer sphere.
* :mod:`~repro.core.environment` — the MDP interface (state, candidate
  actions, transition, reward) substantiated by EA and AA.
* :mod:`~repro.core.trainer` — generic DQN training over an interactive
  environment (Algorithms 1 and 3) and the :class:`TrainedAgent` both
  algorithms produce.
* :mod:`~repro.core.ea` / :mod:`~repro.core.aa` — the two algorithms.
"""

from repro.core.aa import AAConfig, AASession, train_aa
from repro.core.ea import EAConfig, EASession, train_ea
from repro.core.robust import MajorityVoteSession
from repro.core.session import (
    InteractiveAlgorithm,
    Question,
    SessionResult,
    TranscriptEntry,
    ask_user,
    run_session,
)
from repro.core.trainer import TrainedAgent, train_policy

__all__ = [
    "AAConfig",
    "AASession",
    "train_aa",
    "EAConfig",
    "EASession",
    "train_ea",
    "TrainedAgent",
    "train_policy",
    "InteractiveAlgorithm",
    "MajorityVoteSession",
    "Question",
    "SessionResult",
    "TranscriptEntry",
    "ask_user",
    "run_session",
]
