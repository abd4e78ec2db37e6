"""A zoo of human-realistic simulated users.

The paper evaluates against a perfect oracle and names noisy users as
future work; a production interactive-search service additionally meets
humans whose preferences are *mixtures* (:class:`PersonaUser`), who tire
and err more as the session drags on (:class:`FatigueUser`), whose taste
shifts mid-session (:class:`DriftingUser`), and who simply refuse to
pick between near-identical options (:class:`AbstainingUser`).

Every model implements the two-valued :class:`~repro.users.oracle.User`
protocol, so all seven algorithm families, both serving engines and the
sharded dispatcher run against them unchanged.  :class:`AbstainingUser`
additionally implements the protocol's optional three-valued ``compare``
(``None`` = abstain), which :func:`repro.core.session.ask_user` consumes
by re-asking and finally forcing a choice.  All models implement
``get_state``/``set_state`` so :mod:`repro.persist` snapshots round-trip
the simulated human (drift RNG, fatigue counter, persona stream)
bit-identically alongside the algorithm.

:func:`make_user` is the registry front door, mirroring
:func:`repro.registry.make_session`: serving benches and the robustness
matrix name models by string and tag sessions with
``SessionSpec.tags["user_model"]``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry import simplex
from repro.users.oracle import NoisyUser, OracleUser, User
from repro.utils.rng import (
    RngLike,
    ensure_rng,
    get_state as get_rng_state,
    set_state as set_rng_state,
)
from repro.utils.validation import require_matrix, require_vector


class PersonaUser:
    """A user whose answers come from a weighted mixture of personas.

    Each question is answered truthfully under *one* persona utility
    vector, drawn from the mixture weights — modelling a household
    account or a user with context-dependent taste.  (A *fixed* convex
    combination would be indistinguishable from a single oracle, since
    pairwise comparisons are linear in ``u``; per-question sampling is
    what creates genuinely inconsistent answers.)

    The evaluation-facing :attr:`utility` is the weighted mixture — the
    best single vector summarising the account.
    """

    def __init__(
        self,
        personas: np.ndarray,
        weights: np.ndarray | None = None,
        rng: RngLike = None,
    ) -> None:
        personas = require_matrix(personas, "personas")
        if personas.shape[0] < 1:
            raise ValueError("need at least one persona")
        for row in personas:
            if not simplex.on_simplex(row, tol=1e-6):
                raise ValueError(
                    "every persona must be non-negative and sum to 1"
                )
        if weights is None:
            weights = np.full(personas.shape[0], 1.0 / personas.shape[0])
        weights = require_vector(weights, "weights", size=personas.shape[0])
        if np.any(weights < 0) or not np.isclose(float(weights.sum()), 1.0):
            raise ValueError("weights must be non-negative and sum to 1")
        self._personas = personas
        self._weights = weights
        self._rng = ensure_rng(rng)
        self.questions_asked = 0

    @property
    def utility(self) -> np.ndarray:
        """Mixture utility (evaluation harness only)."""
        return np.asarray(self._weights @ self._personas, dtype=float)

    @property
    def dimension(self) -> int:
        return int(self._personas.shape[1])

    def prefers(self, p_i: np.ndarray, p_j: np.ndarray) -> bool:
        """Answer truthfully under one persona drawn from the weights."""
        p_i = require_vector(p_i, "p_i", size=self.dimension)
        p_j = require_vector(p_j, "p_j", size=self.dimension)
        self.questions_asked += 1
        persona = self._personas[
            int(self._rng.choice(self._personas.shape[0], p=self._weights))
        ]
        return float(persona @ p_i) >= float(persona @ p_j)

    def get_state(self) -> dict[str, Any]:
        """Checkpointable state: question counter and persona RNG."""
        return {
            "model": type(self).__name__,
            "questions_asked": int(self.questions_asked),
            "rng": get_rng_state(self._rng),
        }

    def set_state(self, state: dict[str, Any]) -> None:
        """Overwrite mutable state with a :meth:`get_state` dict."""
        _check_model(state, self)
        self.questions_asked = int(state["questions_asked"])
        set_rng_state(self._rng, state["rng"])


class FatigueUser(OracleUser):
    """An oracle whose error rate grows with every question asked.

    The flip probability for question ``t`` (0-based count of questions
    already answered) is ``min(max_error, fatigue_rate * t)``: the first
    answer is perfect, later ones degrade linearly until the cap —
    modelling attention decay over a long session and rewarding
    algorithms that front-load informative questions.
    """

    def __init__(
        self,
        utility: np.ndarray,
        fatigue_rate: float = 0.02,
        max_error: float = 0.4,
        rng: RngLike = None,
    ) -> None:
        super().__init__(utility)
        if fatigue_rate < 0:
            raise ValueError(
                f"fatigue_rate must be >= 0, got {fatigue_rate}"
            )
        if not 0.0 <= max_error < 0.5:
            # >= 0.5 would make late answers anti-informative and no
            # repetition policy could help.
            raise ValueError(
                f"max_error must be in [0, 0.5), got {max_error}"
            )
        self.fatigue_rate = fatigue_rate
        self.max_error = max_error
        self._rng = ensure_rng(rng)
        self.mistakes_made = 0

    def prefers(self, p_i: np.ndarray, p_j: np.ndarray) -> bool:
        fatigue = min(
            self.max_error, self.fatigue_rate * self.questions_asked
        )
        truthful = super().prefers(p_i, p_j)
        if self._rng.uniform() < fatigue:
            self.mistakes_made += 1
            return not truthful
        return truthful

    def get_state(self) -> dict[str, Any]:
        state = super().get_state()
        state["mistakes_made"] = int(self.mistakes_made)
        state["rng"] = get_rng_state(self._rng)
        return state

    def set_state(self, state: dict[str, Any]) -> None:
        super().set_state(state)
        self.mistakes_made = int(state["mistakes_made"])
        set_rng_state(self._rng, state["rng"])


class DriftingUser(OracleUser):
    """An oracle whose hidden utility random-walks on the simplex.

    Before every answer the utility takes a Gaussian step and is
    Euclidean-projected back onto the simplex
    (:func:`repro.geometry.simplex.project_onto_simplex`), so early
    answers become stale constraints.  An answer that contradicts them
    would empty the inferred region; the utility range drops it instead
    and counts it in ``stats.rejected``, so the session keeps going.
    :attr:`utility` reports the *current* vector, so regret is scored
    against the user's taste at recommendation time.
    """

    def __init__(
        self,
        utility: np.ndarray,
        drift: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        super().__init__(utility)
        if drift < 0:
            raise ValueError(f"drift must be >= 0, got {drift}")
        self.drift = drift
        self._rng = ensure_rng(rng)

    def prefers(self, p_i: np.ndarray, p_j: np.ndarray) -> bool:
        step = self._rng.normal(0.0, self.drift, size=self.dimension)
        self._utility = simplex.project_onto_simplex(self._utility + step)
        return super().prefers(p_i, p_j)

    def get_state(self) -> dict[str, Any]:
        state = super().get_state()
        state["utility"] = np.array(self._utility, dtype=float)
        state["rng"] = get_rng_state(self._rng)
        return state

    def set_state(self, state: dict[str, Any]) -> None:
        super().set_state(state)
        self._utility = np.array(state["utility"], dtype=float)
        set_rng_state(self._rng, state["rng"])


class AbstainingUser(OracleUser):
    """An oracle that abstains when the two options are nearly tied.

    Implements the protocol's optional three-valued ``compare``: when
    ``|u . (p_i - p_j)| < margin`` the user returns ``None`` ("can't
    tell") instead of guessing.  :func:`repro.core.session.ask_user`
    re-asks and finally falls back to :meth:`prefers`, which forces the
    truthful tie-break — so sessions still terminate, at the cost of
    extra questions counted in :attr:`abstentions`.
    """

    def __init__(self, utility: np.ndarray, margin: float = 0.05) -> None:
        super().__init__(utility)
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        self.margin = margin
        self.abstentions = 0

    def compare(self, p_i: np.ndarray, p_j: np.ndarray) -> bool | None:
        """Three-valued answer: ``None`` when within the margin."""
        p_i = require_vector(p_i, "p_i", size=self.dimension)
        p_j = require_vector(p_j, "p_j", size=self.dimension)
        self.questions_asked += 1
        gap = float(self._utility @ (p_i - p_j))
        if abs(gap) < self.margin:
            self.abstentions += 1
            return None
        return gap >= 0.0

    def get_state(self) -> dict[str, Any]:
        state = super().get_state()
        state["abstentions"] = int(self.abstentions)
        return state

    def set_state(self, state: dict[str, Any]) -> None:
        super().set_state(state)
        self.abstentions = int(state["abstentions"])


def _check_model(state: dict[str, Any], user: object) -> None:
    from repro.errors import PersistenceError

    if state.get("model") != type(user).__name__:
        raise PersistenceError(
            f"user state model {state.get('model')!r} does not match "
            f"{type(user).__name__}"
        )


def capture_user_state(user: User) -> dict[str, Any] | None:
    """``user.get_state()`` if the user supports it, else ``None``."""
    get_state = getattr(user, "get_state", None)
    if get_state is None:
        return None
    return dict(get_state())


def restore_user_state(user: User, state: dict[str, Any] | None) -> None:
    """Apply a captured state to ``user`` (no-op on ``None``)."""
    if state is None:
        return
    set_state = getattr(user, "set_state", None)
    if set_state is None:
        raise ConfigurationError(
            f"{type(user).__name__} cannot restore user state "
            f"(expected model {state.get('model')!r})"
        )
    set_state(state)


# -- registry -----------------------------------------------------------------

UserBuilder = Callable[..., User]

_USER_MODELS: dict[str, UserBuilder] = {}


def register_user_model(name: str, builder: UserBuilder) -> None:
    """Register a user-model builder under ``name`` (lower-case)."""
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("user model name must be non-empty")
    _USER_MODELS[key] = builder


def user_model_names() -> tuple[str, ...]:
    """All registered user-model names, sorted."""
    return tuple(sorted(_USER_MODELS))


def canonical_user_model(name: str) -> str:
    """Validate and normalise a user-model name."""
    key = name.strip().lower()
    if key not in _USER_MODELS:
        known = ", ".join(user_model_names())
        raise ConfigurationError(
            f"unknown user model {name!r}; known models: {known}"
        )
    return key


def make_user(
    model: str,
    utility: np.ndarray,
    rng: RngLike = None,
    noise: float = 0.1,
    **params: Any,
) -> User:
    """Build a registered user model around a hidden ``utility`` vector.

    ``noise`` is the model's headline error knob (ignored by models
    without one); ``params`` pass through to the concrete constructor
    (e.g. ``margin=`` for ``abstaining``, ``drift=`` for ``drifting``).
    Models that draw no randomness never touch ``rng``, so oracle rows
    stay bit-identical to pre-zoo runs.
    """
    builder = _USER_MODELS[canonical_user_model(model)]
    return builder(utility, rng=rng, noise=noise, **params)


def _build_oracle(
    utility: np.ndarray, rng: RngLike, noise: float
) -> OracleUser:
    return OracleUser(utility)


def _build_noisy(
    utility: np.ndarray,
    rng: RngLike,
    noise: float,
    temperature: float = 0.05,
) -> NoisyUser:
    return NoisyUser(
        utility, error_rate=noise, temperature=temperature, rng=rng
    )


def _build_persona(
    utility: np.ndarray,
    rng: RngLike,
    noise: float,
    personas: int = 3,
    concentration: float = 30.0,
) -> PersonaUser:
    """Derive ``personas`` variations of ``utility`` via a Dirichlet draw.

    ``concentration`` scales how tightly personas cluster around the
    account utility; draws consume the same ``rng`` the user answers
    with, keeping the whole construction one seeded stream.
    """
    generator = ensure_rng(rng)
    utility = require_vector(utility, "utility")
    alpha = concentration * utility + 1.0
    matrix = generator.dirichlet(alpha, size=int(personas))
    return PersonaUser(matrix, rng=generator)


def _build_fatigue(
    utility: np.ndarray,
    rng: RngLike,
    noise: float,
    fatigue_rate: float | None = None,
    max_error: float = 0.4,
) -> FatigueUser:
    if fatigue_rate is None:
        # Reach the headline error level after ~20 questions.
        fatigue_rate = noise / 20.0 if noise > 0 else 0.02
    return FatigueUser(
        utility, fatigue_rate=fatigue_rate, max_error=max_error, rng=rng
    )


def _build_drifting(
    utility: np.ndarray,
    rng: RngLike,
    noise: float,
    drift: float = 0.02,
) -> DriftingUser:
    return DriftingUser(utility, drift=drift, rng=rng)


def _build_abstaining(
    utility: np.ndarray,
    rng: RngLike,
    noise: float,
    margin: float = 0.05,
) -> AbstainingUser:
    return AbstainingUser(utility, margin=margin)


register_user_model("oracle", _build_oracle)
register_user_model("noisy", _build_noisy)
register_user_model("persona", _build_persona)
register_user_model("fatigue", _build_fatigue)
register_user_model("drifting", _build_drifting)
register_user_model("abstaining", _build_abstaining)
