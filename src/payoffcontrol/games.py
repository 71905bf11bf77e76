"""Finite n-player base games in strategic form.

A game is a dense payoff table with one row per action profile and one
column per player.  Profiles are ordered lexicographically with player 0
most significant: for two players with actions (C, D) each, the rows are
CC, CD, DC, DD.  All player indices in this package are 0-based; the
command line front end accepts 1-based indices and converts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateActionLabelError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NonFiniteEntryError,
    PlayerOutOfRangeError,
    UnknownActionError,
    UnknownKindError,
)

# Tolerances for probability bookkeeping.  Construction is strict; sums of
# many floating point terms get the looser bound.
MIXED_SUM_TOL = 1e-12
DIST_SUM_TOL = 1e-10
CLAMP_TOL = 1e-12


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_probs(vec: np.ndarray, sum_tol: float, what: str) -> np.ndarray:
    if vec.ndim != 1 or vec.size < 1:
        raise DimensionMismatchError(f"{what} must be a non-empty vector")
    if not np.all(np.isfinite(vec)):
        raise NonFiniteEntryError(f"{what} contains a non-finite entry")
    if np.any(vec < -CLAMP_TOL) or np.any(vec > 1.0 + CLAMP_TOL):
        raise InvalidParamsError(f"{what} has an entry outside [0, 1]")
    total = float(vec.sum())
    if abs(total - 1.0) > sum_tol:
        raise InvalidParamsError(f"{what} sums to {total!r}, expected 1")
    return np.clip(vec, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class MixedAction:
    """A probability vector over one player's actions."""

    probs: np.ndarray

    def __post_init__(self):
        cleaned = _check_probs(np.asarray(self.probs, dtype=float),
                               MIXED_SUM_TOL, "mixed action")
        object.__setattr__(self, "probs", _readonly(cleaned))

    @classmethod
    def point(cls, size: int, index: int) -> "MixedAction":
        vec = np.zeros(size)
        vec[index] = 1.0
        return cls(vec)

    @classmethod
    def uniform(cls, size: int) -> "MixedAction":
        return cls(np.full(size, 1.0 / size))

    def __eq__(self, other):
        return isinstance(other, MixedAction) and np.array_equal(self.probs, other.probs)

    def __len__(self):
        return self.probs.size


@dataclass(frozen=True, eq=False)
class ProfileDistribution:
    """A probability vector over action profiles, in canonical row order."""

    probs: np.ndarray

    def __post_init__(self):
        cleaned = _check_probs(np.asarray(self.probs, dtype=float),
                               DIST_SUM_TOL, "profile distribution")
        object.__setattr__(self, "probs", _readonly(cleaned))

    @classmethod
    def point_mass(cls, size: int, index: int) -> "ProfileDistribution":
        vec = np.zeros(size)
        vec[index] = 1.0
        return cls(vec)

    def __eq__(self, other):
        return (isinstance(other, ProfileDistribution)
                and np.array_equal(self.probs, other.probs))


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A validated base game.  Use :func:`build_game` to construct one."""

    action_labels: tuple[tuple[str, ...], ...]
    payoffs: np.ndarray  # (profile_count, player_count), read-only

    @property
    def player_count(self) -> int:
        return len(self.action_labels)

    @cached_property
    def action_counts(self) -> tuple[int, ...]:
        return tuple(len(labels) for labels in self.action_labels)

    @cached_property
    def profile_count(self) -> int:
        return int(np.prod(self.action_counts))

    @cached_property
    def profile_actions(self) -> np.ndarray:
        """(profile_count, player_count) table of per-player action indices."""
        idx = np.unravel_index(np.arange(self.profile_count), self.action_counts)
        return _readonly(np.stack(idx, axis=1), dtype=int)

    def action_index(self, player: int, label: str) -> int:
        self.check_player(player)
        try:
            return self.action_labels[player].index(label)
        except ValueError:
            raise UnknownActionError(
                f"player {player} has no action {label!r}") from None

    def check_player(self, player: int) -> None:
        if not 0 <= player < self.player_count:
            raise PlayerOutOfRangeError(
                f"player {player} outside [0, {self.player_count})")

    def payoff_vector(self, player: int) -> np.ndarray:
        self.check_player(player)
        return self.payoffs[:, player]

    def __eq__(self, other):
        return (isinstance(other, GameSpec)
                and self.action_labels == other.action_labels
                and np.array_equal(self.payoffs, other.payoffs))


def build_game(action_labels: Sequence[Sequence[str]],
               payoff_rows: Iterable[Sequence[float]]) -> GameSpec:
    """Validate labels and payoffs and assemble a :class:`GameSpec`.

    ``payoff_rows`` must contain one row per action profile in canonical
    order (player 0 most significant) with one payoff per player.
    """
    labels = tuple(tuple(str(a) for a in group) for group in action_labels)
    if len(labels) < 2:
        raise DimensionMismatchError("a game needs at least two players")
    for i, group in enumerate(labels):
        if len(group) < 2:
            raise DimensionMismatchError(f"player {i} needs at least two actions")
        if len(set(group)) != len(group):
            raise DuplicateActionLabelError(f"player {i} has duplicate action labels")
    payoffs = np.array(list(payoff_rows), dtype=float)
    expected_rows = int(np.prod([len(g) for g in labels]))
    if payoffs.shape != (expected_rows, len(labels)):
        raise DimensionMismatchError(
            f"payoff table has shape {payoffs.shape}, expected "
            f"({expected_rows}, {len(labels)})")
    if not np.all(np.isfinite(payoffs)):
        raise NonFiniteEntryError("payoff table contains a non-finite entry")
    return GameSpec(labels, _readonly(payoffs))


def profile_index(game: GameSpec, profile: Sequence[str]) -> int:
    """Canonical row index of a profile given as one label per player."""
    if len(profile) != game.player_count:
        raise DimensionMismatchError(
            f"profile has {len(profile)} labels for {game.player_count} players")
    actions = [game.action_index(i, label) for i, label in enumerate(profile)]
    return int(np.ravel_multi_index(actions, game.action_counts))


def profile_from_index(game: GameSpec, index: int) -> tuple[str, ...]:
    """Inverse of :func:`profile_index`."""
    if not 0 <= index < game.profile_count:
        raise IndexOutOfRangeError(
            f"profile index {index} outside [0, {game.profile_count})")
    actions = np.unravel_index(index, game.action_counts)
    return tuple(game.action_labels[i][a] for i, a in enumerate(actions))


def expected_payoff(game: GameSpec, player: int,
                    dist: ProfileDistribution) -> float:
    """Expected one-shot payoff of ``player`` under a profile distribution."""
    game.check_player(player)
    if dist.probs.size != game.profile_count:
        raise DimensionMismatchError(
            f"distribution has {dist.probs.size} entries for "
            f"{game.profile_count} profiles")
    return float(np.dot(game.payoffs[:, player], dist.probs))


def prisoners_dilemma(reward: float, sucker: float,
                      temptation: float, punishment: float) -> GameSpec:
    """Symmetric two-player two-action game with actions C and D."""
    rows = [
        (reward, reward),
        (sucker, temptation),
        (temptation, sucker),
        (punishment, punishment),
    ]
    return build_game((("C", "D"), ("C", "D")), rows)


def donation_game(costs: Sequence[float], benefits: Sequence[float]) -> GameSpec:
    """Two-player donation game with one action per (cost, benefit) level.

    Action j means: pay costs[j] so the other player receives benefits[j].
    Actions are labeled C1, C2, ... with a trailing zero-cost zero-benefit
    action labeled D.
    """
    costs = [float(c) for c in costs]
    benefits = [float(b) for b in benefits]
    if len(costs) != len(benefits):
        raise InvalidParamsError("costs and benefits must have equal length")
    if len(costs) < 2:
        raise InvalidParamsError("a donation game needs at least two actions")
    k = len(costs)
    labels = [f"C{j + 1}" for j in range(k)]
    if costs[-1] == 0.0 and benefits[-1] == 0.0:
        labels[-1] = "D"
    rows = []
    for j1 in range(k):
        for j2 in range(k):
            rows.append((-costs[j1] + benefits[j2], -costs[j2] + benefits[j1]))
    return build_game((tuple(labels), tuple(labels)), rows)


def public_goods_game(players: int, cost: float, multiplier: float) -> GameSpec:
    """n-player public goods game with actions C (contribute) and D.

    Contributions are multiplied and shared equally among all players.
    """
    if players < 2:
        raise InvalidParamsError("a public goods game needs at least two players")
    labels = tuple(("C", "D") for _ in range(players))
    count = 2 ** players
    rows = []
    for index in range(count):
        bits = np.unravel_index(index, (2,) * players)
        contributed = [b == 0 for b in bits]
        share = sum(contributed) * cost * multiplier / players
        rows.append([share - (cost if c else 0.0) for c in contributed])
    return build_game(labels, rows)


_BUILTIN_BUILDERS: Mapping[str, object] = {
    "prisoners_dilemma": prisoners_dilemma,
    "donation": donation_game,
    "public_goods": public_goods_game,
}


def builtin_game(kind: str, **params) -> GameSpec:
    """Construct one of the named example games.

    Kinds: ``prisoners_dilemma(reward, sucker, temptation, punishment)``,
    ``donation(costs, benefits)``, ``public_goods(players, cost, multiplier)``.
    """
    try:
        builder = _BUILTIN_BUILDERS[kind]
    except KeyError:
        raise UnknownKindError(
            f"unknown builtin game {kind!r}; available: "
            f"{sorted(_BUILTIN_BUILDERS)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise InvalidParamsError(f"bad parameters for {kind}: {exc}") from None
