"""Repeated play of a base game under a continuation schedule.

Round t is reached with probability p(t) = c(1)...c(t-1) where c is the
continuation probability after each round (p(1) = 1).  When every player
uses a Markov strategy (next mixed action depends only on the previous
profile), per-round play is a Markov chain over profiles and the quantity
of interest is the p-weighted limiting average of the per-round profile
distributions.  Payoffs evaluated against that average are the effective
payoffs of the repeated game.

One kernel, ``markov_average``, computes that average exactly for a whole
stack of chains and every schedule.  A schedule is a list of explicit
continuation values followed by a constant tail c: ``Infinite`` is no
values and c = 1, ``Delta`` no values and c = delta, ``FiniteHorizon(T)``
T - 1 ones and c = 0, ``Custom`` its values and tail.  The explicit rounds
are summed as v1 M^(t-1); the tail is the resolvent average
(1 - c) v (I - cM)^-1, whose c = 1 case is the Cesàro limit v P* (the
long-run running average, for periodic and reducible chains too).  Every
tail, c = 1 included, is one state reduction of the chain extended by a
start state (``_tail_average``): it never subtracts, so each entry keeps a
small relative error also on nearly decomposable chains and for c near 1,
and closed classes need no separate decomposition.

A chain whose average fails its a-posteriori check is reported, never
returned as a number.  ``average_distribution`` is the kernel's one-chain
case.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InconsistentStrategyError,
    InvalidParamsError,
    MissingRoundCapError,
    NoConvergenceError,
    PlayerOutOfRangeError,
)
from .games import (
    DIST_SUM_TOL,
    MIXED_SUM_TOL,
    GameSpec,
    MixedAction,
    ProfileDistribution,
    check_rows,
)

# Largest a-posteriori residual an exact average may carry.
RESIDUAL_TOL = 1e-9

# Most rounds a schedule may ask to be summed one by one.
MAX_ROUNDS = 10 ** 6

# Cells per row of a Monte Carlo draw's lookup table; a power of 2, so that
# u * DRAW_CELLS is exact.
DRAW_CELLS = 256


# ---------------------------------------------------------------------------
# Continuation schedules


class ContinuationSchedule:
    """Base class; subclasses define c(t) for integer rounds t >= 1."""

    def continuation(self, t: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Infinite(ContinuationSchedule):
    """Play continues forever: c(t) = 1."""

    def continuation(self, t: int) -> float:
        return 1.0


@dataclass(frozen=True)
class Delta(ContinuationSchedule):
    """Constant continuation probability delta in [0, 1)."""

    delta: float

    def __post_init__(self):
        # any real number but bool, stored as a plain float without -0
        delta = None if isinstance(self.delta, bool) else self.delta
        if not (isinstance(delta, numbers.Real) and math.isfinite(delta)
                and 0.0 <= delta < 1.0):
            raise InvalidParamsError(f"delta must lie in [0, 1), got {self.delta!r}")
        object.__setattr__(self, "delta", float(delta) + 0.0)

    def continuation(self, t: int) -> float:
        return self.delta


@dataclass(frozen=True)
class FiniteHorizon(ContinuationSchedule):
    """Exactly ``rounds`` rounds are played: c(t) = 1 for t < rounds, else 0."""

    rounds: int

    def __post_init__(self):
        # any integer type but bool, stored as a plain int
        try:
            rounds = operator.index(self.rounds)
        except TypeError:
            rounds = None
        if isinstance(self.rounds, bool) or rounds is None or rounds < 1:
            raise InvalidParamsError(f"rounds must be an integer >= 1, got {self.rounds!r}")
        object.__setattr__(self, "rounds", rounds)

    def continuation(self, t: int) -> float:
        return 1.0 if t < self.rounds else 0.0


@dataclass(frozen=True)
class Custom(ContinuationSchedule):
    """Explicit continuation values for the first rounds, constant afterwards."""

    values: tuple[float, ...]
    tail: float = 0.0

    def __post_init__(self):
        vals = np.array([*self.values, self.tail], dtype=float) + 0.0  # no -0
        inside = (vals >= 0.0) & (vals <= 1.0)  # NaN fails both
        if not inside.all():
            bad = float(vals[np.argmin(inside)])
            raise InvalidParamsError(f"continuation value {bad!r} outside [0, 1]")
        object.__setattr__(self, "values", tuple(vals[:-1].tolist()))
        object.__setattr__(self, "tail", float(vals[-1]))

    def continuation(self, t: int) -> float:
        if t <= len(self.values):
            return self.values[t - 1]
        return self.tail


def classify_schedule(schedule: ContinuationSchedule) -> float | None:
    """The schedule's ruling weight d: 1.0 for infinite expected rounds,
    the constant continuation c < 1, or None for any other schedule.

    The schedule is read as its explicit continuation values followed by
    a constant tail (``_continuations``) and compared exactly.  A tail of
    exactly 1 behind strictly positive values makes the expected round
    count diverge; explicit values all equal to the tail are a constant
    continuation, so FiniteHorizon(1), with c identically zero, weighs 0.
    """
    values, c = _continuations(schedule)
    if c == 1.0 and all(v > 0.0 for v in values):
        return 1.0
    if all(v == c for v in values):
        return c
    return None


def survival_probabilities(schedule: ContinuationSchedule, t_max: int) -> np.ndarray:
    """p(1..t_max): probability that each round is reached."""
    if t_max < 1:
        raise InvalidParamsError("t_max must be >= 1")
    p = np.empty(t_max)
    p[0] = 1.0
    for t in range(1, t_max):
        p[t] = p[t - 1] * schedule.continuation(t)
    return p


def expected_rounds(schedule: ContinuationSchedule) -> float:
    """Sum of p(t), i.e. the expected number of rounds (may be math.inf)."""
    # classify_schedule decides divergence, so the two never disagree
    if classify_schedule(schedule) == 1.0:
        return math.inf
    if isinstance(schedule, Delta):
        return 1.0 / (1.0 - schedule.delta)
    if isinstance(schedule, FiniteHorizon):
        return float(schedule.rounds)
    # Custom, exact: explicit prefix plus geometric tail
    survival, _ = _survival(schedule.values)
    if schedule.tail >= 1.0:  # not divergent, so some explicit value is 0
        return sum(survival)
    return sum(survival) + survival[-1] * schedule.tail / (1.0 - schedule.tail)


# ---------------------------------------------------------------------------
# Markov strategies


@dataclass(frozen=True, eq=False)
class MarkovStrategy:
    """One player's behavior: an initial mixed action plus a conditional
    table with one row per previous profile (canonical row order)."""

    player: int
    initial: MixedAction
    conditionals: np.ndarray  # (profile_count, own_action_count)

    def __post_init__(self):
        if self.player < 0:
            raise PlayerOutOfRangeError(f"player index {self.player} negative")
        table = np.array(self.conditionals, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(self.initial):
            raise DimensionMismatchError(
                "conditional table must have one column per own action")
        table = check_rows(table, MIXED_SUM_TOL, "conditional")
        table.setflags(write=False)  # the copy, or a clipped one
        object.__setattr__(self, "conditionals", table)

    def is_strict(self) -> bool:
        """True unless the strategy ignores the previous profile entirely:
        False exactly when every row is within 1e-15 of the first."""
        return not np.allclose(self.conditionals, self.conditionals[0],
                               rtol=0.0, atol=1e-15)

    def __eq__(self, other):
        return (isinstance(other, MarkovStrategy)
                and self.player == other.player
                and self.initial == other.initial
                and np.array_equal(self.conditionals, other.conditionals))


@dataclass(frozen=True)
class StrategyProfile:
    """A full assignment of Markov strategies, one per player."""

    strategies: tuple[MarkovStrategy, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.strategies, key=lambda s: s.player))
        players = [s.player for s in ordered]
        if len(set(players)) != len(players):
            raise InconsistentStrategyError("duplicate player in strategy profile")
        if players != list(range(len(players))):
            raise InconsistentStrategyError(
                f"strategies cover players {players}, expected 0..{len(players) - 1}")
        object.__setattr__(self, "strategies", ordered)


def check_profile(game: GameSpec, profile: StrategyProfile) -> None:
    if len(profile.strategies) != game.player_count:
        raise InconsistentStrategyError(
            f"profile has {len(profile.strategies)} strategies for "
            f"{game.player_count} players")
    for strat in profile.strategies:
        check_strategy(game, strat)


def check_strategy(game: GameSpec, strat: MarkovStrategy) -> None:
    game.check_player(strat.player)
    expected = (game.profile_count, game.action_counts[strat.player])
    if strat.conditionals.shape != expected:
        raise InconsistentStrategyError(
            f"player {strat.player} conditional table has shape "
            f"{strat.conditionals.shape}, expected {expected}")


def repeat_strategy(game: GameSpec, player: int,
                    initial: MixedAction | None = None) -> MarkovStrategy:
    """The strategy that always replays its own previous action."""
    game.check_player(player)
    m = game.action_counts[player]
    own = game.profile_actions[:, player]
    table = np.zeros((game.profile_count, m))
    table[np.arange(game.profile_count), own] = 1.0
    if initial is None:
        initial = MixedAction.uniform(m)
    return MarkovStrategy(player, initial, table)


def profile_product(game: GameSpec, tables: Sequence[np.ndarray]) -> np.ndarray:
    """Product over players p of ``tables[p][..., a_p(b)]`` for each profile b.

    With conditional tables (rows = previous profiles) this is the
    transition matrix; with initial mixed actions it is the round-1
    distribution.  Leading axes broadcast, so shared controller tables and
    per-sample opponent tables combine into one stack.
    """
    actions = game.profile_actions
    out = 1.0
    for player, table in enumerate(tables):
        out = out * table[..., actions[:, player]]
    return out


def transition_matrix(game: GameSpec, profile: StrategyProfile) -> np.ndarray:
    """M[a, b] = probability of profile b right after profile a."""
    check_profile(game, profile)
    return profile_product(game, [s.conditionals for s in profile.strategies])


def initial_distribution(game: GameSpec, profile: StrategyProfile) -> ProfileDistribution:
    """Round-1 profile distribution: the product of the initial actions."""
    check_profile(game, profile)
    return ProfileDistribution(
        profile_product(game, [s.initial.probs for s in profile.strategies]))


# ---------------------------------------------------------------------------
# Limiting weighted-average distributions


@dataclass(frozen=True)
class AvgDistributionResult:
    """Limiting average with provenance.

    method: "cesaro" (infinite expected rounds), "closed_form_delta"
    (constant continuation) or "truncated_sum" (any other schedule), by
    the schedule's ``classify_schedule`` weight; all three run the same
    kernel, ``markov_average``.  ``residual`` is the tail's a-posteriori
    residual |x (I - cM) - (1 - c) u|_1, at most RESIDUAL_TOL, and 0
    without a tail.
    """

    dist: ProfileDistribution
    method: str
    residual: float


def connected_components(*args, **kwargs):  # unused; bound for perfbench/tracing.py
    from scipy.sparse.csgraph import connected_components
    return connected_components(*args, **kwargs)


def csr_matrix(*args, **kwargs):  # unused; bound for perfbench/tracing.py
    from scipy.sparse import csr_matrix
    return csr_matrix(*args, **kwargs)


def _settled(x: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Per row of ``_tail_average`` output: residual within RESIDUAL_TOL
    and sum within ProfileDistribution's tolerance of 1.  The reduction
    never subtracts, so no entry is negative; a non-finite row fails both
    comparisons."""
    return (residual <= RESIDUAL_TOL) & (np.abs(x.sum(axis=-1) - 1.0) <= DIST_SUM_TOL)


def _tail_average(m: np.ndarray, u: np.ndarray,
                  c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1 - c) u (I - cM)^-1 for each chain, the Cesàro limit u P* at
    c = 1, with its residual |x (I - cM) - (1 - c) u|_1 and whether it is
    ``_settled``.

    x is the stationary law of a chain with one more state: a start state
    0 whose row is u, while every other state follows c M and returns to
    the start with probability 1 - c.  Scaled so that the start carries
    1 - c, states 1..n carry x.  State reduction (Grassmann, Taksar &
    Heyman 1985) eliminates states n..1 in turn and never subtracts: a
    pivot is the row's mass on the other live states, never 1 - p_kk, so
    every entry keeps a small relative error however nearly decomposable
    the chain is.  Below c = 1 every pivot is at least 1 - c.  At c = 1
    the start is never re-entered, and a pivot of exactly 0 marks the
    last state of a closed class, which stays live.  The start's column,
    all 0 there, then holds the time vector tau (Heyman & Reeves 1989),
    which each elimination updates like any other column, so that tau
    reads a kept state's mean return time within its class;
    back-substitution seeds that state with the mass the start sends it
    over tau.

    The stack is held states-major, as (n + 1, n + 1, N), so every step
    is elementwise along the contiguous chain axis.  A lone chain takes
    two lanes: numpy sums a single run of values pairwise, so one lane
    would round differently from the same chain inside a stack.
    """
    size, n = u.shape
    lanes = max(size, 2)
    a = np.empty((n + 1, n + 1, lanes))
    a[0, 1:] = u.T
    np.multiply(m.transpose(1, 2, 0), c, out=a[1:, 1:])
    closing = c == 1.0
    # column 0 is the return to the start below c = 1; at c = 1, where
    # nothing returns, it holds tau and stays out of the pivots
    a[:, 0] = 1.0 if closing else 1.0 - c
    first = int(closing)
    kept = np.zeros((n + 1, lanes))
    top = 0  # no state at or past it is kept
    for k in range(n, 0, -1):
        row = a[k, :k]
        if top > k:
            # kept states above k are live: their columns join the row
            row = a[k, :top] * kept[:top]
            row[:k] = a[k, :k]
        pivot = np.add.reduce(row[first:])
        if closing and np.count_nonzero(pivot) < lanes:
            # a kept state's row has no mass on live states, so with a
            # unit pivot its update moves only tau, of states never kept
            closed = pivot == 0.0
            kept[k] = closed
            top = max(top, k + 1)
            pivot[closed] = 1.0
        col = a[:k, k]
        col /= pivot
        a[:k, :len(row)] += col[:, None] * row
    pi = np.zeros((n + 1, lanes))
    if closing:
        # the start carries no weight at c = 1; as a unit source whose row
        # holds the seeds it feeds the same back-substitution
        pi[0] = 1.0
        a[0, 1:] *= kept[1:] / a[1:, 0]
    else:
        pi[0] = 1.0 - c
    for k in range(n):
        pi[k + 1:] += pi[k] * a[k, k + 1:]
    x = np.ascontiguousarray(pi[1:, :size].T)
    residual = np.abs(x - c * (x[:, None, :] @ m)[:, 0]
                      - (1.0 - c) * u).sum(axis=-1)
    return x, residual, _settled(x, residual)


def _continuations(schedule: ContinuationSchedule) -> tuple[tuple[float, ...], float]:
    """The schedule as explicit continuation values c(1..k) followed by a
    constant continuation c for every later round."""
    if isinstance(schedule, Infinite):
        return (), 1.0
    if isinstance(schedule, Delta):
        return (), schedule.delta
    if isinstance(schedule, FiniteHorizon):
        # any horizon past the round cap fails it the same way
        return (1.0,) * (min(schedule.rounds, MAX_ROUNDS + 1) - 1), 0.0
    if isinstance(schedule, Custom):
        return schedule.values, schedule.tail
    raise InvalidParamsError(f"unknown schedule {schedule!r}")


def _survival(values: Sequence[float]) -> tuple[list[float], int]:
    """Survival products p(1..k+1) of explicit continuation values c(1..k),
    and how many of those rounds are reached: the products never rise, so
    the reached rounds (p > 0) come first."""
    survival = list(itertools.accumulate(values, operator.mul, initial=1.0))
    return survival, survival.index(0.0) if 0.0 in survival else len(survival)


def schedule_rounds(schedule: ContinuationSchedule
                    ) -> tuple[list[float], float, float]:
    """How the kernels read a schedule: ``(weights, opening, c)``.

    ``weights`` are the survival weights p(1), p(2), ... of the rounds
    summed one by one: every reached round before a live constant tail c,
    or every reached round when no tail is live.  ``opening`` is the
    survival weight of the round that opens a live tail, the round after
    the last weight (0 when no such round is reached).  Raises
    NoConvergenceError when the weights and the opening round number more
    than MAX_ROUNDS.
    """
    values, c = _continuations(schedule)
    survival, reached = _survival(values)
    if reached > MAX_ROUNDS:
        raise NoConvergenceError(
            f"schedule needs more than MAX_ROUNDS={MAX_ROUNDS} rounds")
    # round k + 1 opens the tail when it is reached and the tail is live
    if reached == len(survival) and c > 0.0:
        return survival[:-1], survival[-1], c
    return survival[:reached], 0.0, c


def markov_average(m: np.ndarray, v1: np.ndarray,
                   schedule: ContinuationSchedule
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p-weighted limiting averages of a stack of chains.

    ``m`` is (N, n, n), ``v1`` is (N, n).  Returns ``(vbar, residual,
    settled)``.  The rounds of ``schedule_rounds`` are summed by stacked
    products v M, so a schedule whose survival weight reaches 0 solves
    nothing and is always settled.  A live constant tail c is one
    ``_tail_average`` from the distribution of the round that opens it:
    the same subtraction-free state reduction for every c in (0, 1].  A
    chain is settled when that average is finite, its residual is at most
    RESIDUAL_TOL and its sum is within ProfileDistribution's tolerance of
    1; no entry is ever negative.  An unsettled row of ``vbar`` is 0.
    Raises NoConvergenceError when the schedule needs more than MAX_ROUNDS
    explicit rounds.
    """
    weights, p, c = schedule_rounds(schedule)
    v = v1[:, None, :]
    num = np.zeros(v.shape)
    den = 0.0
    for t, w in enumerate(weights):
        if t:
            v = v @ m
        num += v if w == 1.0 else w * v  # 1.0 * v is v exactly
        den += w
    num = num[:, 0]
    if not p:
        return num / den, np.zeros(len(v1)), np.ones(len(v1), dtype=bool)
    if weights:
        v = v @ m  # the round that opens the tail
    x, residual, settled = _tail_average(m, v[:, 0], c)
    # (num + p/(1 - c) x) / (den + p/(1 - c)), scaled to hold at c = 1
    scale = den * (1.0 - c) + p
    vbar = num * ((1.0 - c) / scale) + x * (p / scale)
    vbar[~settled] = 0.0
    return vbar, residual, settled


def average_distribution(game: GameSpec, profile: StrategyProfile,
                         schedule: ContinuationSchedule) -> AvgDistributionResult:
    """p-weighted limiting average of the per-round profile distributions:
    the one-chain case of ``markov_average``.

    Raises NoConvergenceError when the average does not settle.
    """
    d = classify_schedule(schedule)
    method = ("truncated_sum" if d is None
              else "cesaro" if d == 1.0 else "closed_form_delta")
    v1 = initial_distribution(game, profile).probs
    m = transition_matrix(game, profile)
    vbar, residual, settled = markov_average(m[None], v1[None], schedule)
    if not settled[0]:
        raise NoConvergenceError(
            f"{method} average did not settle (residual {residual[0]:.3e})")
    return AvgDistributionResult(
        ProfileDistribution(vbar[0]), method, float(residual[0]))


def effective_payoffs(game: GameSpec, profile: StrategyProfile,
                      schedule: ContinuationSchedule) -> np.ndarray:
    """Per-player payoffs against the limiting average distribution."""
    result = average_distribution(game, profile, schedule)
    return game.payoffs.T @ result.dist.probs


# ---------------------------------------------------------------------------
# Simulation


@dataclass(frozen=True)
class MonteCarloResult:
    """Pooled per-round payoff averages over simulated episodes.

    Each episode's length is drawn before it is played, from the
    schedule's survival probabilities and capped at the round cap, and
    every round is one draw from the joint chain (see
    ``monte_carlo_play``).  means[i] estimates the effective payoff of
    player i: the total realized payoff across all episodes divided by the
    total number of realized rounds (the ratio estimator).
    ``std_errors`` come from the usual ratio-estimator expansion over
    per-episode payoff sums and lengths, and are zero when only one
    episode was played.  ``mean_rounds`` is the average episode length.
    """

    means: np.ndarray
    std_errors: np.ndarray
    episodes: int
    mean_rounds: float


def check_seed(seed: int) -> None:
    """Reject a negative generator seed with a message that names it."""
    if seed < 0:
        raise InvalidParamsError(f"seed must be >= 0, got {seed}")


class _RowSampler:
    """Inverse-CDF draws from the probability rows of a (k, n) array.

    Row s owns the search keys ``2s + cumsum(rows[s])`` followed by the
    sentinel ``2s + 1.5``, so a query ``2s + u`` with u in [0, 1) lands
    inside row s even when rounding leaves it at or past the row's sum.
    A draw is the first column whose cumulative probability exceeds u, or
    the row's last column of positive probability (the sentinel's target)
    when none does; a column of probability 0 is never drawn.

    Most draws skip the search: [0, 1) is cut into DRAW_CELLS equal cells
    per row, and a cell that no key falls strictly inside stores its draw.
    """

    def __init__(self, rows: np.ndarray):
        k, n = rows.shape
        keys = np.empty((k, n + 1))
        np.cumsum(rows, axis=1, out=keys[:, :n])
        keys[:, n] = 1.5
        offsets = 2.0 * np.arange(k)[:, None]
        keys += offsets
        targets = np.tile(np.arange(n + 1), (k, 1))
        targets[:, n] = n - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
        self.keys, self.targets = keys.ravel(), targets.ravel()
        # each key in cell units of its row, exactly: the offset comes off
        # without rounding and DRAW_CELLS is a power of 2
        scaled = (keys - offsets) * DRAW_CELLS
        first = np.ceil(scaled)  # the first cell whose left edge is >= key
        # counted row by row with the cells past the last in one more bin,
        # the running count is how many keys lie at or below each left edge
        bins = np.minimum(first, DRAW_CELLS).astype(np.intp)
        bins += (DRAW_CELLS + 1) * np.arange(k)[:, None]
        below = np.bincount(bins.ravel(), minlength=k * (DRAW_CELLS + 1))
        below = below.cumsum().reshape(k, DRAW_CELLS + 1)[:, :DRAW_CELLS]
        cells = self.targets[below]
        # a key off the cell edges splits the cell it lies in
        row, col = ((scaled != first) & (first <= DRAW_CELLS)).nonzero()
        cells[row, first[row, col].astype(np.intp) - 1] = -1
        self.cells = cells.ravel()

    def draw(self, state: np.ndarray, u: np.ndarray,
             index: np.ndarray | None = None) -> np.ndarray:
        """The draw from row ``state[i]`` by the uniform ``u[i]``.

        ``index``, an intp array at least as long as ``state``, is scratch
        space for the cell index, so that a caller drawing every round
        allocates it once.
        """
        index = np.multiply(state, DRAW_CELLS,
                            out=None if index is None else index[:len(state)])
        index += (u * DRAW_CELLS).astype(np.intp)
        drawn = self.cells.take(index)
        split = (drawn < 0).nonzero()[0]
        if split.size:
            drawn[split] = self.search(state[split], u[split])
        return drawn

    def search(self, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``draw`` by binary search alone."""
        return self.targets[np.searchsorted(self.keys, 2.0 * state + u,
                                            side="right")]


def _episode_lengths(rng: np.random.Generator, schedule: ContinuationSchedule,
                     episodes: int, max_rounds: int | None) -> np.ndarray:
    """Drawn length of each episode under ``schedule``, at most
    ``max_rounds``, sorted longest first.

    ``FiniteHorizon(T)`` plays T rounds and draws nothing.  Otherwise,
    with the schedule as explicit values c(1..k) and a constant tail c
    (``_continuations``), one uniform u per episode is compared with the
    survival products p(1..k+1): the episode reaches every round t <= k + 1
    with u < p(t).  An episode that reaches round k + 1 plays a further
    geometric number of rounds with continuation c (none at c = 0; up to
    the cap at c = 1).  Everything is checked before any draw: a cap below
    1 is invalid, and without a cap, infinite expected rounds or a
    reachable tail of 1 raise MissingRoundCapError.
    """
    if max_rounds is not None and max_rounds < 1:
        raise InvalidParamsError("max_rounds must be >= 1")
    if isinstance(schedule, FiniteHorizon):
        # not through _continuations, which cuts a horizon past MAX_ROUNDS
        rounds = schedule.rounds
        return np.full(episodes, rounds if max_rounds is None
                       else min(rounds, max_rounds))
    values, c = _continuations(schedule)
    if max_rounds is not None:
        values = values[:max_rounds - 1]  # later rounds are never played
    survival, _ = _survival(values)
    if max_rounds is None and classify_schedule(schedule) == 1.0:
        raise MissingRoundCapError("infinite expected rounds need max_rounds")
    lengths = np.searchsorted(np.negative(survival), -rng.random(episodes),
                              side="left")
    tail = np.flatnonzero(lengths == len(survival))
    # uncapped, the check above leaves no episode in a tail of 1
    if c == 1.0 and max_rounds is not None:
        lengths[tail] = max_rounds
    elif 0.0 < c < 1.0:
        lengths[tail] += rng.geometric(1.0 - c, tail.size) - 1
    if max_rounds is not None:
        np.minimum(lengths, max_rounds, out=lengths)
    return np.sort(lengths)[::-1]


def monte_carlo_play(game: GameSpec, profile: StrategyProfile,
                     schedule: ContinuationSchedule, episodes: int,
                     seed: int, max_rounds: int | None = None) -> MonteCarloResult:
    """Simulate repeated play and estimate effective payoffs.

    Play continues independently of what is played, so every episode's
    length is drawn first (``_episode_lengths``, which also checks the
    round cap) and the episodes are ordered longest first: the episodes
    alive in round t are then a prefix of the episode array.  Each round
    draws every live episode's next profile with one uniform from the
    cumulative rows of the joint chain, ``transition_matrix`` plus a start
    row holding ``initial_distribution`` for round 1.  Memory grows with
    the number of episodes, never with rounds.

    One seeded generator draws the lengths and then the rounds, so results
    are reproducible for a fixed seed.  (This sampler replaced per-player
    draws in every round, so the same seed gives different numbers than
    before it.)  A round cap is required whenever an episode could play
    forever and optional otherwise.
    """
    if episodes < 1:
        raise InvalidParamsError("episodes must be >= 1")
    check_seed(seed)
    m = transition_matrix(game, profile)
    v1 = initial_distribution(game, profile).probs
    rng = np.random.default_rng(seed)
    lengths = _episode_lengths(rng, schedule, episodes, max_rounds)
    sampler = _RowSampler(np.vstack([m, v1]))

    # player-major, so each round adds along contiguous rows and the
    # closing sums run along the episode axis
    payoffs = game.payoffs.T
    payoff_sums = np.zeros((game.player_count, episodes))
    state = np.full(episodes, len(v1))  # the start row
    index = np.empty(episodes, np.intp)
    # the live prefix shrinks only where the sorted lengths drop, so each
    # run of rounds between two drops plays the same episodes
    drops = np.flatnonzero(lengths[1:] != lengths[:-1]) + 1
    played = 0
    for alive in [episodes, *drops[::-1].tolist()]:
        live, sums = state[:alive], payoff_sums[:, :alive]
        last = int(lengths[alive - 1])
        for _ in range(last - played):
            live[:] = sampler.draw(live, rng.random(alive), index)
            sums += payoffs.take(live, axis=1)
        played = last

    total_rounds = lengths.sum()
    means = payoff_sums.sum(axis=1) / total_rounds
    mean_rounds = total_rounds / episodes
    if episodes > 1:
        centered = payoff_sums - np.outer(means, lengths)
        std_errors = centered.std(axis=1, ddof=1) / (mean_rounds * math.sqrt(episodes))
    else:
        std_errors = np.zeros(game.player_count)
    return MonteCarloResult(means, std_errors, episodes, float(mean_rounds))
