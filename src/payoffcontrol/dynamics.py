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
long-run running average, for periodic and reducible chains too).  The
tail takes one of two forms per chain:

* one closed class: the resolvent system with its last equation replaced
  by sum(x) = 1, which stays well conditioned as c -> 1;
* several closed classes, or a first form that fails its a-posteriori
  check: the projector form v P* + (1 - c)(v - v P*)(I - c(M - P*))^-1,
  with P* from the strongly-connected-component decomposition.

A chain that neither form settles is reported, never returned as a number.
``average_distribution`` is the kernel's one-chain case.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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
    _readonly,
    check_rows,
)

# Largest a-posteriori residual an exact average may carry.
RESIDUAL_TOL = 1e-9

# Most rounds a schedule may ask to be summed one by one.
MAX_ROUNDS = 10 ** 6


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
        if not (np.isfinite(self.delta) and 0.0 <= self.delta < 1.0):
            raise InvalidParamsError(f"delta must lie in [0, 1), got {self.delta!r}")

    def continuation(self, t: int) -> float:
        return self.delta


@dataclass(frozen=True)
class FiniteHorizon(ContinuationSchedule):
    """Exactly ``rounds`` rounds are played: c(t) = 1 for t < rounds, else 0."""

    rounds: int

    def __post_init__(self):
        if not (isinstance(self.rounds, int) and self.rounds >= 1):
            raise InvalidParamsError(f"rounds must be an integer >= 1, got {self.rounds!r}")

    def continuation(self, t: int) -> float:
        return 1.0 if t < self.rounds else 0.0


@dataclass(frozen=True)
class Custom(ContinuationSchedule):
    """Explicit continuation values for the first rounds, constant afterwards."""

    values: tuple[float, ...]
    tail: float = 0.0

    def __post_init__(self):
        vals = np.array([*self.values, self.tail], dtype=float)
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


# Classification drives which ruling-vector form, if any, applies.


@dataclass(frozen=True)
class InfiniteExpectedRounds:
    """The expected number of rounds diverges."""


@dataclass(frozen=True)
class ConstantContinuation:
    """c(t) is the constant ``delta`` < 1 for every round."""

    delta: float


@dataclass(frozen=True)
class OtherSchedule:
    """Neither of the two supported regimes."""


Classification = InfiniteExpectedRounds | ConstantContinuation | OtherSchedule


def classify_schedule(schedule: ContinuationSchedule,
                      tol: float = 1e-12) -> Classification:
    """Sort a schedule into one of the three regimes.

    Delta and Infinite are exact.  FiniteHorizon(1) has c identically zero
    and therefore counts as constant continuation 0.  Custom values are
    compared entrywise within ``tol``; a tail of 1 with strictly positive
    explicit values makes the expected round count diverge.
    """
    if isinstance(schedule, Infinite):
        return InfiniteExpectedRounds()
    if isinstance(schedule, Delta):
        return ConstantContinuation(schedule.delta)
    if isinstance(schedule, FiniteHorizon):
        if schedule.rounds == 1:
            return ConstantContinuation(0.0)
        return OtherSchedule()
    if isinstance(schedule, Custom):
        vals = np.array(schedule.values + (schedule.tail,))
        if np.all(np.abs(vals - schedule.tail) <= tol):
            if schedule.tail >= 1.0 - tol:
                return InfiniteExpectedRounds()
            return ConstantContinuation(schedule.tail)
        if schedule.tail >= 1.0 - tol and np.all(vals > tol):
            return InfiniteExpectedRounds()
        return OtherSchedule()
    raise InvalidParamsError(f"unknown schedule {schedule!r}")


def survival_probabilities(schedule: ContinuationSchedule, t_max: int) -> np.ndarray:
    """p(1..t_max): probability that each round is reached."""
    if t_max < 1:
        raise InvalidParamsError("t_max must be >= 1")
    p = np.empty(t_max)
    p[0] = 1.0
    for t in range(1, t_max):
        p[t] = p[t - 1] * schedule.continuation(t)
    return p


def expected_rounds(schedule: ContinuationSchedule, cap: int = 10 ** 6) -> float:
    """Sum of p(t), i.e. the expected number of rounds (may be math.inf)."""
    if cap < 1:
        raise InvalidParamsError("cap must be >= 1")
    if isinstance(schedule, Infinite):
        return math.inf
    if isinstance(schedule, Delta):
        return 1.0 / (1.0 - schedule.delta)
    if isinstance(schedule, FiniteHorizon):
        return float(schedule.rounds)
    if isinstance(schedule, Custom):
        # exact: explicit prefix plus geometric tail
        total = 0.0
        p = 1.0
        for i, c in enumerate(schedule.values):
            if i + 1 > cap:
                break
            total += p
            p *= c
            if p == 0.0:
                return total
        total += p
        if schedule.tail >= 1.0:
            return math.inf if p > 0.0 else total
        return total + p * schedule.tail / (1.0 - schedule.tail)
    raise InvalidParamsError(f"unknown schedule {schedule!r}")


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
        table = np.asarray(self.conditionals, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(self.initial):
            raise DimensionMismatchError(
                "conditional table must have one column per own action")
        object.__setattr__(self, "conditionals", _readonly(
            check_rows(table, MIXED_SUM_TOL, "conditional")))

    def is_strict(self) -> bool:
        """True unless the strategy ignores the previous profile entirely."""
        return not np.allclose(self.conditionals, self.conditionals[0], atol=1e-15)

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
    (constant continuation) or "truncated_sum" (any other schedule), as
    ``classify_schedule`` sorts the schedule.  ``residual`` is the tail's
    a-posteriori residual, at most RESIDUAL_TOL, and 0 without a tail.
    """

    dist: ProfileDistribution
    method: str
    residual: float


def _stationary(m: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an irreducible stochastic matrix:
    (I - M)^T x = 0 with its last equation replaced by sum(x) = 1."""
    a = (np.eye(len(m)) - m).T
    a[-1, :] = 1.0
    b = np.zeros(len(m))
    b[-1] = 1.0
    x = np.clip(np.linalg.solve(a, b), 0.0, None)
    return x / x.sum()


def _projector(m: np.ndarray) -> np.ndarray:
    """Cesàro limit projector P* = lim (1/T) sum_t M^t of one chain.

    Decomposes the chain into recurrent classes and transient states:
    row i of P* is the absorption probability from i into each class
    times that class's stationary distribution.  Valid for periodic and
    reducible chains.  Raises LinAlgError when the absorption system is
    singular.
    """
    n = m.shape[0]
    support = csr_matrix(m > 0.0)
    n_comp, labels = connected_components(support, directed=True, connection="strong")
    closed = np.ones(n_comp, dtype=bool)
    rows, cols = support.nonzero()
    leaving = labels[rows] != labels[cols]
    closed[np.unique(labels[rows[leaving]])] = False

    recurrent = [np.where(labels == k)[0] for k in range(n_comp) if closed[k]]
    transient = np.where(~closed[labels])[0]
    absorb = np.zeros((n, len(recurrent)))
    for k, states in enumerate(recurrent):
        absorb[states, k] = 1.0
    if transient.size:
        lhs = np.eye(transient.size) - m[np.ix_(transient, transient)]
        rhs = np.column_stack(
            [m[np.ix_(transient, states)].sum(axis=1) for states in recurrent])
        absorb[transient] = np.linalg.solve(lhs, rhs)

    pstar = np.zeros((n, n))
    for k, states in enumerate(recurrent):
        pstar[:, states] = np.outer(absorb[:, k],
                                    _stationary(m[np.ix_(states, states)]))
    return pstar


def single_closed_class(m: np.ndarray) -> np.ndarray:
    """For each chain of an (N, n, n) stack, True when the support graph
    M > 0 has exactly one closed class.

    That holds exactly when some state is reachable from every state.
    Reachability is the boolean closure of M > 0 by repeated squaring, on
    the same support that ``_projector`` decomposes.
    """
    n = m.shape[-1]
    reach = (m > 0.0) | np.eye(n, dtype=bool)
    span = 1
    while True:
        single = reach.all(axis=-2).any(axis=-1)
        # paths of up to n - 1 steps reach every state that can be reached
        if span >= n - 1 or single.all():
            return single
        step = reach.astype(float)
        reach = (step @ step) > 0.0
        span *= 2


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a[k] x[k] = b[k] for an (N, n, n) stack and b of shape
    (N, n, 1); a singular member gets a NaN row instead of failing the
    whole stack."""
    try:
        return np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape[:-1], np.nan)
        for k in range(a.shape[0]):
            try:
                x[k] = np.linalg.solve(a[k], b[k])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return x


def _settled(x: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Per row of ``_normalized`` output: residual within RESIDUAL_TOL and
    sum within ProfileDistribution's tolerance of 1.  Normalizing already
    put every entry in [0, 1]; a non-finite row fails both comparisons."""
    return (residual <= RESIDUAL_TOL) & (np.abs(x.sum(axis=-1) - 1.0) <= DIST_SUM_TOL)


def _normalized(x: np.ndarray, lhs: np.ndarray,
                rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solved rows clipped at 0 and scaled to sum 1, with their residuals
    |x lhs - rhs|_1."""
    x = np.maximum(x, 0.0)
    x /= x.sum(axis=-1, keepdims=True)
    return x, np.abs((x[:, None, :] @ lhs)[:, 0] - rhs).sum(axis=-1)


def _tail_average(m: np.ndarray, u: np.ndarray,
                  c: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1 - c) u (I - cM)^-1 for each chain, the Cesàro limit at c = 1,
    with its residual |x (I - cM) - (1 - c) u|_1 and whether it is
    ``_settled``.

    A chain with one closed class solves the row-replaced resolvent: the
    last equation of x (I - cM) = (1 - c) u becomes sum(x) = 1, which
    removes the eigenvalue that vanishes as c -> 1.  A chain with several
    closed classes, or whose solve is not settled, takes the projector
    form u P* + (1 - c)(u - u P*)(I - c(M - P*))^-1.
    """
    n = u.shape[-1]
    eye = np.eye(n)
    single = single_closed_class(m)
    lhs = eye - c * m
    rhs = (1.0 - c) * u
    # a singular or nearly singular solve leaves non-finite or huge rows,
    # which _settled rejects
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        a = np.swapaxes(lhs, -1, -2).copy()
        a[:, -1, :] = 1.0
        a[~single] = eye  # placeholder: these take the projector form
        b = rhs.copy()
        b[:, -1] = 1.0
        x, residual = _normalized(_solve_stack(a, b[..., None]), lhs, rhs)
        settled = single & _settled(x, residual)
        if not settled.all():
            redo = np.flatnonzero(~settled)
            pstar = np.empty((redo.size, n, n))
            for i, k in enumerate(redo):
                try:
                    pstar[i] = _projector(m[k])
                except np.linalg.LinAlgError:
                    pstar[i] = np.nan
            base = (u[redo, None, :] @ pstar)[:, 0]
            if c < 1.0:
                a = np.swapaxes(lhs[redo] + c * pstar, -1, -2)
                base += _solve_stack(a, (rhs[redo] - (1.0 - c) * base)[..., None])
            x[redo], residual[redo] = _normalized(base, lhs[redo], rhs[redo])
            settled[redo] = _settled(x[redo], residual[redo])
    return x, residual, settled


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


def markov_average(m: np.ndarray, v1: np.ndarray,
                   schedule: ContinuationSchedule
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p-weighted limiting averages of a stack of chains.

    ``m`` is (N, n, n), ``v1`` is (N, n).  Returns ``(vbar, residual,
    settled)``.  The explicit rounds of the schedule are summed by stacked
    products v M until the survival weight reaches 0, so a finite horizon
    solves nothing and is always settled.  A live constant tail c is one
    ``_tail_average`` from the distribution of the round it starts; a
    chain is settled when that average is finite, its residual is at most
    RESIDUAL_TOL and it passes ProfileDistribution's range and sum checks.
    An unsettled row of ``vbar`` is 0.  Raises NoConvergenceError when the
    schedule needs more than MAX_ROUNDS explicit rounds.
    """
    values, c = _continuations(schedule)
    survival = list(itertools.accumulate(values, operator.mul, initial=1.0))
    rounds = survival.index(0.0) if 0.0 in survival else len(survival)
    if rounds > MAX_ROUNDS:
        raise NoConvergenceError(
            f"weighted sum needs more than MAX_ROUNDS={MAX_ROUNDS} rounds")
    # round k + 1 opens the tail when it is reached and the tail is live
    opens_tail = rounds == len(survival) and c > 0.0
    v = v1[:, None, :]
    num = np.zeros(v.shape)
    den = 0.0
    for t, w in enumerate(survival[:rounds]):
        if t:
            v = v @ m
        if t < rounds - opens_tail:
            num += w * v
            den += w
    num, v = num[:, 0], v[:, 0]
    if not opens_tail:
        return num / den, np.zeros(len(v1)), np.ones(len(v1), dtype=bool)
    x, residual, settled = _tail_average(m, v, c)
    # (num + p/(1 - c) x) / (den + p/(1 - c)), scaled to hold at c = 1
    p = survival[rounds - 1]
    scale = den * (1.0 - c) + p
    vbar = num * ((1.0 - c) / scale) + x * (p / scale)
    vbar[~settled] = 0.0
    return vbar, residual, settled


_METHODS = {InfiniteExpectedRounds: "cesaro",
            ConstantContinuation: "closed_form_delta",
            OtherSchedule: "truncated_sum"}


def average_distribution(game: GameSpec, profile: StrategyProfile,
                         schedule: ContinuationSchedule) -> AvgDistributionResult:
    """p-weighted limiting average of the per-round profile distributions:
    the one-chain case of ``markov_average``.

    Raises NoConvergenceError when the average does not settle.
    """
    method = _METHODS[type(classify_schedule(schedule))]
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

    means[i] estimates the effective payoff of player i: the total realized
    payoff across all episodes divided by the total number of realized
    rounds.  ``std_errors`` come from the usual ratio-estimator expansion
    and are zero when only one episode was played.
    """

    means: np.ndarray
    std_errors: np.ndarray
    episodes: int
    mean_rounds: float


def monte_carlo_play(game: GameSpec, profile: StrategyProfile,
                     schedule: ContinuationSchedule, episodes: int,
                     seed: int, max_rounds: int | None = None) -> MonteCarloResult:
    """Simulate repeated play and estimate effective payoffs.

    Episodes run in lockstep with a single seeded generator, so results
    are reproducible for a fixed seed.  A round cap is required for the
    Infinite schedule and optional otherwise.
    """
    check_profile(game, profile)
    if episodes < 1:
        raise InvalidParamsError("episodes must be >= 1")
    if isinstance(schedule, Infinite) and max_rounds is None:
        raise MissingRoundCapError("Infinite schedule needs max_rounds")
    rng = np.random.default_rng(seed)
    n = game.player_count
    actions = game.profile_actions
    strides = np.array([int(np.prod(game.action_counts[i + 1:])) for i in range(n)])

    payoff_sums = np.zeros((episodes, n))
    round_counts = np.zeros(episodes)
    active = np.arange(episodes)

    # round 1: sample from the initial mixed actions
    state = np.zeros(episodes, dtype=int)
    for strat in profile.strategies:
        cum = np.cumsum(strat.initial.probs)
        draws = np.searchsorted(cum, rng.random(episodes), side="right")
        state += strides[strat.player] * np.minimum(draws, len(cum) - 1)
    t = 1
    while active.size:
        payoff_sums[active] += game.payoffs[state[active]]
        round_counts[active] += 1
        if max_rounds is not None and t >= max_rounds:
            break
        c = schedule.continuation(t)
        if c <= 0.0:
            break
        if c < 1.0:
            active = active[rng.random(active.size) < c]
            if not active.size:
                break
        nxt = np.zeros(active.size, dtype=int)
        for strat in profile.strategies:
            rows = strat.conditionals[state[active]]
            cum = np.cumsum(rows, axis=1)
            draws = (cum > rng.random(active.size)[:, None]).argmax(axis=1)
            nxt += strides[strat.player] * draws
        state[active] = nxt
        t += 1

    total_rounds = round_counts.sum()
    means = payoff_sums.sum(axis=0) / total_rounds
    mean_rounds = total_rounds / episodes
    if episodes > 1:
        centered = payoff_sums - np.outer(round_counts, means)
        std_errors = centered.std(axis=0, ddof=1) / (mean_rounds * math.sqrt(episodes))
    else:
        std_errors = np.zeros(n)
    return MonteCarloResult(means, std_errors, episodes, float(mean_rounds))
