"""Repeated play of a base game under a continuation schedule.

Round t is reached with probability p(t) = c(1)...c(t-1) where c is the
continuation probability after each round (p(1) = 1).  When every player
uses a Markov strategy (next mixed action depends only on the previous
profile), per-round play is a Markov chain over profiles and the quantity
of interest is the p-weighted limiting average of the per-round profile
distributions.  Payoffs evaluated against that average are the effective
payoffs of the repeated game.

The limiting average is computed exactly:

* infinite expected rounds: the chain's limit average from the initial
  distribution, obtained from its recurrent classes and absorption
  probabilities.  This equals the long-run running average for every
  finite chain, periodic and reducible ones included.
* constant continuation delta < 1: closed form
  (1 - delta) * v1 * (I - delta*M)^-1.
* finite horizon or explicit per-round values: exact weighted sum, with a
  resolvent closed form for the constant tail.

``batched_average`` evaluates a whole stack of chains at once for the two
regimes that have ruling vectors and flags every chain it cannot settle
exactly, so callers re-run only those through ``average_distribution``.
"""

from __future__ import annotations

import math
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
    NonFiniteEntryError,
    PlayerOutOfRangeError,
)
from .games import (
    CLAMP_TOL,
    DIST_SUM_TOL,
    GameSpec,
    MixedAction,
    ProfileDistribution,
    _readonly,
)

# Largest a-posteriori residual an exact average may carry.
RESIDUAL_TOL = 1e-9


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
        vals = tuple(float(v) for v in self.values)
        for v in vals + (float(self.tail),):
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise InvalidParamsError(f"continuation value {v!r} outside [0, 1]")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "tail", float(self.tail))

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
        if not np.all(np.isfinite(table)):
            raise NonFiniteEntryError("conditional table has a non-finite entry")
        if np.any(table < -1e-12) or np.any(table > 1.0 + 1e-12):
            raise InvalidParamsError("conditional entries must lie in [0, 1]")
        sums = table.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > 1e-12)[0]
        if bad.size:
            raise InvalidParamsError(
                f"conditional row {bad[0]} sums to {sums[bad[0]]!r}, expected 1")
        object.__setattr__(self, "conditionals", _readonly(np.clip(table, 0.0, 1.0)))

    @property
    def action_count(self) -> int:
        return len(self.initial)

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

    method: "cesaro" (limit average of the chain), "closed_form_delta", or
    "truncated_sum".  ``residual`` is an a-posteriori check value and is at
    most the requested tolerance.
    """

    dist: ProfileDistribution
    method: str
    residual: float


def _stationary(m: np.ndarray) -> np.ndarray:
    """Unique stationary distribution of an irreducible stochastic matrix."""
    n = m.shape[0]
    if n == 1:
        return np.ones(1)
    a = (np.eye(n) - m).T
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.isfinite(x)) \
            or np.max(np.abs(x @ m - x)) > RESIDUAL_TOL:
        # fall back to the null space of (I - M)^T
        _, s, vt = np.linalg.svd((np.eye(n) - m).T)
        x = vt[-1]
        if x.sum() < 0:
            x = -x
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def _limit_average(m: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Exact limit of the running average of v1 M^(t-1) over t.

    Decomposes the chain into recurrent classes and transient states; the
    answer mixes the class stationary distributions with the absorption
    probabilities from v1.  Valid for periodic and reducible chains.
    """
    n = m.shape[0]
    support = csr_matrix(m > 0.0)
    n_comp, labels = connected_components(support, directed=True, connection="strong")
    closed = np.ones(n_comp, dtype=bool)
    rows, cols = support.nonzero()
    leaving = labels[rows] != labels[cols]
    closed[np.unique(labels[rows[leaving]])] = False

    if n_comp == 1:
        return _stationary(m)

    recurrent = [np.where(labels == k)[0] for k in range(n_comp) if closed[k]]
    transient = np.where(~closed[labels])[0]

    weights = np.array([v1[states].sum() for states in recurrent])
    if transient.size:
        q = m[np.ix_(transient, transient)]
        lhs = np.eye(transient.size) - q
        rhs = np.column_stack(
            [m[np.ix_(transient, states)].sum(axis=1) for states in recurrent])
        absorb = np.linalg.solve(lhs, rhs)
        weights = weights + v1[transient] @ absorb

    vbar = np.zeros(n)
    for states, weight in zip(recurrent, weights):
        if weight <= 0.0:
            continue
        vbar[states] += weight * _stationary(m[np.ix_(states, states)])
    return vbar


def _discounted_average(m: np.ndarray, v1: np.ndarray, delta: float) -> np.ndarray:
    """(1 - delta) * v1 * (I - delta M)^-1, the constant-continuation average."""
    n = m.shape[0]
    lhs = (np.eye(n) - delta * m).T
    return np.linalg.solve(lhs, (1.0 - delta) * v1)


def average_distribution(game: GameSpec, profile: StrategyProfile,
                         schedule: ContinuationSchedule,
                         tol: float = 1e-12,
                         max_iter: int = 10 ** 6) -> AvgDistributionResult:
    """p-weighted limiting average of the per-round profile distributions.

    All schedule regimes are computed exactly; ``tol`` bounds the reported
    residual and ``max_iter`` caps the number of explicitly summed rounds
    for finite-horizon and custom schedules.
    """
    v1 = initial_distribution(game, profile).probs
    m = transition_matrix(game, profile)
    kind = classify_schedule(schedule)

    if isinstance(kind, InfiniteExpectedRounds):
        vbar = _limit_average(m, v1)
        residual = float(np.abs(vbar @ m - vbar).sum())
        if residual > max(tol, RESIDUAL_TOL):
            raise NoConvergenceError(
                f"limit average residual {residual:.3e} exceeds tolerance")
        return AvgDistributionResult(ProfileDistribution(vbar), "cesaro", residual)

    if isinstance(kind, ConstantContinuation):
        delta = kind.delta
        vbar = _discounted_average(m, v1, delta)
        residual = float(np.abs(vbar @ (np.eye(len(v1)) - delta * m)
                                - (1.0 - delta) * v1).sum())
        if residual > max(tol, RESIDUAL_TOL):
            raise NoConvergenceError(
                f"closed form residual {residual:.3e} exceeds tolerance")
        return AvgDistributionResult(
            ProfileDistribution(vbar), "closed_form_delta", residual)

    # finite horizon or custom: exact weighted sum.  Once the continuation
    # becomes constant (the custom tail) the remaining sum is a resolvent.
    explicit = len(schedule.values) if isinstance(schedule, Custom) else None
    num = v1.copy()
    den = 1.0
    v = v1
    p = 1.0
    t = 1
    while True:
        if isinstance(schedule, Custom) and t > explicit:
            tail = schedule.tail
            p_next = p * tail
            if p_next <= 0.0:
                break
            v_next = v @ m
            if tail >= 1.0:  # diverging tail, handled by the limit average
                return average_distribution(game, profile, Infinite(), tol, max_iter)
            resolvent = np.linalg.solve((np.eye(len(v1)) - tail * m).T, v_next)
            num += p_next * resolvent
            den += p_next / (1.0 - tail)
            break
        c = schedule.continuation(t)
        p_next = p * c
        if p_next <= 0.0:
            break
        if t + 1 > max_iter:
            raise NoConvergenceError(
                f"weighted sum needs more than max_iter={max_iter} rounds")
        v = v @ m
        num += p_next * v
        den += p_next
        p = p_next
        t += 1
    vbar = num / den
    return AvgDistributionResult(ProfileDistribution(vbar), "truncated_sum", 0.0)


def single_closed_class(m: np.ndarray) -> np.ndarray:
    """For each chain of an (N, n, n) stack, True when the support graph
    M > 0 has exactly one closed class.

    That holds exactly when some state is reachable from every state.
    Reachability is the boolean closure of M > 0 by repeated squaring, on
    the same support that ``_limit_average`` decomposes.
    """
    n = m.shape[-1]
    reach = (m > 0.0) | np.eye(n, dtype=bool)
    span = 1
    while span < n:
        step = reach.astype(float)
        reach = (step @ step) > 0.0
        span *= 2
    return reach.all(axis=-2).any(axis=-1)


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


def batched_average(m: np.ndarray, v1: np.ndarray,
                    form: Classification) -> tuple[np.ndarray, np.ndarray]:
    """Limiting averages of a stack of chains in one stacked solve.

    ``m`` is (N, n, n), ``v1`` is (N, n).  Returns ``(vbar, ok)``: where
    ``ok`` is False the row of ``vbar`` is meaningless and the sample must
    be re-run through ``average_distribution``, which then succeeds,
    raises or skips exactly as it would on its own.  A sample is not ok
    when its chain has more than one closed class (infinite expected
    rounds only), when its solve is singular or non-finite, when its
    residual exceeds RESIDUAL_TOL, or when it fails ProfileDistribution's
    range or sum check.  Schedules of neither regime mark every sample.

    * infinite expected rounds: a single closed class makes the limit
      average the unique stationary distribution, the solution of the
      row-replaced system (I - M)^T x = 0, sum(x) = 1.
    * constant continuation delta: (I - delta M)^T x = (1 - delta) v1.
    """
    count, n = v1.shape
    vbar = np.zeros((count, n))
    ok = np.zeros(count, dtype=bool)
    eye = np.eye(n)
    if isinstance(form, InfiniteExpectedRounds):
        rows = np.flatnonzero(single_closed_class(m))
        chain = m[rows]
        a = np.swapaxes(eye - chain, -1, -2).copy()
        a[:, -1, :] = 1.0
        b = np.zeros((rows.size, n, 1))
        b[:, -1, 0] = 1.0
        with np.errstate(invalid="ignore", divide="ignore"):
            x = np.clip(_solve_stack(a, b), 0.0, None)
            x /= x.sum(axis=-1, keepdims=True)
        residual = np.abs((x[:, None, :] @ chain)[:, 0] - x).sum(axis=-1)
    elif isinstance(form, ConstantContinuation):
        rows = np.arange(count)
        lhs = eye - form.delta * m
        rhs = (1.0 - form.delta) * v1
        x = _solve_stack(np.swapaxes(lhs, -1, -2), rhs[..., None])
        residual = np.abs((x[:, None, :] @ lhs)[:, 0] - rhs).sum(axis=-1)
    else:
        return vbar, ok
    with np.errstate(invalid="ignore"):
        good = (np.all(np.isfinite(x), axis=-1)
                & (residual <= RESIDUAL_TOL)
                & np.all(x >= -CLAMP_TOL, axis=-1)
                & np.all(x <= 1.0 + CLAMP_TOL, axis=-1)
                & (np.abs(x.sum(axis=-1) - 1.0) <= DIST_SUM_TOL))
    ok[rows[good]] = True
    vbar[rows[good]] = np.clip(x[good], 0.0, 1.0)
    return vbar, ok


def effective_payoffs(game: GameSpec, profile: StrategyProfile,
                      schedule: ContinuationSchedule,
                      tol: float = 1e-12) -> np.ndarray:
    """Per-player payoffs against the limiting average distribution."""
    result = average_distribution(game, profile, schedule, tol=tol)
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
