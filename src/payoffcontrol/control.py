"""Ruling vectors and linear payoff relations.

A ruling vector of a player (or an alliance) is a profile-indexed vector u~
whose inner product with the limiting average distribution vanishes no
matter what the remaining players do.  For a Markov strategy, writing s_j
for the column of probabilities of choosing own action j and rep_j for the
indicator of the profiles where the player just played j, every
supported schedule has the one form

    u~_j = d*s_j + (1-d)*s0_j*1 - rep_j

where s0_j is the initial probability of action j and d is the schedule's
continuation weight: its constant continuation probability, d = 1 for
infinite expected rounds (u~_j = s_j - rep_j) and d = 0 for a one-shot
game.  Any other schedule supports no ruling vectors.  An alliance uses the
joint versions: products of member conditionals, of member indicators, and
of member initials.  The family over all (joint) actions sums to zero, so
the last vector is dropped; a full basis has r = (prod of member action
counts) - 1 vectors.

If some combination of ruling vectors equals w = sum_i alpha_i * u_i +
gamma * 1, then the effective payoffs obey sum_i alpha_i * ubar_i + gamma
= 0 against every opponent: a linear payoff relation is enforced.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .dynamics import (
    ContinuationSchedule,
    MarkovStrategy,
    MixedAction,
    # unused here, but the benchmark tracer rebinds this name
    average_distribution,
    check_seed,
    check_strategy,
    classify_schedule,
    markov_average,
    profile_product,
    schedule_rounds,
)
from .errors import (
    DimensionMismatchError,
    InconsistentStrategyError,
    InvalidParamsError,
    NoConvergenceError,
    UnsupportedScheduleError,
)
from .games import MIXED_SUM_TOL, GameSpec, check_rows

RANK_TOL = 1e-9
MACHINE_EPS = float(np.finfo(float).eps)
# Detect's finest cuts: rounding leaves a trivial direction's singular
# value a few ulps from 1 (at most 3 over 2,800 random games of 4 to 81
# profiles) and a dependent column's residual in _rref a few ulps from 0,
# so cuts this many ulps away keep both out even at tol = eps.
TRIVIAL_ULPS = 8

# Opponents evaluated per stacked solve; bounds the (block, n, n) working
# set whatever the sample count.
VERIFY_BLOCK = 256


# ---------------------------------------------------------------------------
# Relations


@dataclass(frozen=True)
class PayoffRelation:
    """sum_i alpha[i] * ubar_i + gamma = 0, stored in canonical form.

    Canonical form scales so the largest-magnitude alpha coefficient is 1
    (falling back to gamma when alpha vanishes) and flips sign so the first
    nonzero coefficient of (alpha, gamma) is positive.
    """

    alpha: tuple[float, ...]
    gamma: float

    def __post_init__(self):
        # plain floats: the same IEEE operations as on arrays, without
        # the per-call cost of numpy on three to five numbers
        coeffs = list(map(float, self.alpha))
        coeffs.append(float(self.gamma))
        if len(coeffs) < 2 or not all(map(math.isfinite, coeffs)):
            raise InvalidParamsError("relation coefficients must be finite")
        biggest = max(map(abs, coeffs[:-1]))
        overall = max(biggest, abs(coeffs[-1]))
        if overall == 0.0:
            raise InvalidParamsError("relation coefficients are all zero")
        scale = biggest if biggest > 1e-12 * overall else abs(coeffs[-1])
        # the first coefficient that is not 0 at this scale must come out
        # positive; c / -scale is -(c / scale) exactly
        for c in coeffs:
            if abs(c / scale) > 1e-12:
                if c < 0:
                    scale = -scale
                break
        # + 0.0 turns the negative zero of 0 / -scale into plain zero
        coeffs = [c / scale + 0.0 for c in coeffs]
        object.__setattr__(self, "alpha", tuple(coeffs[:-1]))
        object.__setattr__(self, "gamma", coeffs[-1])

    def coefficients(self) -> np.ndarray:
        return np.append(self.alpha, self.gamma)

    def close_to(self, other: "PayoffRelation", tol: float = 1e-8) -> bool:
        mine, theirs = self.coefficients(), other.coefficients()
        return mine.shape == theirs.shape and bool(np.max(np.abs(mine - theirs)) <= tol)


def relation_vector(game: GameSpec, relation: PayoffRelation) -> np.ndarray:
    """w = sum_i alpha[i] * u_i + gamma * 1 as a profile-indexed vector."""
    if len(relation.alpha) != game.player_count:
        raise DimensionMismatchError(
            f"relation has {len(relation.alpha)} alpha coefficients for "
            f"{game.player_count} players")
    return game.payoffs @ np.array(relation.alpha) + relation.gamma


def is_trivial(game: GameSpec, relation: PayoffRelation, tol: float = RANK_TOL) -> bool:
    """True when the relation holds row by row in the base game already."""
    return bool(_vanishes(game, relation_vector(game, relation), tol))


def _vanishes(game: GameSpec, w: np.ndarray, tol: float) -> np.ndarray:
    """Per column of w: whether it is within tol of 0, relative to the
    payoff scale (at least 1)."""
    scale = max(1.0, float(abs(game.payoffs).max()))
    return abs(w).max(axis=0) <= tol * scale


# ---------------------------------------------------------------------------
# Ruling bases


@dataclass(frozen=True, eq=False)
class RulingBasis:
    """Constructed ruling-vector family for a controller set.

    ``vectors`` holds one row per retained joint action (the lexicographic
    last one is dropped); ``sizes`` are the controllers' action counts.
    Degenerate strategies can make the family rank deficient: ``rank``
    reports the numerically independent count.  ``provenance`` lists the
    joint action-index tuple behind each row.  Both are computed when
    first read.
    """

    vectors: np.ndarray  # (r, profile_count)
    controllers: tuple[int, ...]
    delta: float
    sizes: tuple[int, ...]

    @cached_property
    def provenance(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(int(x) for x in np.unravel_index(j, self.sizes))
            for j in range(len(self.vectors)))

    @cached_property
    def rank(self) -> int:
        svals = np.linalg.svd(self.vectors, compute_uv=False)
        return int(np.sum(svals > RANK_TOL * max(svals[0], 1.0)))


def joint_index(game: GameSpec, players: Sequence[int]
                ) -> tuple[tuple[int, ...], np.ndarray]:
    """Action counts of the given players, in order, and jhat: for each
    profile the index of their joint action, lexicographic in that order.

    A player's action in profile b is b // (product of the later players'
    action counts) % its own count, so jhat needs no profile table."""
    counts = game.action_counts
    sizes = tuple(counts[p] for p in players)
    profiles = np.arange(game.profile_count)
    jhat = 0
    for player, size in zip(players, sizes):
        jhat = jhat * size + profiles // math.prod(counts[player + 1:]) % size
    return sizes, jhat


_BY_PLAYER = operator.attrgetter("player")


def _controller_setup(game: GameSpec, strategies: Sequence[MarkovStrategy]):
    """Sort controller strategies by player, validate, and build the joint
    action indexing shared by basis construction and synthesis."""
    if not strategies:
        raise InconsistentStrategyError("at least one controller is required")
    ordered = tuple(sorted(strategies, key=_BY_PLAYER))
    players = tuple(s.player for s in ordered)
    if len(set(players)) != len(players):
        raise InconsistentStrategyError("duplicate controller player")
    for strat in ordered:
        check_strategy(game, strat)
    return (ordered, players) + joint_index(game, players)


def _joint_table(ordered: Sequence[MarkovStrategy]) -> np.ndarray:
    """``joint_conditionals`` of strategies already sorted and checked."""
    joint = ordered[0].conditionals
    for strat in ordered[1:]:
        joint = (joint[:, :, None] * strat.conditionals[:, None, :]) \
            .reshape(len(joint), -1)
    return joint


def joint_conditionals(game: GameSpec,
                       strategies: Sequence[MarkovStrategy]) -> np.ndarray:
    """(profile_count, J) joint conditional table of independent controllers,
    J ranging over joint actions in lexicographic order (read-only for a
    single controller: its own table)."""
    return _joint_table(_controller_setup(game, strategies)[0])


def joint_initial(strategies: Sequence[MarkovStrategy]) -> np.ndarray:
    """Joint initial distribution of independent controllers (read-only for
    a single controller: its own initial action)."""
    ordered = sorted(strategies, key=_BY_PLAYER)
    return functools.reduce(np.multiply.outer,
                            [s.initial.probs for s in ordered]).ravel()


def repeat_indicator(game: GameSpec, controllers: Sequence[int],
                     joint_action: Sequence[str]) -> np.ndarray:
    """Indicator of the profiles where each controller plays the given action."""
    players = list(controllers)
    if len(players) != len(set(players)):
        raise InconsistentStrategyError("duplicate controller player")
    if len(joint_action) != len(players):
        raise DimensionMismatchError(
            f"{len(joint_action)} action labels for {len(players)} controllers")
    mask = np.ones(game.profile_count, dtype=bool)
    for player, label in zip(players, joint_action):
        idx = game.action_index(player, label)
        mask &= game.profile_actions[:, player] == idx
    return mask.astype(float)


def ruling_weight(schedule: ContinuationSchedule) -> float:
    """The continuation weight d of the schedule's ruling vectors: its
    ``classify_schedule`` weight (1 for infinite expected rounds).

    Raises UnsupportedScheduleError when the schedule is neither of
    infinite expected rounds nor constant continuation below one.
    """
    delta = classify_schedule(schedule)
    if delta is None:
        raise UnsupportedScheduleError(
            "schedule supports no ruling vectors: expected rounds are finite "
            "and the continuation probability is not constant")
    return delta


def ruling_family(delta: float, conditionals: np.ndarray, initial,
                  jhat: np.ndarray) -> np.ndarray:
    """Ruling vectors as columns: d q + (1 - d) sigma - rep with d =
    ``delta``, sigma = ``initial`` and rep the one-hot rows of the joint
    actions ``jhat``.  At d = 1 this is q - rep exactly."""
    repeat = jhat[:, None] == np.arange(conditionals.shape[1])
    return delta * conditionals + (1.0 - delta) * initial - repeat


def ruling_basis(game: GameSpec, strategies: Sequence[MarkovStrategy],
                 schedule: ContinuationSchedule) -> RulingBasis:
    """Build the ruling-vector family of the given controller strategies.

    Raises UnsupportedScheduleError as ``ruling_weight`` does.
    """
    delta = ruling_weight(schedule)
    ordered, players, sizes, jhat = _controller_setup(game, strategies)
    family = ruling_family(delta, _joint_table(ordered), joint_initial(ordered),
                           jhat)
    # the family sums to zero; drop the last joint action
    return RulingBasis(family.T[:-1], players, delta, sizes)


# ---------------------------------------------------------------------------
# Detection


def _rank(svals: np.ndarray, tol: float) -> int:
    """How many of the descending singular values exceed tol times the
    largest."""
    return int(np.count_nonzero(svals > tol * svals[0]))


def _rref(rows: np.ndarray, tol: float) -> list[list[float]]:
    """Reduced row-echelon form of a basis with orthonormal rows, as lists:
    the pivots are the columns that leave the span of the columns before
    them by more than ``tol`` and become the identity, so the result
    depends only on the row space.  Entries within ``tol`` of 0 become 0.

    The rows and columns are a handful of numbers each, so the
    Gram-Schmidt walk and the elimination run on plain floats."""
    k = len(rows)
    pivots, span = [], []
    for j, col in enumerate(rows.T.tolist()):
        if len(pivots) == k:
            break  # the pivot columns span every column left
        residual = col
        for q in span:
            dot = sum(map(operator.mul, q, col))
            residual = [r - dot * x for r, x in zip(residual, q)]
        norm = math.hypot(*residual)
        if norm > tol:
            span.append([r / norm for r in residual])
            pivots.append(j)
    # Gauss-Jordan on the pivot columns, largest remaining entry first
    reduced = rows.tolist()
    for i, pivot in enumerate(pivots):
        best = i
        for r in range(i + 1, k):
            if abs(reduced[r][pivot]) > abs(reduced[best][pivot]):
                best = r
        reduced[i], reduced[best] = reduced[best], reduced[i]
        top = reduced[i]
        lead = top[pivot]
        top[:] = [x / lead for x in top]
        for row in reduced:
            factor = row[pivot]
            if row is not top and factor != 0.0:
                row[:] = [x - factor * y for x, y in zip(row, top)]
    for row, pivot in zip(reduced, pivots):
        for j, x in enumerate(row):
            if abs(x) <= tol or j in pivots:
                row[j] = 1.0 if j == pivot else 0.0
    return reduced


def detect_relations(game: GameSpec, strategies: Sequence[MarkovStrategy],
                     schedule: ContinuationSchedule,
                     tol: float = RANK_TOL) -> list[PayoffRelation]:
    """Enforced linear payoff relations of the given controller strategies.

    Solves [u_1 ... u_n, 1] (alpha; gamma) = [u~_1 ... u~_r] y for nonzero
    (alpha, gamma) and returns the rows of the reduced row-echelon form of
    the solution space, trivial directions (w = 0) projected out, so the
    output depends only on the enforced relations.  A repeat strategy,
    whose ruling vectors all vanish, yields an empty list.

    Two small SVDs.  The first gives an orthonormal basis [X | Y] of the
    null space of [u_aug, -u~], split into its (alpha, gamma) part X and
    its ruling part Y.  Its rows are orthonormal, so |a X|^2 + |a Y|^2 = 1
    for every unit a: the right singular vectors of X with singular value
    1 are exactly the trivial directions (u_aug x = 0, Y part zero), and
    the others, orthogonal to them, span the relations (the CS
    decomposition view of subspace angles; Bjorck & Golub 1973).

    ``tol`` sets both cuts of the second SVD: a singular value s counts
    when it exceeds tol times the largest, and marks a trivial direction
    when its sine sqrt(1 - s^2), the length of its Y part, is at most tol,
    or when s lies within TRIVIAL_ULPS ulps of 1, the finest angle it
    resolves.  The row-echelon form cuts at tol, or TRIVIAL_ULPS ulps if
    more.  So ``tol`` must lie in [machine epsilon, 1): below rounding
    every direction counts as independent, and at 1 or above none does.
    """
    if not (math.isfinite(tol) and MACHINE_EPS <= tol < 1.0):
        raise InvalidParamsError(
            f"tolerance must lie in [machine epsilon, 1), got {tol!r}")
    basis = ruling_basis(game, strategies, schedule)
    count, players = game.payoffs.shape
    width = players + 1  # the (alpha, gamma) columns
    system = np.empty((count, width + len(basis.vectors)))
    system[:, :players] = game.payoffs
    system[:, players] = 1.0
    np.negative(basis.vectors.T, out=system[:, width:])
    _, s, vt = np.linalg.svd(system)
    coeffs = vt[_rank(s, tol):, :width]
    if not coeffs.size:
        return []
    _, s, vt = np.linalg.svd(coeffs, full_matrices=False)
    floor = TRIVIAL_ULPS * MACHINE_EPS
    keep = (s > tol * s[0]) & (s * s < 1.0 - max(tol * tol, 2 * floor))
    rows = _rref(vt[keep], max(tol, floor))
    return [PayoffRelation(row[:-1], row[-1]) for row in rows]


def enforces_relation(game: GameSpec, strategies: Sequence[MarkovStrategy],
                      schedule: ContinuationSchedule, relation: PayoffRelation,
                      tol: float = 1e-8) -> bool:
    """True when w for ``relation`` lies in the span of the ruling basis."""
    basis = ruling_basis(game, strategies, schedule)
    w = relation_vector(game, relation)
    coeffs, *_ = np.linalg.lstsq(basis.vectors.T, w, rcond=None)
    fitted = basis.vectors.T @ coeffs
    scale = max(1.0, float(np.max(np.abs(w))))
    return bool(np.max(np.abs(fitted - w)) <= tol * scale)


# ---------------------------------------------------------------------------
# Sampled verification


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sampling opponents against a claimed relation."""

    passed: bool
    max_abs_violation: float
    worst_opponents: tuple[MarkovStrategy, ...]
    payoffs: np.ndarray        # (samples_used, player_count)
    residuals: np.ndarray      # (samples_used,)
    boundary_mask: np.ndarray  # (samples_used,) True for boundary draws
    samples_used: int
    samples_skipped: int


def interior_simplex(rng: np.random.Generator, size: int,
                     count: int | tuple[int, ...] | None = None,
                     low: float = 0.05) -> np.ndarray:
    """Dirichlet draws squeezed so every entry is at least the floor
    min(low, 1 / (2 size)).  The floors take at most half of the mass, so
    for size >= 2 every entry lies in (0, 1) and the draws still vary."""
    low = min(low, 0.5 / size)
    raw = rng.dirichlet(np.ones(size), size=count)
    return low + (1.0 - size * low) * raw


def sample_markov_tables(rng: np.random.Generator, game: GameSpec,
                         player: int, count: int,
                         boundary: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random Markov strategies of one player, as arrays.

    Returns conditionals of shape (count, profile_count, m) and initials
    of shape (count, m).  Interior entries are at least min(0.05, 1/(2m))
    (``interior_simplex``); boundary draws make about half the rows
    one-hot and the initial action a point mass with probability 1/2.
    """
    m = game.action_counts[player]
    conditionals = interior_simplex(rng, m, (count, game.profile_count))
    initial = interior_simplex(rng, m, count)
    if boundary:
        onehot = np.eye(m)
        pick = rng.random((count, game.profile_count)) < 0.5
        conditionals[pick] = onehot[rng.integers(m, size=int(pick.sum()))]
        point = rng.random(count) < 0.5
        initial[point] = onehot[rng.integers(m, size=int(point.sum()))]
    return conditionals, initial


def sample_markov_strategy(rng: np.random.Generator, game: GameSpec,
                           player: int, boundary: bool = False) -> MarkovStrategy:
    """Random Markov strategy: the single draw of ``sample_markov_tables``."""
    conditionals, initial = sample_markov_tables(rng, game, player, 1, boundary)
    return MarkovStrategy(player, MixedAction(initial[0]), conditionals[0])


def _draw_opponents(rng: np.random.Generator, game: GameSpec,
                    opponents: Sequence[int], samples: int,
                    n_boundary: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (conditionals, initials) pair of stacked tables per opponent
    player; the last ``n_boundary`` samples are boundary draws."""
    drawn = []
    for player in opponents:
        interior = sample_markov_tables(rng, game, player, samples - n_boundary)
        edge = sample_markov_tables(rng, game, player, n_boundary, boundary=True)
        drawn.append(tuple(np.concatenate(pair) for pair in zip(interior, edge)))
    return drawn


def _chain_average(game: GameSpec, schedule: ContinuationSchedule,
                   tables: dict[int, np.ndarray], size: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``markov_average`` of ``size`` chains.  ``tables`` maps every player
    to its initial action followed by one conditional row per profile,
    shared or stacked along a leading axis, so one ``profile_product``
    gives each chain's round-1 distribution over its transition matrix."""
    chains = profile_product(game,
                             [tables[p] for p in range(game.player_count)])
    if chains.ndim == 2:  # every table shared: one chain for the whole stack
        chains = np.broadcast_to(chains, (size,) + chains.shape)
    return markov_average(chains[:, 1:], chains[:, 0], schedule)


def verify_relation(game: GameSpec, strategies: Sequence[MarkovStrategy],
                    schedule: ContinuationSchedule, relation: PayoffRelation,
                    samples: int = 1000, tol: float = 1e-8, seed: int = 0,
                    boundary_fraction: float = 0.1) -> VerificationReport:
    """Check a relation against randomly sampled opponent strategies.

    Interior draws keep every probability of an opponent with m actions
    at least min(0.05, 1/(2m)); a ``boundary_fraction`` share of draws
    mixes in exact 0/1 entries to exercise reducible and periodic chains.
    Effective payoffs use the exact limiting average, so residuals reflect
    the claim, not estimator noise.

    All opponents are drawn at once and evaluated block by block with
    ``_chain_average``; a sample whose average does not settle is skipped.
    """
    if samples < 1:
        raise InvalidParamsError("samples must be >= 1")
    check_seed(seed)
    if not (math.isfinite(tol) and tol > 0.0):
        # an infinite tolerance would pass any relation
        raise InvalidParamsError(
            f"tolerance must be positive and finite, got {tol!r}")
    if not 0.0 <= boundary_fraction <= 1.0:
        raise InvalidParamsError("boundary fraction must lie in [0, 1]")
    if len(relation.alpha) != game.player_count:
        raise DimensionMismatchError(
            f"relation has {len(relation.alpha)} alpha coefficients for "
            f"{game.player_count} players")
    shared = {s.player: np.vstack([s.initial.probs, s.conditionals])
              for s in _controller_setup(game, strategies)[0]}
    opponents = [p for p in range(game.player_count) if p not in shared]
    rng = np.random.default_rng(seed)
    n_boundary = int(round(samples * boundary_fraction))
    drawn = _draw_opponents(rng, game, opponents, samples, n_boundary)
    for conditionals, initials in drawn:
        check_rows(conditionals, MIXED_SUM_TOL, "conditional")
        check_rows(initials, MIXED_SUM_TOL, "initial mixed action")

    payoffs = np.empty((samples, game.player_count))
    kept = np.empty(samples, dtype=bool)
    for start in range(0, samples, VERIFY_BLOCK):
        block = slice(start, min(start + VERIFY_BLOCK, samples))
        tables = {**shared, **{
            p: np.concatenate([init[block, None], cond[block]], axis=1)
            for p, (cond, init) in zip(opponents, drawn)}}
        vbar, _, kept[block] = _chain_average(game, schedule, tables,
                                              block.stop - start)
        payoffs[block] = vbar @ game.payoffs
    residuals = np.abs(payoffs @ np.array(relation.alpha) + relation.gamma)
    boundary_mask = np.arange(samples) >= samples - n_boundary
    used = int(kept.sum())
    if used:
        worst = int(np.flatnonzero(kept)[np.argmax(residuals[kept])])
        worst_val = float(residuals[worst])
        worst_opponents = tuple(
            MarkovStrategy(p, MixedAction(init[worst]), cond[worst])
            for p, (cond, init) in zip(opponents, drawn))
    else:
        worst_val, worst_opponents = -1.0, ()
    return VerificationReport(
        passed=bool(used and worst_val <= tol),
        max_abs_violation=worst_val,
        worst_opponents=worst_opponents,
        payoffs=payoffs[kept],
        residuals=residuals[kept],
        boundary_mask=boundary_mask[kept],
        samples_used=used,
        samples_skipped=samples - used,
    )


# ---------------------------------------------------------------------------
# Falsification


@dataclass(frozen=True)
class FalsificationReport:
    """Outcome of the search for opponents breaking a candidate ruling
    vector.

    ``bound`` is the largest |<candidate, vbar>| that any opponents reach,
    computed unless the schedule's constant tail is both reached and equal
    to 1 (then None); at or below ``threshold`` it proves the candidate
    holds."""

    candidate: np.ndarray
    achieved: float
    threshold: float
    counterexample: tuple[MarkovStrategy, ...] | None
    conclusive: bool  # True when a counterexample was found
    bound: float | None


# Policy-iteration steps allowed for a constant tail; every step that
# switches an action raises the tail's value, and a handful suffice.
POLICY_STEPS = 100

# A decision rule switches action only when another gains more than this
# many ulps of the value at stake, so rounding never changes the play.
SWITCH_ULPS = 64


def _improve(q: np.ndarray, rule: np.ndarray, tol: float) -> np.ndarray:
    """Per sign and state, the action of ``rule`` unless another action's
    value in ``q`` (..., states, actions) exceeds it by more than tol."""
    best = q.argmax(axis=-1)
    kept = np.take_along_axis(q, rule[..., None], -1)[..., 0]
    top = np.take_along_axis(q, best[..., None], -1)[..., 0]
    return np.where(top > kept + tol, best, rule)


def _best_response(rows: np.ndarray, succ: np.ndarray, candidate: np.ndarray,
                   schedule: ContinuationSchedule
                   ) -> tuple[float | None, np.ndarray | None]:
    """The opponents' optimum against fixed controllers, solved as a Markov
    decision process.

    State 0 is the start and state r + 1 follows profile r.  ``rows`` holds
    the controllers' joint row in each state (their joint initial action,
    then one joint conditional row per profile), and ``succ[j, a]`` is the
    profile their joint action j and the opponents' joint action a make.
    A round of survival weight p pays p * candidate at the profile it
    makes, for both signs of the candidate at once.  The explicit rounds
    are solved by backward induction, a constant tail c < 1 by policy
    iteration (Puterman 1994, ch. 4 and 6).  An action changes from the
    round after (or the policy step before) only on a gain above
    SWITCH_ULPS ulps of the value at stake.

    Returns the largest |<candidate, vbar>| over all opponents and, when
    the better sign plays one rule in every round from round 2 on, that
    deterministic Markov opponent as a joint action per state (None
    otherwise).  A reached tail of 1 has no discounted form to iterate,
    so it returns (None, None) before any solve.  Raises
    NoConvergenceError beyond MAX_ROUNDS explicit rounds
    (``schedule_rounds``) or POLICY_STEPS steps.
    """
    weights, opening, c = schedule_rounds(schedule)
    if opening and c == 1.0:
        return None, None
    states, count = len(rows), len(rows) - 1
    # step[s, a, b]: probability that opponent action a in state s makes
    # profile b
    step = (rows @ (succ[..., None] == np.arange(count))
            .reshape(len(succ), -1)).reshape(states, -1, count)
    ahead = step.reshape(-1, count).T

    def expected(value):
        """Per sign, state and action: the value of the state reached."""
        return (value[:, 1:] @ ahead).reshape(2, states, -1)

    pay = np.multiply.outer((1.0, -1.0), step @ candidate)
    ulps = SWITCH_ULPS * MACHINE_EPS * float(np.abs(candidate).max())
    rule = np.zeros((2, states), dtype=np.intp)
    value, weight, rules = np.zeros((2, states)), 0.0, []
    if opening:
        weight = 1.0 / (1.0 - c)
        eye, picks = np.eye(states), np.arange(states)
        moves = np.zeros((2, states, states))  # nothing returns to the start
        for _ in range(POLICY_STEPS):
            moves[:, :, 1:] = step[picks, rule]
            value = np.linalg.solve(
                eye - c * moves,
                np.take_along_axis(pay, rule[..., None], -1))[..., 0]
            new = _improve(pay + c * expected(value), rule, ulps * weight)
            if (new == rule).all():
                break
            rule = new
        else:
            raise NoConvergenceError(
                f"policy iteration did not settle in {POLICY_STEPS} steps")
        weight *= opening
        value *= opening
        rules.append(rule)
    for p in reversed(weights):
        weight += p
        q = p * pay + expected(value)
        rule = _improve(q, rule, ulps * weight)
        value = np.take_along_axis(q, rule[..., None], -1)[..., 0]
        rules.append(rule)
    sign = int(value[1, 0] > value[0, 0])
    bound = max(float(value[sign, 0]) / weight, 0.0)
    # rules[-1] plays round 1 and the rest every later round
    later = [r[sign, 1:] for r in rules[:-1]] or [rules[-1][sign, 1:]]
    if any((r != later[0]).any() for r in later[1:]):
        return bound, None
    return bound, np.concatenate([rules[-1][sign, :1], later[0]])


def _rule_tables(game: GameSpec, opponents: Sequence[int],
                 rules: np.ndarray) -> dict[int, np.ndarray]:
    """Each opponent's one-hot (..., count + 1, m) table from stacked
    deterministic rules: per opponent, in order, an action for the start
    state and one after each profile, so table row r + 1 is conditional
    row r."""
    return {p: np.eye(game.action_counts[p])[part] for p, part in
            zip(opponents, np.split(rules, len(opponents), axis=-1))}


def _rule_values(game: GameSpec, schedule: ContinuationSchedule,
                 shared: dict[int, np.ndarray], candidate: np.ndarray,
                 rules: np.ndarray) -> np.ndarray:
    """|<candidate, vbar>| of each row of ``rules`` against the controllers'
    ``shared`` tables, VERIFY_BLOCK chains at a time.  Raises
    NoConvergenceError unless every average settled."""
    opponents = [p for p in range(game.player_count) if p not in shared]
    values = np.empty(len(rules))
    for start in range(0, len(rules), VERIFY_BLOCK):
        block = rules[start:start + VERIFY_BLOCK]
        tables = {**shared, **_rule_tables(game, opponents, block)}
        vbar, residual, settled = _chain_average(game, schedule, tables,
                                                 len(block))
        if not settled.all():
            raise NoConvergenceError(
                f"trial average did not settle "
                f"(residual {residual[~settled][0]:.3e})")
        # a dot product per chain: the same sum wherever it sits in the
        # stack
        values[start:start + len(block)] = np.abs(
            (vbar[:, None, :] @ candidate[:, None])[:, 0, 0])
    return values


def falsify_candidate(game: GameSpec, strategies: Sequence[MarkovStrategy],
                      schedule: ContinuationSchedule, candidate: np.ndarray,
                      budget: int = 100, seed: int = 0,
                      threshold: float = 1e-6) -> FalsificationReport:
    """Find opponent strategies maximizing |<candidate, vbar>|.

    Exceeding ``threshold`` certifies that the candidate is not a ruling
    vector under this schedule, so the threshold must be finite and
    positive.

    The opponents' best response is solved exactly (``_best_response``)
    and ``bound`` reports the optimum over all opponents, or is None when
    the schedule's constant tail is both reached and equal to 1.  Where
    one deterministic Markov opponent attains the bound, that opponent is
    the answer, evaluated once, and ``budget`` and ``seed`` go unused.
    Otherwise (a reached tail of 1, or an optimum that plays differently
    by round) ``budget`` random deterministic stationary opponents (at
    least 1), drawn from ``seed``, each climb by ``_ascend`` over
    single-entry changes; a value within the threshold then proves nothing
    unless the bound does.  Among equal best values the first restart
    wins.
    """
    if budget < 1:
        raise InvalidParamsError("budget must be >= 1")
    check_seed(seed)
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise InvalidParamsError("threshold must be finite and positive")
    candidate = np.asarray(candidate, dtype=float)
    if candidate.shape != (game.profile_count,):
        raise DimensionMismatchError(
            f"candidate has shape {candidate.shape}, expected "
            f"({game.profile_count},)")
    controllers = {s.player for s in strategies}
    opponents = [p for p in range(game.player_count) if p not in controllers]
    if not opponents:
        raise InvalidParamsError("no free opponent to search over")
    ordered, _, _, jhat = _controller_setup(game, strategies)
    shared = {s.player: np.vstack([s.initial.probs, s.conditionals])
              for s in ordered}
    sizes, khat = joint_index(game, opponents)
    rows = np.vstack([joint_initial(ordered), _joint_table(ordered)])
    succ = np.empty((rows.shape[1], math.prod(sizes)), dtype=np.intp)
    succ[jhat, khat] = np.arange(game.profile_count)
    bound, play = _best_response(rows, succ, candidate, schedule)
    values_of = functools.partial(_rule_values, game, schedule, shared,
                                  candidate)
    if play is not None:
        rules = np.concatenate(np.unravel_index(play, sizes))[None]
        values = values_of(rules)
    else:
        choices = np.repeat(sizes, game.profile_count + 1)
        rules = np.random.default_rng(seed).integers(
            choices, size=(budget, len(choices)))
        values = _ascend(rules, choices, values_of)
    best = int(np.argmax(values))
    achieved = float(values[best])
    found = achieved > threshold
    counterexample = tuple(
        MarkovStrategy(p, MixedAction(table[0]), table[1:])
        for p, table in _rule_tables(game, opponents, rules[best]).items()
    ) if found else None
    return FalsificationReport(
        candidate=candidate,
        achieved=achieved,
        threshold=threshold,
        counterexample=counterexample,
        conclusive=found,
        bound=bound,
    )


def _ascend(rules: np.ndarray, choices: np.ndarray, values_of) -> np.ndarray:
    """Steepest ascent from every row of ``rules`` (updated in place), whose
    entry i takes one of ``choices[i]`` actions.  ``values_of`` maps a
    stack of rules to their values.  Each step evaluates every
    single-entry neighbour of every live row as one stack; a row moves to
    its first best neighbour when that beats its value by more than
    1e-15, and stops after a step that does not.  The values only rise on
    a finite set, so the ascent ends.  Returns the values reached."""
    # neighbour k sets entry at[k] to its other[k]-th action other than
    # the current one
    at = np.repeat(np.arange(len(choices)), choices - 1)
    other = np.concatenate([np.arange(m - 1) for m in choices])
    every = np.arange(len(at))
    value = values_of(rules)
    live = np.arange(len(rules))
    while live.size:
        near = np.repeat(rules[live, None], len(at), axis=1)
        near[:, every, at] = other + (other >= near[:, every, at])
        values = values_of(near.reshape(-1, len(choices))) \
            .reshape(len(live), -1)
        best = values.argmax(axis=1)
        top = values[np.arange(len(live)), best]
        better = top > value[live] + 1e-15
        live = live[better]
        rules[live] = near[better, best[better]]
        value[live] = top[better]
    return value
