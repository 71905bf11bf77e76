"""Ruling vectors and linear payoff relations.

A ruling vector of a player (or an alliance) is a profile-indexed vector u~
whose inner product with the limiting average distribution vanishes no
matter what the remaining players do.  For a Markov strategy, writing s_j
for the column of probabilities of choosing own action j and rep_j for the
indicator of the profiles where the player just played j:

* infinite expected rounds:   u~_j = s_j - rep_j
* constant continuation d<1:  u~_j = d*s_j + (1-d)*s0_j*1 - rep_j

where s0_j is the initial probability of action j.  An alliance uses the
joint versions: products of member conditionals, of member indicators, and
of member initials.  The family over all (joint) actions sums to zero, so
the last vector is dropped; a full basis has r = (prod of member action
counts) - 1 vectors.

If some combination of ruling vectors equals w = sum_i alpha_i * u_i +
gamma * 1, then the effective payoffs obey sum_i alpha_i * ubar_i + gamma
= 0 against every opponent: a linear payoff relation is enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    Classification,
    ConstantContinuation,
    ContinuationSchedule,
    InfiniteExpectedRounds,
    MarkovStrategy,
    MixedAction,
    # unused here, but the benchmark tracer rebinds this name
    average_distribution,
    check_strategy,
    classify_schedule,
    markov_average,
    profile_product,
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
        alpha = np.array(self.alpha, dtype=float)
        gamma = float(self.gamma)
        if alpha.size == 0 or not np.all(np.isfinite(alpha)) or not np.isfinite(gamma):
            raise InvalidParamsError("relation coefficients must be finite")
        biggest = np.max(np.abs(alpha))
        overall = max(biggest, abs(gamma))
        if overall == 0.0:
            raise InvalidParamsError("relation coefficients are all zero")
        scale = biggest if biggest > 1e-12 * overall else abs(gamma)
        alpha = alpha / scale
        gamma = gamma / scale
        full = np.append(alpha, gamma)
        nonzero = np.where(np.abs(full) > 1e-12)[0]
        if nonzero.size and full[nonzero[0]] < 0:
            alpha = -alpha
            gamma = -gamma
        # + 0.0 turns any negative zero from the sign flip into plain zero
        object.__setattr__(self, "alpha", tuple(float(a) + 0.0 for a in alpha))
        object.__setattr__(self, "gamma", float(gamma) + 0.0)

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
    w = relation_vector(game, relation)
    scale = max(1.0, float(np.max(np.abs(game.payoffs))))
    return bool(np.max(np.abs(w)) <= tol * scale)


# ---------------------------------------------------------------------------
# Ruling bases


@dataclass(frozen=True, eq=False)
class RulingBasis:
    """Constructed ruling-vector family for a controller set.

    ``vectors`` holds one row per retained joint action (the lexicographic
    last one is dropped).  Degenerate strategies can make the family rank
    deficient: ``rank`` reports the numerically independent count.
    ``provenance`` lists the joint action-index tuple behind each row.
    """

    vectors: np.ndarray  # (r, profile_count)
    controllers: tuple[int, ...]
    form: Classification
    provenance: tuple[tuple[int, ...], ...]
    rank: int


def _controller_setup(game: GameSpec, strategies: Sequence[MarkovStrategy]):
    """Sort controller strategies by player, validate, and build the joint
    action indexing shared by basis construction and synthesis."""
    if not strategies:
        raise InconsistentStrategyError("at least one controller is required")
    ordered = tuple(sorted(strategies, key=lambda s: s.player))
    players = [s.player for s in ordered]
    if len(set(players)) != len(players):
        raise InconsistentStrategyError("duplicate controller player")
    for strat in ordered:
        check_strategy(game, strat)
    sizes = tuple(game.action_counts[p] for p in players)
    own = game.profile_actions[:, players]
    jhat = np.ravel_multi_index(tuple(own.T), sizes)
    return ordered, tuple(players), sizes, np.asarray(jhat)


def joint_conditionals(game: GameSpec,
                       strategies: Sequence[MarkovStrategy]) -> np.ndarray:
    """(profile_count, J) joint conditional table of independent controllers,
    J ranging over joint actions in lexicographic order."""
    joint = np.ones((game.profile_count, 1))
    for strat in _controller_setup(game, strategies)[0]:
        joint = (joint[:, :, None] * strat.conditionals[:, None, :]) \
            .reshape(len(joint), -1)
    return joint


def joint_initial(strategies: Sequence[MarkovStrategy]) -> np.ndarray:
    """Joint initial distribution of independent controllers."""
    sigma = np.ones(1)
    for strat in sorted(strategies, key=lambda s: s.player):
        sigma = np.outer(sigma, strat.initial.probs).ravel()
    return sigma


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


def ruling_basis(game: GameSpec, strategies: Sequence[MarkovStrategy],
                 schedule: ContinuationSchedule) -> RulingBasis:
    """Build the ruling-vector family of the given controller strategies.

    Raises UnsupportedScheduleError when the schedule is neither of
    infinite expected rounds nor constant continuation below one.
    """
    form = classify_schedule(schedule)
    if not isinstance(form, (InfiniteExpectedRounds, ConstantContinuation)):
        raise UnsupportedScheduleError(
            "schedule supports no ruling vectors: expected rounds are finite "
            "and the continuation probability is not constant")
    ordered, players, sizes, jhat = _controller_setup(game, strategies)
    count = game.profile_count
    joint_count = int(np.prod(sizes))
    q = joint_conditionals(game, ordered)
    rep = np.zeros((count, joint_count))
    rep[np.arange(count), jhat] = 1.0
    if isinstance(form, InfiniteExpectedRounds):
        family = q - rep
    else:
        sigma = joint_initial(ordered)
        family = form.delta * q + (1.0 - form.delta) * sigma[None, :] - rep
    vectors = family.T[:-1]  # family sums to zero; drop the last joint action
    provenance = tuple(
        tuple(int(x) for x in np.unravel_index(j, sizes))
        for j in range(joint_count - 1))
    svals = np.linalg.svd(vectors, compute_uv=False)
    rank = int(np.sum(svals > RANK_TOL * max(svals[0], 1.0)))
    return RulingBasis(vectors, players, form, provenance, rank)


# ---------------------------------------------------------------------------
# Detection


def _rref(rows: np.ndarray, tol: float) -> np.ndarray:
    """Reduced row-echelon form of a basis with orthonormal rows: the
    pivots are the columns that leave the span of the columns before them
    by more than ``tol`` and become the identity, so the result depends
    only on the row space.  Entries within ``tol`` of 0 become 0."""
    pivots, span = [], np.zeros((len(rows), 0))
    for j, col in enumerate(rows.T):
        residual = col - span @ (span.T @ col)
        if np.linalg.norm(residual) > tol:
            pivots.append(j)
            span = np.column_stack([span, residual / np.linalg.norm(residual)])
    reduced = np.linalg.solve(rows[:, pivots], rows)
    reduced[np.abs(reduced) <= tol] = 0.0
    reduced[:, pivots] = np.eye(len(pivots))
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
    """
    basis = ruling_basis(game, strategies, schedule)
    u_aug = np.column_stack([game.payoffs, np.ones(game.profile_count)])
    _, svals, vt = np.linalg.svd(np.column_stack([u_aug, -basis.vectors.T]))
    null = vt[int(np.sum(svals > tol * svals[0])):].T
    if null.size == 0:
        return []
    images = u_aug @ null[:game.player_count + 1, :]
    u, s, _ = np.linalg.svd(images, full_matrices=False)
    if s[0] <= 0.0:
        return []
    # least-norm coefficients of the enforced w: no trivial direction
    coeffs = np.linalg.lstsq(u_aug, u[:, s > tol * s[0]], rcond=None)[0]
    relations = [PayoffRelation(tuple(row[:-1]), row[-1])
                 for row in _rref(np.linalg.qr(coeffs)[0].T, tol)]
    return [rel for rel in relations if not is_trivial(game, rel, tol)]


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
    """Dirichlet draws squeezed so every entry lies in [low, 1 - low]."""
    raw = rng.dirichlet(np.ones(size), size=count)
    return low + (1.0 - size * low) * raw


def sample_markov_tables(rng: np.random.Generator, game: GameSpec,
                         player: int, count: int,
                         boundary: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random Markov strategies of one player, as arrays.

    Returns conditionals of shape (count, profile_count, m) and initials
    of shape (count, m).  Interior entries lie in [0.05, 0.95]; boundary
    draws make about half the rows one-hot and the initial action a
    point mass with probability 1/2.
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


def _average_stack(game: GameSpec, schedule: ContinuationSchedule,
                   tables: dict[int, tuple[np.ndarray, np.ndarray]],
                   size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``markov_average`` of ``size`` chains; ``tables`` maps every player
    to (conditionals, initial), shared or stacked along a leading axis."""
    conds, inits = zip(*(tables[p] for p in range(game.player_count)))
    n = game.profile_count
    m = np.broadcast_to(profile_product(game, conds), (size, n, n))
    v1 = np.broadcast_to(profile_product(game, inits), (size, n))
    return markov_average(m, v1, schedule)


def verify_relation(game: GameSpec, strategies: Sequence[MarkovStrategy],
                    schedule: ContinuationSchedule, relation: PayoffRelation,
                    samples: int = 1000, tol: float = 1e-8, seed: int = 0,
                    boundary_fraction: float = 0.1) -> VerificationReport:
    """Check a relation against randomly sampled opponent strategies.

    Interior draws keep all probabilities in [0.05, 0.95]; a
    ``boundary_fraction`` share of draws mixes in exact 0/1 entries to
    exercise reducible and periodic chains.  Effective payoffs use the
    exact limiting average, so residuals reflect the claim, not estimator
    noise.

    All opponents are drawn at once and evaluated block by block with
    ``markov_average``; a sample whose average does not settle is skipped.
    """
    if samples < 1:
        raise InvalidParamsError("samples must be >= 1")
    if not tol > 0.0:
        raise InvalidParamsError("tolerance must be positive")
    if not 0.0 <= boundary_fraction <= 1.0:
        raise InvalidParamsError("boundary fraction must lie in [0, 1]")
    if len(relation.alpha) != game.player_count:
        raise DimensionMismatchError(
            f"relation has {len(relation.alpha)} alpha coefficients for "
            f"{game.player_count} players")
    shared = {s.player: (s.conditionals, s.initial.probs)
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
        tables = {**shared, **{p: (cond[block], init[block])
                               for p, (cond, init) in zip(opponents, drawn)}}
        vbar, _, kept[block] = _average_stack(game, schedule, tables,
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
    """Search result for opponents breaking a candidate ruling vector."""

    candidate: np.ndarray
    achieved: float
    threshold: float
    counterexample: tuple[MarkovStrategy, ...] | None
    conclusive: bool  # True when a counterexample was found


def _project_rows(table: np.ndarray) -> np.ndarray:
    """Rows clipped to [0, 1] and scaled to sum 1; a zero row turns uniform."""
    table = np.clip(table, 0.0, 1.0)
    table = np.where(table.sum(axis=-1, keepdims=True) > 0.0, table, 1.0)
    return table / table.sum(axis=-1, keepdims=True)


def falsify_candidate(game: GameSpec, strategies: Sequence[MarkovStrategy],
                      schedule: ContinuationSchedule, candidate: np.ndarray,
                      budget: int = 100, seed: int = 0,
                      threshold: float = 1e-6) -> FalsificationReport:
    """Search opponent strategies maximizing |<candidate, vbar>|.

    Random restarts followed by coordinatewise refinement over every
    opponent probability (rows re-projected to the simplex).  Exceeding
    ``threshold`` certifies that the candidate is not a ruling vector
    under this schedule; not exceeding it within the budget proves
    nothing and is reported as inconclusive.

    The restarts run in lockstep, VERIFY_BLOCK at a time: each trial
    evaluates every restart still refining at that step as one stack.
    Among equal best values the first restart wins.
    """
    candidate = np.asarray(candidate, dtype=float)
    if candidate.shape != (game.profile_count,):
        raise DimensionMismatchError(
            f"candidate has shape {candidate.shape}, expected "
            f"({game.profile_count},)")
    controllers = {s.player for s in strategies}
    opponents = [p for p in range(game.player_count) if p not in controllers]
    if not opponents:
        raise InvalidParamsError("no free opponent to search over")
    shared = {s.player: (s.conditionals, s.initial.probs)
              for s in _controller_setup(game, strategies)[0]}
    count = game.profile_count
    sizes = [game.action_counts[p] for p in opponents]
    # one flat vector per restart: per opponent, its initial then its rows
    ends = np.cumsum([m * (count + 1) for m in sizes])
    restarts = max(1, budget)
    flats = np.random.default_rng(seed).random((restarts, ends[-1]))

    def tables(flat):
        return {p: (_project_rows(part[:, m:].reshape(-1, count, m)),
                    _project_rows(part[:, :m]))
                for p, m, part in zip(opponents, sizes,
                                      np.split(flat, ends[:-1], axis=1))}

    def objective(flat):
        vbar, residual, settled = _average_stack(
            game, schedule, {**shared, **tables(flat)}, len(flat))
        if not settled.all():
            raise NoConvergenceError(f"trial average did not settle "
                                     f"(residual {residual[~settled][0]:.3e})")
        # a dot product per chain: the same sum wherever it sits in the stack
        return np.abs((vbar[:, None, :] @ candidate[:, None])[:, 0, 0])

    values = np.concatenate([
        _refine(flats[start:start + VERIFY_BLOCK], objective)
        for start in range(0, restarts, VERIFY_BLOCK)])
    best = int(np.argmax(values))
    found = bool(values[best] > threshold)
    counterexample = tuple(
        MarkovStrategy(p, MixedAction(init[0]), cond[0])
        for p, (cond, init) in tables(flats[best:best + 1]).items()) \
        if found else None
    return FalsificationReport(
        candidate=candidate,
        achieved=float(values[best]),
        threshold=threshold,
        counterexample=counterexample,
        conclusive=found,
    )


def _refine(flat: np.ndarray, objective) -> np.ndarray:
    """Coordinatewise ascent from every row of ``flat`` (updated in place)
    at steps 0.3, 0.1 and 0.03, at most three sweeps each; a row leaves a
    step after a sweep that improved nothing.  Returns the values reached."""
    value = objective(flat)
    for step in (0.3, 0.1, 0.03):
        live = np.arange(len(flat))
        for _ in range(3):
            improved = np.zeros(len(flat), dtype=bool)
            for i in range(flat.shape[1]):
                base = flat[live, i]
                for direction in (step, -step):
                    flat[live, i] = np.clip(base + direction, 0.0, 1.0)
                    trial = objective(flat[live])
                    better = trial > value[live] + 1e-15
                    value[live[better]] = trial[better]
                    improved[live[better]] = True
                    base = np.where(better, flat[live, i], base)
                flat[live, i] = base
            live = live[improved[live]]
            if not live.size:
                break
    return value
