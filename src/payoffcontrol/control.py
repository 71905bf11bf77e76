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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import (
    Classification,
    ConstantContinuation,
    ContinuationSchedule,
    InfiniteExpectedRounds,
    MarkovStrategy,
    MixedAction,
    StrategyProfile,
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
    NonFiniteEntryError,
    UnknownActionError,
    UnsupportedScheduleError,
)
from .games import MIXED_SUM_TOL, GameSpec

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
    ordered, _, sizes, _ = _controller_setup(game, strategies)
    count = game.profile_count
    joint = np.ones((count, int(np.prod(sizes))))
    reshaped = joint.reshape((count,) + sizes)
    for axis, strat in enumerate(ordered):
        shape = [count] + [1] * len(sizes)
        shape[axis + 1] = sizes[axis]
        reshaped *= strat.conditionals.reshape(shape)
    return reshaped.reshape(count, -1)


def joint_initial(strategies: Sequence[MarkovStrategy]) -> np.ndarray:
    """Joint initial distribution of independent controllers."""
    ordered = sorted(strategies, key=lambda s: s.player)
    sigma = np.ones(1)
    for strat in ordered:
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
    if vectors.size:
        svals = np.linalg.svd(vectors, compute_uv=False)
        rank = int(np.sum(svals > RANK_TOL * max(svals[0], 1.0)))
    else:
        rank = 0
    return RulingBasis(vectors, players, form, provenance, rank)


# ---------------------------------------------------------------------------
# Detection


def _null_space(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the null space, SVD threshold relative."""
    u, s, vt = np.linalg.svd(matrix)
    cutoff = tol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T


def detect_relations(game: GameSpec, strategies: Sequence[MarkovStrategy],
                     schedule: ContinuationSchedule,
                     tol: float = RANK_TOL) -> list[PayoffRelation]:
    """Enforced linear payoff relations of the given controller strategies.

    Solves [u_1 ... u_n, 1] (alpha; gamma) = [u~_1 ... u~_r] y for nonzero
    (alpha, gamma).  Relations are returned in canonical form, pairwise
    independent, with trivial relations (w = 0) removed.  A repeat
    strategy, whose ruling vectors all vanish, yields an empty list.
    """
    basis = ruling_basis(game, strategies, schedule)
    count = game.profile_count
    u_aug = np.column_stack([game.payoffs, np.ones(count)])
    block = np.column_stack([u_aug, -basis.vectors.T]) if basis.vectors.size \
        else u_aug
    null = _null_space(block, tol)
    if null.size == 0:
        return []
    n1 = game.player_count + 1
    images = u_aug @ null[:n1, :]
    u, s, _ = np.linalg.svd(images, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return []
    keep = np.where(s > tol * s[0])[0]
    relations = []
    for k in keep:
        coeffs, *_ = np.linalg.lstsq(u_aug, u[:, k], rcond=None)
        # coefficients at rank-tolerance level are noise, not structure
        coeffs[np.abs(coeffs) <= tol * np.max(np.abs(coeffs))] = 0.0
        rel = PayoffRelation(tuple(coeffs[:-1]), coeffs[-1])
        if not is_trivial(game, rel, tol):
            relations.append(rel)
    relations.sort(key=lambda r: tuple(r.coefficients()))
    return relations


def enforces_relation(game: GameSpec, strategies: Sequence[MarkovStrategy],
                      schedule: ContinuationSchedule, relation: PayoffRelation,
                      tol: float = 1e-8) -> bool:
    """True when w for ``relation`` lies in the span of the ruling basis."""
    basis = ruling_basis(game, strategies, schedule)
    w = relation_vector(game, relation)
    if not basis.vectors.size:
        return False
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
    """Conditional and initial tables of every sampled opponent, one
    (conditionals, initials) pair per opponent player; the last
    ``n_boundary`` samples are boundary draws."""
    drawn = []
    for player in opponents:
        interior = sample_markov_tables(rng, game, player, samples - n_boundary)
        edge = sample_markov_tables(rng, game, player, n_boundary, boundary=True)
        drawn.append(tuple(np.concatenate(pair) for pair in zip(interior, edge)))
    return drawn


def _check_tables(conditionals: np.ndarray, initials: np.ndarray) -> None:
    """The MarkovStrategy and MixedAction checks, over a stack of draws."""
    for table, what, sum_tol in ((conditionals, "conditional table", 1e-12),
                                 (initials, "initial mixed action",
                                  MIXED_SUM_TOL)):
        if not np.all(np.isfinite(table)):
            raise NonFiniteEntryError(f"{what} has a non-finite entry")
        if np.any(table < -1e-12) or np.any(table > 1.0 + 1e-12):
            raise InvalidParamsError(f"{what} entries must lie in [0, 1]")
        if np.any(np.abs(table.sum(axis=-1) - 1.0) > sum_tol):
            raise InvalidParamsError(f"{what} rows must sum to 1")


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
    controllers = sorted(s.player for s in strategies)
    if len(set(controllers)) != len(controllers):
        raise InconsistentStrategyError("duplicate player in strategy profile")
    for strat in strategies:
        check_strategy(game, strat)
    opponents = [p for p in range(game.player_count) if p not in controllers]
    rng = np.random.default_rng(seed)
    n_boundary = int(round(samples * boundary_fraction))
    drawn = _draw_opponents(rng, game, opponents, samples, n_boundary)
    for conditionals, initials in drawn:
        _check_tables(conditionals, initials)

    shared = {s.player: (s.conditionals, s.initial.probs) for s in strategies}
    n = game.profile_count
    payoffs = np.empty((samples, game.player_count))
    kept = np.empty(samples, dtype=bool)
    for start in range(0, samples, VERIFY_BLOCK):
        block = slice(start, min(start + VERIFY_BLOCK, samples))
        size = block.stop - start
        tables = {**shared, **{p: (cond[block], init[block])
                               for p, (cond, init) in zip(opponents, drawn)}}
        conds, inits = zip(*(tables[p] for p in range(game.player_count)))
        m = np.broadcast_to(profile_product(game, conds), (size, n, n))
        v1 = np.broadcast_to(profile_product(game, inits), (size, n))
        vbar, _, kept[block] = markov_average(m, v1, schedule)
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
    table = np.clip(table, 0.0, 1.0)
    sums = table.sum(axis=-1, keepdims=True)
    flat = sums <= 0.0
    if np.any(flat):
        table = np.where(flat, 1.0, table)
        sums = table.sum(axis=-1, keepdims=True)
    return table / sums


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
    """
    candidate = np.asarray(candidate, dtype=float)
    if candidate.shape != (game.profile_count,):
        raise DimensionMismatchError(
            f"candidate has shape {candidate.shape}, expected "
            f"({game.profile_count},)")
    controllers = sorted(s.player for s in strategies)
    opponents = [p for p in range(game.player_count) if p not in controllers]
    if not opponents:
        raise InvalidParamsError("no free opponent to search over")
    rng = np.random.default_rng(seed)
    count = game.profile_count

    def assemble(flats):
        drawn = []
        for player, flat in zip(opponents, flats):
            m = game.action_counts[player]
            init = _project_rows(flat[:m][None, :])[0]
            cond = _project_rows(flat[m:].reshape(count, m))
            drawn.append(MarkovStrategy(player, MixedAction(init), cond))
        return tuple(drawn)

    def objective(flats):
        profile = StrategyProfile(tuple(strategies) + assemble(flats))
        vbar = average_distribution(game, profile, schedule).dist.probs
        return abs(float(candidate @ vbar))

    best_val = -1.0
    best = None
    sizes = [(game.action_counts[p]) * (count + 1) for p in opponents]
    for _ in range(max(1, budget)):
        flats = [rng.random(sz) for sz in sizes]
        value = objective(flats)
        for step in (0.3, 0.1, 0.03):
            improved = True
            sweeps = 0
            while improved and sweeps < 3:
                improved = False
                sweeps += 1
                for which, flat in enumerate(flats):
                    for i in range(flat.size):
                        base = flat[i]
                        for direction in (step, -step):
                            flat[i] = float(np.clip(base + direction, 0.0, 1.0))
                            trial = objective(flats)
                            if trial > value + 1e-15:
                                value = trial
                                base = flat[i]
                                improved = True
                        flat[i] = base
        if value > best_val:
            best_val = value
            best = assemble(flats)
    found = best_val > threshold
    return FalsificationReport(
        candidate=candidate,
        achieved=float(best_val),
        threshold=threshold,
        counterexample=best if found else None,
        conclusive=found,
    )
