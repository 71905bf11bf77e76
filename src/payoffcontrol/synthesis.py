"""Construction of ruling strategies enforcing a target payoff relation.

Given a target w = sum_i alpha_i u_i + gamma 1, a controller set, and a
supported schedule form, we look for controller strategies whose ruling
vectors span w.  Writing q_a for the controllers' joint conditional
distribution after profile a, jhat(a) for the joint action they played in
a, and y for the combination coefficients over the full joint-action
family, the requirement reads per profile:

    infinite rounds:   <y, q_a> - y[jhat(a)] = w(a)
    continuation d:  d <y, q_a> + (1-d) <y, sigma> - y[jhat(a)] = w(a)

with sigma the controllers' joint initial distribution.  Each constrained
row q (and sigma under continuation) must therefore reach a value
beta = <y, q> fixed by y.

Coefficients.  A distribution q with <y, q> = beta exists exactly when
beta lies between min(y) and max(y), so for a fixed y feasibility is a set
of linear inequalities.  Which component attains the min or the max is
unknown, but enumerating the (min, max) index pair keeps everything
linear: each pair gives a small linear program in (y, slack), and the
target is feasible if and only if some pair admits a solution.
Infeasibility of every pair is therefore a proof, not a search failure.

Rows.  One builder makes every probability row.  An alliance is a list of
members with sizes s_k, and a row is a product p_1 x ... x p_q: one member
per controller for independent alliances, a single member over the J
joint actions for correlated alliances and single controllers.  The
margin-m set of member k, {p_k >= m}, has the vertices
m 1 + (1 - s_k m) e_i.  The multilinear map <y, p_1 x ... x p_q> takes
its min and max over these sets at vertex combinations, and the sets
shrink as m grows, so the largest m whose range still holds beta is found
by bisection on m.  A walk from the minimizing to the maximizing vertex
combination, switching one member at a time, then crosses beta on one
linear segment, which is solved exactly.  Every row sits at its own
maximin; candidates from the linear programs are ranked by the margin all
their rows can share.

For a single controller with two actions under infinite rounds every
construction is s = rep + z*w with z = 1/y.  An exact interval
intersection in z decides feasibility, which is the certificate reported
for that case, and the best z maximizes a concave piecewise-linear
function, so it lies at an interval end or at a crossing of its lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .control import (
    PayoffRelation,
    _controller_setup,
    is_trivial,
    joint_conditionals,
    joint_initial,
    relation_vector,
)
from .dynamics import (
    Classification,
    ConstantContinuation,
    ContinuationSchedule,
    InfiniteExpectedRounds,
    MarkovStrategy,
    classify_schedule,
    repeat_strategy,
)
from .games import GameSpec, MixedAction
from .errors import (
    InvalidParamsError,
    TrivialTargetError,
    UnsupportedScheduleError,
)


@dataclass(frozen=True)
class SynthesisTarget:
    """A relation to enforce, the players enforcing it, and the alliance mode."""

    relation: PayoffRelation
    controllers: tuple[int, ...]
    mode: str = "independent"

    def __post_init__(self):
        players = tuple(sorted(set(self.controllers)))
        if not players:
            raise InvalidParamsError("at least one controller is required")
        if players != tuple(self.controllers) and set(players) != set(self.controllers):
            raise InvalidParamsError("duplicate controller player")
        object.__setattr__(self, "controllers", players)
        if self.mode not in ("independent", "correlated"):
            raise InvalidParamsError(
                f"mode must be 'independent' or 'correlated', got {self.mode!r}")


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """A feasible construction.

    ``strategies`` holds one MarkovStrategy per controller in independent
    mode; correlated alliances return the joint tables instead.  ``y``
    follows the ruling-basis convention (last joint action dropped).
    ``margin`` is the smallest slack min(p, 1-p) over all probability
    entries that the construction constrains (member rows for independent
    alliances, joint rows for correlated ones), measured on the built
    tables; each row is as far from the 0/1 boundary as its y allows.
    ``note`` names the construction that decided: ``"interval"`` (single
    two-action controller under infinite rounds) or ``"pair-lp"``.
    """

    target: SynthesisTarget
    form: Classification
    strategies: tuple[MarkovStrategy, ...] | None
    joint_conditionals: np.ndarray | None
    joint_initial: np.ndarray | None
    y: np.ndarray
    w: np.ndarray
    margin: float
    note: str = ""


@dataclass(frozen=True)
class Infeasible:
    """No construction exists (conclusive) or none was found (inconclusive).

    certificate: "exact-interval-empty" for the single-controller
    two-action interval proof, "exact-lp-empty" when every (min, max)
    linear program is infeasible, "search-budget-exhausted" otherwise.
    """

    certificate: str
    conclusive: bool
    detail: str


SPREAD_CAPS = (2.0, 4.0, 8.0, 16.0, 64.0)
"""Caps on max(y) - min(y), in units of max(1, max |w|), for each pair LP."""

BISECTION_STEPS = 60
"""Halvings of [0, 1/max(s_k)]: the bisection ends within 2^-61 of the
largest margin whose range comparison holds in floating point."""


# ---------------------------------------------------------------------------
# The maximin row builder


def _vertex_values(y: np.ndarray, sizes: tuple[int, ...], m) -> np.ndarray:
    """<y, v_1 x ... x v_q> at every vertex combination of the margin-m
    member sets, one flattened row per entry of ``m``.

    Vertex i of member k is m 1 + (1 - s_k m) e_i, so contracting axis k
    with it mixes each entry with that axis's sum.
    """
    m = np.reshape(m, (-1,) + (1,) * len(sizes))
    values = np.broadcast_to(y.reshape(sizes), m.shape[:1] + sizes)
    for axis, size in enumerate(sizes, start=1):
        values = (1.0 - size * m) * values \
            + m * values.sum(axis=axis, keepdims=True)
    return values.reshape(m.shape[0], -1)


def _reaches(y, sizes, m, lo, hi) -> np.ndarray:
    """Whether the margin-m sets reach both lo and hi, elementwise."""
    values = _vertex_values(y, sizes, m)
    return (values.min(axis=1) <= lo) & (values.max(axis=1) >= hi)


def _max_margin(y, sizes, lo: np.ndarray, hi: np.ndarray,
                floor: float = 0.0) -> np.ndarray:
    """Largest m >= floor whose margin-m sets reach all of [lo, hi],
    elementwise.  ``floor`` is either 0 or a margin already known to reach.

    The comparison carries no tolerance, so the walk in _maximin_rows finds
    its crossing at the returned m without clipping.
    """
    top = 1.0 / max(sizes)
    below = np.full(lo.shape, floor)
    above = np.full(lo.shape, top)
    below[_reaches(y, sizes, above, lo, hi)] = top
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (below + above)
        ok = _reaches(y, sizes, mid, lo, hi)
        below = np.where(ok, mid, below)
        above = np.where(ok, above, mid)
    return below


def _maximin_rows(y: np.ndarray, sizes: tuple[int, ...],
                  betas: np.ndarray) -> list[np.ndarray]:
    """Member rows with <y, p_1 x ... x p_q> = beta for every beta, each
    row at its own maximin margin.  Returns one (len(betas), s_k) array
    per member.

    A beta outside [min(y), max(y)] by rounding gets margin 0 and the
    nearest corner.
    """
    margins = _max_margin(y, sizes, betas, betas)
    values = _vertex_values(y, sizes, margins)
    rows = [np.empty((betas.size, size)) for size in sizes]
    for r, beta in enumerate(betas):
        grid = values[r].reshape(sizes)
        start = np.unravel_index(int(np.argmin(grid)), sizes)
        end = np.unravel_index(int(np.argmax(grid)), sizes)
        # weight of end[k] in member k: 1 before the crossing member,
        # 0 after it
        weights = [0.0] * len(sizes)
        current, value = list(start), float(grid[start])
        for k in range(len(sizes)):
            if value >= beta:
                break
            if current[k] == end[k]:
                continue
            current[k] = end[k]
            after = float(grid[tuple(current)])
            weights[k] = 1.0 if after < beta \
                else (beta - value) / (after - value)
            value = after
        for k, size in enumerate(sizes):
            row = np.full(size, margins[r])
            free = 1.0 - size * margins[r]
            row[start[k]] += free * (1.0 - weights[k])
            row[end[k]] += free * weights[k]
            rows[k][r] = row
    return rows


# ---------------------------------------------------------------------------
# Exact interval rung: single controller, two actions, infinite rounds


def _interval_rung(w: np.ndarray, rep0: np.ndarray):
    """Feasible z interval for s = rep + z*w (infinite form, two actions).

    Entries with rep0 = 1 need z*w in [-1, 0]; entries with rep0 = 0 need
    z*w in [0, 1].  Returns (lo, hi) or None when only z = 0 remains.
    """
    lo, hi = -np.inf, np.inf
    for wa, on in zip(w, rep0):
        if wa == 0.0:
            continue
        bounds = (-1.0, 0.0) if on else (0.0, 1.0)
        a, b = (bounds[0] / wa, bounds[1] / wa)
        if a > b:
            a, b = b, a
        lo, hi = max(lo, a), min(hi, b)
    if lo > hi or (lo == 0.0 and hi == 0.0):
        return None
    return lo, hi


def _interval_z(w, rep0, lo, hi) -> float:
    """Nonzero z in [lo, hi] maximizing min_a min(c_a, 1 - c_a) for
    c = rep0 + z*w.

    The objective is the minimum of the lines c_a and 1 - c_a in z, so its
    maximum lies at an interval end or where two of those lines cross.
    """
    slopes = np.concatenate([w, -w])
    offsets = np.concatenate([rep0, 1.0 - rep0])
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = (offsets[None, :] - offsets[:, None]) \
            / (slopes[:, None] - slopes[None, :])
    inside = crossings[(crossings > lo) & (crossings < hi)]
    zs = np.concatenate([[lo, hi], inside])
    zs = zs[zs != 0.0]
    objective = (offsets[None, :] + zs[:, None] * slopes[None, :]).min(axis=1)
    return float(zs[np.argmax(objective)])


# ---------------------------------------------------------------------------
# Pairwise linear programs over y


def _pair_lp(joint_count, jhat, w, delta, lo, hi, spread_cap):
    """Max-slack LP fixing which joint action attains min(y) and max(y).

    Variables: y (last pinned to 0), slack t >= 0, and for the
    constant-continuation form the scalar m = <y, sigma>.
    """
    has_m = delta is not None
    nvar = joint_count + 1 + (1 if has_m else 0)
    t_idx = joint_count
    m_idx = joint_count + 1
    rows_ub, rhs_ub = [], []
    rows_eq, rhs_eq = [], []

    def add(rows, rhs, coeffs, bound):
        row = np.zeros(nvar)
        for idx, val in coeffs:
            row[idx] += val
        rows.append(row)
        rhs.append(bound)

    for j in range(joint_count):
        if j != lo:
            add(rows_ub, rhs_ub, [(lo, 1.0), (j, -1.0)], 0.0)
        if j != hi:
            add(rows_ub, rhs_ub, [(j, 1.0), (hi, -1.0)], 0.0)
    add(rows_ub, rhs_ub, [(hi, 1.0), (lo, -1.0)], spread_cap)

    if delta is None:
        for a, wa in enumerate(w):
            add(rows_ub, rhs_ub,
                [(lo, 1.0), (int(jhat[a]), -1.0), (t_idx, 1.0)], wa)
            add(rows_ub, rhs_ub,
                [(int(jhat[a]), 1.0), (hi, -1.0), (t_idx, 1.0)], -wa)
    elif delta > 0.0:
        for a, wa in enumerate(w):
            add(rows_ub, rhs_ub,
                [(lo, delta), (int(jhat[a]), -1.0), (m_idx, 1.0 - delta),
                 (t_idx, delta)], wa)
            add(rows_ub, rhs_ub,
                [(hi, -delta), (int(jhat[a]), 1.0), (m_idx, -(1.0 - delta)),
                 (t_idx, delta)], -wa)
        add(rows_ub, rhs_ub, [(lo, 1.0), (m_idx, -1.0), (t_idx, 1.0)], 0.0)
        add(rows_ub, rhs_ub, [(m_idx, 1.0), (hi, -1.0), (t_idx, 1.0)], 0.0)
    else:
        # one-shot: the initial distribution carries the whole constraint
        for a, wa in enumerate(w):
            add(rows_eq, rhs_eq, [(m_idx, 1.0), (int(jhat[a]), -1.0)], wa)
        add(rows_ub, rhs_ub, [(lo, 1.0), (m_idx, -1.0), (t_idx, 1.0)], 0.0)
        add(rows_ub, rhs_ub, [(m_idx, 1.0), (hi, -1.0), (t_idx, 1.0)], 0.0)

    cost = np.zeros(nvar)
    cost[t_idx] = -1.0
    bounds = [(None, None)] * joint_count + [(0.0, None)]
    bounds[joint_count - 1] = (0.0, 0.0)
    if has_m:
        bounds.append((None, None))
    res = linprog(cost, A_ub=np.array(rows_ub), b_ub=np.array(rhs_ub),
                  A_eq=np.array(rows_eq) if rows_eq else None,
                  b_eq=np.array(rhs_eq) if rhs_eq else None,
                  bounds=bounds, method="highs")
    if res.status != 0:
        return None
    y = res.x[:joint_count]
    return y, (float(res.x[m_idx]) if has_m else None), float(res.x[t_idx])


# ---------------------------------------------------------------------------
# Candidate assembly


def _row_betas(w, jhat, y, delta, mval) -> np.ndarray:
    """The value <y, q> each constrained row must reach: one per profile
    (none in a one-shot game, whose conditionals never fire), then the
    initial row under constant continuation."""
    if delta is None:
        return w + y[jhat]
    if delta == 0.0:
        return np.array([mval])
    return np.append((w + y[jhat] - (1.0 - delta) * mval) / delta, mval)


def _assemble(game, target, delta, ordered, sizes, members, jhat, w, y, mval):
    """Build tables for a fixed y (and m for the constant form).

    Returns (strategies, joint_cond, joint_init, margin): strategies per
    controller, or joint tables for a correlated alliance, and the
    smallest min(p, 1 - p) over the built rows.
    """
    count = game.profile_count
    rows = _maximin_rows(y, members, _row_betas(w, jhat, y, delta, mval))
    margin = min(float(np.minimum(r, 1.0 - r).min()) for r in rows)
    if delta == 0.0:
        # conditionals never fire in a one-shot game; use repeat rows
        own = np.unravel_index(jhat, members)
        cond = [np.eye(size)[idx] for size, idx in zip(members, own)]
        init = [r[0] for r in rows]
    elif delta is None:
        cond = rows
        init = [np.full(size, 1.0 / size) for size in members]
    else:
        cond = [r[:count] for r in rows]
        init = [r[count] for r in rows]
    if target.mode == "correlated" and len(sizes) > 1:
        return None, cond[0], init[0], margin
    strategies = tuple(MarkovStrategy(base.player, MixedAction(p), table)
                       for base, p, table in zip(ordered, init, cond))
    return strategies, None, None, margin


def _family_residual(form, joint_cond, joint_init, jhat, y, w):
    """Max deviation of sum_j y_j u~_j from w for the assembled tables."""
    count, joint_count = joint_cond.shape
    rep = np.zeros((count, joint_count))
    rep[np.arange(count), jhat] = 1.0
    if isinstance(form, InfiniteExpectedRounds):
        family = joint_cond - rep
    else:
        sigma = joint_init if joint_init is not None \
            else np.full(joint_count, 1.0 / joint_count)
        family = form.delta * joint_cond \
            + (1.0 - form.delta) * sigma[None, :] - rep
    return float(np.max(np.abs(family @ y - w)))


def synthesize(game: GameSpec, schedule: ContinuationSchedule,
               target: SynthesisTarget) -> SynthesisResult | Infeasible:
    """Find controller strategies enforcing ``target.relation``.

    A single controller with two actions under infinite rounds is decided
    by the exact z-interval analysis alone: it is the exact optimum over
    every construction, and an empty interval is a conclusive certificate.
    Every other target solves the (min, max)-pair linear programs over y,
    one per pair and spread cap; infeasibility of all of them is the
    conclusive ``exact-lp-empty`` certificate.  Among the feasible
    solutions the one whose rows can all share the largest margin wins,
    and each of its rows is built at its own maximin margin
    (``SynthesisResult.margin`` is the smallest of them).
    """
    form = classify_schedule(schedule)
    if not isinstance(form, (InfiniteExpectedRounds, ConstantContinuation)):
        raise UnsupportedScheduleError(
            "ruling strategies require infinite expected rounds or a "
            "constant continuation probability below one")
    if is_trivial(game, target.relation):
        raise TrivialTargetError(
            "relation already holds identically; nothing to enforce")
    base = [repeat_strategy(game, p) for p in target.controllers]
    ordered, _, sizes, jhat = _controller_setup(game, base)
    w = relation_vector(game, target.relation)
    delta = form.delta if isinstance(form, ConstantContinuation) else None
    joint_count = int(np.prod(sizes))
    members = sizes if target.mode == "independent" else (joint_count,)
    scale = max(1.0, float(np.max(np.abs(w))))

    chosen = None  # (y_full, mval, note)
    if joint_count == 2 and delta is None:
        rep0 = (jhat == 0).astype(float)
        interval = _interval_rung(w, rep0)
        if interval is None:
            return Infeasible(
                certificate="exact-interval-empty",
                conclusive=True,
                detail="the per-profile bounds on z = 1/y intersect at most "
                       "in {0}; no Markov strategy of this controller can "
                       "reach the target",
            )
        z = _interval_z(w, rep0, *interval)
        chosen = (np.array([1.0 / z, 0.0]), None, "interval")
    else:
        any_pair_feasible = False
        best = 0.0
        for lo, hi in itertools.permutations(range(joint_count), 2):
            for cap in SPREAD_CAPS:
                solved = _pair_lp(joint_count, jhat, w, delta, lo, hi,
                                  cap * scale)
                if solved is None:
                    continue
                any_pair_feasible = True
                y, mval, _ = solved
                betas = _row_betas(w, jhat, y, delta, mval)
                low, high = betas.min(keepdims=True), betas.max(keepdims=True)
                eps = 1e-12 * max(1.0, float(np.abs(y).max()))
                if low[0] < y.min() - eps or high[0] > y.max() + eps:
                    continue
                # one vertex-range check: skip what cannot beat the best
                if chosen is not None \
                        and not _reaches(y, members, best, low, high)[0]:
                    continue
                margin = float(_max_margin(y, members, low, high, best)[0])
                if chosen is None or margin > best:
                    best, chosen = margin, (y, mval, "pair-lp")
        if not any_pair_feasible:
            return Infeasible(
                certificate="exact-lp-empty",
                conclusive=True,
                detail=f"all {joint_count * (joint_count - 1)} (min, max) "
                       "pair programs are infeasible; no Markov controller "
                       "tables reach the target under this schedule form",
            )
    if chosen is None:
        return Infeasible(
            certificate="search-budget-exhausted",
            conclusive=False,
            detail="feasible coefficient region found but no solution "
                   "keeps every row target between min(y) and max(y)",
        )

    y_full, mval, note = chosen
    strategies, joint_cond, joint_init, margin = _assemble(
        game, target, delta, ordered, sizes, members, jhat, w, y_full, mval)
    if strategies is not None:
        cond_check = joint_conditionals(game, strategies)
        init_check = joint_initial(strategies)
    else:
        cond_check = joint_cond
        init_check = joint_init
    residual = _family_residual(form, cond_check, init_check, jhat, y_full, w)
    if residual > 1e-8 * scale:
        return Infeasible(
            certificate="search-budget-exhausted",
            conclusive=False,
            detail=f"the assembled construction misses the target by "
                   f"{residual:.3g}",
        )
    return SynthesisResult(
        target=target,
        form=form,
        strategies=strategies,
        joint_conditionals=joint_cond,
        joint_initial=joint_init,
        y=y_full[:-1] - y_full[-1],
        w=w,
        margin=margin,
        note=note,
    )
