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
maximin.

Coefficients.  Some q in the margin-m sets reaches beta exactly when beta
lies between the smallest and largest vertex value, and at a fixed m the
vertex values V = A(m) y are linear in y.  Fixing the pair (lo, hi) of
vertex combinations that attain them keeps everything linear: one block
over (Y, z, M) with w entering as z w, every row target and every vertex
value in [V_lo, V_hi], and V_hi - V_lo <= 1.  All blocks are stacked into
one linear program that maximizes the sum of the z; m is reached when some
z is positive, with y = Y / z.  At m = 0 this is the existence question
itself, so z = 0 in every block is a proof, not a search failure.
Bisection on m finds the largest margin reached, and every solution is
only a proposal, kept by the exact margin of its y.

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
from scipy import sparse
from scipy.optimize import linprog

from .control import (
    PayoffRelation,
    _controller_setup,
    is_trivial,
    joint_conditionals,
    joint_initial,
    relation_vector,
    ruling_family,
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
        if len(players) != len(self.controllers):
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
    two-action interval proof, "exact-lp-empty" when the margin-0 program
    solves to optimality with z = 0 in every (min, max) block, and
    "search-budget-exhausted" when the solver fails at margin 0 or no
    solution survives the exact checks.
    """

    certificate: str
    conclusive: bool
    detail: str


MARGIN_HALVINGS = 30
"""Halvings of [0, 1/max(s_k)] in the search for the largest margin some
pair program still reaches."""

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


def _max_margin(y, sizes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Largest m whose margin-m sets reach all of [lo, hi], elementwise.

    The comparison carries no tolerance, so the walk in _maximin_rows finds
    its crossing at the returned m without clipping.  A range within
    ``_slack`` of min(y) or max(y) has only a rounding margin and gets 0.
    """
    top = 1.0 / max(sizes)
    below = np.zeros(lo.shape)
    above = np.full(lo.shape, top)
    below[_reaches(y, sizes, above, lo, hi)] = top
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (below + above)
        ok = _reaches(y, sizes, mid, lo, hi)
        below = np.where(ok, mid, below)
        above = np.where(ok, above, mid)
    slack = _slack(y)
    return np.where((lo <= y.min() + slack) | (hi >= y.max() - slack),
                    0.0, below)


def _slack(y: np.ndarray) -> float:
    """A few ulps of the scale of y: the rounding a vertex value carries."""
    return 4.0 * np.finfo(float).eps * max(1.0, float(np.abs(y).max()))


def _maximin_rows(y: np.ndarray, sizes: tuple[int, ...],
                  betas: np.ndarray) -> list[np.ndarray]:
    """Member rows with <y, p_1 x ... x p_q> = beta for every beta, each
    row at its own maximin margin.  Returns one (len(betas), s_k) array
    per member.

    A beta within ``_slack`` of min(y) or max(y), or outside them by
    rounding, gets margin 0 and that corner; the walk takes any vertex
    whose value lies that close to beta exactly.
    """
    slack = _slack(y)
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
            if value >= beta - slack:
                break
            if current[k] == end[k]:
                continue
            current[k] = end[k]
            after = float(grid[tuple(current)])
            weights[k] = 1.0 if after <= beta + slack \
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
        ends = (-1.0, 0.0) if on else (0.0, 1.0)
        a, b = sorted(end / wa for end in ends)
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
# The stacked margin-m programs over y


def _margin_program(members, jhat, w, delta, m, pairs):
    """One linprog over the (lo, hi) blocks of ``pairs`` at margin m.

    Block variables: Y (last entry pinned to 0), the scale z >= 0 of w,
    and under continuation M = <Y, sigma>.  With V = A(m) Y the margin-m
    vertex values, every row target (profile rows scaled by delta) and
    every V_j lie in [V_lo, V_hi], V_hi - V_lo <= 1, and the sum of the z
    is maximized.  Returns the (blocks, variables) solution, or None when
    the solver reports no optimum.
    """
    joint_count = int(np.prod(members))
    nvar = joint_count + (1 if delta is None else 2)
    # V_j as linear forms in the variables; A(m) is symmetric
    values = np.zeros((joint_count, nvar))
    values[:, :joint_count] = [_vertex_values(e, members, m)[0]
                               for e in np.eye(joint_count)]
    # each row target times its scale, as a linear form
    profile = np.zeros((len(w), nvar))
    profile[np.arange(len(w)), jhat] = 1.0
    profile[:, joint_count] = w
    target, scale, equal = profile, np.ones(len(w)), None
    if delta is not None:
        init = np.eye(nvar)[-1:]  # M
        if delta == 0.0:
            # one-shot: the initial row carries every profile as an equality
            target, scale, equal = init, np.ones(1), init - profile
        else:
            profile[:, -1] = delta - 1.0
            target = np.vstack([profile, init])
            scale = np.append(np.full(len(w), delta), 1.0)
    lo, hi = values[pairs[:, 0], None], values[pairs[:, 1], None]
    blocks = np.concatenate([scale[:, None] * lo - target,
                             target - scale[:, None] * hi,
                             lo - values, values - hi, hi - lo], axis=1)
    bound = np.zeros(blocks.shape[1])
    bound[-1] = 1.0  # V_hi - V_lo <= 1; every other row is homogeneous
    cost = np.zeros((len(pairs), nvar))
    cost[:, joint_count] = -1.0
    box = [(None, None)] * (joint_count - 1) + [(0.0, 0.0), (0.0, None)] \
        + [(None, None)] * (nvar - joint_count - 1)
    res = linprog(
        cost.ravel(), A_ub=sparse.block_diag(list(blocks), format="csr"),
        b_ub=np.tile(bound, len(pairs)),
        A_eq=None if equal is None
        else sparse.block_diag([equal] * len(pairs), format="csr"),
        b_eq=None if equal is None else np.zeros(len(pairs) * len(w)),
        bounds=box * len(pairs), method="highs")
    return res.x.reshape(len(pairs), nvar) if res.status == 0 else None


def _search_margin(members, jhat, w, delta):
    """(y, mval) of the best exact margin met in the bisection on m, or
    the Infeasible outcome.

    Each solve proposes y = Y/z from its block with the largest z, which
    counts by the margin all its rows can share, unless a row target falls
    outside [min(y), max(y)] by more than rounding.  Blocks whose z is 0 at
    the lower bound are dropped, since the margin-m sets shrink as m
    grows; a solver failure at m > 0 means m is not reached.
    """
    joint_count = int(np.prod(members))
    pairs = np.array(list(itertools.permutations(range(joint_count), 2)))
    below, above, m = 0.0, 1.0 / max(members), 0.0
    best, chosen = 0.0, None
    for _ in range(MARGIN_HALVINGS + 1):
        x = _margin_program(members, jhat, w, delta, m, pairs)
        z = np.zeros(1) if x is None else x[:, joint_count]
        if z.max() > 0.0:
            below, pick = m, int(np.argmax(z))
            y = x[pick, :joint_count] / z[pick]
            mval = None if delta is None else x[pick, -1] / z[pick]
            betas = _row_betas(w, jhat, y, delta, mval)
            low, high = betas.min(keepdims=True), betas.max(keepdims=True)
            eps = 1e-12 * max(1.0, float(np.abs(y).max()))
            if low[0] >= y.min() - eps and high[0] <= y.max() + eps:
                margin = float(_max_margin(y, members, low, high)[0])
                if chosen is None or margin > best:
                    best, chosen = margin, (y, mval)
            pairs = pairs[z > 0.0]
        elif m > 0.0:
            above = m
        elif x is None:
            return Infeasible(
                certificate="search-budget-exhausted",
                conclusive=False,
                detail="the margin-0 program reports no optimum")
        else:
            return Infeasible(
                certificate="exact-lp-empty",
                conclusive=True,
                detail=f"all {len(pairs)} (min, max) pair blocks admit only "
                       "z = 0; no Markov controller tables reach the "
                       "target under this schedule form")
        m = 0.5 * (below + above)
    if chosen is None:
        return Infeasible(
            certificate="search-budget-exhausted",
            conclusive=False,
            detail="no proposed solution keeps every row target between "
                   "min(y) and max(y)")
    return chosen


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
    rep = np.eye(joint_cond.shape[1])[jhat]
    family = ruling_family(form, joint_cond, joint_init, rep)
    return float(np.max(np.abs(family @ y - w)))


def synthesize(game: GameSpec, schedule: ContinuationSchedule,
               target: SynthesisTarget) -> SynthesisResult | Infeasible:
    """Find controller strategies enforcing ``target.relation``.

    A single controller with two actions under infinite rounds is decided
    by the exact z-interval analysis alone: it is the exact optimum over
    every construction, and an empty interval is a conclusive certificate.
    Every other target bisects on the margin m, solving all (min, max)
    pair blocks at each m as one linear program; z = 0 in every block at
    m = 0 is the conclusive ``exact-lp-empty`` certificate.  The solution
    whose y reaches the largest exact margin wins, and each of its rows is
    built at its own maximin margin (``SynthesisResult.margin`` is the
    smallest of them).
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

    if joint_count == 2 and delta is None:
        rep0 = (jhat == 0).astype(float)
        interval = _interval_rung(w, rep0)
        if interval is None:
            return Infeasible(
                certificate="exact-interval-empty",
                conclusive=True,
                detail="the per-profile bounds on z = 1/y intersect at most "
                       "in {0}; no Markov strategy of this controller can "
                       "reach the target")
        z = _interval_z(w, rep0, *interval)
        y_full, mval, note = np.array([1.0 / z, 0.0]), None, "interval"
    else:
        found = _search_margin(members, jhat, w, delta)
        if isinstance(found, Infeasible):
            return found
        (y_full, mval), note = found, "pair-lp"

    strategies, joint_cond, joint_init, margin = _assemble(
        game, target, delta, ordered, sizes, members, jhat, w, y_full, mval)
    built = (joint_cond, joint_init) if strategies is None \
        else (joint_conditionals(game, strategies), joint_initial(strategies))
    residual = _family_residual(form, *built, jhat, y_full, w)
    if residual > 1e-8 * scale:
        return Infeasible(
            certificate="search-budget-exhausted",
            conclusive=False,
            detail=f"the assembled construction misses the target by "
                   f"{residual:.3g}")
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
