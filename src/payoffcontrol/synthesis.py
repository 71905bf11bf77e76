"""Construction of ruling strategies enforcing a target payoff relation.

Given a target w = sum_i alpha_i u_i + gamma 1, a controller set, and a
supported schedule form with continuation weight d, we look for controller
strategies whose ruling vectors span w.  Writing q_a for the controllers'
joint conditional distribution after profile a, jhat(a) for the joint
action they played in a, and y for the combination coefficients over the
full joint-action family, the requirement reads per profile:

    d <y, q_a> + (1-d) <y, sigma> - y[jhat(a)] = w(a)

with sigma the controllers' joint initial distribution.  Infinite rounds
are d = 1, where sigma drops out, and a one-shot game is d = 0, where the
conditionals never act.  Each row that carries weight (the profile rows
q_a when d > 0, the initial row sigma when d < 1) must therefore reach a
value beta = <y, q> fixed by y.

Rows.  One builder makes every probability row.  An alliance is a list of
members with sizes s_k, and a row is a product p_1 x ... x p_q: one member
per controller for independent alliances, a single member over the J
joint actions for correlated alliances and single controllers.  The
margin-m set of member k, {p_k >= m}, has the vertices
m 1 + (1 - s_k m) e_i.  The multilinear map <y, p_1 x ... x p_q> takes
its min and max over these sets at vertex combinations, and the sets
shrink as m grows.  Each vertex value is a polynomial in m of degree at
most q, so the largest m whose range still holds beta is 1/max(s_k) or a
root of one of them: a closed form from the polynomials' companion
matrices, snapped to the float crossing of the range comparison.  A walk
from the minimizing to the maximizing vertex combination, switching one
member at a time, then crosses beta on one linear segment, which is
solved exactly.  Every row sits at its own maximin.

Coefficients.  Some q in the margin-m sets reaches beta exactly when beta
lies between the smallest and largest vertex value, and at a fixed m the
vertex values V = A(m) y are linear in y.  Fixing the pair (lo, hi) of
vertex combinations that attain them keeps everything linear: one block
over (Y, z, M) with w entering as z w, every row target and every vertex
value in [V_lo, V_hi], and V_hi - V_lo <= 1.  All blocks are stacked into
one linear program that maximizes the sum of the z; m is reached when some
z is positive, with y = Y / z.  At m = 0 this is the existence question
itself, so z = 0 in every block is a proof, not a search failure.

Most of the J(J - 1) blocks cannot hold z > 0, and their signs tell which
before any program runs: at m = 0 a profile where the controllers played
lo needs z w(a) >= 0 and one where they played hi needs z w(a) <= 0.  So
only pairs with w >= 0 wherever lo is played and w <= 0 wherever hi is
played get a block (a 5-member public-goods alliance keeps 36 of 992), and
when none does the signs alone prove the target infeasible, with no
program.  A w(a) within the rounding of its terms counts as both signs.

The margin then rises by a Newton-scaled ascent.  At the best exact
margin so far each block gets a slack t that moves its row targets away
from V_lo and V_hi at the average rates at which those grow from there
to m = 1/max(s_k), and one program maximizes the sum of the t: t is the
block's step.  The search jumps to the exact margin of the proposal with
the largest t; for a single member the vertex values are linear in m and
this is the normalized Dinkelbach method for generalized fractional
programs (Crouzeix, Ferland & Schaible 1985).  A block with t = 0 holds
no y beyond the best margin, so the search ends when no block has room
left.  Every solution is only a proposal, kept by the exact margin of
its y.

For a single controller with two actions under infinite rounds every
construction is s = rep + z*w with z = 1/y.  An exact interval
intersection in z decides feasibility, which is the certificate reported
for that case, and the best z maximizes a concave piecewise-linear
function, so it lies at an interval end or at a crossing of its lines.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .control import (
    MACHINE_EPS,
    RANK_TOL,
    PayoffRelation,
    _joint_table,
    _vanishes,
    joint_index,
    joint_initial,
    relation_vector,
    ruling_family,
    ruling_weight,
)
from .dynamics import ContinuationSchedule, MarkovStrategy
from .games import GameSpec, MixedAction
from .errors import InvalidParamsError, TrivialTargetError


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
    delta: float
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
    solves to optimality with z = 0 in every (min, max) block or the signs
    of w leave no block, and
    "search-budget-exhausted" when the solver fails at margin 0 or no
    solution survives the exact checks.
    """

    certificate: str
    conclusive: bool
    detail: str


ASCENT_STEPS = 30
"""Cap on the slack programs of one margin search; each one adopts a
proposal whose exact margin beats every earlier one."""

SLACK_TOL = 1e-9
"""Slack t up to which a block counts as having no room beyond the best
margin (LP tolerance)."""

RATE_FLOOR = 1e-9
"""Least rate of a vertex value in m that a slack program uses, so every
row target bounds t."""

SLACK_SOLVER_TOL = 1e-10
"""Primal and dual feasibility tolerance of the slack programs.  Near the
optimum the remaining rise can lie below the solver's default 1e-7 (4e-8
for the pgg4 correlated pin at delta = 1 - 1e-6), where t would read 0."""

NEAR_REAL = 1e-4
"""Imaginary part, in units of 1/max(s_k), up to which an eigenvalue of a
vertex polynomial counts as a real root: rounding splits a multiple root
into a complex pair about as far apart as the root is uncertain."""

SNAP_STEPS = 32
"""Steps of eps/max(s_k) on each side of a closed-form root within which
the snap looks for the float crossing of the range comparison."""

PLATEAU_DOUBLINGS = 7
"""Doublings of SNAP_STEPS steps past the root that the snap also tests: at
a flat crossing the rounded vertex value sits on the bound for a plateau of
up to 2^PLATEAU_DOUBLINGS SNAP_STEPS steps, and the crossing is its end."""


# ---------------------------------------------------------------------------
# The maximin row builder


def _vertex_polynomials(y: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Coefficients of every vertex value as a polynomial in m: row d holds
    the m^d coefficients, one column per vertex combination.

    Vertex i of member k's margin-m set is m 1 + (1 - s_k m) e_i, so the
    vertex values are A(m) y with A(m) the product over members of
    I + m (1 1^T - s_k I) acting on axis k.  One contraction per member
    adds its factor, raising every degree by one.
    """
    coeffs = np.zeros((len(sizes) + 1,) + sizes)
    coeffs[0] = y.reshape(sizes)
    for axis, size in enumerate(sizes, start=1):
        step = coeffs.sum(axis=axis, keepdims=True) - size * coeffs
        coeffs[1:] += step[:-1]
    return coeffs.reshape(len(sizes) + 1, -1)


def _vertex_values(y: np.ndarray, sizes: tuple[int, ...], m) -> np.ndarray:
    """<y, v_1 x ... x v_q> at every vertex combination of the margin-m
    member sets, one flattened row per entry of ``m``: the vertex
    polynomials by Horner's rule, so m = 0 gives y exactly."""
    coeffs = _vertex_polynomials(y, sizes)
    m = np.reshape(m, (-1, 1))
    values = np.broadcast_to(coeffs[-1], (m.shape[0], coeffs.shape[1]))
    for part in coeffs[-2::-1]:
        values = values * m + part
    return values


def _reaches(y, sizes, m, lo, hi) -> np.ndarray:
    """Whether the margin-m sets reach both lo and hi, elementwise."""
    values = _vertex_values(y, sizes, m)
    return (values.min(axis=1) <= lo) & (values.max(axis=1) >= hi)


def _root_candidates(y, sizes, lo, hi) -> np.ndarray:
    """(rows, candidates) margins at which some vertex value meets lo or
    hi, with 0 and 1/max(s_k); all in [0, 1/max(s_k)].

    The polynomials are taken in u = m max(s_k), so every root of interest
    lies in [0, 1].  A coefficient whose whole sweep over that interval
    stays within the rounding of the coefficients drops out of the degree.  A
    linear polynomial has its root by one division.  Higher degrees take the
    eigenvalues of their companion matrices, one stack per degree, each as
    computed and after one Newton step: the step sharpens a simple root to
    a few ulps, or one that a tiny leading coefficient blurs, while at a
    multiple root the eigenvalue is the better guess.  A root that is real
    up to NEAR_REAL is a candidate; any other root stands in as 0.
    """
    top = 1.0 / max(sizes)
    degree = len(sizes)
    coeffs = _vertex_polynomials(y, sizes) \
        * top ** np.arange(degree + 1)[:, None]
    # the rounding of the contractions, which sum up to max(s_k) terms
    live = np.abs(coeffs[1:]) > max(sizes) * _slack(coeffs)
    orders = np.where(live.any(axis=0),
                      degree - np.argmax(live[::-1], axis=0), 0)
    targets = np.column_stack([lo, hi])[:, :, None]  # (row, bound, vertex)
    found = [np.zeros((lo.size, 1)), np.ones((lo.size, 1))]
    for order in range(1, degree + 1):
        cols = np.flatnonzero(orders == order)
        if not cols.size:
            continue
        part, lead = coeffs[:, cols], coeffs[order, cols]
        shift = (targets - part[0]) / lead
        if order == 1:
            found.append(shift.reshape(lo.size, -1))
            continue
        companion = np.zeros(shift.shape + (order, order))
        companion[..., np.arange(1, order), np.arange(order - 1)] = 1.0
        companion[..., :, -1] = -(part[:order] / lead).T
        companion[..., 0, -1] = shift
        roots = np.linalg.eigvals(companion)  # (row, bound, vertex, root)
        u = roots.real
        value, slope = np.broadcast_to(lead[:, None], u.shape), 0.0
        for d in range(order - 1, -1, -1):  # Horner for p and p'
            slope = slope * u + value
            value = value * u + part[d][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            polished = u - (value - targets[..., None]) / slope
        real = np.abs(roots.imag) <= NEAR_REAL
        for guess in (u, polished):
            found.append(np.where(real & np.isfinite(guess), guess, 0.0)
                         .reshape(lo.size, -1))
    return top * np.clip(np.concatenate(found, axis=1), 0.0, 1.0)


def _holds(y, sizes, points: np.ndarray, lo, hi) -> np.ndarray:
    """_reaches at every entry of the (rows, k) ``points``, against the
    row's own lo and hi."""
    count = points.shape[1]
    return _reaches(y, sizes, points, np.repeat(lo, count),
                    np.repeat(hi, count)).reshape(points.shape)


def _last_crossing(points: np.ndarray, holds: np.ndarray, top: float):
    """Per row, the index of the last point where the comparison holds and
    fails at the next point (or the point is top), and whether there is
    one."""
    follows = np.column_stack([holds[:, 1:], np.zeros(len(holds), bool)])
    crossing = holds & (points <= top) & ((points == top) | ~follows)
    last = points.shape[1] - 1 - np.argmax(crossing[:, ::-1], axis=1)
    return last, crossing.any(axis=1)


def _max_margin(y, sizes, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Largest m whose margin-m sets reach all of [lo, hi], elementwise.

    The sets shrink as m grows, so the smallest vertex value never falls
    and the largest never rises: the answer is 1/max(s_k) or a root of some
    V_i(m) = lo or V_i(m) = hi, the largest at which the comparison still
    holds.  Rounding can leave a computed root a few ulps off the float
    crossing of the comparison, so the result is snapped to that crossing
    in three tests of the comparison, at steps of eps/max(s_k):

    - the largest candidate root whose comparison holds SNAP_STEPS steps
      below it is the root;
    - single steps around it, then gaps that double, bracket the last
      point that holds before one that fails;
    - a chain of single steps through that bracket, each point its
      predecessor plus one step in floating point, ends at the last point
      that holds while the next one fails.

    The comparison carries no tolerance, so the walk in _maximin_rows finds
    its crossing at the returned m without clipping.  A range within
    ``_slack`` of min(y) or max(y) has only a rounding margin and gets 0.
    """
    top = 1.0 / max(sizes)
    step = np.finfo(float).eps * top
    rows = np.arange(lo.size)
    slack = _slack(y)
    rounding = (lo <= y.min() + slack) | (hi >= y.max() - slack)
    candidates = _root_candidates(y, sizes, lo, hi)
    holds = _holds(y, sizes, np.maximum(candidates - SNAP_STEPS * step, 0.0),
                   lo, hi)
    root = np.where(holds, candidates, 0.0).max(axis=1, keepdims=True)
    offsets = np.concatenate([
        np.arange(-SNAP_STEPS, SNAP_STEPS + 1),
        SNAP_STEPS * 2 ** np.arange(1, PLATEAU_DOUBLINGS + 1)])
    # steps from each offset to the next; past the last, one more doubling
    gaps = np.diff(offsets, append=2 * offsets[-1])
    points = np.clip(root + offsets * step, 0.0, top)
    last, found = _last_crossing(points, _holds(y, sizes, points, lo, hi), top)
    start = np.where(found, points[rows, last], 0.0)
    width = np.where(found & (start < top) & ~rounding, gaps[last], 1).max()
    # start, start + step, (start + step) + step, ...: the step above each
    # point as a check of the step above m computes it
    chain = np.add.accumulate(np.column_stack(
        [start, np.full((lo.size, width + SNAP_STEPS), step)]), axis=1)
    holds = _holds(y, sizes, chain, lo, hi)
    last, found = _last_crossing(chain, holds, top)
    # no crossing in the chain (a root blurred by multiplicity) keeps the
    # highest point that holds
    margins = np.where(found, chain[rows, last],
                       np.where(holds & (chain <= top), chain, 0.0).max(axis=1))
    return np.where(rounding, 0.0, margins)


def _slack(y: np.ndarray) -> float:
    """A few ulps of the scale of y: the rounding a vertex value carries."""
    return 4.0 * np.finfo(float).eps * max(1.0, float(np.abs(y).max()))


def _maximin_rows(y: np.ndarray, sizes: tuple[int, ...],
                  betas: np.ndarray) -> list[np.ndarray]:
    """Member rows with <y, p_1 x ... x p_q> = beta for every beta, each
    row at its own maximin margin.  Returns one (len(betas), s_k) array
    per member.

    The margins are the closed-form ones of _max_margin, at the float
    crossing of the range comparison, so the vertex values at them still
    reach beta.  A beta within ``_slack`` of min(y) or max(y), or outside
    them by rounding, gets margin 0 and that corner; at margin 0 the walk
    takes any vertex whose value lies that close to beta exactly.  At a
    positive margin it interpolates whenever a vertex value lies below
    beta, so a row held at its maximin (where the snapped margin leaves
    the extreme vertex value a few ulps below beta) is not biased to one
    side.
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
        near = slack if margins[r] == 0.0 else 0.0
        for k in range(len(sizes)):
            if value >= beta - near:
                break
            if current[k] == end[k]:
                continue
            current[k] = end[k]
            after = float(grid[tuple(current)])
            weights[k] = 1.0 if after <= beta + near \
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
    The walk runs on plain floats, one entry per profile.
    """
    lo, hi = -math.inf, math.inf
    for wa, on in zip(w.tolist(), rep0.tolist()):
        if wa == 0.0:
            continue
        a, b = (-1.0 / wa, 0.0 / wa) if on else (0.0 / wa, 1.0 / wa)
        if b < a:
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
# The stacked margin-m programs over y


class LPResult(NamedTuple):
    """What a pair-LP solve reports: ``status`` 0 when ``x`` is optimal."""

    status: int
    x: np.ndarray | None


LP_CHECK_TOL = 10.0 * math.sqrt(1e-9)
"""How far an optimal solution may sit outside a bound or a row before
the post-solve check rejects it, as ``scipy.optimize.linprog`` checks."""


def linprog(cost, matrix, row_upper, lower, upper,
            options=None) -> LPResult:
    """Minimize cost @ x subject to A x <= row_upper and
    lower <= x <= upper, by one HiGHS solve (Huangfu & Hall 2018) through
    the bindings bundled with scipy, imported on the first call: only a
    pair-LP search with a block left after the sign test loads scipy.

    ``matrix`` holds A as the CSC arrays (indptr, indices, data) of
    _block_diagonal.  HiGHS runs with output off and presolve on, as
    ``scipy.optimize.linprog(method="highs")`` runs it, plus ``options``
    (HiGHS option names).  A cost, matrix entry or row bound that is not
    finite, a NaN column bound, or an option HiGHS refuses raises
    ValueError.

    Returns ``.status`` and ``.x``: 0 and the solution when HiGHS reports
    an optimum whose x holds every bound and row to LP_CHECK_TOL;
    otherwise x is None and the status is 2 (infeasible), 3 (unbounded)
    or 4 (anything else, a rejected solution included).
    """
    from scipy.optimize._highspy import _core as highs

    indptr, indices, data = matrix
    if not (np.isfinite(cost).all() and np.isfinite(data).all()
            and np.isfinite(row_upper).all()) \
            or np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("linear program data must be finite")
    solver = highs._Highs()
    for name, value in {"output_flag": False, "presolve": "on",
                        **(options or {})}.items():
        if solver.setOptionValue(name, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS refuses option {name}={value!r}")
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(cost)
    lp.num_row_ = lp.a_matrix_.num_row_ = len(row_upper)
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    # the bindings copy lists faster than arrays
    lp.a_matrix_.start_ = indptr.tolist()
    lp.a_matrix_.index_ = indices.tolist()
    lp.a_matrix_.value_ = data.tolist()
    lp.col_cost_ = cost.tolist()
    lp.col_lower_ = lower.tolist()
    lp.col_upper_ = upper.tolist()
    lp.row_lower_ = [-math.inf] * len(row_upper)
    lp.row_upper_ = row_upper.tolist()
    if solver.passModel(lp) == highs.HighsStatus.kError \
            or solver.run() == highs.HighsStatus.kError:
        return LPResult(4, None)
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        return LPResult({highs.HighsModelStatus.kInfeasible: 2,
                         highs.HighsModelStatus.kUnbounded: 3}.get(status, 4),
                        None)
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    slack = row_upper - np.array(solution.row_value)
    if np.isnan(x).any() or np.isnan(slack).any() \
            or not np.all((x >= lower - LP_CHECK_TOL)
                          & (x <= upper + LP_CHECK_TOL)) \
            or (slack < -LP_CHECK_TOL).any():
        return LPResult(4, None)
    return LPResult(0, x)


def _vertex_map(members, m) -> np.ndarray:
    """A(m) with V = A(m) Y the margin-m vertex values: the Kronecker
    product of the member factors (1 - s_k m) I + m 11^T, symmetric."""
    return functools.reduce(np.kron, [(1.0 - size * m) * np.eye(size) + m
                                      for size in members])


def _block_diagonal(blocks: np.ndarray):
    """The block-diagonal matrix of the (blocks, rows, columns) ``blocks``
    as the CSC arrays (indptr, indices, data) that linprog takes, built
    directly and without its zero entries."""
    count, height, width = blocks.shape
    columns = blocks.transpose(0, 2, 1)  # CSC order: block, column, row
    nonzero = columns != 0.0
    rows = np.broadcast_to(
        height * np.arange(count)[:, None, None] + np.arange(height),
        columns.shape)
    indptr = np.zeros(count * width + 1, dtype=np.int64)
    np.cumsum(nonzero.sum(axis=2).ravel(), out=indptr[1:])
    return indptr, rows[nonzero], columns[nonzero]


def _margin_program(members, jhat, w, delta, m, pairs, previous=None):
    """One linprog over the (lo, hi) blocks of ``pairs`` at margin m.

    Block variables: Y (last entry pinned to 0), the scale z >= 0 of w,
    and, when delta < 1, M = <Y, sigma>.  With V = A(m) Y the margin-m
    vertex values, every row target (profile rows scaled by delta) and
    every V_j lie in [V_lo, V_hi], and V_hi - V_lo <= 1.  At delta = 0
    the profile bounds meet at 0, so each profile row is an equality.

    Without ``previous`` the sum of the z is maximized.  Given the blocks'
    previous solutions, each block gains a last variable t >= 0 that keeps
    its row targets t * c inside [V_lo, V_hi] and the sum of the t is
    maximized; c are the average rates at which the previous Y's V_lo and
    -V_hi grow from m to 1/max(s_k), floored at RATE_FLOOR on every row of
    positive scale (a row of scale 0 bounds no t).  So t estimates how much
    further the block's margin can rise: for a single member V is linear
    in m and this is the normalized Dinkelbach step.

    Returns the (blocks, variables) solution, or None when the solver
    reports no optimum.
    """
    joint_count = int(np.prod(members))
    nvar = joint_count + 1 + (delta < 1.0) + (previous is not None)
    top = 1.0 / max(members)
    # V_j as linear forms in the variables
    values = np.zeros((joint_count, nvar))
    values[:, :joint_count] = _vertex_map(members, m)
    # each row target times its scale, as a linear form
    profile = np.zeros((len(w), nvar))
    profile[np.arange(len(w)), jhat] = 1.0
    profile[:, joint_count] = w
    target, scale = profile, np.full(len(w), delta)
    if delta < 1.0:
        profile[:, joint_count + 1] = delta - 1.0
        target = np.vstack([profile, np.eye(nvar)[joint_count + 1]])  # M
        scale = np.append(scale, 1.0)
    lo, hi = values[pairs[:, 0], None], values[pairs[:, 1], None]
    blocks = np.concatenate([scale[:, None] * lo - target,
                             target - scale[:, None] * hi,
                             lo - values, values - hi, hi - lo], axis=1)
    bound = np.zeros(blocks.shape[1])
    bound[-1] = 1.0  # V_hi - V_lo <= 1; every other row is homogeneous
    box = np.full((nvar, 2), np.inf)
    box[:, 0] = -np.inf
    box[joint_count - 1] = 0.0  # Y's last entry
    box[joint_count, 0] = 0.0  # z
    cost = np.zeros((len(pairs), nvar))
    options = None
    if previous is None:
        cost[:, joint_count] = -1.0
    else:
        growth = previous[:, :joint_count] @ (
            _vertex_map(members, top) - _vertex_map(members, m)) / (top - m)
        ends = np.arange(len(pairs))
        rates = np.concatenate([scale * growth[ends, pairs[:, 0], None],
                                -scale * growth[ends, pairs[:, 1], None]],
                               axis=1)
        blocks[:, :rates.shape[1], -1] = np.where(
            np.tile(scale > 0.0, 2), np.maximum(rates, RATE_FLOOR), 0.0)
        cost[:, -1] = -1.0
        box[-1] = 0.0, top - m  # no margin exceeds 1/max(s_k)
        options = {"primal_feasibility_tolerance": SLACK_SOLVER_TOL,
                   "dual_feasibility_tolerance": SLACK_SOLVER_TOL}
    boxes = np.tile(box, (len(pairs), 1))
    res = linprog(cost.ravel(), _block_diagonal(blocks),
                  np.tile(bound, len(pairs)), boxes[:, 0], boxes[:, 1],
                  options)
    return res.x.reshape(len(pairs), nvar) if res.status == 0 else None


def _proposal(solution, members, jhat, w, delta):
    """(margin, (y, mval)) of one block's solution, y = Y/z: the exact
    margin all its rows can share, or None when a row target falls
    outside [min(y), max(y)] by more than rounding."""
    joint_count = int(np.prod(members))
    z = solution[joint_count]
    y = solution[:joint_count] / z
    mval = solution[joint_count + 1] / z if delta < 1.0 else 0.0
    betas = _row_betas(w, jhat, y, delta, mval)
    low, high = betas.min(keepdims=True), betas.max(keepdims=True)
    eps = 1e-12 * max(1.0, float(np.abs(y).max()))
    if low[0] < y.min() - eps or high[0] > y.max() + eps:
        return None
    return float(_max_margin(y, members, low, high)[0]), (y, mval)


def _signs(game: GameSpec, relation: PayoffRelation,
           w: np.ndarray) -> np.ndarray:
    """Per profile, the sign of w(a) that rounding cannot flip: -1, 1, or
    0 where |w(a)| lies within the rounding of its terms.

    w(a) = sum_i alpha_i u_i(a) + gamma carries at most n + 3 roundings of
    eps/2 relative to sum_i |alpha_i u_i(a)| + |gamma|: the canonical
    scaling of each coefficient, the parsing of each payoff, and every
    product and sum.  So a w(a) that the relation makes 0 reads 0 here,
    also where the float coefficients, taken as exact, would not sum to 0
    (alpha = (-3, 2) scales to (1, -2/3), and at payoffs (1, 2) the floats
    leave 2^-54).
    """
    scale = np.abs(game.payoffs) @ np.abs(relation.alpha) + abs(relation.gamma)
    near = (game.player_count + 3) * MACHINE_EPS * scale
    return np.where(w > near, 1, np.where(w < -near, -1, 0))


def _sign_pairs(joint_count, jhat, signs):
    """The (lo, hi) pairs whose block can hold z > 0, in the order of
    itertools.permutations, with the joint actions that can be a block's
    lo and those that can be its hi.

    At margin 0 a profile where the controllers played lo needs
    z w(a) >= (1 - d)(M - Y_lo) >= 0, and one where they played hi needs
    z w(a) <= (1 - d)(M - Y_hi) <= 0 (equalities at d = 0).  So a block
    with z > 0 has w >= 0 wherever lo is played and w <= 0 wherever hi is.
    """
    can_lo = np.ones(joint_count, dtype=bool)
    can_lo[jhat[signs < 0]] = False
    can_hi = np.ones(joint_count, dtype=bool)
    can_hi[jhat[signs > 0]] = False
    pairs = [(lo, hi) for lo, hi in itertools.product(
        np.flatnonzero(can_lo), np.flatnonzero(can_hi)) if lo != hi]
    return np.array(pairs, dtype=int).reshape(-1, 2), can_lo, can_hi


def _sign_witness(jhat, signs, can_lo, can_hi) -> str:
    """Why no (lo, hi) pair passes the sign test: a profile (payoff row,
    1-based) per joint action where w has the sign that bars it, or the
    single joint action that passes both tests."""
    for sign, can, role, need in ((-1, can_lo, "min", ">="),
                                  (1, can_hi, "max", "<=")):
        if not can.any():
            barred = np.flatnonzero(signs == sign)
            _, first = np.unique(jhat[barred], return_index=True)
            rows = ", ".join(str(row) for row in barred[first] + 1)
            return (f"w {'<' if sign < 0 else '>'} 0 on payoff rows {rows}, "
                    f"one where the controllers play each joint action, and "
                    f"a block's {role} needs w {need} 0 wherever it is played")
    only = int(np.flatnonzero(can_lo)[0]) + 1
    return (f"only joint action {only} can be a block's min or max (w = 0 "
            f"wherever it is played), and a block needs two")


def _search_margin(members, jhat, w, delta, signs):
    """(y, mval) of the best exact margin met in the ascent, or the
    Infeasible outcome.

    Only the pairs that pass the sign test of _sign_pairs get a block;
    when none does, the signs of w alone prove the target infeasible and
    no program runs.  The margin-0 program over the rest decides
    existence.  Each later program runs at the best exact margin so far
    and proposes, from its block with the largest slack t, a y that is
    adopted when its exact margin beats the best.  A block whose t is 0
    holds no y reaching beyond the best margin, so it is dropped; when no
    block has room left the search is done.
    """
    joint_count = int(np.prod(members))
    blocks = joint_count * (joint_count - 1)
    pairs, can_lo, can_hi = _sign_pairs(joint_count, jhat, signs)
    if not len(pairs):
        return Infeasible(
            certificate="exact-lp-empty",
            conclusive=True,
            detail=f"all {blocks} (min, max) pair blocks admit only z = 0 by "
                   f"the signs of w: "
                   f"{_sign_witness(jhat, signs, can_lo, can_hi)}; no Markov "
                   "controller tables reach the target under this schedule "
                   "form")
    x = _margin_program(members, jhat, w, delta, 0.0, pairs)
    if x is None:
        return Infeasible(
            certificate="search-budget-exhausted",
            conclusive=False,
            detail="the margin-0 program reports no optimum")
    z = x[:, joint_count]
    if not z.max() > 0.0:
        return Infeasible(
            certificate="exact-lp-empty",
            conclusive=True,
            detail=f"all {blocks} (min, max) pair blocks admit only "
                   "z = 0; no Markov controller tables reach the "
                   "target under this schedule form")
    best, chosen = 0.0, None
    found = _proposal(x[np.argmax(z)], members, jhat, w, delta)
    if found is not None:
        best, chosen = found
    keep = z > 0.0
    for _ in range(ASCENT_STEPS):
        if best >= 1.0 / max(members):
            break  # no margin exceeds 1/max(s_k)
        pairs, x = pairs[keep], x[keep]
        x = _margin_program(members, jhat, w, delta, best, pairs, x)
        if x is None:
            break
        t, z = x[:, -1], x[:, joint_count]
        keep = t > SLACK_TOL
        if not np.any(keep & (z > 0.0)):
            break
        found = _proposal(x[np.argmax(np.where(z > 0.0, t, 0.0))],
                          members, jhat, w, delta)
        if found is None or (chosen is not None and found[0] <= best):
            break
        best, chosen = found
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
    when delta > 0 (a one-shot game's conditionals never fire), then the
    initial row when delta < 1.  At delta = 1, mval is 0 and the profile
    values are w + y[jhat] exactly."""
    rows = []
    if delta > 0.0:
        rows.append((w + y[jhat] - (1.0 - delta) * mval) / delta)
    if delta < 1.0:
        rows.append([mval])
    return np.concatenate(rows)


def _assemble(game, target, delta, sizes, members, jhat, w, y, mval):
    """Build tables for a fixed y and mval = <y, sigma>.

    Returns (strategies, joint_cond, joint_init, margin): strategies per
    controller, or joint tables for a correlated alliance, and the
    smallest min(p, 1 - p) over the built rows.
    """
    count = game.profile_count
    if 0.0 < delta < 1.0:
        # the profile rows target the value the initial row reaches as
        # built, so its rounding is not carried into every profile
        init = _maximin_rows(y, members, np.array([mval]))
        mval = float(y @ functools.reduce(np.multiply.outer,
                                          [part[0] for part in init]).ravel())
    rows = _maximin_rows(y, members, _row_betas(w, jhat, y, delta, mval))
    margin = min(float(np.minimum(r, 1.0 - r).min()) for r in rows)
    if delta > 0.0:
        cond = [r[:count] for r in rows]
    else:
        # conditionals never fire in a one-shot game; use repeat rows
        own = np.unravel_index(jhat, members)
        cond = [np.eye(size)[idx] for size, idx in zip(members, own)]
    init = [r[-1] for r in rows] if delta < 1.0 \
        else [np.full(size, 1.0 / size) for size in members]
    if target.mode == "correlated" and len(sizes) > 1:
        return None, cond[0], init[0], margin
    strategies = tuple(MarkovStrategy(player, MixedAction(p), table)
                       for player, p, table in zip(target.controllers, init,
                                                   cond))
    return strategies, None, None, margin


def _family_residual(delta, joint_cond, joint_init, jhat, y, w):
    """Max deviation of sum_j y_j u~_j from w for the assembled tables."""
    family = ruling_family(delta, joint_cond, joint_init, jhat)
    return float(np.max(np.abs(family @ y - w)))


def synthesize(game: GameSpec, schedule: ContinuationSchedule,
               target: SynthesisTarget) -> SynthesisResult | Infeasible:
    """Find controller strategies enforcing ``target.relation``.

    A single controller with two actions under infinite rounds is decided
    by the exact z-interval analysis alone: it is the exact optimum over
    every construction, and an empty interval is a conclusive certificate.
    Every other target solves the (min, max) pair blocks that the signs
    of w leave as one linear program at margin 0, where z = 0 in every
    block, or no block left, is the conclusive ``exact-lp-empty``
    certificate, and then raises the margin by a
    Newton-scaled ascent: each slack program at the best margin so far
    proposes a y, and the search moves to that y's exact margin until no
    block has room left.  The solution whose y reaches the largest exact
    margin wins, and each of its rows is built at its own maximin margin
    (``SynthesisResult.margin`` is the smallest of them).
    """
    delta = ruling_weight(schedule)
    w = relation_vector(game, target.relation)
    if _vanishes(game, w, RANK_TOL):  # is_trivial on the w at hand
        raise TrivialTargetError(
            "relation already holds identically; nothing to enforce")
    for player in target.controllers:
        game.check_player(player)
    sizes, jhat = joint_index(game, target.controllers)
    joint_count = math.prod(sizes)
    members = sizes if target.mode == "independent" else (joint_count,)

    if joint_count == 2 and delta == 1.0:
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
        y_full, mval, note = np.array([1.0 / z, 0.0]), 0.0, "interval"
    else:
        found = _search_margin(members, jhat, w, delta,
                               _signs(game, target.relation, w))
        if isinstance(found, Infeasible):
            return found
        (y_full, mval), note = found, "pair-lp"

    strategies, joint_cond, joint_init, margin = _assemble(
        game, target, delta, sizes, members, jhat, w, y_full, mval)
    built = (joint_cond, joint_init) if strategies is None \
        else (_joint_table(strategies), joint_initial(strategies))
    residual = _family_residual(delta, *built, jhat, y_full, w)
    if residual > 1e-8 * max(1.0, float(abs(w).max())):
        return Infeasible(
            certificate="search-budget-exhausted",
            conclusive=False,
            detail=f"the assembled construction misses the target by "
                   f"{residual:.3g}")
    return SynthesisResult(
        target=target,
        delta=delta,
        strategies=strategies,
        joint_conditionals=joint_cond,
        joint_initial=joint_init,
        y=y_full[:-1] - y_full[-1],
        w=w,
        margin=margin,
        note=note,
    )
