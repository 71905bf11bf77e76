import numpy as np
import pytest

from payoffcontrol import (
    MarkovStrategy,
    MixedAction,
    NoConvergenceError,
    donation_game,
    prisoners_dilemma,
    public_goods_game,
)
from payoffcontrol import control
from payoffcontrol.control import PayoffRelation, _rank, _rref, _vanishes


@pytest.fixture(scope="session")
def donation():
    return donation_game(costs=[2.0, 1.0, 0.0], benefits=[5.0, 3.0, 0.0])


@pytest.fixture(scope="session")
def pgg():
    return public_goods_game(players=3, cost=3.0, multiplier=2.0)


@pytest.fixture(scope="session")
def pd():
    return prisoners_dilemma(3.0, 0.0, 5.0, 1.0)


@pytest.fixture
def no_chain_settles(monkeypatch):
    """Make every chain of control's Markov-average kernel report that its
    average did not settle."""
    kernel = control.markov_average

    def unsettled(m, v1, schedule):
        vbar, residual, settled = kernel(m, v1, schedule)
        return vbar, residual, np.zeros_like(settled)

    monkeypatch.setattr(control, "markov_average", unsettled)


def cesaro_average_estimate(m, v1, tol=1e-6, max_iter=10 ** 6, window=100):
    """Running average of power iterates, stopped when the average moves
    less than ``tol`` (L1) across ``window`` iterations.

    Reference estimator for tests only: the running average converges like
    1/t, so do not expect tolerances much below 1e-6 in reasonable time.
    """
    v = v1.copy()
    acc = v1.copy()
    prev = acc.copy()
    for t in range(2, max_iter + 1):
        v = v @ m
        acc += v
        if t % window == 0:
            avg = acc / t
            if np.abs(avg - prev).sum() < tol:
                return avg
            prev = avg
    raise NoConvergenceError(
        f"running average still moving after {max_iter} iterations")


def detect_relations_reference(game, strategies, schedule, tol):
    """Three-SVD detection, the reference for control.detect_relations:
    the null space of [u_aug, -u~], an orthonormal basis of its (alpha,
    gamma) parts, and that basis rotated so its images w are orthogonal;
    the rows with w above the rank cut, in reduced row-echelon form, less
    those whose canonical w vanishes."""
    basis = control.ruling_basis(game, strategies, schedule)
    count, players = game.payoffs.shape
    width = players + 1
    system = np.empty((count, width + len(basis.vectors)))
    system[:, :players] = game.payoffs
    system[:, players] = 1.0
    np.negative(basis.vectors.T, out=system[:, width:])
    u_aug = system[:, :width]
    _, s, vt = np.linalg.svd(system)
    coeffs = vt[_rank(s, tol):, :width]
    if not coeffs.size:
        return []
    _, s, vt = np.linalg.svd(coeffs, full_matrices=False)
    span = vt[:_rank(s, tol)]
    if not span.size:
        return []
    left, s, _ = np.linalg.svd(span @ u_aug.T, full_matrices=False)
    if s[0] <= 0.0:
        return []
    rows = left[:, :_rank(s, tol)].T @ span
    relations = [PayoffRelation(row[:-1], row[-1]) for row in _rref(rows, tol)]
    canonical = np.array([rel.alpha + (rel.gamma,) for rel in relations])
    trivial = _vanishes(game, u_aug @ canonical.T, tol).tolist()
    return [rel for rel, drop in zip(relations, trivial) if not drop]


def markov(player, *cols, initial=None):
    """Strategy from all-but-last conditional columns; the last column is
    the complement, the initial defaults to uniform."""
    cols = [np.asarray(c, dtype=float) for c in cols]
    table = np.column_stack(cols + [1.0 - sum(cols)])
    m = table.shape[1]
    init = MixedAction(np.full(m, 1.0 / m) if initial is None
                       else np.asarray(initial, dtype=float))
    return MarkovStrategy(player, init, table)


# reference controller tables for the shipped games

PIN_COLS = ([0.7, 0.4, 0.1, 0.6, 0.4, 0.2, 0.8, 0.5, 0.3],
            [0.2, 0.4, 0.6, 0.2, 0.2, 0.2, 0.0, 0.2, 0.2])

EQUALIZER_COLS = ([1.0, 0.5, 0.2, 0.7, 0.0, 0.1, 0.6, 0.3, 0.0],
                  [0.0, 0.4, 0.2, 0.2, 1.0, 0.0, 0.2, 0.2, 0.0])

# player 1 strategy with no enforced relation (scatter baseline)
FREE_COLS = ([0.2, 0.5, 0.3, 0.2, 0.4, 0.5, 0.3, 0.5, 0.2],
             [0.4, 0.2, 0.5, 0.6, 0.3, 0.0, 0.3, 0.5, 0.5])

ALLIANCE_PIN_SELF = ([0.8, 0.4, 1.0, 0.6, 0.5, 0.1, 0.7, 0.3],
                     [0.4, 0.7, 0.0, 0.3, 0.5, 0.8, 0.1, 0.4])

ALLIANCE_PIN_OUT = ([0.6, 0.7, 0.4, 0.3, 0.4, 0.5, 0.2, 0.1],
                    [0.7, 0.4, 0.3, 0.1, 0.8, 0.5, 0.4, 0.2])

# alliance pair with no enforced relation
ALLIANCE_FREE = ([0.2, 0.9, 0.7, 0.5, 0.3, 0.1, 0.8, 1.0],
                 [0.1, 0.6, 0.0, 0.7, 0.8, 0.0, 0.8, 0.3])


@pytest.fixture
def pin_strategy():
    return markov(0, *PIN_COLS)


@pytest.fixture
def equalizer_strategy():
    return markov(0, *EQUALIZER_COLS)


@pytest.fixture
def alliance_pin_self():
    return (markov(0, ALLIANCE_PIN_SELF[0]), markov(1, ALLIANCE_PIN_SELF[1]))


@pytest.fixture
def alliance_pin_out():
    return (markov(0, ALLIANCE_PIN_OUT[0]), markov(1, ALLIANCE_PIN_OUT[1]))


def _pd_strategy(player, c_probs, first=0):
    c_probs = np.asarray(c_probs, dtype=float)
    table = np.column_stack([c_probs, 1.0 - c_probs])
    return MarkovStrategy(player, MixedAction.point(2, first), table)


def tit_for_tat(player=0):
    """Copy the opponent's last action; cooperate first (two-player game)."""
    c = [1.0, 0.0, 1.0, 0.0] if player == 0 else [1.0, 1.0, 0.0, 0.0]
    return _pd_strategy(player, c)


def wsls_pd(player=0):
    """Repeat own action after mutual cooperation or own temptation,
    switch otherwise; the conditional column works out the same for both
    players of a symmetric two-action game."""
    return _pd_strategy(player, [1.0, 0.0, 0.0, 1.0])


def always(player, action):
    """Memory-zero strategy for a 2x2 game."""
    table = np.zeros((4, 2))
    table[:, action] = 1.0
    return MarkovStrategy(player, MixedAction.point(2, action), table)
