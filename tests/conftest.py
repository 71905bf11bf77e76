import numpy as np
import pytest

from payoffcontrol import (
    MarkovStrategy,
    MixedAction,
    NoConvergenceError,
    StrategyProfile,
    average_distribution,
    donation_game,
    prisoners_dilemma,
    public_goods_game,
)


@pytest.fixture(scope="session")
def donation():
    return donation_game(costs=[2.0, 1.0, 0.0], benefits=[5.0, 3.0, 0.0])


@pytest.fixture(scope="session")
def pgg():
    return public_goods_game(players=3, cost=3.0, multiplier=2.0)


@pytest.fixture(scope="session")
def pd():
    return prisoners_dilemma(3.0, 0.0, 5.0, 1.0)


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


def _project_rows(table):
    table = np.clip(table, 0.0, 1.0)
    sums = table.sum(axis=-1, keepdims=True)
    flat = sums <= 0.0
    if np.any(flat):
        table = np.where(flat, 1.0, table)
        sums = table.sum(axis=-1, keepdims=True)
    return table / sums


def falsify_sequential(game, strategies, schedule, candidate, budget, seed):
    """Reference search for ``falsify_candidate``: the same restarts and
    coordinate sweeps, one restart after another and one
    ``average_distribution`` per trial.  Returns (achieved, best opponent
    strategies)."""
    controllers = sorted(s.player for s in strategies)
    opponents = [p for p in range(game.player_count) if p not in controllers]
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
                for flat in flats:
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
    return best_val, best


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
