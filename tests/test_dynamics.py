import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from payoffcontrol import (
    ConstantContinuation,
    Custom,
    Delta,
    FiniteHorizon,
    InconsistentStrategyError,
    Infinite,
    InfiniteExpectedRounds,
    InvalidParamsError,
    MarkovStrategy,
    MissingRoundCapError,
    MixedAction,
    NoConvergenceError,
    OtherSchedule,
    StrategyProfile,
    average_distribution,
    classify_schedule,
    effective_payoffs,
    expected_rounds,
    monte_carlo_play,
    repeat_strategy,
    sample_markov_strategy,
    survival_probabilities,
    transition_matrix,
)
from payoffcontrol.control import sample_markov_tables
from payoffcontrol.dynamics import (
    MAX_ROUNDS,
    _solve_stack,
    initial_distribution,
    markov_average,
    profile_product,
    single_closed_class,
)

from conftest import (
    always,
    cesaro_average_estimate,
    markov,
    tit_for_tat,
    wsls_pd,
)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_continuation_values():
    assert [Infinite().continuation(t) for t in (1, 5, 100)] == [1.0] * 3
    assert [Delta(0.9).continuation(t) for t in (1, 2)] == [0.9, 0.9]
    fh = FiniteHorizon(3)
    assert [fh.continuation(t) for t in (1, 2, 3, 4)] == [1.0, 1.0, 0.0, 0.0]
    cu = Custom((1.0, 0.5), tail=0.25)
    assert [cu.continuation(t) for t in (1, 2, 3, 4)] == [1.0, 0.5, 0.25, 0.25]


def test_survival_probabilities():
    assert_allclose(survival_probabilities(Delta(0.9), 3), [1.0, 0.9, 0.81])
    assert_allclose(survival_probabilities(FiniteHorizon(2), 4), [1, 1, 0, 0])
    assert_allclose(survival_probabilities(Custom((0.5,), tail=0.0), 3),
                    [1.0, 0.5, 0.0])


def test_schedule_validation():
    with pytest.raises(InvalidParamsError):
        Delta(1.0)
    with pytest.raises(InvalidParamsError):
        Delta(-0.1)
    with pytest.raises(InvalidParamsError):
        FiniteHorizon(0)
    with pytest.raises(InvalidParamsError):
        Custom((1.2,))


@pytest.mark.parametrize("schedule, expected", [
    (Infinite(), InfiniteExpectedRounds()),
    (Delta(0.6), ConstantContinuation(0.6)),
    (Delta(0.0), ConstantContinuation(0.0)),
    (FiniteHorizon(1), ConstantContinuation(0.0)),  # one-shot
    (FiniteHorizon(2), OtherSchedule()),
    (Custom((0.5, 0.5), tail=0.5), ConstantContinuation(0.5)),
    (Custom((0.9, 0.8), tail=0.5), OtherSchedule()),
    # all continuations strictly positive with tail 1: rounds diverge
    (Custom((0.9, 0.8), tail=1.0), InfiniteExpectedRounds()),
    (Custom((), tail=1.0), InfiniteExpectedRounds()),
])
def test_classify_schedule(schedule, expected):
    assert classify_schedule(schedule) == expected


def test_classify_custom_with_zero_before_unit_tail():
    # a zero continuation kills the game; the unit tail never applies
    form = classify_schedule(Custom((0.0,), tail=1.0))
    assert form != InfiniteExpectedRounds()


def test_expected_rounds():
    assert expected_rounds(Infinite()) == np.inf
    assert_allclose(expected_rounds(Delta(0.5)), 2.0)
    assert_allclose(expected_rounds(FiniteHorizon(7)), 7.0)
    assert expected_rounds(Custom((0.9,), tail=1.0)) == np.inf
    # 1 + c1 + c1 c2 + c1 c2 tail/(1 - tail)
    val = expected_rounds(Custom((0.5, 0.4), tail=0.25))
    assert_allclose(val, 1.0 + 0.5 + 0.2 + 0.2 * 0.25 / 0.75)


# ---------------------------------------------------------------------------
# strategies and chains


def test_markov_strategy_validation(pd):
    with pytest.raises(InvalidParamsError):
        MarkovStrategy(0, MixedAction.uniform(2),
                       np.array([[0.5, 0.4]] * 4))
    strict = wsls_pd(0)
    assert strict.is_strict()
    assert not always(0, 1).is_strict()
    assert repeat_strategy(pd, 0).is_strict()


def test_strategy_profile_validation(pd):
    with pytest.raises(InconsistentStrategyError):
        StrategyProfile((wsls_pd(0), wsls_pd(0)))
    with pytest.raises(InconsistentStrategyError):
        # one strategy is a valid profile of a one-player set, but not here
        transition_matrix(pd, StrategyProfile((wsls_pd(0),)))
    profile = StrategyProfile((wsls_pd(1), tit_for_tat(0)))
    assert [s.player for s in profile.strategies] == [0, 1]


def test_transition_matrix_rows_sum(donation):
    rng = np.random.default_rng(0)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    m = transition_matrix(donation, profile)
    assert m.shape == (9, 9)
    assert_allclose(m.sum(axis=1), np.ones(9), atol=1e-12)
    assert np.all(m >= 0)


def test_transition_matrix_deterministic(pd):
    # TFT against always-defect: from any state both actions are forced
    profile = StrategyProfile((tit_for_tat(0), always(1, 1)))
    m = transition_matrix(pd, profile)
    # player 1 copies opponent's D, player 2 defects: next state DD always
    # except after (C,*) rows where player 1 copies column player's action
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0  # after CC: play (C, D)
    expected[1, 3] = 1.0  # after CD: play (D, D)
    expected[2, 1] = 1.0  # after DC: opponent played C, copy -> (C, D)
    expected[3, 3] = 1.0  # after DD: (D, D)
    assert_allclose(m, expected)


def test_initial_distribution_outer_product(pd):
    s1 = MarkovStrategy(0, MixedAction(np.array([0.3, 0.7])),
                        np.full((4, 2), 0.5))
    s2 = MarkovStrategy(1, MixedAction(np.array([0.6, 0.4])),
                        np.full((4, 2), 0.5))
    v1 = initial_distribution(pd, StrategyProfile((s1, s2)))
    assert_allclose(v1.probs, [0.18, 0.12, 0.42, 0.28])


# ---------------------------------------------------------------------------
# limiting average distributions


def test_infinite_irreducible_matches_stationary(donation):
    rng = np.random.default_rng(7)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    res = average_distribution(donation, profile, Infinite())
    assert res.method == "cesaro"
    m = transition_matrix(donation, profile)
    assert_allclose(res.dist.probs @ m, res.dist.probs, atol=1e-12)
    assert_allclose(res.dist.probs.sum(), 1.0, atol=1e-12)


def test_infinite_absorbing_chain(pd):
    # both players defect forever after any history: all mass ends at DD
    profile = StrategyProfile((always(0, 1), always(1, 1)))
    res = average_distribution(pd, profile, Infinite())
    assert_allclose(res.dist.probs, [0, 0, 0, 1], atol=1e-12)


def test_infinite_periodic_chain(pd):
    # deterministic alternation CC -> DD -> CC: average splits evenly
    flip = [0.0, 1.0, 1.0, 1.0]  # cooperate only after DD
    profile = StrategyProfile((
        markov(0, flip, initial=[1.0, 0.0]),
        markov(1, flip, initial=[1.0, 0.0])))
    res = average_distribution(pd, profile, Infinite())
    assert_allclose(res.dist.probs, [0.5, 0, 0, 0.5], atol=1e-12)
    # near 1 the discounted weights alternate: 1/(1 + delta), delta/(1 + delta)
    delta = 1.0 - 1e-9
    res = average_distribution(pd, profile, Delta(delta))
    assert_allclose(res.dist.probs, [1 / (1 + delta), 0, 0, delta / (1 + delta)],
                    rtol=0, atol=1e-12)


def test_infinite_reducible_two_classes(pd):
    # each player repeats own action: CC and DD absorb, initial mixes them
    profile = StrategyProfile((
        repeat_strategy(pd, 0, initial=MixedAction(np.array([0.3, 0.7]))),
        repeat_strategy(pd, 1, initial=MixedAction(np.array([0.3, 0.7])))))
    # CD and DC are also absorbing here, so v1 is already stationary
    for schedule in (Infinite(), Delta(1.0 - 1e-9)):
        res = average_distribution(pd, profile, schedule)
        assert_allclose(res.dist.probs, [0.09, 0.21, 0.21, 0.49], atol=1e-12)


def _truncated_oracle(game, profile, schedule, terms):
    m = transition_matrix(game, profile)
    v = initial_distribution(game, profile).probs
    total = np.zeros_like(v)
    weight = 0.0
    p = 1.0
    for t in range(1, terms + 1):
        total += p * v
        weight += p
        p *= schedule.continuation(t)
        v = v @ m
    return total / weight


@pytest.mark.parametrize("delta, terms, tol", [
    (0.3, 200, 1e-8),
    (0.6, 200, 1e-8),
    (0.9, 200, 1e-8),
    (0.95, 500, 1e-10),  # 0.95^200 is ~3e-5, so 200 terms cannot reach 1e-8
])
def test_delta_closed_form_matches_truncation(donation, delta, terms, tol):
    rng = np.random.default_rng(11)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    res = average_distribution(donation, profile, Delta(delta))
    assert res.method == "closed_form_delta"
    oracle = _truncated_oracle(donation, profile, Delta(delta), terms)
    assert_allclose(res.dist.probs, oracle, atol=tol)


def test_finite_horizon_exact(pd):
    profile = StrategyProfile((wsls_pd(0), always(1, 1)))
    res = average_distribution(pd, profile, FiniteHorizon(2))
    assert res.method == "truncated_sum"
    # round 1: (C, D); round 2: wsls shifts to D -> (D, D); average
    assert_allclose(res.dist.probs, [0, 0.5, 0, 0.5], atol=1e-14)


def test_custom_tail_matches_long_truncation(donation):
    rng = np.random.default_rng(13)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    schedule = Custom((1.0, 0.9, 0.8), tail=0.5)
    res = average_distribution(donation, profile, schedule)
    oracle = _truncated_oracle(donation, profile, schedule, 150)
    assert_allclose(res.dist.probs, oracle, atol=1e-12)


def test_custom_divergent_tail_routes_to_limit_average(pd):
    profile = StrategyProfile((tit_for_tat(0), tit_for_tat(1)))
    res = average_distribution(pd, profile, Custom((0.9, 0.9), tail=1.0))
    ref = average_distribution(pd, profile, Infinite())
    assert_allclose(res.dist.probs, ref.dist.probs, atol=1e-12)


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_delta_near_one_converges_to_infinite(donation, equalizer_strategy,
                                              eps):
    # avg(Delta(1 - eps)) - avg(Infinite) is eps times a bounded deviation
    # term; 200 is about twice the largest factor over these draws
    rng = np.random.default_rng(9)
    for _ in range(300):
        profile = StrategyProfile((equalizer_strategy, sample_markov_strategy(
            rng, donation, 1, boundary=True)))
        near = average_distribution(donation, profile, Delta(1.0 - eps))
        limit = average_distribution(donation, profile, Infinite())
        assert np.max(np.abs(near.dist.probs - limit.dist.probs)) <= 200 * eps


def test_leaky_class_fails_as_no_convergence(pd):
    # a hand-written table whose first row leaks 8.3e-17 where the exact
    # entry is 0 (synth wrote it for the PD pin u2 = 2.5 at delta 0.5
    # before its rows snapped to exact corners): a class that is closed in
    # all but rounding makes the absorption system singular
    controller = MarkovStrategy(0, MixedAction(np.array([0.75, 0.25])), np.array(
        [[1.0, 8.2833045977892539e-17], [0.0, 1.0], [0.5, 0.5], [0.0, 1.0]]))
    rng = np.random.default_rng(0)
    failed = 0
    for _ in range(400):
        profile = StrategyProfile((controller, sample_markov_strategy(
            rng, pd, 1, boundary=True)))
        try:
            average_distribution(pd, profile, Infinite())
        except NoConvergenceError:
            failed += 1
    assert failed < 400


def test_round_cap_is_checked_before_summing(pd):
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    start = time.perf_counter()
    with pytest.raises(NoConvergenceError):
        average_distribution(pd, profile, FiniteHorizon(MAX_ROUNDS + 1))
    assert time.perf_counter() - start < 1.0
    # a zero continuation ends the sum before the cap is reached
    res = average_distribution(pd, profile, Custom((0.0,) + (1.0,) * MAX_ROUNDS))
    assert_allclose(res.dist.probs, [1.0, 0, 0, 0])


def test_cesaro_estimate_agrees_with_exact(donation):
    rng = np.random.default_rng(17)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    m = transition_matrix(donation, profile)
    v1 = initial_distribution(donation, profile).probs
    approx = cesaro_average_estimate(m, v1, tol=1e-9)
    exact = average_distribution(donation, profile, Infinite())
    assert_allclose(approx, exact.dist.probs, atol=1e-5)


def test_effective_payoffs_inner_product(donation):
    rng = np.random.default_rng(19)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    ubar = effective_payoffs(donation, profile, Delta(0.7))
    dist = average_distribution(donation, profile, Delta(0.7)).dist
    assert_allclose(ubar, donation.payoffs.T @ dist.probs)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_constant_payoff_is_exact(pd):
    # every round pays (1, 1), so the per-round average has no variance
    profile = StrategyProfile((always(0, 1), always(1, 1)))
    res = monte_carlo_play(pd, profile, Delta(0.5), episodes=200, seed=4)
    assert_allclose(res.means, [1.0, 1.0], atol=1e-12)
    assert_allclose(res.std_errors, [0.0, 0.0], atol=1e-12)


def test_monte_carlo_matches_exact_distribution(donation):
    rng = np.random.default_rng(23)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    schedule = Delta(0.8)
    res = monte_carlo_play(donation, profile, schedule, episodes=4000, seed=5)
    exact = effective_payoffs(donation, profile, schedule)
    for i in range(2):
        se = max(res.std_errors[i], 1e-6)
        assert abs(res.means[i] - exact[i]) < 5 * se
    assert_allclose(res.mean_rounds, 5.0, rtol=0.15)  # E[rounds] = 1/(1-delta)


def test_monte_carlo_finite_horizon_rounds(pd):
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    res = monte_carlo_play(pd, profile, FiniteHorizon(2), episodes=50, seed=6)
    assert res.mean_rounds == 2.0


def test_monte_carlo_requires_cap_for_infinite(pd):
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    with pytest.raises(MissingRoundCapError):
        monte_carlo_play(pd, profile, Infinite(), episodes=10, seed=0)
    res = monte_carlo_play(pd, profile, Infinite(), episodes=10, seed=0,
                           max_rounds=50)
    assert res.mean_rounds == 50.0


def test_monte_carlo_single_episode_has_zero_se(pd):
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    res = monte_carlo_play(pd, profile, FiniteHorizon(3), episodes=1, seed=9)
    assert_allclose(res.std_errors, [0.0, 0.0])


def test_monte_carlo_seed_reproducible(donation):
    rng = np.random.default_rng(29)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    a = monte_carlo_play(donation, profile, Delta(0.6), episodes=100, seed=12)
    b = monte_carlo_play(donation, profile, Delta(0.6), episodes=100, seed=12)
    assert_allclose(a.means, b.means)
    assert a.mean_rounds == b.mean_rounds


# ---------------------------------------------------------------------------
# batched kernel


def _closed_class_count(m):
    """Closed classes of the support graph m > 0, by SCC decomposition."""
    support = csr_matrix(m > 0.0)
    n_comp, labels = connected_components(support, directed=True,
                                          connection="strong")
    rows, cols = support.nonzero()
    leaving = labels[rows] != labels[cols]
    return n_comp - np.unique(labels[rows[leaving]]).size


def _donation_stack(donation, controller, count, boundary, seed):
    cond, init = sample_markov_tables(np.random.default_rng(seed), donation,
                                      1, count, boundary=boundary)
    m = profile_product(donation, [controller.conditionals, cond])
    v1 = profile_product(donation, [controller.initial.probs, init])
    opponents = [MarkovStrategy(1, MixedAction(init[k]), cond[k])
                 for k in range(count)]
    return m, v1, opponents


@pytest.mark.parametrize("schedule", [Infinite(), Delta(0.9)],
                         ids=["infinite", "delta0.9"])
@pytest.mark.parametrize("case", ["interior", "boundary", "repeat"])
def test_batched_average_matches_per_sample(donation, pin_strategy, case,
                                            schedule):
    controller = repeat_strategy(donation, 0) if case == "repeat" \
        else pin_strategy
    m, v1, opponents = _donation_stack(donation, controller, 200,
                                       case != "interior", seed=41)
    vbar, residual, settled = markov_average(m, v1, schedule)
    assert settled.all()
    assert residual.max() <= 1e-12
    classes = np.array([_closed_class_count(mk) for mk in m])
    for k, opponent in enumerate(opponents):
        profile = StrategyProfile((controller, opponent))
        assert_allclose(transition_matrix(donation, profile), m[k], rtol=0,
                        atol=0)
        ref = average_distribution(donation, profile, schedule)
        assert_allclose(vbar[k], ref.dist.probs, rtol=0, atol=1e-12)
        if isinstance(schedule, Delta):
            # 0.9^500 is below 1e-22: the truncated series is exact here
            oracle = _truncated_oracle(donation, profile, schedule, 500)
            assert_allclose(vbar[k], oracle, rtol=0, atol=1e-12)
        elif classes[k] == 1:
            # one closed class: the stationary distribution is unique
            assert_allclose(vbar[k] @ m[k], vbar[k], rtol=0, atol=1e-12)
    if case == "repeat":
        # replaying its own action keeps the controller's action forever:
        # one closed class per action, so every chain needs the projector
        assert (classes > 1).all()
        if isinstance(schedule, Infinite):
            for k in range(10):
                approx = cesaro_average_estimate(m[k], v1[k], tol=1e-7)
                assert_allclose(vbar[k], approx, rtol=0, atol=1e-4)
    elif case == "interior":
        assert (classes == 1).all()


def test_single_closed_class_gate_is_exact(donation, equalizer_strategy):
    stacks = [_donation_stack(donation, controller, 300, True, seed)[0]
              for seed, controller in enumerate(
                  (equalizer_strategy, repeat_strategy(donation, 0)))]
    m = np.concatenate(stacks)
    gate = single_closed_class(m)
    expected = np.array([_closed_class_count(mk) == 1 for mk in m])
    np.testing.assert_array_equal(gate, expected)
    assert gate.any() and not gate.all()


def test_batched_average_routes_reducible_and_singular():
    # the first chain has two absorbing states and takes the projector
    # form; the second, periodic with one closed class, the row-replaced
    # system
    m = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    v1 = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert [_closed_class_count(mk) for mk in m] == [2, 1]
    np.testing.assert_array_equal(single_closed_class(m), [False, True])
    vbar, residual, settled = markov_average(m, v1, Infinite())
    assert settled.all()
    for k in range(2):
        approx = cesaro_average_estimate(m[k], v1[k], tol=1e-9)
        assert_allclose(vbar[k], approx, rtol=0, atol=1e-6)
    assert_allclose(vbar, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-15)
    # a singular member of a stack gets a NaN row, the others are solved
    a = np.stack([np.zeros((2, 2)), np.eye(2)])
    x = _solve_stack(a, np.ones((2, 2, 1)))
    assert np.all(np.isnan(x[0]))
    assert_allclose(x[1], [1.0, 1.0])


def test_batched_average_other_schedule_marks_every_sample(donation,
                                                          pin_strategy):
    # a finite horizon is summed round by round: nothing is solved, so
    # every chain settles with residual 0
    m, v1, opponents = _donation_stack(donation, pin_strategy, 5, False,
                                       seed=2)
    vbar, residual, settled = markov_average(m, v1, FiniteHorizon(3))
    assert settled.all()
    np.testing.assert_array_equal(residual, 0.0)
    for k, opponent in enumerate(opponents):
        profile = StrategyProfile((pin_strategy, opponent))
        oracle = _truncated_oracle(donation, profile, FiniteHorizon(3), 3)
        assert_allclose(vbar[k], oracle, rtol=0, atol=1e-15)


def test_custom_names_the_first_bad_value():
    with pytest.raises(InvalidParamsError, match=r"value 1\.5 outside"):
        Custom((0.5, 1.5, float("nan")))
    with pytest.raises(InvalidParamsError, match="value nan outside"):
        Custom((0.5, float("nan"), 1.5))
    with pytest.raises(InvalidParamsError, match=r"value -0\.25 outside"):
        Custom((0.5,), tail=-0.25)
    with pytest.raises(InvalidParamsError, match="value inf outside"):
        Custom((float("inf"),))
    schedule = Custom([1, 0.5], tail=1)
    assert schedule.values == (1.0, 0.5) and schedule.tail == 1.0
    assert all(type(v) is float for v in schedule.values + (schedule.tail,))
