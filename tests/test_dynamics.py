import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from payoffcontrol import (
    Custom,
    Delta,
    FiniteHorizon,
    InconsistentStrategyError,
    Infinite,
    InvalidParamsError,
    MarkovStrategy,
    MissingRoundCapError,
    MixedAction,
    NoConvergenceError,
    PayoffRelation,
    StrategyProfile,
    SynthesisTarget,
    average_distribution,
    classify_schedule,
    effective_payoffs,
    expected_rounds,
    monte_carlo_play,
    repeat_strategy,
    sample_markov_strategy,
    survival_probabilities,
    synthesize,
    transition_matrix,
    verify_relation,
)
from payoffcontrol import dynamics
from payoffcontrol.control import sample_markov_tables
from payoffcontrol.dynamics import (
    DRAW_CELLS,
    MAX_ROUNDS,
    _RowSampler,
    _episode_lengths,
    initial_distribution,
    markov_average,
    profile_product,
    schedule_rounds,
)

from payoffcontrol.fileio import parse_game_file, parse_strategy_file

from conftest import (
    always,
    cesaro_average_estimate,
    markov,
    tit_for_tat,
    wsls_pd,
)

DATA = Path(__file__).resolve().parent.parent / "data"


# ---------------------------------------------------------------------------
# schedules


def test_schedule_continuation_values():
    assert [Infinite().continuation(t) for t in (1, 5, 100)] == [1.0] * 3
    assert [Delta(0.9).continuation(t) for t in (1, 2)] == [0.9, 0.9]
    fh = FiniteHorizon(3)
    assert [fh.continuation(t) for t in (1, 2, 3, 4)] == [1.0, 1.0, 0.0, 0.0]
    cu = Custom((1.0, 0.5), tail=0.25)
    assert [cu.continuation(t) for t in (1, 2, 3, 4)] == [1.0, 0.5, 0.25, 0.25]


@pytest.mark.parametrize("schedule, rounds", [
    (Infinite(), ([], 1.0, 1.0)),
    (Delta(0.9), ([], 1.0, 0.9)),
    (FiniteHorizon(3), ([1.0, 1.0, 1.0], 0.0, 0.0)),
    (Custom((0.5, 0.5), tail=0.8), ([1.0, 0.5], 0.25, 0.8)),
    (Custom((0.5, 0.0), tail=1.0), ([1.0, 0.5], 0.0, 1.0)),
    (Custom((1.0, 0.5), tail=0.0), ([1.0, 1.0, 0.5], 0.0, 0.0)),
], ids=["infinite", "delta", "horizon", "live-tail", "unreached-tail",
        "dead-tail"])
def test_schedule_rounds(schedule, rounds):
    # the rounds summed one by one, the weight of the round that opens a
    # live tail, and the tail
    assert schedule_rounds(schedule) == rounds


def test_schedule_rounds_cap_counts_the_opening_round():
    assert len(schedule_rounds(FiniteHorizon(MAX_ROUNDS))[0]) == MAX_ROUNDS
    weights, opening, _ = schedule_rounds(
        Custom((1.0,) * (MAX_ROUNDS - 1), tail=0.5))
    assert (len(weights), opening) == (MAX_ROUNDS - 1, 1.0)
    for schedule in (FiniteHorizon(MAX_ROUNDS + 1),
                     Custom((1.0,) * MAX_ROUNDS, tail=0.5)):
        with pytest.raises(NoConvergenceError, match="MAX_ROUNDS"):
            schedule_rounds(schedule)


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
    for rounds in (0, True, 3.0):
        with pytest.raises(InvalidParamsError):
            FiniteHorizon(rounds)
    with pytest.raises(InvalidParamsError):
        Custom((1.2,))
    # any other integer type counts rounds, stored as a plain int
    horizon = FiniteHorizon(np.int64(3))
    assert type(horizon.rounds) is int and horizon == FiniteHorizon(3)
    # delta: any real number but bool, stored as a plain float without -0
    for delta in (False, True, np.bool_(False), "0.5", None):
        with pytest.raises(InvalidParamsError):
            Delta(delta)
    for delta, stored in ((0, 0.0), (np.float32(0.5), 0.5),
                          (np.float64(0.9), 0.9), (-0.0, 0.0)):
        schedule = Delta(delta)
        assert type(schedule.delta) is float and schedule.delta == stored
        assert math.copysign(1.0, schedule.delta) == 1.0
    custom = Custom((-0.0, np.float32(0.5), 1), tail=-0.0)
    assert custom == Custom((0.0, 0.5, 1.0), tail=0.0)
    assert all(type(v) is float and math.copysign(1.0, v) == 1.0
               for v in (*custom.values, custom.tail))


NEAR_ONE = 1.0 - 1e-13


@pytest.mark.parametrize("schedule, expected", [
    (Infinite(), 1.0),
    (Delta(0.6), 0.6),
    (Delta(0.0), 0.0),
    (FiniteHorizon(1), 0.0),  # one-shot
    (FiniteHorizon(2), None),
    (Custom((0.5, 0.5), tail=0.5), 0.5),
    (Custom((0.9, 0.8), tail=0.5), None),
    # all continuations strictly positive with tail 1: rounds diverge
    (Custom((0.9, 0.8), tail=1.0), 1.0),
    (Custom((), tail=1.0), 1.0),
    # compared exactly: a tail just below 1 is a constant continuation, as
    # Delta is, and values the kernel averages as given are not rounded
    (Custom((), tail=NEAR_ONE), NEAR_ONE),
    (Custom((NEAR_ONE,), tail=NEAR_ONE), NEAR_ONE),
    (Custom((1.0, NEAR_ONE), tail=1.0), 1.0),
    (Custom((0.5, 0.5 + 1e-13), tail=0.5), None),
])
def test_classify_schedule(schedule, expected):
    # the ruling weight itself: a plain float, or None when there is none
    weight = classify_schedule(schedule)
    assert weight == expected and type(weight) is type(expected)


def test_classify_custom_with_zero_before_unit_tail():
    # a zero continuation kills the game; the unit tail never applies
    assert classify_schedule(Custom((0.0,), tail=1.0)) is None


def test_expected_rounds():
    assert expected_rounds(Infinite()) == np.inf
    assert_allclose(expected_rounds(Delta(0.5)), 2.0)
    assert_allclose(expected_rounds(FiniteHorizon(7)), 7.0)
    assert expected_rounds(Custom((0.9,), tail=1.0)) == np.inf
    # 1 + c1 + c1 c2 + c1 c2 tail/(1 - tail)
    val = expected_rounds(Custom((0.5, 0.4), tail=0.25))
    assert_allclose(val, 1.0 + 0.5 + 0.2 + 0.2 * 0.25 / 0.75)
    # play stops after round 2, so the tail of 1 is never reached
    assert expected_rounds(Custom((0.5, 0.0), tail=1.0)) == 1.5


@pytest.mark.parametrize("schedule, diverges", [
    (Custom((1e-13,), tail=1.0), True),
    (Custom((0.0,), tail=1.0), False),
])
def test_classify_and_expected_rounds_agree(schedule, diverges):
    # a tail of 1 behind strictly positive values diverges, however small
    # they are; one zero ends every game first
    assert (classify_schedule(schedule) == 1.0) == diverges
    assert expected_rounds(schedule) == (math.inf if diverges else 1.0)


def test_near_one_custom_tail_reads_like_delta():
    # about 1e13 expected rounds, not infinitely many
    tail, delta = Custom((), tail=NEAR_ONE), Delta(NEAR_ONE)
    assert expected_rounds(tail) == expected_rounds(delta)
    assert 0.99e13 < expected_rounds(tail) < 1.01e13
    # simulation draws the same episode lengths, with or without a cap
    for cap in (None, 50):
        lengths = [_episode_lengths(np.random.default_rng(4), schedule, 10,
                                    cap) for schedule in (tail, delta)]
        assert np.array_equal(*lengths)


def test_near_one_custom_tail_pin_verifies_like_delta(donation):
    # the pin synthesized for the tail is the pin for Delta, and its
    # residual sits at machine epsilon under either schedule
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    reports = []
    for schedule in (Custom((), tail=NEAR_ONE), Delta(NEAR_ONE)):
        result = synthesize(donation, schedule, SynthesisTarget(rel, (0,)))
        reports.append(verify_relation(donation, result.strategies, schedule,
                                       rel, samples=200, seed=0))
    tail, delta = reports
    assert tail.passed and tail.max_abs_violation < 1e-14
    assert tail.max_abs_violation == delta.max_abs_violation
    assert np.array_equal(tail.payoffs, delta.payoffs)


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


def test_is_strict_compares_absolutely():
    # rows 4e-6 apart condition on the previous profile; a relative
    # tolerance of 1e-5 used to call them equal
    near = np.array([[0.5, 0.5]] * 3 + [[0.500004, 0.499996]])
    assert MarkovStrategy(0, MixedAction.uniform(2), near).is_strict()
    # rows that differ only in rounding, within 1e-15, do not
    same = np.array([[0.3, 0.7]] * 3 + [[0.1 + 0.2, 0.7]])
    assert 0.0 < abs(same[3, 0] - same[0, 0]) <= 1e-15
    assert not MarkovStrategy(0, MixedAction.uniform(2), same).is_strict()


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


def test_monte_carlo_requires_cap_for_custom_tail_of_one(pd):
    # the expected round count diverges, so an uncapped run never ends
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    schedule = Custom((0.9,), tail=1.0)
    assert classify_schedule(schedule) == 1.0
    with pytest.raises(MissingRoundCapError):
        monte_carlo_play(pd, profile, schedule, episodes=10, seed=0)
    res = monte_carlo_play(pd, profile, schedule, episodes=10, seed=0,
                           max_rounds=20)
    assert res.mean_rounds <= 20.0


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
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.std_errors, b.std_errors)
    assert a.mean_rounds == b.mean_rounds


@pytest.mark.parametrize("schedule", [Infinite(), Delta(0.5)])
@pytest.mark.parametrize("cap", [0, -3])
def test_monte_carlo_round_cap_below_one_rejected(pd, schedule, cap):
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    with pytest.raises(InvalidParamsError, match="max_rounds must be >= 1"):
        monte_carlo_play(pd, profile, schedule, episodes=10, seed=0,
                         max_rounds=cap)


def test_monte_carlo_uncapped_tail_of_one_needs_round_cap(pd):
    # however small the first value, a surviving episode plays forever
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    schedule = Custom((1e-13,), tail=1.0)
    assert classify_schedule(schedule) == 1.0
    with pytest.raises(MissingRoundCapError):
        monte_carlo_play(pd, profile, schedule, episodes=10, seed=0)
    res = monte_carlo_play(pd, profile, schedule, episodes=10, seed=0,
                           max_rounds=7)
    assert res.mean_rounds == 1.0


def test_monte_carlo_unreachable_tail_of_one_needs_no_round_cap(pd):
    # the explicit 0 ends every episode after round 1, so no cap is needed
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    res = monte_carlo_play(pd, profile, Custom((0.0,), tail=1.0), episodes=10,
                           seed=0)
    assert res.mean_rounds == 1.0


def test_episode_lengths_past_max_rounds():
    # MAX_ROUNDS bounds the exact kernel only; simulation plays these
    rng = np.random.default_rng(59)
    horizon = FiniteHorizon(MAX_ROUNDS + 5)
    assert np.all(_episode_lengths(rng, horizon, 10, None) == MAX_ROUNDS + 5)
    assert np.all(_episode_lengths(rng, horizon, 10, MAX_ROUNDS + 3)
                  == MAX_ROUNDS + 3)
    custom = Custom((1.0,) * (MAX_ROUNDS + 2), tail=0.0)
    assert np.all(_episode_lengths(rng, custom, 10, None) == MAX_ROUNDS + 3)


def test_monte_carlo_horizon_past_max_rounds_under_cap(pd):
    profile = StrategyProfile((wsls_pd(0), wsls_pd(1)))
    res = monte_carlo_play(pd, profile, FiniteHorizon(MAX_ROUNDS + 5),
                           episodes=10, seed=0, max_rounds=5)
    assert res.mean_rounds == 5.0


def test_monte_carlo_memory_does_not_grow_with_rounds(donation):
    rng = np.random.default_rng(31)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, donation, p) for p in range(2)))
    episodes, rounds = 1000, 2000
    tracemalloc.start()
    try:
        res = monte_carlo_play(donation, profile, Infinite(), episodes=episodes,
                               seed=3, max_rounds=rounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.mean_rounds == rounds
    # a (rounds x episodes) array of bytes alone would take 2 MB
    assert peak < 0.25 * episodes * rounds
    # with few episodes the bound above is tighter than the fixed costs,
    # so compare two caps instead: ten times the rounds, the same peak
    peaks = []
    for cap in (1000, 10000):
        tracemalloc.start()
        try:
            res = monte_carlo_play(donation, profile, Infinite(), episodes=4,
                                   seed=3, max_rounds=cap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert res.mean_rounds == cap
    assert abs(peaks[1] - peaks[0]) <= 16 * 1024, peaks


# ---------------------------------------------------------------------------
# Monte Carlo sampler law


def test_draw_never_picks_a_zero_probability_column():
    # rows summing to 1 - 5e-13, each ending in a column of probability 0;
    # u at or past the row's sum draws the last positive column
    rows = np.array([[0.5, 0.5 - 5e-13, 0.0],
                     [0.0, 1.0 - 5e-13, 0.0],
                     [0.25, 0.75 - 5e-13, 0.0]])
    sampler = _RowSampler(rows)
    state = np.arange(3)
    u = np.full(3, np.nextafter(1.0, 0.0))
    assert sampler.draw(state, u).tolist() == [1, 1, 1]
    assert sampler.search(state, u).tolist() == [1, 1, 1]
    # a leading column of probability 0 is skipped at u = 0
    assert sampler.draw(state, np.zeros(3)).tolist() == [0, 1, 0]


def test_draw_table_agrees_with_search():
    rng = np.random.default_rng(37)
    rows = rng.dirichlet(np.ones(9), size=10)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[:, 0] += 1e-3  # keep every row positive
    rows /= rows.sum(axis=1, keepdims=True)
    rows[2, 4:6] = [1e-9, 1e-9]  # several keys inside one cell
    rows[2] /= rows[2].sum()
    # cumulative sums on cell edges, and a row whose sum rounds past 1
    edges = rng.multinomial(DRAW_CELLS, np.full(9, 1 / 9), size=4) / DRAW_CELLS
    past_one = np.zeros((1, 9))
    past_one[0, [1, 4, 8]] = [0.5, 0.25, 0.25 + 2.0 ** -52]
    assert past_one.cumsum()[-1] > 1.0
    cell = np.arange(DRAW_CELLS) / DRAW_CELLS  # left edges
    # a key on a cell edge splits no cell
    for table, splits in ((rows, True), (np.vstack([edges, past_one]), False)):
        sampler = _RowSampler(table)
        assert (sampler.cells < 0).any() == splits
        k = len(table)
        keys = sampler.keys.reshape(k, -1) - 2.0 * np.arange(k)[:, None]
        for s, row_keys in enumerate(keys):
            inside = ((row_keys[:, None] > cell)
                      & (row_keys[:, None] < cell + 1 / DRAW_CELLS)).any(axis=0)
            expected = np.where(inside, -1,
                                sampler.search(np.full(DRAW_CELLS, s), cell))
            assert np.array_equal(
                sampler.cells[s * DRAW_CELLS:(s + 1) * DRAW_CELLS], expected), s
        state = rng.integers(0, k, 100000)
        u = rng.random(100000)
        assert np.array_equal(sampler.draw(state, u), sampler.search(state, u))


def test_joint_draw_matches_chain(pgg):
    # round 1 from the start row and one step from every profile follow
    # initial_distribution and transition_matrix within 5 binomial SEs
    rng = np.random.default_rng(41)
    profile = StrategyProfile(tuple(
        sample_markov_strategy(rng, pgg, p) for p in range(3)))
    m = transition_matrix(pgg, profile)
    v1 = initial_distribution(pgg, profile).probs
    rows = np.vstack([m, v1])
    sampler = _RowSampler(rows)
    draws = 20000
    for s, probs in enumerate(rows):
        drawn = sampler.draw(np.full(draws, s), rng.random(draws))
        freq = np.bincount(drawn, minlength=len(probs)) / draws
        se = np.sqrt(probs * (1.0 - probs) / draws)
        assert np.all(np.abs(freq - probs) <= 5.0 * se + 1e-15), s


def test_episode_lengths_finite_horizon():
    rng = np.random.default_rng(43)
    for rounds in (1, 2, 10):
        lengths = _episode_lengths(rng, FiniteHorizon(rounds), 500, None)
        assert np.all(lengths == rounds)
    lengths = _episode_lengths(rng, FiniteHorizon(10), 500, 4)
    assert np.all(lengths == 4)


@pytest.mark.parametrize("schedule", [Custom((0.9, 0.5), tail=0.8),
                                      Delta(0.9)])
def test_episode_lengths_law(schedule):
    episodes = 20000
    lengths = _episode_lengths(np.random.default_rng(47), schedule,
                               episodes, None)
    assert np.all(np.diff(lengths) <= 0)  # longest first
    p = survival_probabilities(schedule, 3)
    for length, exact in ((1, p[0] - p[1]), (2, p[1] - p[2])):
        share = np.mean(lengths == length)
        se = math.sqrt(exact * (1.0 - exact) / episodes)
        assert abs(share - exact) <= 5.0 * se, length
    se = lengths.std(ddof=1) / math.sqrt(episodes)
    assert abs(lengths.mean() - expected_rounds(schedule)) <= 5.0 * se


@pytest.mark.parametrize("schedule", [Infinite(), Custom((0.9,), tail=1.0)])
def test_episode_lengths_respect_cap(schedule):
    lengths = _episode_lengths(np.random.default_rng(53), schedule, 2000, 25)
    assert lengths.max() == 25
    if isinstance(schedule, Infinite):
        assert np.all(lengths == 25)
    else:
        # round 2 is reached with probability 0.9, and then play runs on
        assert set(lengths.tolist()) == {1, 25}
        assert abs(np.mean(lengths == 1) - 0.1) <= 5.0 * math.sqrt(0.09 / 2000)


def _benchmark_profiles():
    """The full profiles the benchmark simulates: PD win-stay lose-shift,
    the donation pin and the u3 alliance, each completed with opponents
    sampled from the seed."""
    pd_game = parse_game_file(DATA / "pd.game").game
    donation = parse_game_file(DATA / "donation3.game").game
    pgg3 = parse_game_file(DATA / "pgg3.game").game
    return [
        (pd_game, (wsls_pd(0),)),
        (donation, parse_strategy_file(DATA / "donation-pin.strategy",
                                       donation).strategies),
        (pgg3, parse_strategy_file(DATA / "alliance-pin-u3.strategy",
                                   pgg3).strategies),
    ]


def _completed_benchmark_profiles(seed):
    """(game, full profile) of each benchmark profile, its opponents drawn
    from one generator seeded by ``seed``."""
    rng = np.random.default_rng([seed, 0x51])
    completed = []
    for game, fixed in _benchmark_profiles():
        taken = {s.player for s in fixed}
        drawn = tuple(sample_markov_strategy(rng, game, p)
                      for p in range(game.player_count) if p not in taken)
        completed.append((game, StrategyProfile(tuple(fixed) + drawn)))
    return completed


@pytest.mark.parametrize("schedule", [FiniteHorizon(10), Delta(0.9)],
                         ids=["horizon:10", "delta:0.9"])
def test_monte_carlo_benchmark_check(schedule):
    # the benchmark's simulate check: every mean within 5 SE of the exact
    # effective payoff, at 4000 episodes
    for seed in range(5):
        for game, profile in _completed_benchmark_profiles(seed):
            exact = effective_payoffs(game, profile, schedule)
            res = monte_carlo_play(game, profile, schedule, episodes=4000,
                                   seed=seed)
            assert np.all(res.std_errors > 0.0)
            assert np.all(np.abs(res.means - exact) <= 5.0 * res.std_errors), \
                (seed, game.player_count)


@pytest.mark.parametrize("schedule, mean_rounds, expected", [
    (FiniteHorizon(10), 10.0, [
        ([1.4943, 2.802175],
         [0.008232181952855846, 0.004976633808586581]),
        ([1.665325, 1.952],
         [0.009922998668214746, 0.009785151368109963]),
        ([1.2583, 1.160275, 1.06885],
         [0.0075480640443562775, 0.0072801515262602475,
          0.009498485388795967]),
    ]),
    (Delta(0.9), 9.624, [
        ([1.4893495428096426, 2.815980881130507],
         [0.008472716201651034, 0.005250543188707329]),
        ([1.6497558187863675, 1.9520729426433916],
         [0.00999053697288105, 0.010136265807161716]),
        ([1.2646248960931006, 1.146794472152951, 1.0852296342477141],
         [0.007731233884151475, 0.007412183182217023,
          0.009898440307866104]),
    ]),
], ids=["horizon:10", "delta:0.9"])
def test_monte_carlo_draws_are_pinned(schedule, mean_rounds, expected):
    # (means, std errors) per benchmark profile at seed 0, as drawn since
    # the joint-chain sampler: a changed draw moves them far beyond 1e-12,
    # a new summation order of the pooled figures by a few ulps at most
    for (game, profile), (means, std_errors) in zip(
            _completed_benchmark_profiles(0), expected, strict=True):
        res = monte_carlo_play(game, profile, schedule, episodes=4000, seed=0)
        assert res.mean_rounds == mean_rounds
        assert_allclose(res.means, means, rtol=1e-12, atol=0.0)
        assert_allclose(res.std_errors, std_errors, rtol=1e-12, atol=0.0)


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
        # one closed class per action
        assert (classes > 1).all()
        if isinstance(schedule, Infinite):
            for k in range(10):
                approx = cesaro_average_estimate(m[k], v1[k], tol=1e-7)
                assert_allclose(vbar[k], approx, rtol=0, atol=1e-4)
    elif case == "interior":
        assert (classes == 1).all()


def test_average_lives_on_closed_classes(donation, equalizer_strategy):
    # equalizer stacks mix one and several closed classes; repeat stacks
    # have one closed class per controller action.  The Cesàro average is
    # stationary and leaves every state outside a closed class at exactly 0
    stacks = [_donation_stack(donation, controller, 300, True, seed)[:2]
              for seed, controller in enumerate(
                  (equalizer_strategy, repeat_strategy(donation, 0)))]
    m = np.concatenate([stack[0] for stack in stacks])
    v1 = np.concatenate([stack[1] for stack in stacks])
    classes = np.array([_closed_class_count(mk) for mk in m])
    assert (classes == 1).any() and (classes > 1).any()
    vbar, residual, settled = markov_average(m, v1, Infinite())
    assert settled.all() and residual.max() <= 1e-15
    assert_allclose((vbar[:, None, :] @ m)[:, 0], vbar, rtol=0, atol=1e-15)
    for k, mk in enumerate(m):
        _, labels = connected_components(csr_matrix(mk > 0.0), directed=True,
                                         connection="strong")
        leaves = (mk > 0.0) & (labels[:, None] != labels)
        open_class = np.isin(labels, labels[leaves.any(axis=1)])
        assert np.all(vbar[k, open_class] == 0.0)


def test_batched_average_absorbing_and_periodic():
    # the first chain has two absorbing states, the second is periodic
    # with one closed class
    m = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    v1 = np.array([[0.5, 0.5], [1.0, 0.0]])
    assert [_closed_class_count(mk) for mk in m] == [2, 1]
    vbar, residual, settled = markov_average(m, v1, Infinite())
    assert settled.all()
    for k in range(2):
        approx = cesaro_average_estimate(m[k], v1[k], tol=1e-9)
        assert_allclose(vbar[k], approx, rtol=0, atol=1e-6)
    assert_allclose(vbar, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-15)


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


def _weighted_every_round(m, v1, schedule):
    """vbar of ``markov_average``, its explicit rounds summed by always
    multiplying by the survival weight, 1.0 included."""
    values, c = dynamics._continuations(schedule)
    survival, rounds = dynamics._survival(values)
    opens_tail = rounds == len(survival) and c > 0.0
    v = v1[:, None, :]
    num, den = np.zeros(v.shape), 0.0
    for t, w in enumerate(survival[:rounds]):
        if t:
            v = v @ m
        if t < rounds - opens_tail:
            num += w * v
            den += w
    num, v = num[:, 0], v[:, 0]
    if not opens_tail:
        return num / den
    x, _, settled = dynamics._tail_average(m, v, c)
    assert settled.all()
    p = survival[rounds - 1]
    scale = den * (1.0 - c) + p
    return num * ((1.0 - c) / scale) + x * (p / scale)


@pytest.mark.parametrize("schedule", [
    FiniteHorizon(10), Custom((1.0, 1.0, 0.5), tail=0.8),
    Custom((1.0, 0.5, 0.5), tail=0.8)],
    ids=["horizon10", "custom", "custom-half-weight"])
def test_unit_weights_skip_the_multiply_exactly(donation, pin_strategy,
                                                schedule):
    # 1.0 * v is v bit for bit, so adding v itself changes nothing; the
    # last schedule also sums a round of weight 0.5
    m, v1, _ = _donation_stack(donation, pin_strategy, 20, True, seed=7)
    vbar, _, settled = markov_average(m, v1, schedule)
    assert settled.all()
    assert np.array_equal(vbar, _weighted_every_round(m, v1, schedule))


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
