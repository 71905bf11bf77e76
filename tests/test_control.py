import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from payoffcontrol import (
    Delta,
    FiniteHorizon,
    Infinite,
    InvalidParamsError,
    MarkovStrategy,
    MixedAction,
    PayoffRelation,
    StrategyProfile,
    UnsupportedScheduleError,
    average_distribution,
    build_game,
    detect_relations,
    enforces_relation,
    falsify_candidate,
    is_trivial,
    joint_conditionals,
    joint_initial,
    relation_vector,
    repeat_indicator,
    repeat_strategy,
    ruling_basis,
    sample_markov_strategy,
    verify_relation,
)
from payoffcontrol.control import _draw_opponents, sample_markov_tables

from conftest import (
    ALLIANCE_FREE,
    FREE_COLS,
    markov,
    wsls_pd,
)


# ---------------------------------------------------------------------------
# relations


def test_relation_canonical_form():
    r = PayoffRelation(alpha=(0.0, 2.0), gamma=-4.0)
    assert r.alpha == (0.0, 1.0)
    assert r.gamma == -2.0


def test_relation_sign_convention():
    # first nonzero coefficient of (alpha, gamma) is positive
    r = PayoffRelation(alpha=(-1.0, 1.0), gamma=0.0)
    assert r.alpha == (1.0, -1.0)
    r2 = PayoffRelation(alpha=(0.0, 0.0), gamma=-3.0)
    assert r2.gamma == 1.0


def test_relation_coefficients_are_python_floats():
    r = PayoffRelation((0, 2), -4)
    assert type(r.gamma) is float
    assert all(type(a) is float for a in r.alpha)
    assert repr(r) == "PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)"


def test_relation_zero_rejected():
    with pytest.raises(InvalidParamsError):
        PayoffRelation(alpha=(0.0, 0.0), gamma=0.0)


@given(st.floats(min_value=-50, max_value=50).filter(lambda x: abs(x) > 1e-3))
@settings(max_examples=50, deadline=None)
def test_relation_scaling_invariance(scale):
    base = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    scaled = PayoffRelation(alpha=(0.0, scale), gamma=-2.0 * scale)
    assert base.close_to(scaled, tol=1e-9)


def test_relation_vector_golden(donation):
    r = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    assert_allclose(relation_vector(donation, r),
                    donation.payoffs[:, 1] - 2.0)


def test_is_trivial_zero_sum():
    game = build_game([("H", "T"), ("H", "T")],
                      [[1, -1], [-1, 1], [-1, 1], [1, -1]])
    assert is_trivial(game, PayoffRelation(alpha=(1.0, 1.0), gamma=0.0))
    assert not is_trivial(game, PayoffRelation(alpha=(1.0, 0.0), gamma=0.0))


# ---------------------------------------------------------------------------
# ruling bases


def test_single_controller_basis(donation, pin_strategy):
    basis = ruling_basis(donation, [pin_strategy], Infinite())
    assert basis.vectors.shape == (2, 9)
    assert basis.rank == 2
    assert basis.controllers == (0,)
    # family columns are conditionals minus the own-action indicator
    rep1 = repeat_indicator(donation, [0], ["C1"])
    expected0 = pin_strategy.conditionals[:, 0] - rep1
    assert_allclose(basis.vectors[0], expected0)


def test_family_sums_to_zero(donation, pin_strategy):
    # q rows sum to 1 and the indicators sum to 1, so the full family sums
    # to the zero vector up to summation order
    q = joint_conditionals(donation, [pin_strategy])
    rep = np.column_stack([
        repeat_indicator(donation, [0], [label])
        for label in donation.action_labels[0]])
    family = q - rep
    assert_allclose(family.sum(axis=1), np.zeros(9), atol=1e-12)


def test_alliance_basis_rank(pgg, alliance_pin_out):
    basis = ruling_basis(pgg, alliance_pin_out, Infinite())
    assert basis.vectors.shape == (3, 8)
    assert basis.rank == 3
    assert basis.controllers == (0, 1)
    # provenance names the joint actions in order, last one dropped
    assert len(basis.provenance) == 3


def test_joint_tables_product(pgg, alliance_pin_out):
    s1, s2 = alliance_pin_out
    q = joint_conditionals(pgg, [s1, s2])
    assert q.shape == (8, 4)
    assert_allclose(q.sum(axis=1), np.ones(8), atol=1e-12)
    assert_allclose(q[:, 0], s1.conditionals[:, 0] * s2.conditionals[:, 0])
    sigma = joint_initial([s1, s2])
    assert_allclose(sigma, np.kron(s1.initial.probs, s2.initial.probs))


def test_basis_rejects_unsupported_schedule(donation, pin_strategy):
    with pytest.raises(UnsupportedScheduleError):
        ruling_basis(donation, [pin_strategy], FiniteHorizon(2))


@pytest.mark.parametrize("schedule", [Infinite(), Delta(0.3), Delta(0.9)])
def test_vanishing_inner_product(donation, schedule):
    # the defining property: ruling vectors annihilate the limiting
    # weighted average no matter what the opponent does
    rng = np.random.default_rng(31)
    for _ in range(25):
        controller = sample_markov_strategy(rng, donation, 0)
        opponent = sample_markov_strategy(rng, donation, 1)
        basis = ruling_basis(donation, [controller], schedule)
        profile = StrategyProfile((controller, opponent))
        dist = average_distribution(donation, profile, schedule).dist
        residual = np.max(np.abs(basis.vectors @ dist.probs))
        assert residual < 1e-8


def test_alliance_vanishing_inner_product(pgg, alliance_pin_self):
    rng = np.random.default_rng(37)
    for schedule in (Infinite(), Delta(0.5)):
        basis = ruling_basis(pgg, alliance_pin_self, schedule)
        for _ in range(10):
            opponent = sample_markov_strategy(rng, pgg, 2)
            profile = StrategyProfile(alliance_pin_self + (opponent,))
            dist = average_distribution(pgg, profile, schedule).dist
            assert np.max(np.abs(basis.vectors @ dist.probs)) < 1e-8


# ---------------------------------------------------------------------------
# detection


def test_detect_pin(donation, pin_strategy):
    found = detect_relations(donation, [pin_strategy], Infinite())
    assert len(found) == 1
    assert found[0].close_to(PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0))


def test_detect_equalizer(donation, equalizer_strategy):
    found = detect_relations(donation, [equalizer_strategy], Infinite())
    assert len(found) == 1
    assert found[0].close_to(PayoffRelation(alpha=(1.0, -1.0), gamma=0.0))


def test_detect_alliance_outsider_pin(pgg, alliance_pin_out):
    found = detect_relations(pgg, alliance_pin_out, Infinite())
    assert len(found) == 1
    assert found[0].close_to(PayoffRelation(alpha=(0.0, 0.0, 1.0), gamma=-1.0))


def test_detect_alliance_member_pin_in_span(pgg, alliance_pin_self):
    # this table pair happens to enforce a second independent relation, so
    # the target must be tested as membership in the enforced span
    found = detect_relations(pgg, alliance_pin_self, Infinite())
    assert len(found) == 2
    pin = PayoffRelation(alpha=(1.0, 0.0, 0.0), gamma=-1.0)
    assert enforces_relation(pgg, alliance_pin_self, Infinite(), pin)


def test_detect_nothing_for_free_strategy(donation):
    free = markov(0, *FREE_COLS)
    assert detect_relations(donation, [free], Infinite()) == []


def test_detect_nothing_for_free_alliance(pgg):
    pair = (markov(0, ALLIANCE_FREE[0]), markov(1, ALLIANCE_FREE[1]))
    assert detect_relations(pgg, pair, Infinite()) == []


def test_detect_nothing_for_repeat_strategy(donation):
    # the repeat strategy has an all-zero family: nothing is enforced
    assert detect_relations(donation, [repeat_strategy(donation, 0)],
                            Infinite()) == []


def test_enforces_relation_negative(donation):
    free = markov(0, *FREE_COLS)
    pin = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    assert not enforces_relation(donation, [free], Infinite(), pin)


def test_detect_delta_form(pd):
    # candidate table built from the constant-continuation family by hand:
    # pin opponent payoff in the prisoners dilemma at 2 under delta = 0.9
    delta = 0.9
    y = np.array([-5.0, 0.0])
    w = pd.payoffs[:, 1] - 2.0
    jhat = np.array([0, 0, 1, 1])
    sigma0 = 0.5
    mval = y @ np.array([sigma0, 1 - sigma0])
    betas = (w + y[jhat] - (1 - delta) * mval) / delta
    s_c = (betas - y[1]) / (y[0] - y[1])
    strategy = markov(0, s_c, initial=[sigma0, 1 - sigma0])
    found = detect_relations(pd, [strategy], Delta(delta))
    assert any(r.close_to(PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0))
               for r in found)


# ---------------------------------------------------------------------------
# verification and falsification


def test_verify_pin_passes(donation, pin_strategy):
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    report = verify_relation(donation, [pin_strategy], Infinite(), rel,
                             samples=200, seed=1)
    assert report.passed
    assert report.samples_used + report.samples_skipped == 200
    assert report.payoffs.shape == (report.samples_used, 2)
    assert report.max_abs_violation < 1e-8
    assert report.boundary_mask.sum() == pytest.approx(20, abs=1)


def test_verify_detects_wrong_constant(donation, pin_strategy):
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.5)
    report = verify_relation(donation, [pin_strategy], Infinite(), rel,
                             samples=50, seed=2)
    assert not report.passed
    assert report.max_abs_violation == pytest.approx(0.5, abs=1e-9)
    assert len(report.worst_opponents) == 1


def test_verify_worst_opponent_reproduces_violation(donation, pin_strategy):
    rel = PayoffRelation(alpha=(1.0, 0.0), gamma=-2.0)  # wrong player pinned
    report = verify_relation(donation, [pin_strategy], Infinite(), rel,
                             samples=100, seed=3)
    profile = StrategyProfile((pin_strategy,) + report.worst_opponents)
    dist = average_distribution(donation, profile, Infinite()).dist
    ubar = donation.payoffs.T @ dist.probs
    assert abs(ubar[0] - 2.0) == pytest.approx(report.max_abs_violation,
                                               rel=1e-9)


def test_falsify_wsls_two_round(pd):
    # candidate pretends the cooperate column is a ruling vector, but with
    # exactly two rounds the average distribution moves with the opponent
    wsls = wsls_pd(0)
    repeat_c = np.array([1.0, 1.0, 0.0, 0.0])
    candidate = wsls.conditionals[:, 0] - repeat_c
    report = falsify_candidate(pd, [wsls], FiniteHorizon(2), candidate,
                               budget=40, seed=0, threshold=1e-3)
    assert report.conclusive
    assert report.achieved > 1e-3
    assert report.counterexample is not None
    # replay the counterexample
    profile = StrategyProfile((wsls,) + report.counterexample)
    dist = average_distribution(pd, profile, FiniteHorizon(2)).dist
    assert abs(candidate @ dist.probs) == pytest.approx(report.achieved,
                                                        rel=1e-9)


def test_falsify_true_ruling_vector_is_inconclusive(donation, pin_strategy):
    rep1 = repeat_indicator(donation, [0], ["C1"])
    candidate = pin_strategy.conditionals[:, 0] - rep1
    report = falsify_candidate(donation, [pin_strategy], Infinite(),
                               candidate, budget=15, seed=1, threshold=1e-6)
    assert not report.conclusive
    assert report.achieved <= 1e-6


@pytest.mark.parametrize("case", ["pin", "repeat", "alliance"])
@pytest.mark.parametrize("schedule", [Infinite(), Delta(0.9)],
                         ids=["infinite", "delta0.9"])
def test_verify_matches_per_sample_average(request, case, schedule):
    # every sample, batched or re-run through the decomposition, agrees
    # with a per-sample average_distribution on the same opponent draw
    if case == "alliance":
        game = request.getfixturevalue("pgg")
        controllers = request.getfixturevalue("alliance_pin_out")
    else:
        game = request.getfixturevalue("donation")
        controllers = (repeat_strategy(game, 0) if case == "repeat"
                       else request.getfixturevalue("pin_strategy"),)
    opponent = game.player_count - 1
    alpha = tuple(float(p == opponent) for p in range(game.player_count))
    rel = PayoffRelation(alpha=alpha, gamma=-1.0)
    samples, seed = 300, 11
    report = verify_relation(game, controllers, schedule, rel,
                             samples=samples, seed=seed,
                             boundary_fraction=0.5)
    assert report.samples_used + report.samples_skipped == samples
    assert report.samples_skipped == 0
    (cond, init), = _draw_opponents(np.random.default_rng(seed), game,
                                    [opponent], samples, samples // 2)
    expected = np.array([
        game.payoffs.T @ average_distribution(
            game, StrategyProfile(controllers + (MarkovStrategy(
                opponent, MixedAction(init[k]), cond[k]),)),
            schedule).dist.probs
        for k in range(samples)])
    assert_allclose(report.payoffs, expected, rtol=0, atol=1e-12)
    assert_allclose(report.residuals, np.abs(expected[:, opponent] - 1.0),
                    rtol=0, atol=1e-12)
    np.testing.assert_array_equal(report.boundary_mask,
                                  np.arange(samples) >= samples // 2)


def test_verify_same_seed_is_deterministic(pgg, alliance_pin_out):
    rel = PayoffRelation(alpha=(0.0, 0.0, 1.0), gamma=-1.0)
    first, again, other = (
        verify_relation(pgg, alliance_pin_out, Delta(0.9), rel, samples=400,
                        seed=seed) for seed in (7, 7, 8))
    for name in ("payoffs", "residuals", "boundary_mask"):
        np.testing.assert_array_equal(getattr(first, name),
                                      getattr(again, name))
    assert first.worst_opponents == again.worst_opponents
    assert first.max_abs_violation == again.max_abs_violation
    assert not np.array_equal(first.payoffs, other.payoffs)


def test_verify_worst_opponents_across_blocks(pgg, alliance_pin_out):
    # more samples than one block; the relation is not enforced
    rel = PayoffRelation(alpha=(1.0, 0.0, 0.0), gamma=0.0)
    report = verify_relation(pgg, alliance_pin_out, Infinite(), rel,
                             samples=700, seed=4)
    assert report.samples_used + report.samples_skipped == 700
    assert report.max_abs_violation == report.residuals.max()
    assert [s.player for s in report.worst_opponents] == [2]
    profile = StrategyProfile(alliance_pin_out + report.worst_opponents)
    dist = average_distribution(pgg, profile, Infinite()).dist
    ubar = pgg.payoffs.T @ dist.probs
    assert abs(ubar[0]) == pytest.approx(report.max_abs_violation, rel=1e-9)


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1e-8}, {"tol": float("nan")},
    {"boundary_fraction": -0.1}, {"boundary_fraction": 1.5},
    {"boundary_fraction": float("nan")}, {"samples": 0}])
def test_verify_rejects_bad_params(donation, pin_strategy, kwargs):
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    with pytest.raises(InvalidParamsError):
        verify_relation(donation, [pin_strategy], Infinite(), rel, **kwargs)


@pytest.mark.parametrize("fraction", [0.0, 1.0])
def test_verify_boundary_fraction_limits(donation, pin_strategy, fraction):
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    report = verify_relation(donation, [pin_strategy], Infinite(), rel,
                             samples=40, seed=5, boundary_fraction=fraction)
    assert report.passed
    assert report.boundary_mask.all() == bool(fraction)
    assert report.boundary_mask.any() == bool(fraction)


def test_sample_markov_tables_draw_distribution(donation):
    rng = np.random.default_rng(23)
    cond, init = sample_markov_tables(rng, donation, 1, 400)
    assert cond.shape == (400, 9, 3) and init.shape == (400, 3)
    for table in (cond, init):
        assert table.min() >= 0.05 and table.max() <= 0.95
        assert_allclose(table.sum(axis=-1), 1.0, atol=1e-12)
    cond, init = sample_markov_tables(rng, donation, 1, 400, boundary=True)
    onehot = np.any(cond == 1.0, axis=-1)
    assert 0.45 < onehot.mean() < 0.55
    assert np.all(np.sort(cond[onehot], axis=-1) == [0.0, 0.0, 1.0])
    assert cond[~onehot].min() >= 0.05 and cond[~onehot].max() <= 0.95
    point = np.any(init == 1.0, axis=-1)
    assert 0.4 < point.mean() < 0.6


def test_sample_markov_strategy_is_one_table_draw(donation):
    strategy = sample_markov_strategy(np.random.default_rng(3), donation, 1,
                                      boundary=True)
    cond, init = sample_markov_tables(np.random.default_rng(3), donation, 1,
                                      1, boundary=True)
    np.testing.assert_array_equal(strategy.conditionals, cond[0])
    np.testing.assert_array_equal(strategy.initial.probs, init[0])
