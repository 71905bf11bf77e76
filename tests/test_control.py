import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from payoffcontrol import (
    Custom,
    Delta,
    DimensionMismatchError,
    FiniteHorizon,
    InconsistentStrategyError,
    Infinite,
    InvalidParamsError,
    MarkovStrategy,
    MixedAction,
    NoConvergenceError,
    PayoffRelation,
    StrategyProfile,
    SynthesisResult,
    SynthesisTarget,
    UnsupportedScheduleError,
    average_distribution,
    build_game,
    detect_relations,
    enforces_relation,
    falsify_candidate,
    is_trivial,
    joint_conditionals,
    joint_initial,
    public_goods_game,
    relation_vector,
    repeat_indicator,
    repeat_strategy,
    ruling_basis,
    sample_markov_strategy,
    synthesize,
    verify_relation,
)
from payoffcontrol import control, dynamics
from payoffcontrol.control import (
    MACHINE_EPS,
    _draw_opponents,
    sample_markov_tables,
)

from conftest import (
    ALLIANCE_FREE,
    ALLIANCE_PIN_OUT,
    FREE_COLS,
    detect_relations_reference,
    markov,
    tit_for_tat,
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


def _canonical_reference(alpha, gamma):
    """The array form of PayoffRelation's canonical scaling and sign."""
    alpha = np.array(alpha, dtype=float)
    gamma = float(gamma)
    biggest = np.max(np.abs(alpha))
    overall = max(biggest, abs(gamma))
    scale = biggest if biggest > 1e-12 * overall else abs(gamma)
    alpha, gamma = alpha / scale, gamma / scale
    full = np.append(alpha, gamma)
    nonzero = np.where(np.abs(full) > 1e-12)[0]
    if nonzero.size and full[nonzero[0]] < 0:
        alpha, gamma = -alpha, -gamma
    return tuple(float(a) + 0.0 for a in alpha), float(gamma) + 0.0


coefficient = st.one_of(
    st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e-300]))


@settings(max_examples=300, deadline=None)
@given(st.lists(coefficient, min_size=1, max_size=5), coefficient)
def test_relation_canonical_form_is_the_array_form_bit_for_bit(alpha, gamma):
    if max(map(abs, alpha + [gamma])) == 0.0:
        return
    rel = PayoffRelation(tuple(alpha), gamma)
    want_alpha, want_gamma = _canonical_reference(alpha, gamma)
    got = np.array(rel.alpha + (rel.gamma,))
    assert got.tobytes() == np.array(want_alpha + (want_gamma,)).tobytes()


def test_detect_drops_trivial_only_spaces():
    # u2 = -u1: (1, 1, 0) is a trivial direction, and a repeat strategy
    # or a free one enforces nothing beyond it
    game = build_game([("a", "b"), ("x", "y")],
                      [[1, -1], [-2, 2], [0.5, -0.5], [3, -3]])
    rng = np.random.default_rng(2)
    free = MarkovStrategy(0, MixedAction([0.3, 0.7]),
                          rng.dirichlet(np.ones(2), size=4))
    for schedule in (Infinite(), Delta(0.9)):
        assert detect_relations(game, [repeat_strategy(game, 0)],
                                schedule) == []
        assert detect_relations(game, [free], schedule) == []
    constant = build_game([("a", "b"), ("x", "y")], [[1, 2]] * 4)
    assert detect_relations(constant, [free], Infinite()) == []


@pytest.mark.parametrize("tol", [MACHINE_EPS, 1e-12, 1e-9, 1e-6])
def test_detect_reports_least_norm_relation_beside_trivial_direction(tol):
    # u3 = -(u1 + u2), so (1, 1, 1, 0) is trivial; the pin u3 = -1 is
    # reported orthogonal to it, as u1 + u2 - 2 u3 - 3 = 0 scaled, and the
    # trivial direction is not reported even at tol = eps
    payoffs = public_goods_game(3, 1.0, 2.0).payoffs.copy()
    payoffs[:, 2] = -(payoffs[:, 0] + payoffs[:, 1])
    game = build_game([("C", "D")] * 3, payoffs)
    pin = synthesize(game, Infinite(), SynthesisTarget(
        PayoffRelation((0.0, 0.0, 1.0), 1.0), (2,)))
    found = detect_relations(game, pin.strategies, Infinite(), tol=tol)
    assert len(found) == 1
    assert found[0].close_to(PayoffRelation((0.5, 0.5, -1.0), -1.5))


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


def test_ruling_basis_sets_up_controllers_once(monkeypatch, pgg,
                                               alliance_pin_out):
    setup = control._controller_setup
    calls = []

    def counted(*args):
        calls.append(args)
        return setup(*args)

    monkeypatch.setattr(control, "_controller_setup", counted)
    basis = ruling_basis(pgg, alliance_pin_out, Delta(0.9))
    assert len(calls) == 1
    # rank and provenance are computed when first read
    assert "rank" not in vars(basis) and "provenance" not in vars(basis)
    assert basis.rank == 3
    assert basis.provenance == ((0, 0), (0, 1), (1, 0))


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


@pytest.mark.parametrize("tol", [
    1e-16, 1e-20, 0.0, -1.0, float("nan"), float("inf"), 1.0, 2.0])
def test_detect_rejects_tolerance_outside_eps_to_one(donation, pin_strategy,
                                                     tol):
    with pytest.raises(InvalidParamsError, match="machine epsilon"):
        detect_relations(donation, [pin_strategy], Infinite(), tol=tol)


@pytest.mark.parametrize("tol", [np.finfo(float).eps, 1e-12, 1e-9, 1e-4])
def test_detect_accepts_tolerance_from_eps_up(donation, pin_strategy, tol):
    found = detect_relations(donation, [pin_strategy], Infinite(), tol=tol)
    assert len(found) == 1
    assert found[0].close_to(PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0))


@pytest.mark.parametrize("tol", [1e-9, 1e-7])
def test_detect_keeps_a_pin_at_small_payoff_scale(donation, pin_strategy, tol):
    # payoffs scaled by 1e-6 leave the pin a ruling part of about 1e-6: the
    # trivial cut is on its sine, so a cut at 1 - tol (a sine of about
    # sqrt(2 tol)) would drop it
    game = build_game(donation.action_labels, donation.payoffs * 1e-6)
    found = detect_relations(game, [pin_strategy], Infinite(), tol=tol)
    assert len(found) == 1
    assert found[0].close_to(PayoffRelation(alpha=(0.0, 1.0), gamma=-2e-6))


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


def test_verify_without_opponents_repeats_the_one_chain(pd):
    # every player a controller: each sample is the same exact average
    profile = (wsls_pd(0), tit_for_tat(1))
    exact = average_distribution(pd, StrategyProfile(profile), Delta(0.9))
    payoffs = pd.payoffs.T @ exact.dist.probs
    rel = PayoffRelation(alpha=(1.0, 0.0), gamma=-payoffs[0])
    report = verify_relation(pd, profile, Delta(0.9), rel, samples=5)
    assert report.passed and report.samples_used == 5
    assert report.worst_opponents == ()
    assert_allclose(report.payoffs, np.tile(payoffs, (5, 1)), rtol=0,
                    atol=1e-12)


@pytest.mark.parametrize("case", ["pin", "repeat", "alliance"])
@pytest.mark.parametrize("schedule", [Infinite(), Delta(0.9)],
                         ids=["infinite", "delta0.9"])
def test_verify_matches_per_sample_average(request, case, schedule):
    # every sample of a batch, one closed class or several, agrees with a
    # per-sample average_distribution on the same opponent draw
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


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_verify_near_one_continuation(donation, eps):
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    schedule = Delta(1.0 - eps)
    result = synthesize(donation, schedule,
                        SynthesisTarget(rel, controllers=(0,)))
    assert isinstance(result, SynthesisResult)
    report = verify_relation(donation, result.strategies, schedule, rel,
                             samples=1000, seed=0)
    assert report.samples_skipped == 0
    assert report.passed
    assert report.max_abs_violation <= 1e-12


def test_verify_counts_unsettled_samples_as_skipped(pd):
    # the leaky player-1 table of the PD pin u2 = 2.5 at delta 0.5 (see
    # test_leaky_class_fails_as_no_convergence), played under Infinite
    controller = MarkovStrategy(0, MixedAction(np.array([0.75, 0.25])), np.array(
        [[1.0, 8.2833045977892539e-17], [0.0, 1.0], [0.5, 0.5], [0.0, 1.0]]))
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.5)
    report = verify_relation(pd, [controller], Infinite(), rel, samples=1000,
                             seed=1)
    assert report.samples_used + report.samples_skipped == 1000
    assert report.samples_used > 0
    assert report.payoffs.shape == (report.samples_used, 2)


def test_verify_fails_when_no_sample_settles(no_chain_settles, donation,
                                             pin_strategy):
    # nothing was checked, so nothing passes and no opponent is the worst
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    report = verify_relation(donation, [pin_strategy], Infinite(), rel,
                             samples=300, seed=1)
    assert report.passed is False
    assert (report.samples_used, report.samples_skipped) == (0, 300)
    assert report.max_abs_violation == -1.0
    assert report.worst_opponents == ()
    assert report.payoffs.shape == (0, 2)


def test_verify_refuses_schedule_past_round_cap(pd):
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    with pytest.raises(NoConvergenceError):
        verify_relation(pd, [wsls_pd(0)], FiniteHorizon(10 ** 6 + 1), rel,
                        samples=10)


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
    {"tol": float("inf")}, {"tol": -1.0},
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


@pytest.mark.parametrize("m", [20, 30])
def test_many_opponent_actions_keep_interior_draws_varied(m):
    # a floor of 0.05 per action takes all of the mass at m = 20 (every
    # entry exactly 0.05) and more than all of it beyond (negative entries)
    rng = np.random.default_rng(0)
    game = build_game([["C", "D"], [f"a{k}" for k in range(m)]],
                      rng.uniform(0.0, 5.0, (2 * m, 2)))
    cond, init = sample_markov_tables(np.random.default_rng(0), game, 1, 50)
    for table in (cond, init):
        assert table.min() > 0.0 and table.max() < 1.0
        assert_allclose(table.sum(axis=-1), 1.0, atol=1e-12)
    rows = cond.reshape(-1, m)
    assert len(np.unique(rows, axis=0)) == len(rows)
    controller = sample_markov_strategy(rng, game, 0)
    report = verify_relation(game, [controller], Infinite(),
                             PayoffRelation(alpha=(1.0, 0.0), gamma=-1.0),
                             samples=100, seed=0)
    assert report.samples_used == 100
    interior = report.payoffs[~report.boundary_mask]
    assert len(np.unique(interior, axis=0)) == len(interior) == 90


# ---------------------------------------------------------------------------
# Falsification by ascent over deterministic stationary opponents


def _column_candidate(game, strategy, action):
    """The infinite-form ruling vector of one action of a controller."""
    repeat = (game.profile_actions[:, strategy.player] == action).astype(float)
    return strategy.conditionals[:, action] - repeat


def _falsify_case(request, case):
    """(game, controllers, candidate) of a named falsification case."""
    if case == "pd-wsls-C":
        game, wsls = request.getfixturevalue("pd"), wsls_pd(0)
        return game, [wsls], _column_candidate(game, wsls, 0)
    if case == "pgg-alliance-u3-player1":
        # one member of the outsider pin alone, with two free opponents
        member = markov(0, ALLIANCE_PIN_OUT[0])
        game = request.getfixturevalue("pgg")
        return game, [member], _column_candidate(game, member, 0)
    game = request.getfixturevalue("donation")
    pin = request.getfixturevalue("pin_strategy")
    action = game.action_index(0, case.split("-")[-1])
    return game, [pin], _column_candidate(game, pin, action)


FALSIFY_CASES = ["donation-C1", "donation-C2", "donation-D", "pd-wsls-C",
                 "pgg-alliance-u3-player1"]
# Explicit rounds before a tail of 1 that is reached
REACHED_TAIL_OF_ONE = Custom((0.9, 0.5), tail=1.0)
FALSIFY_SCHEDULES = [FiniteHorizon(2), FiniteHorizon(10),
                     Custom((0.9, 0.5), tail=0.8), Delta(0.9), Infinite(),
                     REACHED_TAIL_OF_ONE]


# Two rounds written with a tail of 1 that is never reached: the sums of
# FiniteHorizon(2)
TWO_ROUNDS_UNREACHED_TAIL = Custom((1.0, 0.0), tail=1.0)


def _count_ascend(monkeypatch):
    """A list that gains an entry at every ``control._ascend`` call."""
    ascend, calls = control._ascend, []

    def counting(rules, choices, values_of):
        calls.append(len(rules))
        return ascend(rules, choices, values_of)

    monkeypatch.setattr(control, "_ascend", counting)
    return calls


def _table(strategy):
    """A strategy's initial action over its conditional rows."""
    return np.vstack([strategy.initial.probs, strategy.conditionals])


def _reached(game, profile, schedule, candidate):
    """|<candidate, vbar>| of one profile, averaged on its own."""
    vbar = average_distribution(game, StrategyProfile(tuple(profile)),
                                schedule).dist.probs
    return abs(float(candidate @ vbar))


def _neighbour_values(game, controllers, schedule, candidate, opponents):
    """|<candidate, vbar>| of every single-entry neighbour of the
    deterministic ``opponents``: one opponent's start action or one of its
    conditional rows moved to another action, each profile built as
    strategy objects and averaged by ``average_distribution``."""
    values = []
    for i, opponent in enumerate(opponents):
        table = _table(opponent)
        for state, action in zip(*np.nonzero(table == 0.0)):
            moved = table.copy()
            moved[state] = np.eye(table.shape[1])[action]
            changed = MarkovStrategy(opponent.player, MixedAction(moved[0]),
                                     moved[1:])
            profile = (*controllers, *opponents[:i], changed,
                       *opponents[i + 1:])
            values.append(_reached(game, profile, schedule, candidate))
    return values


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("schedule", FALSIFY_SCHEDULES,
                         ids=["horizon2", "horizon10", "custom", "delta0.9",
                              "infinite", "custom-tail1"])
@pytest.mark.parametrize("case", FALSIFY_CASES)
def test_falsify_returns_a_local_optimum(monkeypatch, request, case,
                                         schedule, seed):
    # the answer is a deterministic Markov opponent that no change of one
    # action in one state improves, whether the MDP or the ascent found it
    game, controllers, candidate = _falsify_case(request, case)
    searched = _count_ascend(monkeypatch)
    report = falsify_candidate(game, controllers, schedule, candidate,
                               budget=3, seed=seed, threshold=1e-300)
    # only a reached tail of 1 has no bound, and there the ascent runs
    assert (report.bound is None) == (schedule in (Infinite(),
                                                   REACHED_TAIL_OF_ONE))
    if report.bound is None:
        assert searched
    else:
        assert report.achieved <= report.bound + 1e-15
    opponents = report.counterexample
    if opponents is None:
        # WSLS under infinite play: every opponent reached exactly 0, which
        # no threshold exceeds
        assert report.achieved == 0.0
        return
    for opponent in opponents:
        table = _table(opponent)
        assert np.isin(table, (0.0, 1.0)).all() and (table.sum(1) == 1).all()
    achieved = _reached(game, (*controllers, *opponents), schedule, candidate)
    assert abs(achieved - report.achieved) <= 1e-12
    neighbours = _neighbour_values(game, controllers, schedule, candidate,
                                   opponents)
    assert len(neighbours) == sum(
        (game.profile_count + 1) * (game.action_counts[s.player] - 1)
        for s in opponents)
    assert max(neighbours) <= report.achieved + 1e-15


def test_ascend_moves_to_the_first_best_neighbour():
    # the value counts entries matching (2, 1).  From (0, 0) the
    # neighbours (2, 0) and (0, 1) tie and the first wins; then (2, 1),
    # where no neighbour improves.  A row starting at (2, 1) stops at once
    stacks = []

    def matches(rules):
        stacks.append(rules.copy())
        return (rules == [2, 1]).sum(axis=1).astype(float)

    rules = np.array([[0, 0], [2, 1]])
    values = control._ascend(rules, np.array([3, 2]), matches)
    assert values.tolist() == [2.0, 2.0]
    np.testing.assert_array_equal(rules, [[2, 1], [2, 1]])
    # the start, then every live row's neighbours (entry 0 to its other
    # actions in order, then entry 1) as one stack per step
    np.testing.assert_array_equal(stacks[1], [[1, 0], [2, 0], [0, 1],
                                              [0, 1], [1, 1], [2, 0]])
    np.testing.assert_array_equal(stacks[2], [[0, 0], [1, 0], [2, 1]])
    assert [len(s) for s in stacks] == [2, 6, 3, 3]


def test_falsify_is_bitwise_repeatable(monkeypatch, request):
    # a repeated seed gives the same answer bit for bit, and so do stacks
    # of three chains: a chain averages the same wherever it sits
    game, controllers, candidate = _falsify_case(request, "donation-C1")

    def search():
        return falsify_candidate(game, controllers, FiniteHorizon(10),
                                 candidate, budget=7, seed=1)

    first, again = search(), search()
    kernel, stacks = control.markov_average, []

    def counting_kernel(m, v1, schedule):
        stacks.append(len(m))
        return kernel(m, v1, schedule)

    monkeypatch.setattr(control, "markov_average", counting_kernel)
    monkeypatch.setattr(control, "VERIFY_BLOCK", 3)
    blocked = search()
    assert max(stacks) == 3 and len(stacks) > 3
    for report in (again, blocked):
        assert report.achieved == first.achieved
        for mine, theirs in zip(report.counterexample, first.counterexample,
                                strict=True):
            assert np.array_equal(_table(mine), _table(theirs))


# The probe-finite benchmark's least values of the donation pin's
# horizon:10 falsify ops at budget 10; an op fails below 99% of its floor
HORIZON10_FLOORS = {"donation-C1": 0.0362319, "donation-C2": 0.0159429,
                    "donation-D": 0.0202899}


@pytest.mark.parametrize("seed", range(20))
def test_falsify_seed_sweep_clears_the_benchmark_floors(request, seed):
    for case, floor in HORIZON10_FLOORS.items():
        game, controllers, candidate = _falsify_case(request, case)
        report = falsify_candidate(game, controllers, FiniteHorizon(10),
                                   candidate, budget=10, seed=seed)
        assert report.achieved >= 0.99 * floor


def test_falsify_solves_an_unreached_tail_of_one(monkeypatch, request):
    # two rounds written with a tail of 1: the tail is never reached, so
    # the MDP answers exactly as for FiniteHorizon(2)
    searched = _count_ascend(monkeypatch)
    for case in FALSIFY_CASES:
        game, controllers, candidate = _falsify_case(request, case)
        two = falsify_candidate(game, controllers, FiniteHorizon(2),
                                candidate)
        unreached = falsify_candidate(game, controllers,
                                      TWO_ROUNDS_UNREACHED_TAIL, candidate)
        assert unreached.bound is not None
        assert (unreached.achieved, unreached.bound) == \
            (two.achieved, two.bound)
    assert not searched


def test_falsify_builds_no_per_trial_objects(monkeypatch, request):
    game, controllers, candidate = _falsify_case(request, "donation-C1")

    def refuse(*args, **kwargs):
        raise AssertionError("falsify used the per-trial object path")

    monkeypatch.setattr(control, "average_distribution", refuse)
    monkeypatch.setattr(dynamics, "average_distribution", refuse)
    monkeypatch.setattr(StrategyProfile, "__post_init__", refuse)
    built = []
    post_init = MarkovStrategy.__post_init__

    def counting(self):
        built.append(self.player)
        post_init(self)

    monkeypatch.setattr(MarkovStrategy, "__post_init__", counting)
    report = falsify_candidate(game, controllers, FiniteHorizon(10),
                               candidate, budget=4, seed=0)
    assert report.conclusive and built == [1]
    built.clear()
    report = falsify_candidate(game, controllers, Infinite(), candidate,
                               budget=4, seed=0)
    assert not report.conclusive and built == []


# ---------------------------------------------------------------------------
# Exact falsification against every deterministic Markov opponent


def _deterministic_averages(game, controllers, schedule):
    """vbar of every deterministic Markov strategy of the one free player
    (an action in its start state and after each profile), all from one
    stacked ``markov_average`` call."""
    taken = {s.player for s in controllers}
    (free,) = [p for p in range(game.player_count) if p not in taken]
    m, states = game.action_counts[free], game.profile_count + 1
    tables = {s.player: np.vstack([s.initial.probs, s.conditionals])
              for s in controllers}
    tables[free] = np.eye(m)[np.indices((m,) * states).reshape(states, -1).T]
    chains = dynamics.profile_product(
        game, [tables[p] for p in range(game.player_count)])
    vbar, _, settled = dynamics.markov_average(chains[:, 1:], chains[:, 0],
                                               schedule)
    assert settled.all()
    return vbar


def _assert_matches_oracle(report, oracle, searched):
    if searched:
        # the optimum plays differently by round: the bound is exact, and
        # the ascent over stationary opponents never passes their optimum
        assert report.bound >= oracle - 1e-15
        assert report.achieved <= oracle + 1e-15
    else:
        assert abs(report.achieved - oracle) <= 1e-12
        assert abs(report.bound - oracle) <= 1e-12


@pytest.mark.parametrize("schedule", [
    FiniteHorizon(2), FiniteHorizon(3), Delta(0.5),
    Custom((0.9, 0.5), tail=0.8)],
    ids=["horizon2", "horizon3", "delta0.5", "custom"])
def test_falsify_matches_every_deterministic_pd_opponent(monkeypatch,
                                                         request, schedule):
    # 2^5 opponents against win-stay lose-shift
    game, controllers, candidate = _falsify_case(request, "pd-wsls-C")
    vbar = _deterministic_averages(game, controllers, schedule)
    searched = _count_ascend(monkeypatch)
    report = falsify_candidate(game, controllers, schedule, candidate,
                               budget=3, seed=0)
    _assert_matches_oracle(report, float(np.abs(vbar @ candidate).max()),
                           searched)


@pytest.mark.parametrize("schedule, searched", [
    (FiniteHorizon(2), [False] * 3), (FiniteHorizon(3), [True, True, False]),
    (Delta(0.9), [False] * 3)], ids=["horizon2", "horizon3", "delta0.9"])
def test_falsify_matches_every_deterministic_donation_opponent(
        monkeypatch, request, schedule, searched):
    # 3^10 opponents against the pin, for each of its three columns.  Over
    # three rounds the C1 and C2 optima play differently by round; under a
    # constant continuation a stationary opponent is optimal, so donation
    # D's optimum at delta 0.9 is 0.0199381
    vbar, paths = None, []
    for case in ("donation-C1", "donation-C2", "donation-D"):
        game, controllers, candidate = _falsify_case(request, case)
        if vbar is None:
            vbar = _deterministic_averages(game, controllers, schedule)
        calls = _count_ascend(monkeypatch)
        oracle = float(np.abs(vbar @ candidate).max())
        for seed in range(5):
            report = falsify_candidate(game, controllers, schedule,
                                       candidate, budget=3, seed=seed)
            _assert_matches_oracle(report, oracle, calls)
        paths.append(bool(calls))
    assert paths == searched
    if isinstance(schedule, Delta):
        assert f"{report.achieved:.6g}" == "0.0199381"  # donation D


# The exact optima of the benchmark's two-round and custom-tail falsify
# ops, to 6 digits
BENCHMARK_OPTIMA = {
    ("pd-wsls-C", "horizon2"): "0.5",
    ("donation-C1", "horizon2"): "0.19",
    ("donation-C2", "horizon2"): "0.113333",
    ("donation-D", "horizon2"): "0.101667",
    ("pd-wsls-C", "custom"): "0.240964",
    ("donation-C1", "custom"): "0.0882564",
    ("donation-C2", "custom"): "0.0420703",
    ("donation-D", "custom"): "0.048083",
}
BENCHMARK_SCHEDULES = {"horizon2": FiniteHorizon(2),
                       "custom": Custom((0.9, 0.5), tail=0.8)}


@pytest.mark.parametrize("seed", [7, 43, 76])
def test_exact_falsify_runs_no_search(monkeypatch, request, seed):
    def refuse(rules, choices, values_of):
        raise AssertionError("the restart search ran")

    monkeypatch.setattr(control, "_ascend", refuse)
    for (case, tag), optimum in BENCHMARK_OPTIMA.items():
        game, controllers, candidate = _falsify_case(request, case)
        report = falsify_candidate(game, controllers,
                                   BENCHMARK_SCHEDULES[tag], candidate,
                                   seed=seed)
        assert report.conclusive
        assert f"{report.achieved:.6g}" == optimum
    for case in FALSIFY_CASES:
        game, controllers, candidate = _falsify_case(request, case)
        for schedule in (Delta(0.0), Delta(0.5), Delta(0.9)):
            report = falsify_candidate(game, controllers, schedule,
                                       candidate, seed=seed)
            assert report.achieved <= report.bound + 1e-15


def test_falsify_proves_a_memoryless_column(pd):
    # a memoryless controller's column is a ruling vector under every
    # schedule: the bound proves it without a search
    steady = MarkovStrategy(0, MixedAction(np.array([0.3, 0.7])),
                            np.tile([0.3, 0.7], (4, 1)))
    candidate = _column_candidate(pd, steady, 0)
    for schedule in (FiniteHorizon(3), Delta(0.9),
                     Custom((0.9, 0.5), tail=0.8)):
        report = falsify_candidate(pd, [steady], schedule, candidate)
        assert not report.conclusive and report.counterexample is None
        assert report.bound <= 1e-15 and report.achieved <= 1e-15
    report = falsify_candidate(pd, [steady], Infinite(), candidate, budget=2)
    assert report.bound is None


def test_falsify_argument_errors(donation, pgg, pin_strategy):
    candidate = np.zeros(donation.profile_count)
    with pytest.raises(DimensionMismatchError):
        falsify_candidate(donation, [pin_strategy], FiniteHorizon(2),
                          np.zeros(4))
    with pytest.raises(InvalidParamsError):
        falsify_candidate(donation, [pin_strategy, markov(1, *FREE_COLS)],
                          FiniteHorizon(2), candidate)
    twice = [markov(0, ALLIANCE_PIN_OUT[0]), markov(0, ALLIANCE_PIN_OUT[1])]
    with pytest.raises(InconsistentStrategyError):
        falsify_candidate(pgg, twice, FiniteHorizon(2),
                          np.zeros(pgg.profile_count))


@pytest.mark.parametrize("kwargs, message", [
    ({"threshold": -1.0}, "threshold"), ({"threshold": 0.0}, "threshold"),
    ({"threshold": float("nan")}, "threshold"),
    ({"threshold": float("inf")}, "threshold"),
    ({"budget": 0}, "budget"), ({"budget": -3}, "budget")])
def test_falsify_rejects_bad_threshold_and_budget(donation, pin_strategy,
                                                  kwargs, message):
    # a threshold below 0 would certify the true ruling vector as broken
    column = pin_strategy.conditionals[:, 0] \
        - repeat_indicator(donation, [0], ["C1"])
    with pytest.raises(InvalidParamsError, match=message):
        falsify_candidate(donation, [pin_strategy], Infinite(), column,
                          **kwargs)


def test_falsify_unsettled_trial_raises(monkeypatch, request):
    kernel = control.markov_average

    def last_unsettled(m, v1, schedule):
        vbar, residual, settled = kernel(m, v1, schedule)
        settled[-1] = False
        return vbar, residual, settled

    monkeypatch.setattr(control, "markov_average", last_unsettled)
    game, controllers, candidate = _falsify_case(request, "donation-C1")
    with pytest.raises(NoConvergenceError):
        falsify_candidate(game, controllers, Infinite(), candidate,
                          budget=2, seed=0)


def test_exact_falsify_raises_on_an_unsettled_optimum(monkeypatch, request):
    kernel = control.markov_average

    def unsettled(m, v1, schedule):
        vbar, residual, settled = kernel(m, v1, schedule)
        settled[:] = False
        return vbar, residual, settled

    monkeypatch.setattr(control, "markov_average", unsettled)
    game, controllers, candidate = _falsify_case(request, "donation-C1")
    with pytest.raises(NoConvergenceError):
        falsify_candidate(game, controllers, Delta(0.9), candidate)


def test_exact_falsify_bounds_its_work(monkeypatch, request):
    game, controllers, candidate = _falsify_case(request, "donation-C1")
    # the round cap of markov_average, before any round is solved
    with pytest.raises(NoConvergenceError, match="MAX_ROUNDS"):
        falsify_candidate(game, controllers,
                          FiniteHorizon(dynamics.MAX_ROUNDS + 1), candidate)
    # policy iteration needs more than one step from its all-first start
    monkeypatch.setattr(control, "POLICY_STEPS", 1)
    with pytest.raises(NoConvergenceError, match="policy iteration"):
        falsify_candidate(game, controllers, Delta(0.9), candidate)


def test_falsify_checks_the_round_cap_before_a_tail_of_one(monkeypatch,
                                                           request):
    # one round past the cap, then a tail of 1: refused before any average
    # is taken, as the exact path refuses FiniteHorizon(MAX_ROUNDS + 1)
    game, controllers, candidate = _falsify_case(request, "donation-C1")
    schedule = Custom((1.0,) * (dynamics.MAX_ROUNDS + 1), tail=1.0)
    averaged = []
    monkeypatch.setattr(control, "markov_average",
                        lambda *args: averaged.append(args))
    start = time.perf_counter()
    with pytest.raises(NoConvergenceError, match="MAX_ROUNDS"):
        falsify_candidate(game, controllers, schedule, candidate)
    assert time.perf_counter() - start < 1.0
    assert not averaged


# ---------------------------------------------------------------------------
# Two-SVD detection against the three-SVD reference


@st.composite
def _detect_cases(draw):
    counts = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4).filter(
        lambda c: int(np.prod(c)) <= 18))
    players, profiles = len(counts), int(np.prod(counts))
    kind = draw(st.sampled_from(["generic", "trivial", "zero"]))
    if kind == "zero":
        payoffs = np.zeros((profiles, players))
    else:
        payoffs = np.array(draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=players, max_size=players),
            min_size=profiles, max_size=profiles)), dtype=float)
    if kind == "trivial":
        # u_n = -(u_1 + ... + u_{n-1}) + c: (1, ..., 1, -c) is trivial
        payoffs[:, -1] = -payoffs[:, :-1].sum(axis=1) + draw(
            st.integers(-2, 2))
    game = build_game([tuple("ABC"[:c]) for c in counts], payoffs)
    schedule = draw(st.sampled_from([Infinite(), Delta(0.9)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    first = draw(st.integers(0, players - 1))
    second = (first + draw(st.integers(1, players - 1))) % players
    controllers = draw(st.sampled_from([(first,), (first, second)]))
    if draw(st.booleans()):
        # enforce u_k = its mean payoff, where synthesis finds a table
        k = draw(st.integers(0, players - 1))
        pin = PayoffRelation(tuple(float(p == k) for p in range(players)),
                             -float(payoffs[:, k].mean()))
        if not is_trivial(game, pin):
            result = synthesize(game, schedule,
                                SynthesisTarget(pin, controllers))
            if isinstance(result, SynthesisResult):
                return game, list(result.strategies), schedule
    control_kind = draw(st.sampled_from(["random", "free", "repeat"]))
    if control_kind == "repeat":
        strategies = [repeat_strategy(game, p) for p in controllers]
    else:  # random draws make about half the rows one-hot, free ones none
        strategies = [sample_markov_strategy(rng, game, p,
                                             control_kind != "free")
                      for p in controllers]
    return game, strategies, schedule


def _degenerate(game, relations):
    """Whether the relations' coefficient rows are dependent, or their
    span is not orthogonal to the trivial directions (u_aug x = 0) or
    holds a unit combination with vanishing w, each to RANK_TOL (times
    the payoff scale for w, as in is_trivial)."""
    if not relations:
        return False
    rows = np.array([rel.coefficients() for rel in relations])
    _, s, span = np.linalg.svd(rows / np.linalg.norm(rows, axis=1)[:, None],
                               full_matrices=False)
    u_aug = np.column_stack([game.payoffs, np.ones(game.profile_count)])
    _, s_aug, vt = np.linalg.svd(u_aug)
    trivial = vt[np.count_nonzero(s_aug > control.RANK_TOL * s_aug[0]):]
    scale = max(1.0, float(abs(game.payoffs).max()))
    return bool(s[-1] <= control.RANK_TOL
                or np.abs(span @ trivial.T).max(initial=0.0) > control.RANK_TOL
                or np.linalg.svd(u_aug @ span.T, compute_uv=False)[-1]
                <= control.RANK_TOL * scale)


@given(_detect_cases(), st.sampled_from([MACHINE_EPS, 1e-12, 1e-9, 1e-6]))
@settings(max_examples=300, deadline=None)
def test_detect_agrees_with_three_svd_reference(case, tol):
    # at tol = eps the reference's w rank cut sits below rounding, so its
    # span can hold a trivial direction: it then reports rows that noise
    # made pivots of, or rows off the orthogonal complement once the
    # trivial row is dropped.  detect never does, and elsewhere the two
    # report the same rows
    game, strategies, schedule = case
    found = detect_relations(game, strategies, schedule, tol=tol)
    assert not _degenerate(game, found)
    reference = detect_relations_reference(game, strategies, schedule, tol)
    if not _degenerate(game, reference):
        assert len(found) == len(reference)
        assert_allclose(np.array([rel.coefficients() for rel in found]),
                        np.array([rel.coefficients() for rel in reference]),
                        atol=1e-9)


def test_detect_at_machine_eps_pivots_on_no_rounding():
    # u1 = u2 makes (1, -1, 0, 0) trivial, so every relation has alpha_1 =
    # alpha_2; a three-player alliance enforces two.  At tol = eps the
    # second column's residual in the row-echelon walk is rounding, and as
    # a pivot it split the relations (or divided by zero)
    payoffs = public_goods_game(3, 1.0, 2.0).payoffs.copy()
    payoffs[:, 1] = payoffs[:, 0]
    game = build_game([("C", "D")] * 3, payoffs)
    for seed in range(60):
        rng = np.random.default_rng(seed)
        strategies = [sample_markov_strategy(rng, game, p) for p in range(3)]
        found = detect_relations(game, strategies, Infinite(), tol=MACHINE_EPS)
        assert len(found) == 2
        assert all(abs(rel.alpha[0] - rel.alpha[1]) <= 1e-9 for rel in found)


def test_detect_makes_two_svds(monkeypatch, donation, pin_strategy):
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(a) or svd(*a, **k))
    found = detect_relations(donation, [pin_strategy], Infinite())
    assert len(found) == 1 and len(calls) == 2


# ---------------------------------------------------------------------------
# Canonical detect output


PGG4_PIN_ROWS = np.array([[1.0, 0.0, -1.0, 0.0, 0.0],
                          [0.0, 1.0, -1.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0, -1.5]])


@pytest.mark.parametrize("schedule", [Infinite(), Delta(0.9)],
                         ids=["infinite", "delta0.9"])
def test_detect_is_reduced_row_echelon(monkeypatch, schedule):
    game = public_goods_game(4, 3.0, 2.0)
    rel = PayoffRelation(alpha=(0.0, 0.0, 0.0, 1.0), gamma=-1.5)
    result = synthesize(game, schedule, SynthesisTarget(rel, (0, 1, 2)))
    strategies = result.strategies

    def rows(found):
        return np.array([r.coefficients() for r in found])

    reference = rows(detect_relations(game, strategies, schedule))
    assert_allclose(reference, PGG4_PIN_ROWS, atol=1e-9)
    assert_allclose(rows(detect_relations(game, strategies[::-1], schedule)),
                    reference, atol=1e-12)
    basis = ruling_basis(game, strategies, schedule)
    rng = np.random.default_rng(4)
    # detect reads the family through control.ruling_basis, the name the
    # benchmark tracer wraps, so each patched basis below is the one used
    reads = []
    for _ in range(3):
        order = rng.permutation(len(basis.vectors))
        scales = rng.uniform(0.1, 10.0, len(order)) \
            * rng.choice([-1.0, 1.0], len(order))
        shuffled = dataclasses.replace(
            basis, vectors=basis.vectors[order] * scales[:, None])
        monkeypatch.setattr(control, "ruling_basis",
                            lambda *a, b=shuffled: reads.append(b) or b)
        assert_allclose(rows(detect_relations(game, strategies, schedule)),
                        reference, atol=1e-9)
        assert reads[-1:] == [shuffled]
    assert len(reads) == 3
