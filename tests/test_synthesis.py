import itertools
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import sparse

from payoffcontrol import (
    Delta,
    FiniteHorizon,
    Infinite,
    InvalidParamsError,
    Infeasible,
    MarkovStrategy,
    MixedAction,
    PayoffRelation,
    PlayerOutOfRangeError,
    SynthesisResult,
    SynthesisTarget,
    TrivialTargetError,
    UnsupportedScheduleError,
    build_game,
    detect_relations,
    is_trivial,
    public_goods_game,
    relation_vector,
    ruling_basis,
    synthesize,
    verify_relation,
)
from payoffcontrol import cli, synthesis
from payoffcontrol.control import _controller_setup, joint_index
from payoffcontrol.dynamics import classify_schedule, repeat_strategy
from payoffcontrol.fileio import parse_game_file
from payoffcontrol.synthesis import (
    _block_diagonal,
    _family_residual,
    _margin_program,
    _max_margin,
    _maximin_rows,
    _reaches,
    _slack,
)

solve = synthesis.linprog  # the real solver, under the monkeypatched wrappers


def pin(player, value, n=2):
    alpha = [0.0] * n
    alpha[player] = 1.0
    return PayoffRelation(alpha=tuple(alpha), gamma=-value)


# ---------------------------------------------------------------------------
# oracle: brute-force strategy grid for the one-controller pin in a 2x2 game.
# A conditional column s enforces the pin iff s - rep is a nonzero multiple
# of w, tested here through vanishing 2x2 minors instead of the interval
# arithmetic the implementation uses.  Step 0.05 is fine because each
# feasible target below has an on-grid witness.


def _pd_pin_oracle(game, g, step=0.05):
    w = game.payoffs[:, 1] - g
    vals = np.round(np.arange(0.0, 1.0 + step / 2, step), 10)
    grids = np.meshgrid(*([vals] * 4), indexing="ij")
    s = np.stack([grid.ravel() for grid in grids], axis=1)
    f = s - np.array([1.0, 1.0, 0.0, 0.0])
    nonzero = np.max(np.abs(f), axis=1) > 1e-9
    minors = np.stack([f[:, i] * w[j] - f[:, j] * w[i]
                       for i in range(4) for j in range(i + 1, 4)], axis=1)
    parallel = np.max(np.abs(minors), axis=1) < 1e-9
    return bool(np.any(nonzero & parallel))


FEASIBLE_PINS = [1.0, 1.5, 2.0, 2.5, 3.0]
INFEASIBLE_PINS = [-1.0, 0.0, 0.5, 3.5, 4.0, 5.0]


@pytest.mark.parametrize("g", FEASIBLE_PINS + INFEASIBLE_PINS)
def test_pd_pin_matches_grid_oracle(pd, g):
    target = SynthesisTarget(pin(1, g), controllers=(0,))
    result = synthesize(pd, Infinite(), target)
    assert isinstance(result, SynthesisResult) == _pd_pin_oracle(pd, g)
    if isinstance(result, Infeasible):
        assert result.conclusive
        assert result.certificate == "exact-interval-empty"


@pytest.mark.parametrize("g,margin", [
    (1.0, 0.0), (1.5, 0.125), (2.0, 0.25), (2.5, 1 / 6), (3.0, 0.0)])
def test_pd_pin_margin_and_verification(pd, g, margin):
    target = SynthesisTarget(pin(1, g), controllers=(0,))
    result = synthesize(pd, Infinite(), target)
    assert result.note == "interval"
    assert result.margin == pytest.approx(margin, abs=1e-12)
    assert len(result.strategies) == 1
    assert result.strategies[0].player == 0
    report = verify_relation(pd, result.strategies, Infinite(),
                             target.relation, samples=150, seed=5)
    assert report.passed
    assert report.max_abs_violation < 1e-8


def test_pd_pin_rows_hold_exact_zeros(pd):
    # at delta 0.5 the first row's target sits on min(y), so its exact
    # maximin row is the corner (1, 0); rounding in the vertex values or
    # the margin must not leak into the 0
    target = SynthesisTarget(pin(1, 2.5), controllers=(0,))
    result = synthesize(pd, Delta(0.5), target)
    strategy = result.strategies[0]
    assert strategy.conditionals[0].tolist() == [1.0, 0.0]
    residual = _family_residual(result.delta, strategy.conditionals,
                                strategy.initial.probs,
                                pd.profile_actions[:, 0],
                                np.append(result.y, 0.0), result.w)
    assert residual <= 1e-8 * max(1.0, float(np.abs(result.w).max()))
    report = verify_relation(pd, result.strategies, Delta(0.5),
                             target.relation, samples=400, seed=1)
    assert report.passed
    assert report.samples_skipped == 0


@pytest.mark.parametrize("g", [-4.0, -1.0, 0.0, 1.0, 4.0])
def test_lone_player_cannot_pin_the_outsider(pgg, g):
    # both row groups contain payoffs on either side of g, so the interval
    # certificate applies at every grid value
    target = SynthesisTarget(pin(2, g, n=3), controllers=(0,))
    result = synthesize(pgg, Infinite(), target)
    assert isinstance(result, Infeasible)
    assert result.conclusive
    assert result.certificate == "exact-interval-empty"


def test_certificate_builds_no_strategy_objects(monkeypatch, pgg):
    built = []
    for cls in (MarkovStrategy, MixedAction):
        init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=init: (built.append(self),
                                                     init(self))[1])
    result = synthesize(pgg, Infinite(),
                        SynthesisTarget(pin(2, 0.0, n=3), controllers=(0,)))
    assert result.certificate == "exact-interval-empty"
    assert built == []


def _lone_targets(game, span):
    """Every distinct non-trivial relation with integer coefficients in
    [-span, span], once per lone controller."""
    relations = {PayoffRelation(c[:-1], c[-1]) for c in itertools.product(
        map(float, range(-span, span + 1)), repeat=game.player_count + 1)
        if any(c)}
    return [(relation, player)
            for relation in sorted(relations,
                                   key=lambda r: r.coefficients().tolist())
            if not is_trivial(game, relation)
            for player in range(game.player_count)]


def test_interval_rung_agrees_with_the_pair_lp(pd, pgg):
    # the pair LP over both (lo, hi) blocks decides the same lone
    # two-action targets under infinite rounds; four pd targets, such as
    # alpha = (-2, 3), gamma = -1, have a w(a) that the relation makes 0 but
    # the floats leave at -5.6e-17, and a rung that read its sign certified
    # them infeasible
    for game, span in ((pd, 3), (pgg, 2)):
        for relation, player in _lone_targets(game, span):
            target = SynthesisTarget(relation, (player,))
            result = synthesize(game, Infinite(), target)
            w = relation_vector(game, relation)
            sizes, jhat = joint_index(game, (player,))
            found = synthesis._search_margin(
                sizes, jhat, w, 1.0, synthesis._signs(game, relation, w))
            case = (relation, player)
            if isinstance(found, Infeasible):
                assert isinstance(result, Infeasible), case
                continue
            assert isinstance(result, SynthesisResult), case
            lp_margin = synthesis._assemble(game, target, 1.0, sizes, sizes,
                                            jhat, w, *found)[3]
            assert result.margin >= lp_margin - 1e-9, case


def test_controller_outside_the_game_rejected(pgg):
    with pytest.raises(PlayerOutOfRangeError):
        synthesize(pgg, Infinite(),
                   SynthesisTarget(pin(2, 0.0, n=3), controllers=(0, 3)))


def test_donation_pin_synthesis_roundtrip(donation):
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    result = synthesize(donation, Infinite(),
                        SynthesisTarget(rel, controllers=(0,)))
    assert isinstance(result, SynthesisResult)
    assert result.margin > 0.0
    found = detect_relations(donation, result.strategies, Infinite())
    assert len(found) == 1
    assert found[0].close_to(rel)


def test_donation_equalizer_synthesis(donation):
    rel = PayoffRelation(alpha=(1.0, -1.0), gamma=0.0)
    result = synthesize(donation, Infinite(),
                        SynthesisTarget(rel, controllers=(0,)))
    assert isinstance(result, SynthesisResult)
    # diagonal profiles force beta = y_j on whichever entry is extreme, so
    # a zero margin is the true optimum here, not a solver artifact
    assert result.margin == pytest.approx(0.0, abs=1e-9)
    report = verify_relation(donation, result.strategies, Infinite(), rel,
                             samples=150, seed=6)
    assert report.passed


def test_pd_pin_under_constant_continuation(pd):
    target = SynthesisTarget(pin(1, 2.0), controllers=(0,))
    result = synthesize(pd, Delta(0.9), target)
    assert isinstance(result, SynthesisResult)
    assert result.margin == pytest.approx(2 / 9, abs=1e-3)
    report = verify_relation(pd, result.strategies, Delta(0.9),
                             target.relation, samples=150, seed=7)
    assert report.passed
    assert report.max_abs_violation < 1e-8


def test_alliance_pin_both_targets(pgg):
    for rel in (pin(2, 1.0, n=3), pin(0, 1.0, n=3)):
        target = SynthesisTarget(rel, controllers=(0, 1))
        result = synthesize(pgg, Infinite(), target)
        assert isinstance(result, SynthesisResult)
        assert result.margin >= -1e-12
        assert len(result.strategies) == 2
        assert [s.player for s in result.strategies] == [0, 1]
        report = verify_relation(pgg, result.strategies, Infinite(), rel,
                                 samples=100, seed=8)
        assert report.passed
        assert report.max_abs_violation < 1e-8


def test_correlated_alliance_returns_joint_tables(pgg):
    rel = pin(2, 1.0, n=3)
    target = SynthesisTarget(rel, controllers=(0, 1), mode="correlated")
    result = synthesize(pgg, Infinite(), target)
    assert isinstance(result, SynthesisResult)
    assert result.strategies is None
    q = result.joint_conditionals
    sigma = result.joint_initial
    assert q.shape == (8, 4)
    assert np.all(q >= -1e-12)
    assert_allclose(q.sum(axis=1), np.ones(8), atol=1e-9)
    assert sigma.shape == (4,)
    assert sigma.sum() == pytest.approx(1.0, abs=1e-9)
    # the defining per-profile identity, checked from the raw tables
    y_full = np.append(result.y, 0.0)
    w = relation_vector(pgg, rel)
    jhat = np.repeat(np.arange(4), 2)
    residual = q @ y_full - y_full[jhat] - w
    assert np.max(np.abs(residual)) < 1e-8


def test_trivial_target_rejected():
    pennies = build_game([("H", "T"), ("H", "T")],
                         [[1, -1], [-1, 1], [-1, 1], [1, -1]])
    rel = PayoffRelation(alpha=(1.0, 1.0), gamma=0.0)
    with pytest.raises(TrivialTargetError):
        synthesize(pennies, Infinite(),
                   SynthesisTarget(rel, controllers=(0,)))


def test_finite_horizon_rejected(pd):
    target = SynthesisTarget(pin(1, 2.0), controllers=(0,))
    with pytest.raises(UnsupportedScheduleError):
        synthesize(pd, FiniteHorizon(2), target)


ONE_SHOT = pytest.mark.parametrize("schedule", [Delta(0.0), FiniteHorizon(1)],
                                   ids=["delta0", "horizon1"])


@ONE_SHOT
def test_one_shot_pd_pin_infeasible(pd, schedule):
    # with no continuation the conditionals never act; the pin would need
    # the opponent payoff constant across their own actions, which it is not
    target = SynthesisTarget(pin(1, 2.0), controllers=(0,))
    result = synthesize(pd, schedule, target)
    assert isinstance(result, Infeasible)
    assert result.conclusive
    assert result.certificate == "exact-lp-empty"


@ONE_SHOT
def test_one_shot_pin_through_initial_action(schedule):
    # player 1's payoff depends only on player 0's move, so a mixed first
    # action alone pins it even though the game never continues
    game = build_game([("A", "B"), ("A", "B")],
                      [[0, 1], [0, 1], [0, 0], [0, 0]])
    target = SynthesisTarget(pin(1, 0.5), controllers=(0,))
    result = synthesize(game, schedule, target)
    assert isinstance(result, SynthesisResult)
    assert result.margin == pytest.approx(0.5, abs=1e-9)
    assert_allclose(result.strategies[0].initial.probs, [0.5, 0.5],
                    atol=1e-9)
    report = verify_relation(game, result.strategies, schedule,
                             target.relation, samples=50, seed=9)
    assert report.passed


def test_target_validation():
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    with pytest.raises(InvalidParamsError):
        SynthesisTarget(rel, controllers=())
    with pytest.raises(InvalidParamsError):
        SynthesisTarget(rel, controllers=(0,), mode="joint")
    assert SynthesisTarget(rel, controllers=(1, 0)).controllers == (0, 1)
    # a repeated player is an error, not a smaller controller set
    with pytest.raises(InvalidParamsError, match="duplicate controller"):
        SynthesisTarget(rel, controllers=(0, 0))
    with pytest.raises(InvalidParamsError, match="duplicate controller"):
        SynthesisTarget(rel, controllers=(1, 0, 1))


# ---------------------------------------------------------------------------
# The stacked margin programs


# own-pin-*: player 1 of the PD pinning its own payoff to 2 has w < 0 on
# a profile of each of its actions, so no block passes the sign test and
# the certificate costs no program
@pytest.mark.parametrize("case, programs", [
    ("donation-equalizer", 1), ("one-shot-pd-pin", 1),
    ("own-pin-delta0.9", 0), ("own-pin-delta0.5", 0), ("own-pin-delta0", 0)])
def test_lp_certificate_costs_one_program(monkeypatch, donation, pd, case,
                                          programs):
    if case == "donation-equalizer":
        game, schedule = donation, Delta(0.9)
        target = SynthesisTarget(PayoffRelation((1.0, -1.0), 0.0), (0,))
    elif case == "one-shot-pd-pin":
        game, schedule = pd, Delta(0.0)
        target = SynthesisTarget(pin(1, 2.0), (0,))
    else:
        game, schedule = pd, Delta(float(case.rpartition("delta")[2]))
        target = SynthesisTarget(pin(0, 2.0), (0,))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(synthesis, "linprog", counted)
    result = synthesize(game, schedule, target)
    assert isinstance(result, Infeasible)
    assert result.certificate == "exact-lp-empty"
    assert result.conclusive
    assert len(calls) == programs
    if not programs:
        # w = u1 - 2 = (1, -2, 3, -1): payoff rows 2 and 4 bar C and D
        assert "by the signs of w: w < 0 on payoff rows 2, 4," \
            in result.detail


@pytest.mark.parametrize("w, detail", [
    ([1.0, -1.0, 1.0, -1.0], "w < 0 on payoff rows 2, 4,"),
    ([-1.0, 1.0, 1.0, 1.0], "w > 0 on payoff rows 2, 3,"),
    ([0.0, 0.0, 1.0, -1.0], "only joint action 1 can be a block's min or max")])
def test_sign_witness_covers_each_empty_case(w, detail):
    jhat, signs = np.array([0, 0, 1, 1]), np.sign(w)
    pairs, can_lo, can_hi = synthesis._sign_pairs(2, jhat, signs)
    assert pairs.shape == (0, 2)
    assert synthesis._sign_witness(jhat, signs, can_lo, can_hi) \
        .startswith(detail)


def test_sign_test_reads_a_rounded_zero_as_zero():
    # alpha = (-2, 3), gamma = -2 scale to (2/3, -1), 2/3, whose floats,
    # taken as exact, sum to -2^-52 at payoffs (5, 4) rather than 0;
    # reading that sign would drop every block and certify as infeasible
    # a target that this construction enforces
    game = build_game([("C", "D"), ("C", "D")],
                      [[1, 4], [3, 5], [5, 4], [0, 0]])
    relation = PayoffRelation((-2.0, 3.0), -2.0)
    w = relation_vector(game, relation)
    assert w[2] != 0.0
    assert synthesis._signs(game, relation, w).tolist() == [-1, -1, 0, 1]
    result = synthesize(game, Delta(0.9), SynthesisTarget(relation, (0,)))
    assert isinstance(result, SynthesisResult)
    report = verify_relation(game, result.strategies, Delta(0.9), relation,
                             samples=100, seed=2)
    assert report.passed


@st.composite
def _sign_cases(draw):
    counts = draw(st.lists(st.integers(2, 3), min_size=2, max_size=4))
    players = len(counts)
    payoffs = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=players, max_size=players),
        min_size=int(np.prod(counts)), max_size=int(np.prod(counts))))
    alpha = draw(st.lists(st.integers(-3, 3), min_size=players,
                          max_size=players).filter(any))
    controllers = draw(st.lists(st.integers(0, players - 1), min_size=1,
                                max_size=players, unique=True).filter(
        lambda ps: int(np.prod([counts[p] for p in ps])) <= 9))
    joint_count = int(np.prod([counts[p] for p in controllers]))
    delta = draw(st.sampled_from([0.0, 0.5, 0.9]
                                 + ([1.0] if joint_count > 2 else [])))
    mode = draw(st.sampled_from(["independent", "correlated"]))
    game = build_game([tuple("ABC"[:c]) for c in counts], payoffs)
    relation = PayoffRelation(tuple(map(float, alpha)),
                              float(draw(st.integers(-4, 4))))
    # synthesize refuses a trivial target before any program is built, and
    # there z is unbounded (z w = 0), so the margin program has no optimum
    assume(not is_trivial(game, relation))
    return game, relation, tuple(sorted(controllers)), mode, delta


def test_sign_cases_leave_out_trivial_targets_synthesize_refuses():
    # w = 0 on all-zero payoffs: the margin program is unbounded in z
    game = build_game([("A", "B")] * 2, [[0, 0]] * 4)
    relation = PayoffRelation((0.0, 1.0), 0.0)
    w = relation_vector(game, relation)
    assert is_trivial(game, relation)
    sizes, jhat = joint_index(game, (0,))
    pairs = np.array([[0, 1], [1, 0]])
    assert _margin_program(sizes, jhat, w, 0.5, 0.0, pairs) is None
    with pytest.raises(TrivialTargetError):
        synthesize(game, Delta(0.5), SynthesisTarget(relation, (0,)))


@given(_sign_cases())
@settings(max_examples=60, deadline=None)
def test_sign_test_drops_only_blocks_without_z(case):
    # every pair the sign test drops takes z = 0, to solver tolerance, in
    # the margin-0 program over all J(J - 1) pairs; trivial targets are
    # not drawn (see the test above)
    game, relation, controllers, mode, delta = case
    w = relation_vector(game, relation)
    sizes, jhat = joint_index(game, controllers)
    joint_count = int(np.prod(sizes))
    members = sizes if mode == "independent" else (joint_count,)
    kept, can_lo, can_hi = synthesis._sign_pairs(
        joint_count, jhat, synthesis._signs(game, relation, w))
    # in the order of the unpruned pairs, so ties still go to the first
    assert kept.tolist() == sorted(kept.tolist())
    pairs = np.array(list(itertools.permutations(range(joint_count), 2)))
    assert kept.tolist() == [[lo, hi] for lo, hi in pairs.tolist()
                             if can_lo[lo] and can_hi[hi]]
    x = _margin_program(members, jhat, w, delta, 0.0, pairs)
    assert x is not None
    dropped = ~(pairs[:, None] == kept[None]).all(axis=2).any(axis=1)
    assert np.all(x[dropped, joint_count] <= 1e-7)


def test_proposal_rejects_row_targets_outside_y():
    # y = (0, 1, 2) at delta 0.9: every profile row targets
    # (1 - 0.1 mval) / 0.9, and the initial row targets mval itself
    y, jhat, w = [0.0, 1.0, 2.0], np.zeros(9, dtype=int), np.ones(9)
    found = synthesis._proposal(np.array(y + [1.0, 1.0]), (3,), jhat, w, 0.9)
    assert found is not None and found[0] > 0.0
    assert synthesis._proposal(np.array(y + [1.0, 5.0]), (3,), jhat, w,
                               0.9) is None


def _no_proposal(monkeypatch):
    monkeypatch.setattr(synthesis, "_proposal", lambda *args: None)


def _stalled_proposal(monkeypatch):
    # every later proposal repeats the first, so the ascent stops at once
    proposal, first = synthesis._proposal, []

    def stalled(*args):
        first.append(first[0] if first else proposal(*args))
        return first[-1]
    monkeypatch.setattr(synthesis, "_proposal", stalled)


def _solver_stops(monkeypatch):
    # the margin-0 program solves; every later one reports no optimum
    calls = []

    def once(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs) if len(calls) == 1 \
            else SimpleNamespace(status=4, x=None)
    monkeypatch.setattr(synthesis, "linprog", once)


def _residual_miss(monkeypatch):
    monkeypatch.setattr(synthesis, "_family_residual", lambda *args: 1.0)


@pytest.mark.parametrize("patch, detail", [
    (_no_proposal, "no proposed solution keeps every row target"),
    (_stalled_proposal, None),
    (_solver_stops, None),
    (_residual_miss, "the assembled construction misses the target by 1")],
    ids=["no-proposal", "stalled-proposal", "solver-stops", "residual-miss"])
def test_search_fallbacks_end_in_a_result_or_an_inconclusive_outcome(
        monkeypatch, capsys, donation, patch, detail):
    # the donation pin under delta 0.9 runs the pair-LP ascent; a search
    # that cannot go on keeps its best construction or says it found none
    patch(monkeypatch)
    target = SynthesisTarget(PayoffRelation((0.0, 1.0), -2.0), (0,))
    result = synthesize(donation, Delta(0.9), target)
    patch(monkeypatch)  # the same search again, from the command line
    code = cli.main(["synth", "--game", str(DATA / "donation3.game"),
                     "--controllers", "1", "--alpha", "0,1", "--gamma", "-2",
                     "--schedule", "delta:0.9"])
    out = capsys.readouterr().out
    if detail is None:
        assert isinstance(result, SynthesisResult) and result.margin >= 0.0
        assert code == 0 and out.startswith("feasible:")
        assert verify_relation(donation, result.strategies, Delta(0.9),
                               target.relation, samples=50).passed
    else:
        assert isinstance(result, Infeasible) and not result.conclusive
        assert result.certificate == "search-budget-exhausted"
        assert result.detail.startswith(detail)
        assert code == 4
        assert out.splitlines() == ["inconclusive: search-budget-exhausted",
                                    result.detail]


def test_solver_failure_is_no_certificate(monkeypatch, donation):
    # a program the solver does not finish proves nothing
    def unfinished(*args, **kwargs):
        return SimpleNamespace(status=4, x=None)  # numerical difficulties
    monkeypatch.setattr(synthesis, "linprog", unfinished)
    target = SynthesisTarget(PayoffRelation((0.0, 1.0), -2.0), (0,))
    result = synthesize(donation, Delta(0.9), target)
    assert isinstance(result, Infeasible)
    assert result.certificate == "search-budget-exhausted"
    assert not result.conclusive


def _one_column(*entries):
    """CSC arrays of a one-column matrix with the given row entries."""
    return (np.array([0, len(entries)]), np.arange(len(entries)),
            np.array(entries, dtype=float))


def _tiny(cost, entries, rows, lower, upper, options=None):
    """Solve min cost x subject to entries x <= rows and lower <= x <= upper
    with the pair-LP solver."""
    return solve(np.array([cost]), _one_column(*entries), np.array(rows),
                 np.array([lower]), np.array([upper]), options)


def test_linprog_solves_and_reports_optimal():
    # min -x s.t. x <= 1, -x <= 0.5 in [-10, 10]: x = 1
    result = _tiny(-1.0, [1.0, -1.0], [1.0, 0.5], -10.0, 10.0)
    assert result.status == 0
    assert np.array_equal(result.x, [1.0])


@pytest.mark.parametrize("cost,entries,rows,lower,upper,status", [
    (1.0, [1.0, -1.0], [1.0, -2.0], -10.0, 10.0, 2),  # x <= 1 and x >= 2
    (-1.0, [-1.0], [1.0], -np.inf, np.inf, 3)],  # max x s.t. x >= -1
    ids=["infeasible", "unbounded"])
def test_linprog_reports_no_optimum(cost, entries, rows, lower, upper,
                                    status):
    result = _tiny(cost, entries, rows, lower, upper)
    assert result.status == status
    assert result.x is None


def test_linprog_refuses_unknown_options_and_values():
    with pytest.raises(ValueError, match="no_such_option"):
        _tiny(1.0, [1.0], [1.0], 0.0, 1.0, {"no_such_option": 1})
    with pytest.raises(ValueError, match="presolve"):
        _tiny(1.0, [1.0], [1.0], 0.0, 1.0, {"presolve": "sometimes"})


@pytest.mark.parametrize("bad", [
    {"cost": np.nan}, {"entries": [np.inf]}, {"rows": [np.nan]},
    {"lower": np.nan}, {"upper": np.nan}],
    ids=["cost", "entry", "row", "lower", "upper"])
def test_linprog_refuses_non_finite_data(bad):
    with pytest.raises(ValueError, match="finite"):
        _tiny(**{"cost": 1.0, "entries": [1.0], "rows": [1.0], "lower": 0.0,
                 "upper": 1.0, **bad})


def test_linprog_rejects_a_solution_that_misses_a_row():
    # x <= 1 and x >= 1.2: a primal tolerance of 0.5 lets HiGHS call a
    # point optimal that misses one row by 0.2, which the post-check
    # refuses (scipy.optimize.linprog returns status 4 for it too)
    result = _tiny(1.0, [1.0, -1.0], [1.0, -1.2], -10.0, 10.0,
                   {"primal_feasibility_tolerance": 0.5})
    assert result.status == 4
    assert result.x is None


@pytest.mark.parametrize("name,target,margin", [
    ("donation", SynthesisTarget(PayoffRelation((0.0, 1.0), -2.0), (0,)),
     1 / 7),
    ("pgg4", SynthesisTarget(pin(3, 1.5, n=4), (0, 1, 2)), 1 / 3)],
    ids=["donation-pin", "pgg4-alliance-pin"])
def test_margin_itself_is_maximized(request, name, target, margin):
    game = public_goods_game(4, 3.0, 2.0) if name == "pgg4" \
        else request.getfixturevalue(name)
    result = synthesize(game, Infinite(), target)
    assert isinstance(result, SynthesisResult)
    assert result.margin >= margin - 1e-7
    report = verify_relation(game, result.strategies, Infinite(),
                             target.relation, samples=100, seed=3)
    assert report.passed
    assert report.max_abs_violation < 1e-12


DATA = Path(__file__).resolve().parent.parent / "data"

# the synthesis targets of the roundtrip benchmark workload:
# (game, controllers, relation, mode)
BENCHMARK_TARGETS = {
    "donation-pin": ("donation3.game", (0,),
                     PayoffRelation((0.0, 1.0), -2.0), "independent"),
    "donation-equalizer": ("donation3.game", (0,),
                           PayoffRelation((1.0, -1.0), 0.0), "independent"),
    "pd-pin-2.5": ("pd.game", (0,), pin(1, 2.5), "independent"),
    "pgg3-outsider-pin": ("pgg3.game", (0, 1), pin(2, 1.0, n=3),
                          "independent"),
    "pgg3-outsider-pin-correlated": ("pgg3.game", (0, 1), pin(2, 1.0, n=3),
                                     "correlated"),
    "pgg4-alliance-pin": ("pgg4", (0, 1, 2), pin(3, 1.5, n=4),
                          "independent"),
    "pgg4-alliance-pin-correlated": ("pgg4", (0, 1, 2), pin(3, 1.5, n=4),
                                     "correlated"),
}


def _benchmark_case(name):
    """(game, target) of a named benchmark target."""
    game_name, controllers, rel, mode = BENCHMARK_TARGETS[name]
    game = public_goods_game(4, 3.0, 2.0) if game_name == "pgg4" \
        else parse_game_file(DATA / game_name).game
    return game, SynthesisTarget(rel, controllers, mode)


@pytest.mark.parametrize("name,schedule,margin", [
    ("donation-pin", Infinite(), 1 / 7),
    ("donation-pin", Delta(0.9), 1 / 7),
    ("pgg4-alliance-pin", Infinite(), 1 / 3),
    ("pgg4-alliance-pin-correlated", Infinite(), 1 / 12),
    ("pd-pin-2.5", Delta(0.9), 9 / 58),
    ("pgg4-alliance-pin", Delta(0.9), 17 / 54)],
    ids=["donation-pin-infinite", "donation-pin-delta0.9",
         "pgg4-independent-infinite", "pgg4-correlated-infinite",
         "pd-pin-delta0.9", "pgg4-independent-delta0.9"])
def test_margin_reaches_the_exact_optimum(name, schedule, margin):
    game, target = _benchmark_case(name)
    result = synthesize(game, schedule, target)
    assert isinstance(result, SynthesisResult)
    assert result.margin == pytest.approx(margin, abs=1e-12)


def test_ascent_needs_few_programs(monkeypatch):
    # the margin-0 program, one slack program per rise of the margin, and
    # the one that finds no room left
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(synthesis, "linprog", counted)
    game, target = _benchmark_case("donation-pin")
    result = synthesize(game, Infinite(), target)
    assert isinstance(result, SynthesisResult)
    assert len(calls) <= 6


@pytest.mark.parametrize("schedule", [Infinite(), Delta(0.9)],
                         ids=["infinite", "delta0.9"])
@pytest.mark.parametrize("name", list(BENCHMARK_TARGETS))
def test_no_block_reaches_past_the_margin(name, schedule):
    # every (lo, hi) block of the margin program admits only z = 0 just
    # above the reported margin, so no controller tables do better
    game, target = _benchmark_case(name)
    result = synthesize(game, schedule, target)
    margin = result.margin if isinstance(result, SynthesisResult) else 0.0
    _, _, sizes, jhat = _controller_setup(
        game, [repeat_strategy(game, p) for p in target.controllers])
    joint_count = int(np.prod(sizes))
    members = sizes if target.mode == "independent" else (joint_count,)
    pairs = np.array(list(itertools.permutations(range(joint_count), 2)))
    x = _margin_program(members, jhat, relation_vector(game, target.relation),
                        classify_schedule(schedule), margin + 1e-7,
                        pairs)
    assert x is not None
    assert np.all(x[:, joint_count] == 0.0)


@pytest.mark.parametrize("schedule", [Infinite(), Delta(0.5), Delta(0.9)])
def test_target_on_the_controllers_own_action(schedule):
    # w depends on the controller's action alone and vanishes on two of
    # them, so a block that does not order its vertex values has an
    # unbounded ray; the ordered blocks keep every program bounded
    game = build_game([("A", "B", "C"), ("X", "Y")],
                      [[0, c] for c in (1, 1, 2) for _ in range(2)])
    target = SynthesisTarget(pin(1, 1.0), (0,))
    result = synthesize(game, schedule, target)
    assert isinstance(result, SynthesisResult)
    assert result.note == "pair-lp"
    report = verify_relation(game, result.strategies, schedule,
                             target.relation, samples=100, seed=4)
    assert report.passed
    assert report.max_abs_violation < 1e-12


# ---------------------------------------------------------------------------
# The maximin row builder against the constructions it replaced


def _closed_form_margin(y, beta):
    """Largest smallest entry of a distribution q with <y, q> = beta: the
    optimum mixes the uniform distribution with the extreme component on
    the side of beta."""
    count = y.size
    ymin, ymax, ybar = y.min(), y.max(), y.mean()
    if beta >= ybar:
        tau = (ymax - beta) / (count * (ymax - ybar))
    else:
        tau = (beta - ymin) / (count * (ybar - ymin))
    return float(np.clip(tau, 0.0, 1.0 / count))


def _scan_margin_2x2(y, beta, points=401):
    """Best min(p1, 1-p1, p2, 1-p2) over a grid on p1 with p2 solved
    exactly, for two two-action members; 0 when no grid point works."""
    tensor = y.reshape(2, 2)
    best = 0.0
    for p1 in np.linspace(0.0, 1.0, points):
        slope = (tensor[0, 0] - tensor[0, 1]) * p1 \
            + (tensor[1, 0] - tensor[1, 1]) * (1.0 - p1)
        offset = tensor[0, 1] * p1 + tensor[1, 1] * (1.0 - p1)
        if abs(slope) < 1e-13:
            if abs(offset - beta) > 1e-10:
                continue
            p2 = 0.5
        else:
            p2 = (beta - offset) / slope
        if not -1e-12 <= p2 <= 1.0 + 1e-12:
            continue
        p2 = float(np.clip(p2, 0.0, 1.0))
        best = max(best, min(p1, 1.0 - p1, p2, 1.0 - p2))
    return best


ROW_SIZES = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 2, 2), (3, 2)]


@given(st.sampled_from(ROW_SIZES).flatmap(lambda sizes: st.tuples(
           st.just(sizes),
           st.lists(st.floats(min_value=-5, max_value=5),
                    min_size=int(np.prod(sizes)),
                    max_size=int(np.prod(sizes))))),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_row_max_margin_properties(case, frac):
    sizes, entries = case
    y = np.array(entries)
    lo, hi = y.min(), y.max()
    beta = min(hi, lo + frac * (hi - lo))
    scale = max(1.0, float(np.abs(y).max()))
    rows = [r[0] for r in _maximin_rows(y, sizes, np.array([beta]))]
    bound = float(_max_margin(y, sizes, np.array([beta]), np.array([beta]))[0])
    product = rows[0]
    for part in rows[1:]:
        product = np.outer(product, part).ravel()
    assert abs(y @ product - beta) <= 1e-12 * scale
    for row in rows:
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(row >= bound)
    # the margin synthesize reports; 1 - p may round one ulp below p's bound
    margin = min(float(np.minimum(r, 1.0 - r).min()) for r in rows)
    assert margin >= bound - 1e-15
    if hi - lo < 1e-6:
        return  # both oracles accept rows off by their absolute tolerances
    # The margin is the float crossing of the range comparison, so one ulp
    # of scale in a vertex value costs ulp * scale / spread in m where the
    # range closes linearly (one member).  The crossing is found from the
    # roots of the vertex polynomials, so where the range closes
    # quadratically, as at the uniform point of a 2x2 saddle, it is not cut
    # short by the square root of that rounding, as a bisection on the
    # comparison was.
    if len(sizes) == 1:
        assert margin == pytest.approx(_closed_form_margin(y, beta),
                                       abs=1e-14 * scale / (hi - lo))
    # a beta within rounding of min(y) or max(y) gets margin 0 by design
    if sizes == (2, 2) and lo + _slack(y) < beta < hi - _slack(y):
        assert margin >= _scan_margin_2x2(y, beta) - 1e-12


def _bisected_margin(y, sizes, lo, hi, steps=60):
    """Sixty plain halvings of [0, 1/max(s_k)] on the range comparison."""
    top = 1.0 / max(sizes)
    below = np.zeros(lo.shape)
    above = np.full(lo.shape, top)
    below[_reaches(y, sizes, above, lo, hi)] = top
    for _ in range(steps):
        mid = 0.5 * (below + above)
        ok = _reaches(y, sizes, mid, lo, hi)
        below = np.where(ok, mid, below)
        above = np.where(ok, above, mid)
    return below


def _margin_draws(rng, shapes, count):
    """(sizes, y, lo, hi) of random vertex ranges, three rows each."""
    for _ in range(count):
        sizes = shapes[rng.integers(len(shapes))]
        y = rng.uniform(-5.0, 5.0, int(np.prod(sizes)))
        if rng.random() < 0.3:
            y = np.round(y)  # ties between vertex values
        ends = y.min() + rng.random((2, 3)) * (y.max() - y.min())
        lo, hi = ends.min(axis=0), ends.max(axis=0)
        if rng.random() < 0.5:
            hi = lo.copy()
        yield sizes, y, lo, hi


def test_closed_form_margin_is_the_float_crossing():
    # the 500 draws the bisection was pinned on, then alliances of degree
    # 2 and 4
    rng = np.random.default_rng(12)
    draws = itertools.chain(_margin_draws(rng, ROW_SIZES, 500),
                            _margin_draws(rng, [(3, 3), (2, 3)], 200),
                            _margin_draws(rng, [(2, 2, 2, 2)], 100))
    for sizes, y, lo, hi in draws:
        got = _max_margin(y, sizes, lo, hi)
        top = 1.0 / max(sizes)
        rounding = (lo <= y.min() + _slack(y)) | (hi >= y.max() - _slack(y))
        assert np.all(got[rounding] == 0.0)
        # never past the float crossing
        assert np.all(_reaches(y, sizes, got, lo, hi))
        # no margin below the bisection's
        want = _bisected_margin(y, sizes, lo, hi)
        want[rounding] = 0.0
        assert np.all(got >= want - top * 2.0 ** -50)
        # and the comparison fails one step above
        above = _reaches(y, sizes, got + np.finfo(float).eps * top, lo, hi)
        assert not np.any(above & (got < top) & ~rounding)


def test_max_margin_tests_the_comparison_a_fixed_number_of_times(
        monkeypatch):
    calls = {"_reaches": 0, "_vertex_values": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(synthesis, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(synthesis, name, counted)
    rng = np.random.default_rng(3)
    y = rng.uniform(-5.0, 5.0, 8)
    betas = y.min() + rng.random(17) * (y.max() - y.min())
    margins = _max_margin(y, (2, 2, 2), betas, betas)
    assert np.all(margins > 0.0)
    assert calls["_reaches"] <= 3
    assert calls["_vertex_values"] <= 3


@pytest.mark.parametrize("shape,zero_column", [
    ((6, 5, 4), None), ((6, 5, 4), 2), ((1, 3, 4), None), ((1, 3, 4), 0)],
    ids=["blocks", "zero-column", "single-block", "single-zero-column"])
def test_block_diagonal_matches_scipy(shape, zero_column):
    rng = np.random.default_rng(7)
    blocks = rng.integers(-2, 3, shape) * rng.random(shape)  # some zeros
    if zero_column is not None:
        blocks[:, :, zero_column] = 0.0
    want = sparse.block_diag(list(blocks))
    indptr, indices, data = _block_diagonal(blocks)
    assert indptr.size == want.shape[1] + 1
    built = sparse.csc_array((data, indices, indptr), shape=want.shape)
    assert np.array_equal(built.toarray(), want.toarray())
    assert np.all(data != 0.0)


# ---------------------------------------------------------------------------
# Alliances of any size get interior rows


def test_three_member_independent_pin_has_interior_rows():
    game = public_goods_game(4, 3.0, 2.0)
    rel = pin(3, 1.5, n=4)
    target = SynthesisTarget(rel, controllers=(0, 1, 2))
    for schedule, floor in ((Infinite(), 0.2), (Delta(0.9), 0.3)):
        result = synthesize(game, schedule, target)
        assert isinstance(result, SynthesisResult)
        assert result.margin > floor
        assert len(result.strategies) == 3
        report = verify_relation(game, result.strategies, schedule, rel,
                                 samples=100, seed=10)
        assert report.passed
        assert report.max_abs_violation < 1e-8


# ---------------------------------------------------------------------------
# Exactness guard: the built tables hold the defining identity to rounding.
# The 1e-8 residual gate inside synthesize would let a clipping row builder
# through; this bound would not.


def _identity_gap(game, schedule, result):
    """max |sum_j y_j u~_j - w| computed from the returned tables."""
    if result.strategies is not None:
        basis = ruling_basis(game, result.strategies, schedule)
        return float(np.max(np.abs(result.y @ basis.vectors - result.w)))
    players = list(result.target.controllers)
    sizes = tuple(game.action_counts[p] for p in players)
    jhat = np.ravel_multi_index(tuple(game.profile_actions[:, players].T),
                                sizes)
    rep = np.eye(int(np.prod(sizes)))[jhat]
    delta = result.delta
    family = delta * result.joint_conditionals \
        + (1.0 - delta) * result.joint_initial[None, :] - rep
    return float(np.max(np.abs(family @ np.append(result.y, 0.0)
                               - result.w)))


FEASIBLE_TARGETS = (
    [("pd", Infinite(), pin(1, g), (0,), "independent")
     for g in FEASIBLE_PINS]
    + [("pd", Delta(0.9), pin(1, 2.0), (0,), "independent"),
       ("donation", Infinite(), PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0),
        (0,), "independent"),
       ("donation", Infinite(), PayoffRelation(alpha=(1.0, -1.0), gamma=0.0),
        (0,), "independent"),
       ("pgg", Infinite(), pin(2, 1.0, n=3), (0, 1), "independent"),
       ("pgg", Infinite(), pin(0, 1.0, n=3), (0, 1), "independent"),
       ("pgg", Infinite(), pin(2, 1.0, n=3), (0, 1), "correlated"),
       ("pgg4", Infinite(), pin(3, 1.5, n=4), (0, 1, 2), "independent"),
       ("pgg4", Delta(0.9), pin(3, 1.5, n=4), (0, 1, 2), "independent"),
       ("one-shot", Delta(0.0), pin(1, 0.5), (0,), "independent")])


def _target_id(case):
    name, schedule, rel, controllers, mode = case
    delta = getattr(schedule, "delta", None)
    return (f"{name}-{'infinite' if delta is None else f'delta{delta:g}'}"
            f"-alpha{','.join(f'{a:g}' for a in rel.alpha)}"
            f"-gamma{rel.gamma:g}-{mode}")


@pytest.mark.parametrize("name,schedule,rel,controllers,mode",
                         FEASIBLE_TARGETS,
                         ids=[_target_id(c) for c in FEASIBLE_TARGETS])
def test_built_tables_hold_the_ruling_identity(request, name, schedule, rel,
                                               controllers, mode):
    if name == "pgg4":
        game = public_goods_game(4, 3.0, 2.0)
    elif name == "one-shot":
        game = build_game([("A", "B"), ("A", "B")],
                          [[0, 1], [0, 1], [0, 0], [0, 0]])
    else:
        game = request.getfixturevalue(name)
    result = synthesize(game, schedule,
                        SynthesisTarget(rel, controllers, mode))
    assert isinstance(result, SynthesisResult)
    scale = max(1.0, float(np.max(np.abs(result.w))))
    assert _identity_gap(game, schedule, result) <= 1e-12 * scale
