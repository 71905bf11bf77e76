import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from payoffcontrol import (
    Delta,
    FiniteHorizon,
    Infinite,
    InvalidParamsError,
    Infeasible,
    PayoffRelation,
    SynthesisResult,
    SynthesisTarget,
    TrivialTargetError,
    UnsupportedScheduleError,
    build_game,
    detect_relations,
    public_goods_game,
    relation_vector,
    ruling_basis,
    synthesize,
    verify_relation,
)
from payoffcontrol.synthesis import (
    _family_residual,
    _max_margin,
    _maximin_rows,
)


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
    # maximin row is the corner (1, 0); rounding in the margin bisection
    # must not leak into the 0
    target = SynthesisTarget(pin(1, 2.5), controllers=(0,))
    result = synthesize(pd, Delta(0.5), target)
    strategy = result.strategies[0]
    assert strategy.conditionals[0].tolist() == [1.0, 0.0]
    residual = _family_residual(result.form, strategy.conditionals,
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


def test_one_shot_pd_pin_infeasible(pd):
    # with no continuation the conditionals never act; the pin would need
    # the opponent payoff constant across their own actions, which it is not
    target = SynthesisTarget(pin(1, 2.0), controllers=(0,))
    result = synthesize(pd, Delta(0.0), target)
    assert isinstance(result, Infeasible)
    assert result.conclusive
    assert result.certificate == "exact-lp-empty"


def test_one_shot_pin_through_initial_action():
    # player 1's payoff depends only on player 0's move, so a mixed first
    # action alone pins it even though the game never continues
    game = build_game([("A", "B"), ("A", "B")],
                      [[0, 1], [0, 1], [0, 0], [0, 0]])
    target = SynthesisTarget(pin(1, 0.5), controllers=(0,))
    result = synthesize(game, Delta(0.0), target)
    assert isinstance(result, SynthesisResult)
    assert result.margin == pytest.approx(0.5, abs=1e-9)
    assert_allclose(result.strategies[0].initial.probs, [0.5, 0.5],
                    atol=1e-9)
    report = verify_relation(game, result.strategies, Delta(0.0),
                             target.relation, samples=50, seed=9)
    assert report.passed


def test_target_validation():
    rel = PayoffRelation(alpha=(0.0, 1.0), gamma=-2.0)
    with pytest.raises(InvalidParamsError):
        SynthesisTarget(rel, controllers=())
    with pytest.raises(InvalidParamsError):
        SynthesisTarget(rel, controllers=(0,), mode="joint")
    assert SynthesisTarget(rel, controllers=(1, 0)).controllers == (0, 1)


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
    # The bisection compares in floating point without slack, so it stops
    # where rounding of the vertex values hides the optimum: one ulp of
    # scale in the value costs ulp * scale / spread in m when the range
    # closes linearly (one member), and about its square root when it
    # closes quadratically, as at the uniform point of a 2x2 saddle.
    if len(sizes) == 1:
        assert margin == pytest.approx(_closed_form_margin(y, beta),
                                       abs=1e-14 * scale / (hi - lo))
    if sizes == (2, 2):
        assert margin >= _scan_margin_2x2(y, beta) - 1e-6


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
    delta = getattr(result.form, "delta", 1.0)
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
