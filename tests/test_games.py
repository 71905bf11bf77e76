import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from payoffcontrol import (
    DimensionMismatchError,
    DuplicateActionLabelError,
    GameSpec,
    IndexOutOfRangeError,
    InvalidParamsError,
    MarkovStrategy,
    MixedAction,
    NonFiniteEntryError,
    PlayerOutOfRangeError,
    ProfileDistribution,
    UnknownActionError,
    UnknownKindError,
    build_game,
    builtin_game,
    donation_game,
    expected_payoff,
    prisoners_dilemma,
    profile_from_index,
    profile_index,
    public_goods_game,
)
from payoffcontrol.games import check_rows


def test_pd_payoff_table():
    game = prisoners_dilemma(3.0, 0.0, 5.0, 1.0)
    assert game.action_labels == (("C", "D"), ("C", "D"))
    assert_allclose(game.payoffs, [[3, 3], [0, 5], [5, 0], [1, 1]])


def test_donation_payoff_table(donation):
    # donate 2 for the opponent to get 5, donate 1 to give 3, or keep
    assert donation.action_labels == (("C1", "C2", "D"),) * 2
    assert_allclose(donation.payoffs[:, 0], [3, 1, -2, 4, 2, -1, 5, 3, 0])
    assert_allclose(donation.payoffs[:, 1], [3, 4, 5, 1, 2, 3, -2, -1, 0])


def test_public_goods_payoff_table(pgg):
    # cost 3 into a pot multiplied by 2, split evenly among 3 players
    assert pgg.player_count == 3
    assert_allclose(pgg.payoffs[:, 0], [3, 1, 1, -1, 4, 2, 2, 0])
    assert_allclose(pgg.payoffs[:, 1], [3, 1, 4, 2, 1, -1, 2, 0])
    assert_allclose(pgg.payoffs[:, 2], [3, 4, 1, 2, 1, 2, -1, 0])


def test_profile_ordering_is_lexicographic(pgg):
    # player 1 most significant: CCC, CCD, CDC, CDD, DCC, ...
    assert pgg.profile_actions[0].tolist() == [0, 0, 0]
    assert pgg.profile_actions[1].tolist() == [0, 0, 1]
    assert pgg.profile_actions[2].tolist() == [0, 1, 0]
    assert pgg.profile_actions[4].tolist() == [1, 0, 0]


@pytest.mark.parametrize("game_fixture", ["donation", "pgg", "pd"])
def test_profile_index_round_trip(game_fixture, request):
    game = request.getfixturevalue(game_fixture)
    for idx in range(game.profile_count):
        actions = profile_from_index(game, idx)
        assert profile_index(game, actions) == idx


def test_profile_index_errors(pd):
    with pytest.raises(DimensionMismatchError):
        profile_index(pd, (0,))
    with pytest.raises(IndexOutOfRangeError):
        profile_from_index(pd, 4)
    with pytest.raises(IndexOutOfRangeError):
        profile_from_index(pd, -1)


def test_build_game_validation():
    with pytest.raises(DimensionMismatchError):
        build_game([("C", "D")], [[1], [2]])  # one player
    with pytest.raises(DimensionMismatchError):
        build_game([("C",), ("C", "D")], [[1, 1], [2, 2]])  # one action
    with pytest.raises(DuplicateActionLabelError):
        build_game([("C", "C"), ("C", "D")], np.ones((4, 2)))
    with pytest.raises(DimensionMismatchError):
        build_game([("C", "D"), ("C", "D")], np.ones((3, 2)))
    with pytest.raises(NonFiniteEntryError):
        build_game([("C", "D"), ("C", "D")],
                   [[1, 1], [2, 2], [np.nan, 0], [0, 0]])


def test_action_index_and_player_check(donation):
    assert donation.action_index(0, "C2") == 1
    with pytest.raises(UnknownActionError):
        donation.action_index(0, "X")
    with pytest.raises(PlayerOutOfRangeError):
        donation.check_player(2)
    with pytest.raises(PlayerOutOfRangeError):
        donation.action_index(-1, "C1")


def test_mixed_action_validation():
    with pytest.raises(InvalidParamsError):
        MixedAction(np.array([0.5, 0.6]))
    with pytest.raises(InvalidParamsError):
        MixedAction(np.array([1.2, -0.2]))
    a = MixedAction.point(3, 1)
    assert_allclose(a.probs, [0, 1, 0])
    assert MixedAction.uniform(4) == MixedAction(np.full(4, 0.25))
    assert len(a) == 3


def test_profile_distribution_point_mass(pd):
    dist = ProfileDistribution.point_mass(4, 2)
    assert_allclose(dist.probs, [0, 0, 1, 0])
    # expected payoff against a point mass is the payoff entry itself
    assert expected_payoff(pd, 0, dist) == 5.0
    assert expected_payoff(pd, 1, dist) == 0.0


def test_expected_payoff_is_linear(donation):
    rng = np.random.default_rng(3)
    raw = rng.dirichlet(np.ones(9))
    dist = ProfileDistribution(raw)
    for i in range(2):
        assert_allclose(expected_payoff(donation, i, dist),
                        float(donation.payoffs[:, i] @ dist.probs))


def test_builtin_game_dispatch():
    pd = builtin_game("prisoners_dilemma", reward=3, sucker=0, temptation=5,
                      punishment=1)
    assert isinstance(pd, GameSpec)
    don = builtin_game("donation", costs=[2, 1, 0], benefits=[5, 3, 0])
    assert don == donation_game(costs=[2, 1, 0], benefits=[5, 3, 0])
    pg = builtin_game("public_goods", players=3, cost=3, multiplier=2)
    assert pg == public_goods_game(players=3, cost=3.0, multiplier=2.0)
    with pytest.raises(UnknownKindError):
        builtin_game("poker")
    with pytest.raises(InvalidParamsError):
        builtin_game("donation", costs=[1, 2])  # missing benefits


def test_donation_requires_matching_lists():
    with pytest.raises(InvalidParamsError):
        donation_game(costs=[1, 0], benefits=[3, 2, 0])


@given(st.integers(min_value=0, max_value=8))
def test_profile_round_trip_hypothesis(idx):
    game = donation_game(costs=[2.0, 1.0, 0.0], benefits=[5.0, 3.0, 0.0])
    assert profile_index(game, profile_from_index(game, idx)) == idx


def test_game_equality_and_vector(pd):
    other = prisoners_dilemma(3.0, 0.0, 5.0, 1.0)
    assert pd == other
    assert pd != prisoners_dilemma(3.0, 0.0, 5.0, 2.0)
    assert_allclose(pd.payoff_vector(1), [3, 5, 0, 1])


def test_check_rows_names_the_first_bad_row():
    table = np.full((2, 3, 2), 0.5)
    assert check_rows(table, 1e-12, "conditional") is table
    bad = table.copy()
    bad[1, 2] = [0.5, 0.4]
    with pytest.raises(InvalidParamsError,
                       match=r"^conditional row 5 sums to 0\.9, expected 1$"):
        check_rows(bad, 1e-12, "conditional")
    bad = table.copy()
    bad[0, 1] = [np.inf, -np.inf]
    bad[1, 0, 0] = np.nan
    with pytest.raises(NonFiniteEntryError,
                       match="^conditional row 1 has a non-finite entry$"):
        check_rows(bad, 1e-12, "conditional")
    bad = table.copy()
    bad[1, 0] = [1.5, -0.5]
    with pytest.raises(InvalidParamsError, match=r"^conditional row 3 has "
                       r"an entry outside \[0, 1\]$"):
        check_rows(bad, 1e-12, "conditional")


def test_check_rows_clips_within_clamp_tolerance():
    near = np.array([[1.0 + 5e-13, -5e-13], [0.25, 0.75]])
    clipped = check_rows(near, 1e-12, "conditional")
    assert_allclose(clipped, [[1.0, 0.0], [0.25, 0.75]], rtol=0, atol=0)
    assert near[0, 0] > 1.0  # the input is left as it was


def test_probability_messages():
    with pytest.raises(InvalidParamsError,
                       match=r"^mixed action sums to 0\.9, expected 1$"):
        MixedAction(np.array([0.5, 0.4]))
    with pytest.raises(NonFiniteEntryError, match="^profile distribution has"):
        ProfileDistribution(np.array([np.nan, 1.0]))
    with pytest.raises(DimensionMismatchError):
        MixedAction(np.array([[0.5, 0.5]]))
    table = np.array([[1.0, 0.0], [0.5, 0.4], [0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidParamsError,
                       match=r"^conditional row 1 sums to 0\.9, expected 1$"):
        MarkovStrategy(0, MixedAction.uniform(2), table)
