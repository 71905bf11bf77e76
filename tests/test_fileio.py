from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from payoffcontrol import (
    Custom,
    Delta,
    FiniteHorizon,
    Infinite,
    MarkovStrategy,
    MixedAction,
    build_game,
    sample_markov_strategy,
)
from payoffcontrol.errors import ParseError, ValidationError
from payoffcontrol.fileio import (
    parse_game_file,
    parse_schedule_file,
    parse_strategy_file,
    schedule_line,
    write_csv,
    write_game_file,
    write_strategy_file,
)

DATA = Path(__file__).resolve().parent.parent / "data"


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("name", ["donation3.game", "pgg3.game", "pd.game"])
def test_shipped_games_roundtrip(tmp_path, name):
    doc = parse_game_file(DATA / name)
    out = tmp_path / name
    write_game_file(out, doc.game, doc.strategies, doc.schedule)
    again = parse_game_file(out)
    assert again.game == doc.game
    assert again.strategies == doc.strategies
    assert again.schedule == doc.schedule


@pytest.mark.parametrize("name", [
    "donation-pin.strategy", "donation-equalizer.strategy",
    "alliance-pin-u1.strategy", "alliance-pin-u3.strategy"])
def test_shipped_strategies_parse(name):
    game_name = "donation3.game" if name.startswith("donation") else "pgg3.game"
    game = parse_game_file(DATA / game_name).game
    doc = parse_strategy_file(DATA / name, game)
    assert doc.strategies


@pytest.mark.parametrize("schedule", [
    Infinite(), Delta(1 / 3), FiniteHorizon(7),
    Custom((1 / 3, 0.9), tail=1 / 7)])
def test_random_document_roundtrip(tmp_path, schedule):
    # thirds and sevenths have no finite binary expansion, so this only
    # passes if the writer emits full-precision floats
    rng = np.random.default_rng(11)
    game = build_game([("a", "b", "c"), ("x", "y")],
                      rng.normal(size=(6, 2)) + 1 / 3)
    strategies = tuple(sample_markov_strategy(rng, game, p) for p in (0, 1))
    out = tmp_path / "doc.game"
    write_game_file(out, game, strategies, schedule)
    doc = parse_game_file(out)
    assert doc.game == game
    assert doc.strategies == strategies
    assert doc.schedule == schedule


def test_strategy_file_roundtrip_with_header(tmp_path, donation,
                                             pin_strategy):
    out = tmp_path / "pin.strategy"
    write_strategy_file(out, donation, [pin_strategy], Delta(0.5),
                        header=("holds the column fixed", "second line"))
    text = out.read_text()
    assert text.startswith("# holds the column fixed\n# second line\n")
    doc = parse_strategy_file(out, donation)
    assert doc.strategies == (pin_strategy,)
    assert doc.schedule == Delta(0.5)


def test_schedule_file_roundtrip(tmp_path):
    for schedule in (Infinite(), Delta(0.25), FiniteHorizon(3),
                     Custom((0.5, 0.5), tail=0.125)):
        out = tmp_path / "sched.txt"
        out.write_text(schedule_line(schedule) + "\n")
        assert parse_schedule_file(out) == schedule


# ---------------------------------------------------------------------------
# parse errors carry the file location


def write_lines(tmp_path, *lines):
    out = tmp_path / "bad.game"
    out.write_text("\n".join(lines) + "\n")
    return out


def test_error_reports_path_and_line(tmp_path):
    out = write_lines(tmp_path, "players 2",
                      "actions 1 C D", "actions 2 C D",
                      "payoffs", "1 1", "2 oops", "3 3", "4 4")
    with pytest.raises(ParseError) as err:
        parse_game_file(out)
    assert "bad.game:6" in str(err.value)


def test_missing_players_directive(tmp_path):
    out = write_lines(tmp_path, "actions 1 C D")
    with pytest.raises(ParseError, match="players"):
        parse_game_file(out)


def test_fractional_player_count(tmp_path):
    out = write_lines(tmp_path, "players 2.5")
    with pytest.raises(ParseError):
        parse_game_file(out)


def test_wrong_payoff_row_width(tmp_path):
    out = write_lines(tmp_path, "players 2",
                      "actions 1 C D", "actions 2 C D",
                      "payoffs", "1 1", "2 2 2", "3 3", "4 4")
    with pytest.raises(ParseError) as err:
        parse_game_file(out)
    assert ":6" in str(err.value)


def test_unknown_directive(tmp_path):
    out = write_lines(tmp_path, "players 2", "actions 1 C D",
                      "actions 2 C D", "payoffs", "1 1", "2 2", "3 3", "4 4",
                      "discount 0.9")
    with pytest.raises(ParseError, match="discount"):
        parse_game_file(out)


def test_unknown_schedule_kind(tmp_path):
    out = tmp_path / "sched.txt"
    out.write_text("schedule geometric 0.9\n")
    with pytest.raises(ParseError, match="geometric"):
        parse_schedule_file(out)


def test_duplicate_schedule_rejected(tmp_path):
    out = tmp_path / "sched.txt"
    out.write_text("schedule infinite\nschedule delta 0.9\n")
    with pytest.raises(ParseError, match="schedule"):
        parse_schedule_file(out)


def test_duplicate_actions_rejected(tmp_path):
    out = write_lines(tmp_path, "players 2", "actions 1 C D",
                      "actions 1 C D", "actions 2 C D",
                      "payoffs", "1 1", "2 2", "3 3", "4 4")
    with pytest.raises(ParseError):
        parse_game_file(out)


def test_bad_schedule_parameter_has_line(tmp_path):
    out = tmp_path / "sched.txt"
    out.write_text("# comment\nschedule delta 1.5\n")
    with pytest.raises(ValidationError) as err:
        parse_schedule_file(out)
    assert ":2" in str(err.value)


def test_conditional_row_sum_checked(tmp_path, pd):
    out = tmp_path / "bad.strategy"
    out.write_text("strategy.1\n"
                   "initial 0.5 0.5\n"
                   "0.5 0.5\n"
                   "0.4 0.5\n"   # sums to 0.9
                   "0.5 0.5\n"
                   "0.5 0.5\n")
    with pytest.raises(ValidationError) as err:
        parse_strategy_file(out, pd)
    assert ":4" in str(err.value)


@pytest.mark.parametrize("lines, line", [
    (["initial 0.5 0.6", "0.5 0.5", "0.5 0.5", "0.5 0.5", "0.5 0.5"], 2),
    (["initial 0.5 0.5", "0.5 0.5", "0.5 0.5", "1.5 -0.5", "0.5 0.5"], 5),
    (["initial 0.5 0.5", "0.5 0.5", "0.5 0.5", "0.5 0.5", "nan 0.5"], 6)])
def test_strategy_block_errors_name_their_line(tmp_path, pd, lines, line):
    out = tmp_path / "bad.strategy"
    out.write_text("\n".join(["strategy.1"] + lines) + "\n")
    with pytest.raises(ValidationError) as err:
        parse_strategy_file(out, pd)
    assert f":{line}:" in str(err.value)


def test_strategy_block_in_schedule_file_rejected(tmp_path):
    out = tmp_path / "sched.txt"
    out.write_text("schedule infinite\nstrategy.1\ninitial 0.5 0.5\n")
    with pytest.raises(ParseError, match="strategy"):
        parse_schedule_file(out)


def test_schedule_file_requires_schedule_line(tmp_path):
    out = tmp_path / "sched.txt"
    out.write_text("# nothing here\n")
    with pytest.raises(ParseError):
        parse_schedule_file(out)


def test_comments_and_blank_lines_ignored(tmp_path, pd):
    out = tmp_path / "ok.strategy"
    out.write_text("# leading comment\n\n"
                   "strategy.1   # trailing comment\n"
                   "initial 1 0\n\n"
                   "1 0\n0 1\n1 0\n0 1\n"
                   "\n# done\n")
    doc = parse_strategy_file(out, pd)
    assert doc.strategies[0].player == 0
    assert_allclose(doc.strategies[0].initial.probs, [1.0, 0.0])


def test_writer_refuses_unsafe_labels(tmp_path):
    game = build_game([("a b", "c"), ("x", "y")],
                      [[0, 0], [0, 0], [0, 0], [0, 0]])
    with pytest.raises(ValidationError):
        write_game_file(tmp_path / "bad.game", game)


# ---------------------------------------------------------------------------
# csv


def test_csv_format(tmp_path):
    out = tmp_path / "table.csv"
    write_csv(out, ["sample", "value"], [[1, 1 / 3], [2, 0.25]])
    raw = out.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "sample,value"
    assert lines[1] == "1,0.333333333333"
    assert lines[2] == "2,0.25"


def row_by_row_csv(path, header, rows):
    """The cell-by-cell CSV format that array tables must reproduce."""
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(f"{float(cell):.12g}" for cell in row))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def test_csv_array_matches_row_by_row(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(60, 3)) * 10.0 ** rng.integers(-30, 30, (60, 3))
    special = [[-0.0, 0.0, 1 / 3], [1e16, 123456789012345.0, 2.5e-300],
               [np.inf, -np.inf, np.nan], [0.1 + 0.2, -1.0, 5e-324]]
    table = np.column_stack([np.arange(64), np.vstack([values, special])])
    header = ["sample", "a", "b", "c"]
    for rows in (table, table[:0]):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_csv(fast, header, rows)
        row_by_row_csv(slow, header, rows.tolist())
        assert fast.read_bytes() == slow.read_bytes()
