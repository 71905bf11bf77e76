from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from payoffcontrol import dynamics, fileio, games
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
    _numeric_section,
    _Reader,
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
                     FiniteHorizon(np.int64(3)),
                     Custom((0.5, 0.5), tail=0.125),
                     Delta(-0.0), Custom((-0.0, 0.5), tail=-0.0)):
        out = tmp_path / "sched.txt"
        out.write_text(schedule_line(schedule) + "\n")
        assert parse_schedule_file(out) == schedule
    assert schedule_line(FiniteHorizon(np.int64(3))) == "schedule horizon 3"
    # -0 is stored as +0, so the written line is the canonical one
    assert schedule_line(Delta(-0.0)) == "schedule delta 0"
    assert schedule_line(Custom((-0.0, 0.5), tail=-0.0)) \
        == "schedule custom 0 0.5 tail 0"


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


def test_schedule_line_names_a_schedule_it_cannot_write():
    class Halving(dynamics.ContinuationSchedule):
        def continuation(self, t):
            return 0.5

    with pytest.raises(ValidationError,
                       match="^cannot serialize schedule .*Halving"):
        schedule_line(Halving())


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


@pytest.mark.parametrize("initial", ["0.5 nan", "1.5 -0.5", "0.5 0.6"])
def test_bad_initial_row_names_its_line(tmp_path, pd, initial):
    out = tmp_path / "bad.strategy"
    out.write_text("# header\nstrategy.1\n"
                   f"initial {initial}\n1 0\n1 0\n1 0\n1 0\n")
    with pytest.raises(ValidationError) as err:
        parse_strategy_file(out, pd)
    assert err.value.line == 3
    assert str(err.value).startswith(f"{out}:3: mixed action ")


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("row, message", [
    ("inf 0", "has a non-finite entry"),
    ("1.5 -0.5", "has an entry outside [0, 1]"),
    ("0.4 0.5", "sums to 0.9, expected 1")])
def test_bad_conditional_row_names_its_line(tmp_path, pd, k, row, message):
    rows = ["0.5 0.5"] * 4
    rows[k] = row
    out = tmp_path / "bad.strategy"
    out.write_text("\n".join(["strategy.2", "initial 1 0", *rows]) + "\n")
    with pytest.raises(ValidationError) as err:
        parse_strategy_file(out, pd)
    assert err.value.line == 3 + k
    assert str(err.value) == f"{out}:{3 + k}: conditional row {k} {message}"


@pytest.mark.parametrize("entry", ["inf", "nan", "-inf"])
def test_non_finite_payoff_names_its_line(tmp_path, entry):
    # the first non-finite row fails at its own line, as every other
    # parse error does
    out = tmp_path / "inf.game"
    out.write_text("players 2\nactions 1 C D\nactions 2 C D\npayoffs\n"
                   f"3 3\n0 {entry}\n5 0\n{entry} 1\n")
    with pytest.raises(ValidationError) as err:
        parse_game_file(out)
    assert err.value.line == 6
    assert str(err.value) == f"{out}:6: payoff row 1 has a non-finite entry"


@pytest.mark.parametrize("rows, line, message", [
    (["0.5 0.5", "0.5 x", "0.5 0.5", "0.5 0.5"], 4,
     "expected numbers, got '0.5 x'"),
    (["0.5 0.5", "x 0.5", "0.5 0.5", "0.5 0.5"], 4,
     "expected a conditional row, got 'x'"),
    (["0.5 0.5", "0.5", "0.5 0.5", "0.5 0.5"], 4,
     "expected 2 values for conditional, got 1"),
    (["0.5 0.5", "0.5 0.5 0.1", "0.5 0.5", "0.5 0.5"], 4,
     "expected 2 values for conditional, got 3"),
    (["0.5 0.5", "0.5 0.5"], None,
     "unexpected end of file while reading conditional rows")])
def test_malformed_conditional_block_keeps_its_parse_error(tmp_path, pd, rows,
                                                           line, message):
    out = tmp_path / "bad.strategy"
    out.write_text("\n".join(["strategy.1", "initial 0.5 0.5", *rows]) + "\n")
    with pytest.raises(ParseError) as err:
        parse_strategy_file(out, pd)
    assert not isinstance(err.value, ValidationError)
    assert err.value.line == line
    where = f"{out}:" if line is None else f"{out}:{line}:"
    assert str(err.value) == f"{where} {message}"


@pytest.mark.parametrize("lines, line", [
    (["players 1e400"], 1),
    (["players nan"], 1),
    (["players 2", "schedule horizon 1e400"], 2),
    (["players 2", "schedule horizon nan"], 2)])
def test_integer_fields_reject_inf_and_nan_at_their_line(tmp_path, lines,
                                                         line):
    out = write_lines(tmp_path, *lines)
    with pytest.raises(ParseError) as err:
        parse_game_file(out)
    assert err.value.line == line
    assert "must be" in str(err.value)


ODD_TOKENS = ["1_0", "+.5", "1e-320", "infinity", "-Infinity", "nan", "-0",
              "\u0661\u0662", "1E5", "-.0e0"]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_section_reader_matches_float_per_token(tmp_path_factory, count,
                                                width, data):
    token = st.one_of(st.floats().map(lambda x: f"{x:.17g}"),
                      st.sampled_from(ODD_TOKENS))
    rows = [data.draw(st.lists(token, min_size=width, max_size=width))
            for _ in range(count)]
    path = tmp_path_factory.mktemp("section") / "rows.txt"
    path.write_text("\n".join(["# rows", *(" ".join(r) for r in rows),
                               "tail"]) + "\n", encoding="utf-8")
    reader = _Reader(path.read_bytes(), path)
    linenos, values = _numeric_section(reader, count, width, "payoff")
    expected = np.array([[float(t) for t in row] for row in rows])
    assert values.shape == (count, width)
    assert values.tobytes() == expected.tobytes()  # bit for bit, NaN too
    assert linenos == list(range(2, 2 + count))
    assert reader.peek()[1] == ["tail"]


def test_each_probability_table_is_checked_once(tmp_path, monkeypatch):
    real = games.check_rows
    tables = []

    def spy(table, *args):
        tables.append(table.shape)
        return real(table, *args)

    for module in (games, dynamics, fileio):
        if getattr(module, "check_rows", None) is real:
            monkeypatch.setattr(module, "check_rows", spy)
    opened = []

    def spy_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(fileio, "open", spy_open, raising=False)
    monkeypatch.setattr(fileio, "_memo", OrderedDict())
    rng = np.random.default_rng(3)
    game = build_game([("a", "b", "c"), ("x", "y"), ("p", "q")],
                      rng.normal(size=(12, 3)))
    strategies = [sample_markov_strategy(rng, game, p) for p in (0, 1, 2)]
    for k in range(4):
        out = tmp_path / f"doc{k}.game"
        write_game_file(out, game, strategies[:k])
        tables.clear()
        opened.clear()
        doc = parse_game_file(out)
        assert len(doc.strategies) == k
        assert len(tables) == 2 * k
        # the same bytes again: read, but neither parsed nor checked
        tables.clear()
        assert parse_game_file(out) is doc
        assert tables == []
        assert opened == [out, out]


# ---------------------------------------------------------------------------
# parsed documents are memoized by the bytes they came from


def parse_any(path):
    """The document of a game file, a strategy file for donation3.game or
    a schedule file, told apart by suffix."""
    if path.suffix == ".game":
        return parse_game_file(path)
    if path.suffix == ".strategy":
        return parse_strategy_file(
            path, parse_game_file(DATA / "donation3.game").game)
    return parse_schedule_file(path)


@pytest.mark.parametrize("name", ["pd.game", "donation-pin.strategy",
                                  "sched.txt"])
def test_byte_order_mark_is_accepted(tmp_path, name):
    plain = DATA / name
    if name == "sched.txt":  # no schedule file ships
        plain = tmp_path / name
        plain.write_text("schedule custom 0.5 tail 0.25\n")
    bom = tmp_path / f"bom-{name}"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert parse_any(bom) == parse_any(plain)


@pytest.mark.parametrize("name", ["pd.game", "donation-pin.strategy",
                                  "sched.txt"])
@pytest.mark.parametrize("line", [1, 3])
def test_byte_that_is_not_utf8_names_file_and_line(tmp_path, name, line):
    plain = DATA / name
    if name == "sched.txt":  # no schedule file ships; old Mac line ends
        plain = tmp_path / name
        plain.write_bytes(b"# a schedule\r\rschedule custom 0.5 tail 0.25\r")
    lines = plain.read_bytes().splitlines(keepends=True)
    lines.insert(line - 1, b"# \xff\n")
    broken = tmp_path / f"broken-{name}"
    # a byte-order mark shifts no line
    broken.write_bytes(b"\xef\xbb\xbf" + b"".join(lines))
    with pytest.raises(ParseError) as info:
        parse_any(broken)
    assert (info.value.path, info.value.line) == (str(broken), line)
    assert str(info.value) == (f"{broken}:{line}: byte 0xff is not UTF-8 "
                               "(invalid start byte)")
    # a failed parse is not memoized: the mended file parses
    broken.write_bytes(plain.read_bytes())
    assert parse_any(broken) == parse_any(plain)


def test_rewritten_file_is_read_fresh(tmp_path):
    # same path, same length, no pause: neither path nor mtime may be a key
    out = tmp_path / "sched.txt"
    out.write_text("schedule delta 0.25\n")
    assert parse_schedule_file(out) == Delta(0.25)
    out.write_text("schedule delta 0.75\n")
    assert parse_schedule_file(out) == Delta(0.75)


def test_failed_parse_is_not_remembered(tmp_path):
    lines = ["players 2", "actions 1 C D", "actions 2 C D",
             "payoffs", "1 1", "2 oops", "3 3", "4 4"]
    out = write_lines(tmp_path, *lines)
    copy = tmp_path / "copy.game"
    copy.write_bytes(out.read_bytes())
    for path in (out, out, copy):
        with pytest.raises(ParseError) as err:
            parse_game_file(path)
        assert str(err.value).startswith(f"{path}:6: ")
    lines[5] = "2 2"
    out = write_lines(tmp_path, *lines)
    assert parse_game_file(out).game.payoffs[1].tolist() == [2.0, 2.0]


def test_strategy_file_is_checked_against_each_game(tmp_path, pd):
    out = tmp_path / "tft.strategy"
    out.write_text("strategy.1\ninitial 1 0\n1 0\n0 1\n1 0\n0 1\n")
    assert parse_strategy_file(out, pd).strategies[0].player == 0
    donation = parse_game_file(DATA / "donation3.game").game
    with pytest.raises(ParseError):
        parse_strategy_file(out, donation)


def test_memo_hit_shares_read_only_arrays(tmp_path, pd):
    out = tmp_path / "wsls.game"
    write_game_file(out, pd, [MarkovStrategy(
        0, MixedAction([1.0, 0.0]),
        [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])])
    first = parse_game_file(out)
    doc = parse_game_file(out)
    assert doc is first
    strategy, = doc.strategies
    for array in (doc.game.payoffs, strategy.initial.probs,
                  strategy.conditionals):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 7.0


def test_memo_keeps_the_most_recently_used_documents(tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(fileio, "_memo", OrderedDict())
    paths = [tmp_path / f"sched{k}.txt"
             for k in range(fileio.PARSE_MEMO_SIZE + 5)]
    for k, out in enumerate(paths):
        out.write_text(f"schedule horizon {k + 1}\n")
        parse_schedule_file(out)
        if k == 0 or k == fileio.PARSE_MEMO_SIZE - 1:
            parse_schedule_file(paths[0])  # a hit: paths[0] is used last
    assert len(fileio._memo) == fileio.PARSE_MEMO_SIZE
    kept = {key[1] for key in fileio._memo}
    assert paths[0].read_bytes() in kept
    assert not {out.read_bytes() for out in paths[1:6]} & kept
    assert {out.read_bytes() for out in paths[6:]} <= kept


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


@pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 300])
def test_csv_array_matches_row_by_row(tmp_path, count):
    # tables on both sides of every chunk edge, the special values in the
    # last rows
    rng = np.random.default_rng(8)
    values = rng.normal(size=(count, 3)) \
        * 10.0 ** rng.integers(-30, 30, (count, 3))
    special = np.array([
        [-0.0, 0.0, 1 / 3], [1e16, 123456789012345.0, 2.5e-300],
        [np.inf, -np.inf, np.nan], [0.1 + 0.2, -1.0, 5e-324]])
    values[-len(special):] = special[:count]
    table = np.column_stack([np.arange(count), values])
    header = ["sample", "a", "b", "c"]
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_csv(fast, header, table)
    row_by_row_csv(slow, header, table.tolist())
    assert fast.read_bytes() == slow.read_bytes()


def test_csv_empty_table_writes_the_header(tmp_path):
    out = tmp_path / "empty.csv"
    write_csv(out, ["a", "b"], [])
    assert out.read_bytes() == b"a,b\n"


@pytest.mark.parametrize("rows,shape", [
    ([[1, 2, 3], [4, 5, 6]], r"\(2, 3\)"), ([1, 2], r"\(2,\)"),
    ([[[1, 2]]], r"\(1, 1, 2\)")], ids=["wide", "flat", "3-d"])
def test_csv_rows_must_match_the_header_width(tmp_path, rows, shape):
    # reshaping to the header's width would re-cut any table whose size
    # it divides
    out = tmp_path / "wide.csv"
    with pytest.raises(ValidationError, match=f"2 columns .*{shape}"):
        write_csv(out, ["a", "b"], rows)
    assert not out.exists()
