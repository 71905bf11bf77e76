"""Text formats for games, strategies, and schedules.

One sectioned key-value schema covers game files and strategy files, so a
game file may carry strategy blocks and a schedule line next to the game
definition.  All player ids in files are 1-based.  `#` starts a comment,
blank lines separate nothing, numbers are whitespace separated.

    players 2
    actions 1 C D            # player id, then that player's action labels
    actions 2 C D
    payoffs                  # one row per profile, canonical order,
    3 3                      # one column per player
    0 5
    5 0
    1 1
    strategy.1               # Markov strategy block for player 1
    initial 0.5 0.5
    1 0                      # conditional row per profile, same order
    0 1
    0 1
    1 0
    schedule delta 0.9       # infinite | delta d | horizon T |
                             # custom v1 v2 ... [tail v]

Profiles are ordered lexicographically with player 1 most significant.
Files are UTF-8, a leading byte-order mark allowed; numbers are written
with 17 significant digits so a written file re-parses to equal objects.
CSV output uses 12 significant digits, comma separators, and LF line
endings.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import (
    ContinuationSchedule,
    Custom,
    Delta,
    FiniteHorizon,
    Infinite,
    MarkovStrategy,
)
from .errors import ParseError, PayoffControlError, ValidationError
from .games import GameSpec, MixedAction, build_game


@dataclass(frozen=True)
class GameDocument:
    game: GameSpec
    strategies: tuple[MarkovStrategy, ...]
    schedule: ContinuationSchedule | None


@dataclass(frozen=True)
class StrategyDocument:
    strategies: tuple[MarkovStrategy, ...]
    schedule: ContinuationSchedule | None


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in values)


# ---------------------------------------------------------------------------
# Parsing


class _Reader:
    """Comment-stripped, tokenized lines of a file's bytes: ``tokens`` holds
    the non-blank ones and ``linenos`` their 1-based line numbers.  Bytes
    that are not UTF-8 raise a ParseError at the line of the first one."""

    def __init__(self, data: bytes, path):
        self.path = str(path)
        self.linenos, self.tokens = [], []
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # the bytes before the bad one decode; count lines as
            # splitlines below does
            before = exc.object[:exc.start].decode("utf-8", "replace")
            self.fail(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 "
                      f"({exc.reason})", len((before + ".").splitlines()))
        for lineno, raw in enumerate(text.splitlines(), 1):
            tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
            if tokens:
                self.linenos.append(lineno)
                self.tokens.append(tokens)
        self.pos = 0

    def peek(self):
        pos = self.pos
        return (self.linenos[pos], self.tokens[pos]) \
            if pos < len(self.tokens) else None

    def next(self):
        item = self.peek()
        if item is not None:
            self.pos += 1
        return item

    def fail(self, message, lineno=None):
        raise ParseError(message, path=self.path, line=lineno)


def _numbers(tokens, expected=None, what="value") -> list[float]:
    """The tokens as floats, ``expected`` of them when given; a ParseError
    without a location otherwise."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        raise ParseError(
            f"expected numbers, got {' '.join(tokens)!r}") from None
    if expected is not None and len(values) != expected:
        raise ParseError(
            f"expected {expected} values for {what}, got {len(values)}")
    return values


def _floats(reader, tokens, lineno, expected=None, what="value"):
    """``_numbers`` with an error at the reader's path and ``lineno``."""
    try:
        return _numbers(tokens, expected, what)
    except ParseError as exc:
        reader.fail(str(exc), lineno)


def _numeric_row(reader, expected, what):
    item = reader.peek()
    if item is None:
        reader.fail(f"unexpected end of file while reading {what} rows")
    lineno, tokens = item
    if not _is_number(tokens[0]):
        reader.fail(f"expected a {what} row, got {tokens[0]!r}", lineno)
    reader.next()
    return lineno, _floats(reader, tokens, lineno, expected, what)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _numeric_section(reader, count, width, what):
    """The next ``count`` rows of ``width`` numbers as one (count, width)
    array, with their line numbers.

    Each row is read by ``_numeric_row``, so a missing row, a wrong width
    or a token that is no number fails at its own line.  A file parsed
    before skips this walk: the parse memo returns its document.
    """
    linenos, rows = zip(*[_numeric_row(reader, width, what)
                          for _ in range(count)])
    return list(linenos), np.array(rows)


def schedule_from_tokens(kind: str,
                         values: list[str]) -> ContinuationSchedule:
    """The schedule of a schedule line's kind and value tokens: infinite |
    delta d | horizon T | custom v1 v2 ... [tail v].

    Raises ParseError, without a location, for tokens of the wrong form,
    and the schedule's own error for values out of range.
    """
    if kind == "infinite":
        if values:
            raise ParseError("schedule infinite takes no values")
        return Infinite()
    if kind == "delta":
        return Delta(_numbers(values, 1, "delta value")[0])
    if kind == "horizon":
        rounds = _numbers(values, 1, "round count")[0]
        if not rounds.is_integer():  # also rejects inf and nan
            raise ParseError("horizon must be an integer")
        return FiniteHorizon(int(rounds))
    if kind == "custom":
        tail = 0.0
        if "tail" in values:
            pivot = values.index("tail")
            tail = _numbers(values[pivot + 1:], 1, "tail value")[0]
            values = values[:pivot]
        return Custom(tuple(_numbers(values, None, "continuation value")),
                      tail=tail)
    raise ParseError(f"unknown schedule kind {kind!r}")


def _parse_schedule(reader, tokens, lineno) -> ContinuationSchedule:
    if len(tokens) < 2:
        reader.fail("schedule line needs a kind", lineno)
    try:
        return schedule_from_tokens(tokens[1], tokens[2:])
    except ParseError as exc:
        reader.fail(str(exc), lineno)
    except PayoffControlError as exc:
        raise ValidationError(str(exc), path=reader.path, line=lineno) from None


def _parse_strategy_block(reader, header_tokens, lineno, game: GameSpec):
    name = header_tokens[0]
    id_part = name.split(".", 1)[1]
    if "+" in id_part:
        reader.fail("joint strategy blocks are not supported; one block per "
                    "player", lineno)
    try:
        player = int(id_part) - 1
    except ValueError:
        reader.fail(f"bad strategy block id {id_part!r}", lineno)
    if not 0 <= player < game.player_count:
        reader.fail(f"strategy player {id_part} outside 1..{game.player_count}",
                    lineno)
    size = game.action_counts[player]

    item = reader.next()
    if item is None or item[1][0] != "initial":
        reader.fail("strategy block must start with an initial line", lineno)
    init_lineno, init_tokens = item
    init = _floats(reader, init_tokens[1:], init_lineno, size,
                   "initial probability")
    row_linenos, rows = _numeric_section(reader, game.profile_count, size,
                                         "conditional")
    # the constructors are the one probability check; check_rows names
    # the failing row, which maps back to its line
    try:
        initial = MixedAction(init)
    except PayoffControlError as exc:
        raise ValidationError(str(exc), path=reader.path,
                              line=init_lineno) from None
    try:
        return MarkovStrategy(player, initial, rows)
    except PayoffControlError as exc:
        raise ValidationError(str(exc), path=reader.path,
                              line=row_linenos[exc.row]) from None


def _parse_document(reader, game: GameSpec | None):
    """Shared walk over one file; game sections allowed only when game is
    None, strategy blocks validated against the given or parsed game."""
    player_count = None
    labels: dict[int, list[str]] = {}
    payoff_rows = None
    strategies: list[MarkovStrategy] = []
    schedule = None

    while True:
        item = reader.next()
        if item is None:
            break
        lineno, tokens = item
        key = tokens[0]
        if key == "players":
            if game is not None or player_count is not None:
                reader.fail("unexpected players line", lineno)
            vals = _floats(reader, tokens[1:], lineno, 1, "player count")
            if not vals[0].is_integer() or vals[0] < 1:
                reader.fail("players must be a positive integer", lineno)
            player_count = int(vals[0])
        elif key == "actions":
            if game is not None:
                reader.fail("unexpected actions line", lineno)
            if len(tokens) < 3:
                reader.fail("actions line needs a player id and labels", lineno)
            try:
                pid = int(tokens[1])
            except ValueError:
                reader.fail(f"bad player id {tokens[1]!r}", lineno)
            if pid in labels:
                reader.fail(f"duplicate actions line for player {pid}", lineno)
            names = labels[pid] = tokens[2:]
            # build_game checks these again, with neither the line nor the
            # file's 1-based player id
            if len(names) < 2:
                raise ValidationError(f"player {pid} needs at least two "
                                      "actions", path=reader.path, line=lineno)
            if len(set(names)) != len(names):
                raise ValidationError(f"player {pid} has duplicate action "
                                      "labels", path=reader.path, line=lineno)
        elif key == "payoffs":
            if game is not None or payoff_rows is not None:
                reader.fail("unexpected payoffs line", lineno)
            if player_count is None or len(labels) != player_count or \
                    sorted(labels) != list(range(1, player_count + 1)):
                reader.fail("payoffs must follow players and one actions "
                            "line per player", lineno)
            count = math.prod(map(len, labels.values()))
            _, payoff_rows = _numeric_section(reader, count, player_count,
                                              "payoff")
        elif key.startswith("strategy."):
            if game is _SCHEDULE_ONLY_SENTINEL:
                reader.fail("schedule file must not contain strategy blocks",
                            lineno)
            target = game
            if target is None:
                target = _finish_game(reader, player_count, labels,
                                      payoff_rows, lineno)
                game = target
            strategies.append(
                _parse_strategy_block(reader, tokens, lineno, target))
        elif key == "schedule":
            if schedule is not None:
                reader.fail("duplicate schedule line", lineno)
            schedule = _parse_schedule(reader, tokens, lineno)
        else:
            reader.fail(f"unknown directive {key!r}", lineno)

    if player_count is not None and game is None:
        game = _finish_game(reader, player_count, labels, payoff_rows, None)
    return game, tuple(strategies), schedule


def _finish_game(reader, player_count, labels, payoff_rows, lineno):
    if player_count is None:
        reader.fail("missing players line", lineno)
    if payoff_rows is None:
        reader.fail("missing payoffs section", lineno)
    try:
        return build_game([labels[i] for i in range(1, player_count + 1)],
                          payoff_rows)
    except PayoffControlError as exc:
        raise ValidationError(str(exc), path=reader.path) from None


# Documents parsed in this process, least recently used first, keyed by
# (builder, file bytes, id of the game a strategy file was checked
# against).  Each entry holds that game, so its id names no other object
# while the entry lives.  Documents are immutable, so a hit hands out the
# one built earlier; a failed parse is not stored.
PARSE_MEMO_SIZE = 64
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()


def _read(path) -> bytes:
    try:
        with open(path, "rb", buffering=0) as fh:  # one read, no buffer
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from None


def _memoized(build, path, game=None):
    """``build(reader, game)`` over the file's bytes, or what an earlier
    call built from the same bytes and the same game object."""
    data = _read(path)
    key = (build, data, id(game))
    with _memo_lock:
        entry = _memo.get(key)
        if entry is not None:
            _memo.move_to_end(key)
            return entry[1]
    doc = build(_Reader(data, path), game)
    with _memo_lock:
        _memo[key] = game, doc
        if len(_memo) > PARSE_MEMO_SIZE:
            _memo.popitem(last=False)
    return doc


def _game_document(reader, _) -> GameDocument:
    game, strategies, schedule = _parse_document(reader, None)
    if game is None:
        reader.fail("file defines no game")
    return GameDocument(game, strategies, schedule)


def _strategy_document(reader, game) -> StrategyDocument:
    _, strategies, schedule = _parse_document(reader, game)
    if not strategies:
        reader.fail("file defines no strategy block")
    return StrategyDocument(strategies, schedule)


def _schedule_document(reader, game) -> ContinuationSchedule:
    _, _, schedule = _parse_document(reader, game)
    if schedule is None:
        reader.fail("file defines no schedule line")
    return schedule


def parse_game_file(path) -> GameDocument:
    """Parse a game file; strategy blocks and a schedule line may follow.

    Each parse_* call reads its file; for bytes this process has parsed
    before it returns the document built from them then."""
    return _memoized(_game_document, path)


def parse_strategy_file(path, game: GameSpec) -> StrategyDocument:
    """Parse strategy blocks (and an optional schedule) against a game."""
    return _memoized(_strategy_document, path, game)


def parse_schedule_file(path) -> ContinuationSchedule:
    """Parse a file whose payload is a single schedule line."""
    return _memoized(_schedule_document, path, _SCHEDULE_ONLY_SENTINEL)


class _ScheduleOnly:
    """Sentinel game that rejects strategy blocks during schedule parsing."""

    player_count = 0
    profile_count = 0
    action_counts = ()


_SCHEDULE_ONLY_SENTINEL = _ScheduleOnly()


# ---------------------------------------------------------------------------
# Writing


def _check_label(label: str):
    if not label or any(ch.isspace() for ch in label) or "#" in label:
        raise ValidationError(
            f"action label {label!r} cannot be written: labels must be "
            "non-empty and free of whitespace and '#'")


def schedule_line(schedule: ContinuationSchedule) -> str:
    if isinstance(schedule, Infinite):
        return "schedule infinite"
    if isinstance(schedule, Delta):
        return f"schedule delta {_fmt(schedule.delta)}"
    if isinstance(schedule, FiniteHorizon):
        return f"schedule horizon {schedule.rounds}"
    if isinstance(schedule, Custom):
        parts = ["schedule custom"]
        if schedule.values:
            parts.append(_fmt_row(schedule.values))
        parts.append(f"tail {_fmt(schedule.tail)}")
        return " ".join(parts)
    raise ValidationError(f"cannot serialize schedule {schedule!r}")


def _strategy_block_lines(strategy: MarkovStrategy):
    yield f"strategy.{strategy.player + 1}"
    yield "initial " + _fmt_row(strategy.initial.probs)
    for row in strategy.conditionals:
        yield _fmt_row(row)


def write_game_file(path, game: GameSpec, strategies=(), schedule=None):
    lines = [f"players {game.player_count}"]
    for i, player_labels in enumerate(game.action_labels):
        for label in player_labels:
            _check_label(label)
        lines.append(f"actions {i + 1} " + " ".join(player_labels))
    lines.append("payoffs")
    for row in game.payoffs:
        lines.append(_fmt_row(row))
    for strategy in strategies:
        lines.extend(_strategy_block_lines(strategy))
    if schedule is not None:
        lines.append(schedule_line(schedule))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_strategy_file(path, game: GameSpec, strategies, schedule=None,
                        header=()):
    lines = [f"# {text}" for text in header]
    for strategy in strategies:
        lines.extend(_strategy_block_lines(strategy))
    if schedule is not None:
        lines.append(schedule_line(schedule))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path, header, rows):
    """CSV of a numeric table with 12-significant-digit numbers and LF line
    endings; ``rows`` is a 2-D array or a sequence of equal-length rows.

    Every row goes through one ``%`` row template.  One ``%`` over the
    whole table would be slightly faster but fragments the heap, so peak
    memory would grow with every table written.
    """
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    template = ",".join(["%.12g"] * len(header))
    out = [",".join(header)]
    out.extend(template % tuple(row) for row in table.tolist())
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")
