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
Files are UTF-8; numbers are written with 17 significant digits so a
written file re-parses to equal objects.  CSV output uses 12 significant
digits, comma separators, and LF line endings.
"""

from __future__ import annotations

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
from .games import MIXED_SUM_TOL, GameSpec, MixedAction, build_game, check_rows


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
    """Comment-stripped, tokenized lines with their 1-based line numbers."""

    def __init__(self, path):
        self.path = str(path)
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(str(exc), path=str(path)) from None
        self.lines = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.lines.append((lineno, body.split()))
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self):
        item = self.peek()
        if item is not None:
            self.pos += 1
        return item

    def fail(self, message, lineno=None):
        raise ParseError(message, path=self.path, line=lineno)


def _floats(reader, tokens, lineno, expected=None, what="value"):
    try:
        values = [float(t) for t in tokens]
    except ValueError:
        reader.fail(f"expected numbers, got {' '.join(tokens)!r}", lineno)
    if expected is not None and len(values) != expected:
        reader.fail(
            f"expected {expected} values for {what}, got {len(values)}",
            lineno)
    return values


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


def _parse_schedule(reader, tokens, lineno) -> ContinuationSchedule:
    if len(tokens) < 2:
        reader.fail("schedule line needs a kind", lineno)
    kind = tokens[1]
    rest = tokens[2:]
    try:
        if kind == "infinite":
            if rest:
                reader.fail("schedule infinite takes no values", lineno)
            return Infinite()
        if kind == "delta":
            vals = _floats(reader, rest, lineno, 1, "delta value")
            return Delta(vals[0])
        if kind == "horizon":
            vals = _floats(reader, rest, lineno, 1, "round count")
            if vals[0] != int(vals[0]):
                reader.fail("horizon must be an integer", lineno)
            return FiniteHorizon(int(vals[0]))
        if kind == "custom":
            tail = 0.0
            if "tail" in rest:
                pivot = rest.index("tail")
                tail_vals = _floats(reader, rest[pivot + 1:], lineno, 1,
                                    "tail value")
                tail = tail_vals[0]
                rest = rest[:pivot]
            values = _floats(reader, rest, lineno, None, "continuation value")
            return Custom(tuple(values), tail=tail)
    except PayoffControlError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ValidationError(str(exc), path=reader.path, line=lineno) from None
    reader.fail(f"unknown schedule kind {kind!r}", lineno)


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
    row_linenos, rows = zip(*[_numeric_row(reader, size, "conditional")
                              for _ in range(game.profile_count)])
    for values, what, linenos in ((init, "initial distribution", [init_lineno]),
                                  (rows, "conditional", row_linenos)):
        try:
            check_rows(np.array(values), MIXED_SUM_TOL, what)
        except PayoffControlError as exc:
            raise ValidationError(str(exc), path=reader.path,
                                  line=linenos[exc.row]) from None
    return MarkovStrategy(player, MixedAction(np.array(init)), np.array(rows))


def _parse_document(path, game: GameSpec | None):
    """Shared walk over one file; game sections allowed only when game is
    None, strategy blocks validated against the given or parsed game."""
    reader = _Reader(path)
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
            if vals[0] != int(vals[0]) or vals[0] < 1:
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
            labels[pid] = tokens[2:]
        elif key == "payoffs":
            if game is not None or payoff_rows is not None:
                reader.fail("unexpected payoffs line", lineno)
            if player_count is None or len(labels) != player_count or \
                    sorted(labels) != list(range(1, player_count + 1)):
                reader.fail("payoffs must follow players and one actions "
                            "line per player", lineno)
            count = int(np.prod([len(labels[i])
                                 for i in range(1, player_count + 1)]))
            payoff_rows = []
            for _ in range(count):
                _, row = _numeric_row(reader, player_count, "payoff")
                payoff_rows.append(row)
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
    return reader, game, tuple(strategies), schedule


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


def parse_game_file(path) -> GameDocument:
    """Parse a game file; strategy blocks and a schedule line may follow."""
    reader, game, strategies, schedule = _parse_document(path, None)
    if game is None:
        reader.fail("file defines no game")
    return GameDocument(game, strategies, schedule)


def parse_strategy_file(path, game: GameSpec) -> StrategyDocument:
    """Parse strategy blocks (and an optional schedule) against a game."""
    reader, _, strategies, schedule = _parse_document(path, game)
    if not strategies:
        reader.fail("file defines no strategy block")
    return StrategyDocument(strategies, schedule)


def parse_schedule_file(path) -> ContinuationSchedule:
    """Parse a file whose payload is a single schedule line."""
    reader, _, _, schedule = _parse_document(path, _SCHEDULE_ONLY_SENTINEL)
    if schedule is None:
        reader.fail("file defines no schedule line")
    return schedule


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


def _strategy_block_lines(game: GameSpec, strategy: MarkovStrategy):
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
        lines.extend(_strategy_block_lines(game, strategy))
    if schedule is not None:
        lines.append(schedule_line(schedule))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_strategy_file(path, game: GameSpec, strategies, schedule=None,
                        header=()):
    lines = [f"# {text}" for text in header]
    for strategy in strategies:
        lines.extend(_strategy_block_lines(game, strategy))
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
