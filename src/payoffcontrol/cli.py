"""Command line front end.

Subcommands operate on game and strategy files (see fileio for the
schema) and report results as text plus optional CSV or strategy files.
Player ids on the command line are 1-based, matching the file format.

Exit codes: 0 success (verify: relation held on every sample; falsify: a
counterexample found, or a proved negative), 1 verify found a violation,
2 usage or file errors (an input too large to allocate among them), 3
conclusively infeasible synthesis target, 4 inconclusive outcome
(synthesis search exhausted, or falsification found no counterexample
and proved none impossible).

falsify answers exactly unless the schedule's constant tail is both
reached and equal to 1: it solves the opponents' best response as a Markov
decision process and prints the optimum over all opponents on a ``bound:``
line.  Where one deterministic Markov opponent attains that optimum it is
the counterexample, and --budget and --seed are ignored; otherwise (rules
that change by round) --budget deterministic stationary opponents drawn
from --seed climb by steepest ascent over single-entry changes, as under a
reached tail of 1 (infinite, custom tail 1), which prints no bound.  A
bound at or below the threshold is a proved negative: ``proved:`` and
exit 0.
"""

from __future__ import annotations

import argparse
import re
import sys

import numpy as np

from .control import (
    PayoffRelation,
    detect_relations,
    falsify_candidate,
    verify_relation,
)
from .dynamics import (
    Infinite,
    StrategyProfile,
    classify_schedule,
    expected_rounds,
    monte_carlo_play,
)
from .errors import InvalidParamsError, PayoffControlError, UnknownActionError
from .fileio import (
    parse_game_file,
    parse_schedule_file,
    parse_strategy_file,
    schedule_from_tokens,
    write_csv,
    write_strategy_file,
)
from .games import GameSpec
from .synthesis import Infeasible, SynthesisTarget, synthesize

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INCONCLUSIVE = 4


def parse_schedule_arg(value: str):
    """Decode --schedule: infinite | delta:<d> | horizon:<T> | custom:<file>.

    The number after delta or horizon reads as on a schedule line, with
    the same messages (``fileio.schedule_from_tokens``).
    """
    if value == "infinite":
        return Infinite()
    kind, sep, rest = value.partition(":")
    if not sep:
        raise InvalidParamsError(
            f"bad schedule {value!r}; expected infinite, delta:<d>, "
            "horizon:<T>, or custom:<file>")
    if kind == "custom":
        return parse_schedule_file(rest)
    if kind == "infinite":  # the bare word only: it takes no number
        raise InvalidParamsError(f"unknown schedule kind {kind!r}")
    return schedule_from_tokens(kind, [rest])


def _parse_floats(text: str) -> tuple[float, ...]:
    values = []
    for part in text.split(","):
        try:
            values.append(float(part))
        except ValueError:
            raise InvalidParamsError(
                f"--alpha expects comma-separated numbers, got {part!r}"
            ) from None
    return tuple(values)


def _parse_controllers(text: str, game: GameSpec) -> tuple[int, ...]:
    players = []
    for part in text.split(","):
        try:
            pid = int(part)
        except ValueError:
            raise InvalidParamsError(
                "--controllers expects comma-separated player numbers, "
                f"got {part!r}") from None
        if not 1 <= pid <= game.player_count:
            raise InvalidParamsError(
                f"controller {pid} outside 1..{game.player_count}")
        players.append(pid - 1)
    return tuple(players)


def _relation_from_args(args, game: GameSpec) -> PayoffRelation:
    alpha = _parse_floats(args.alpha)
    if len(alpha) != game.player_count:
        raise InvalidParamsError(
            f"alpha has {len(alpha)} entries for a {game.player_count}-player "
            "game")
    return PayoffRelation(alpha=alpha, gamma=args.gamma)


def _relation_text(relation: PayoffRelation) -> str:
    alpha = ",".join(map("{:.12g}".format, relation.alpha))
    return f"alpha={alpha} gamma={relation.gamma:.12g}"


def _schedule_for(args, doc_schedule):
    """--schedule wins; otherwise a schedule line from the strategy file."""
    if args.schedule is not None:
        return parse_schedule_arg(args.schedule)
    if doc_schedule is not None:
        return doc_schedule
    return Infinite()


def _load_strategies(args):
    """Game, strategy blocks and schedule of a subcommand's files."""
    game = parse_game_file(args.game).game
    sdoc = parse_strategy_file(args.strategy, game)
    return game, sdoc.strategies, _schedule_for(args, sdoc.schedule)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args) -> int:
    doc = parse_game_file(args.game)
    game = doc.game
    schedule = _schedule_for(args, doc.schedule)
    relation = _relation_from_args(args, game)
    controllers = _parse_controllers(args.controllers, game)
    target = SynthesisTarget(relation, controllers, mode=args.mode)
    result = synthesize(game, schedule, target)
    if isinstance(result, Infeasible):
        kind = "infeasible" if result.conclusive else "inconclusive"
        print(f"{kind}: {result.certificate}")
        print(result.detail)
        return EXIT_INFEASIBLE if result.conclusive else EXIT_INCONCLUSIVE
    print(f"feasible: target {_relation_text(relation)} "
          f"controllers {args.controllers}")
    print(f"margin {result.margin:.12g}")
    if result.strategies is not None:
        for strategy in result.strategies:
            print(f"strategy for player {strategy.player + 1}: "
                  f"initial {np.array2string(strategy.initial.probs, precision=6)}")
        if args.out:
            header = [
                f"synthesized target {_relation_text(relation)}",
                f"controllers {args.controllers} margin {result.margin:.12g}",
            ]
            write_strategy_file(args.out, game, result.strategies,
                                schedule=schedule, header=header)
            print(f"wrote {args.out}")
    else:
        print("correlated alliance; joint conditional table "
              "(rows = profiles, columns = joint actions):")
        for row in result.joint_conditionals:
            print("  " + " ".join(f"{v:.6f}" for v in row))
        if result.joint_initial is not None:
            print("joint initial: "
                  + " ".join(f"{v:.6f}" for v in result.joint_initial))
        if args.out:
            print("error: correlated joint tables cannot be written as "
                  "per-player strategy files", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def _cmd_verify(args) -> int:
    game, strategies, schedule = _load_strategies(args)
    relation = _relation_from_args(args, game)
    report = verify_relation(game, strategies, schedule, relation,
                             samples=args.samples, tol=args.tol,
                             seed=args.seed)
    status = "pass" if report.passed else "FAIL"
    print(f"{status}: max |relation residual| = "
          f"{report.max_abs_violation:.6g} over {report.samples_used} "
          f"samples ({report.samples_skipped} skipped), tolerance "
          f"{args.tol:g}")
    if args.out:
        header = ["sample"] + [f"u{i + 1}" for i in range(game.player_count)] \
            + ["residual"]
        table = np.column_stack([np.arange(report.samples_used),
                                 report.payoffs, report.residuals])
        write_csv(args.out, header, table)
        print(f"wrote {args.out}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_detect(args) -> int:
    game, strategies, schedule = _load_strategies(args)
    relations = detect_relations(game, strategies, schedule,
                                 tol=args.tol)
    print("\n".join([f"found {len(relations)} relation(s)"]
                    + [_relation_text(relation) for relation in relations]))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    game, strategies, schedule = _load_strategies(args)
    if len(strategies) != game.player_count:
        raise InvalidParamsError(
            f"simulate needs a strategy block for every player; got "
            f"{len(strategies)} of {game.player_count}")
    profile = StrategyProfile(tuple(strategies))
    result = monte_carlo_play(game, profile, schedule,
                              episodes=args.samples, seed=args.seed,
                              max_rounds=args.max_rounds)
    print(f"{result.episodes} episodes, mean rounds {result.mean_rounds:.6g}")
    for i in range(game.player_count):
        print(f"player {i + 1}: mean payoff {result.means[i]:.10g} "
              f"(se {result.std_errors[i]:.3g})")
    if args.out:
        rows = [[i + 1, result.means[i], result.std_errors[i]]
                for i in range(game.player_count)]
        write_csv(args.out, ["player", "mean", "std_error"], rows)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    schedule = parse_schedule_arg(args.schedule
                                  if args.schedule is not None else "infinite")
    d = classify_schedule(schedule)
    rounds = expected_rounds(schedule)
    if d == 1.0:
        print("infinite expected rounds: ruling strategies supported "
              "(difference form)")
    elif d is not None:
        print(f"constant continuation delta={d!r}: ruling "
              "strategies supported (initial-weighted form)")
    else:
        print("neither infinite expected rounds nor a constant continuation: "
              "strict Markov ruling strategies are not available; use "
              "falsify to exhibit failures")
    print(f"expected rounds: {rounds:.12g}" if np.isfinite(rounds)
          else "expected rounds: inf")
    return EXIT_OK


def _cmd_falsify(args) -> int:
    game, strategies, schedule = _load_strategies(args)
    if len(strategies) != 1:
        raise InvalidParamsError(
            "falsify expects exactly one controller strategy block")
    strategy = strategies[0]
    labels = game.action_labels[strategy.player]
    if args.action not in labels:
        raise UnknownActionError(f"player {strategy.player + 1} has no "
                                 f"action {args.action!r}")
    action = labels.index(args.action)
    column = strategy.conditionals[:, action]
    repeat = (game.profile_actions[:, strategy.player] == action).astype(float)
    report = falsify_candidate(game, [strategy], schedule, column - repeat,
                               budget=args.budget, seed=args.seed,
                               threshold=args.threshold)
    bound = report.bound
    proved = bound is not None and bound <= report.threshold
    if report.conclusive:
        print(f"falsified: |<candidate, vbar>| reaches {report.achieved:.6g} "
              f"> threshold {report.threshold:g}")
    elif proved:
        print(f"proved: no opponent takes |<candidate, vbar>| above "
              f"threshold {report.threshold:g}")
    else:
        print(f"inconclusive: best |<candidate, vbar>| found "
              f"{report.achieved:.6g} <= threshold {report.threshold:g} "
              f"within budget {args.budget}")
    if bound is not None:
        print(f"bound: |<candidate, vbar>| <= {bound:.6g} against every "
              "opponent")
    if report.conclusive and args.out:
        write_strategy_file(
            args.out, game, report.counterexample, schedule=schedule,
            header=[f"counterexample achieving {report.achieved:.12g}"])
        print(f"wrote {args.out}")
    return EXIT_OK if report.conclusive or proved else EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="payoffctl",
        description="Synthesize, verify, and probe payoff-controlling "
                    "strategies in generalized repeated games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, game=True, strategy=False, schedule=True):
        if game:
            p.add_argument("--game", required=True, help="game file")
        if strategy:
            p.add_argument("--strategy", required=True,
                           help="strategy file (controller blocks)")
        if schedule:
            p.add_argument("--schedule", default=None,
                           help="infinite | delta:<d> | horizon:<T> | "
                                "custom:<file> (default: strategy file's "
                                "schedule line, else infinite)")

    p = sub.add_parser("synth", help="construct controller strategies "
                                     "enforcing a payoff relation")
    common(p)
    p.add_argument("--controllers", required=True,
                   help="comma-separated 1-based player ids")
    p.add_argument("--alpha", required=True,
                   help="comma-separated payoff coefficients")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--mode", choices=("independent", "correlated"),
                   default="independent")
    p.add_argument("--out", default=None, help="strategy file to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="sample opponents and check a relation")
    common(p, strategy=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None, help="CSV of sampled payoffs")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("detect", help="list relations a strategy set enforces")
    common(p, strategy=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("simulate", help="Monte Carlo episodes for a full "
                                        "strategy profile")
    common(p, strategy=True)
    p.add_argument("--samples", type=int, default=1000,
                   help="number of episodes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV of per-player summaries")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="report the schedule form gate")
    p.add_argument("--schedule", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("falsify", help="find opponents breaking a "
                                       "candidate ruling vector")
    common(p, strategy=True)
    p.add_argument("--action", required=True,
                   help="controller action label defining the candidate")
    p.add_argument("--budget", type=int, default=100,
                   help="deterministic stationary opponents the "
                        "ascent starts from (unused where a deterministic "
                        "Markov opponent is optimal)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--out", default=None,
                   help="strategy file for the counterexample")
    p.set_defaults(func=_cmd_falsify)
    return parser


# parse_args leaves the parser unchanged, so every call shares one
_PARSER = build_parser()
# its subcommand parsers by name
_COMMANDS = next(action.choices for action in _PARSER._actions
                 if action.dest == "command")


# the start of a negative number, as _attach_numbers reads it
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _attach_numbers(argv: list[str]) -> list[str]:
    """``--opt -1,1`` as ``--opt=-1,1``.  argparse reads a value that starts
    with "-" as an option name unless it is a plain negative decimal, so
    ``--alpha -1,1``, ``--gamma -2e0`` or ``--gamma -inf`` would lack their
    values.  A token that starts like a negative number (a digit, or "inf"
    or "nan" in any case, after the sign) is one: no option name does."""
    attached = []
    for token in argv:
        if attached and _NEGATIVE_NUMBER.match(token) \
                and attached[-1].startswith("--") and "=" not in attached[-1]:
            attached[-1] += "=" + token
        else:
            attached.append(token)
    return attached


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _attach_numbers(argv)
    # a subcommand's own parser reads its arguments, so argparse classifies
    # each one once; anything else (no argument, -h, a typo) goes through
    # _PARSER
    command = _COMMANDS.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command is not None \
            else _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (PayoffControlError, ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
