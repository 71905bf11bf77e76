"""Command line front end.

Subcommands operate on game and strategy files (see fileio for the
schema) and report results as text plus optional CSV or strategy files.
Player ids on the command line are 1-based, matching the file format.

Exit codes: 0 success (verify: relation held on every sample), 1 verify
found a violation, 2 usage or file errors, 3 conclusively infeasible
synthesis target, 4 inconclusive outcome (synthesis search exhausted, or
falsification found no counterexample).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .control import (
    PayoffRelation,
    detect_relations,
    falsify_candidate,
    verify_relation,
)
from .dynamics import (
    ConstantContinuation,
    Delta,
    FiniteHorizon,
    Infinite,
    InfiniteExpectedRounds,
    StrategyProfile,
    classify_schedule,
    expected_rounds,
    monte_carlo_play,
)
from .errors import InvalidParamsError, ParseError, PayoffControlError
from .fileio import (
    parse_game_file,
    parse_schedule_file,
    parse_strategy_file,
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
    """Decode --schedule: infinite | delta:<d> | horizon:<T> | custom:<file>."""
    if value == "infinite":
        return Infinite()
    kind, sep, rest = value.partition(":")
    if not sep:
        raise InvalidParamsError(
            f"bad schedule {value!r}; expected infinite, delta:<d>, "
            "horizon:<T>, or custom:<file>")
    if kind == "delta":
        return Delta(float(rest))
    if kind == "horizon":
        return FiniteHorizon(int(rest))
    if kind == "custom":
        return parse_schedule_file(rest)
    raise InvalidParamsError(f"unknown schedule kind {kind!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _parse_controllers(text: str, game: GameSpec) -> tuple[int, ...]:
    players = []
    for part in text.split(","):
        pid = int(part)
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
    alpha = ",".join(f"{a:.12g}" for a in relation.alpha)
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
    print(f"found {len(relations)} relation(s)")
    for relation in relations:
        print(_relation_text(relation))
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
    form = classify_schedule(schedule)
    rounds = expected_rounds(schedule)
    if isinstance(form, InfiniteExpectedRounds):
        print("infinite expected rounds: ruling strategies supported "
              "(difference form)")
    elif isinstance(form, ConstantContinuation):
        print(f"constant continuation delta={form.delta:.12g}: ruling "
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
    action = game.action_index(strategy.player, args.action)
    column = strategy.conditionals[:, action]
    repeat = (game.profile_actions[:, strategy.player] == action).astype(float)
    if args.form == "infinite":
        candidate = column - repeat
    else:
        form = classify_schedule(schedule)
        if not isinstance(form, ConstantContinuation):
            raise InvalidParamsError(
                "--form constant needs a constant-continuation schedule")
        sigma = float(strategy.initial.probs[action])
        candidate = form.delta * column + (1.0 - form.delta) * sigma - repeat
    report = falsify_candidate(game, [strategy], schedule, candidate,
                               budget=args.budget, seed=args.seed,
                               threshold=args.threshold)
    if report.conclusive:
        print(f"falsified: |<candidate, vbar>| reaches {report.achieved:.6g} "
              f"> threshold {report.threshold:g}")
        if args.out and report.counterexample is not None:
            write_strategy_file(
                args.out, game, report.counterexample, schedule=schedule,
                header=[f"counterexample achieving {report.achieved:.12g}"])
            print(f"wrote {args.out}")
        return EXIT_OK
    print(f"inconclusive: best |<candidate, vbar>| found "
          f"{report.achieved:.6g} <= threshold {report.threshold:g} "
          f"within budget {args.budget}")
    return EXIT_INCONCLUSIVE


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

    p = sub.add_parser("falsify", help="search for opponents breaking a "
                                       "candidate ruling vector")
    common(p, strategy=True)
    p.add_argument("--action", required=True,
                   help="controller action label defining the candidate")
    p.add_argument("--form", choices=("infinite", "constant"),
                   default="infinite")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--out", default=None,
                   help="strategy file for the counterexample")
    p.set_defaults(func=_cmd_falsify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PayoffControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
