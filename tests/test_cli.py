"""End-to-end command tests driving main(argv) in process."""

from pathlib import Path

import pytest

from payoffcontrol import (
    Custom,
    Infinite,
    PayoffRelation,
    StrategyProfile,
    average_distribution,
    public_goods_game,
    verify_relation,
)
from payoffcontrol import cli
from payoffcontrol.cli import main
from payoffcontrol.fileio import (
    parse_game_file,
    parse_strategy_file,
    schedule_line,
    write_game_file,
    write_strategy_file,
)

from conftest import always, tit_for_tat, wsls_pd
from test_fileio import row_by_row_csv

DATA = Path(__file__).resolve().parent.parent / "data"
DONATION = str(DATA / "donation3.game")
PGG = str(DATA / "pgg3.game")
PD = str(DATA / "pd.game")
PIN = str(DATA / "donation-pin.strategy")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_usable_strategy(tmp_path, capsys):
    out = tmp_path / "pin.strategy"
    code, stdout, _ = run(capsys, "synth", "--game", DONATION,
                          "--controllers", "1", "--alpha", "0,1",
                          "--gamma", "-2", "--out", str(out))
    assert code == 0
    assert "feasible" in stdout
    assert f"wrote {out}" in stdout
    game = parse_game_file(DONATION).game
    doc = parse_strategy_file(out, game)
    assert [s.player for s in doc.strategies] == [0]

    code, stdout, _ = run(capsys, "verify", "--game", DONATION,
                          "--strategy", str(out), "--alpha", "0,1",
                          "--gamma", "-2", "--samples", "200")
    assert code == 0
    assert stdout.startswith("pass")


def test_synth_conclusive_infeasible_exit(capsys):
    code, stdout, _ = run(capsys, "synth", "--game", PGG,
                          "--controllers", "1", "--alpha", "0,0,1",
                          "--gamma", "-1")
    assert code == 3
    assert stdout.startswith("infeasible: exact-interval-empty")


def test_synth_duplicate_controllers_exit_2(capsys):
    code, stdout, stderr = run(capsys, "synth", "--game", PGG,
                               "--controllers", "1,1", "--alpha", "0,0,1",
                               "--gamma", "-1")
    assert code == 2
    assert stdout == ""
    assert "duplicate controller player" in stderr


def test_synth_correlated_refuses_out(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "synth", "--game", PGG,
                               "--controllers", "1,2", "--alpha", "0,0,1",
                               "--gamma", "-1", "--mode", "correlated",
                               "--out", str(tmp_path / "x.strategy"))
    assert code == 2
    assert "joint conditional table" in stdout
    assert "cannot be written" in stderr


def test_synth_correlated_prints_tables(capsys):
    code, stdout, _ = run(capsys, "synth", "--game", PGG,
                          "--controllers", "1,2", "--alpha", "0,0,1",
                          "--gamma", "-1", "--mode", "correlated")
    assert code == 0
    table_lines = [line for line in stdout.splitlines()
                   if line.startswith("  ")]
    assert len(table_lines) == 8
    assert all(len(line.split()) == 4 for line in table_lines)


# ---------------------------------------------------------------------------
# verify


def test_verify_shipped_pin(capsys):
    code, stdout, _ = run(capsys, "verify", "--game", DONATION,
                          "--strategy", PIN, "--alpha", "0,1",
                          "--gamma", "-2", "--samples", "300")
    assert code == 0
    assert stdout.startswith("pass")


def test_verify_wrong_constant_fails(capsys):
    code, stdout, _ = run(capsys, "verify", "--game", DONATION,
                          "--strategy", PIN, "--alpha", "0,1",
                          "--gamma", "-2.5", "--samples", "50")
    assert code == 1
    assert stdout.startswith("FAIL")


def test_verify_fails_when_no_sample_settles(no_chain_settles, capsys):
    code, stdout, _ = run(capsys, "verify", "--game", DONATION,
                          "--strategy", PIN, "--alpha", "0,1",
                          "--gamma", "-2", "--samples", "50")
    assert code == 1
    assert stdout == ("FAIL: max |relation residual| = -1 over 0 samples "
                      "(50 skipped), tolerance 1e-08\n")


def test_verify_csv_shape(tmp_path, capsys):
    out = tmp_path / "payoffs.csv"
    code, stdout, _ = run(capsys, "verify", "--game", DONATION,
                          "--strategy", PIN, "--alpha", "0,1",
                          "--gamma", "-2", "--samples", "60",
                          "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sample,u1,u2,residual"
    used = int(stdout.split("over ")[1].split(" samples")[0])
    assert len(lines) == used + 1


def test_verify_csv_matches_row_by_row_format(tmp_path, capsys):
    out = tmp_path / "payoffs.csv"
    code, _, _ = run(capsys, "verify", "--game", DONATION, "--strategy", PIN,
                     "--alpha", "0,1", "--gamma", "-2", "--samples", "300",
                     "--seed", "9", "--out", str(out))
    assert code == 0
    game = parse_game_file(DONATION).game
    report = verify_relation(game, parse_strategy_file(PIN, game).strategies,
                             Infinite(), PayoffRelation((0.0, 1.0), -2.0),
                             samples=300, seed=9)
    rows = [[i, *report.payoffs[i], report.residuals[i]]
            for i in range(report.samples_used)]
    slow = tmp_path / "slow.csv"
    row_by_row_csv(slow, ["sample", "u1", "u2", "residual"], rows)
    assert out.read_bytes() == slow.read_bytes()


@pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf", "-1"])
def test_verify_rejects_nonpositive_tolerance(capsys, tol):
    code, _, stderr = run(capsys, "verify", "--game", DONATION,
                          "--strategy", PIN, "--alpha", "0,1", "--gamma",
                          "-2", "--samples", "10", f"--tol={tol}")
    assert code == 2
    assert "tolerance must be positive" in stderr


def test_synth_rejects_controllers_that_are_not_player_numbers(capsys):
    code, stdout, stderr = run(capsys, "synth", "--game", PGG,
                               "--controllers", "1,1.5", "--alpha", "0,0,1",
                               "--gamma", "-1")
    assert code == 2 and stdout == ""
    assert stderr == ("error: --controllers expects comma-separated player "
                      "numbers, got '1.5'\n")


def test_alpha_must_be_numbers(capsys):
    code, stdout, stderr = run(capsys, "verify", "--game", DONATION,
                               "--strategy", PIN, "--alpha", "0,x",
                               "--gamma", "-2", "--samples", "5")
    assert code == 2 and stdout == ""
    assert stderr == ("error: --alpha expects comma-separated numbers, "
                      "got 'x'\n")


def test_verify_same_seed_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, _, _ = run(capsys, "verify", "--game", DONATION,
                         "--strategy", PIN, "--alpha", "0,1",
                         "--gamma", "-2", "--samples", "80",
                         "--seed", "42", "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# detect / classify / simulate / falsify


def test_detect_prints_canonical_relation(capsys):
    code, stdout, _ = run(capsys, "detect", "--game", DONATION,
                          "--strategy", PIN)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "found 1 relation(s)"
    assert lines[1] == "alpha=0,1 gamma=-2"


@pytest.mark.parametrize("tol", [
    "1e-16", "1e-20", "0", "-1", "nan", "inf", "1", "2"])
def test_detect_rejects_tolerance_that_cannot_cut_rank(capsys, tol):
    code, stdout, stderr = run(capsys, "detect", "--game", DONATION,
                               "--strategy", PIN, f"--tol={tol}")
    assert code == 2
    assert stdout == ""
    assert "tolerance must lie in [machine epsilon, 1)" in stderr


@pytest.mark.parametrize("tol", ["2.220446049250313e-16", "1e-9", "1e-3"])
def test_detect_accepts_tolerance_from_machine_epsilon(capsys, tol):
    code, stdout, _ = run(capsys, "detect", "--game", DONATION,
                          "--strategy", PIN, f"--tol={tol}")
    assert code == 0
    assert stdout == "found 1 relation(s)\nalpha=0,1 gamma=-2\n"


SUPPORTED = ": ruling strategies supported"
CONSTANT = SUPPORTED + " (initial-weighted form)\n"


CLASSIFY_STDOUT = {
    "infinite": "infinite expected rounds" + SUPPORTED
    + " (difference form)\nexpected rounds: inf\n",
    "delta:0.9": "constant continuation delta=0.9" + CONSTANT
    + "expected rounds: 10\n",
    "delta:0.9999999999999": "constant continuation delta=0.9999999999999"
    + CONSTANT + "expected rounds: 9.9968915147e+12\n",
    "horizon:2": "neither infinite expected rounds nor a constant "
    "continuation: strict Markov ruling strategies are not available; use "
    "falsify to exhibit failures\nexpected rounds: 2\n",
    # one-shot play is constant continuation 0
    "horizon:1": "constant continuation delta=0.0" + CONSTANT
    + "expected rounds: 1\n",
    # -0 is stored, and so printed, as +0
    "delta:-0": "constant continuation delta=0.0" + CONSTANT
    + "expected rounds: 1\n",
}


@pytest.mark.parametrize("schedule", CLASSIFY_STDOUT)
def test_classify_verdicts(capsys, schedule):
    code, stdout, _ = run(capsys, "classify", "--schedule", schedule)
    assert code == 0
    assert stdout == CLASSIFY_STDOUT[schedule]


def test_simulate_full_profile(tmp_path, capsys):
    game = parse_game_file(PD).game
    spath = tmp_path / "pair.strategy"
    write_strategy_file(spath, game, [tit_for_tat(0), always(1, 1)])
    out = tmp_path / "means.csv"
    code, stdout, _ = run(capsys, "simulate", "--game", PD,
                          "--strategy", str(spath),
                          "--schedule", "horizon:2",
                          "--samples", "200", "--out", str(out))
    assert code == 0
    assert "mean rounds 2" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "player,mean,std_error"
    assert len(lines) == 3


def test_simulate_custom_tail_of_one_needs_round_cap(tmp_path, capsys):
    game = parse_game_file(PD).game
    path = tmp_path / "profile.strategy"
    write_strategy_file(path, game, [wsls_pd(0), wsls_pd(1)])
    tail = tmp_path / "tail.schedule"
    tail.write_text(schedule_line(Custom((0.9,), tail=1.0)) + "\n",
                    encoding="utf-8")
    argv = ["simulate", "--game", PD, "--strategy", str(path),
            "--schedule", f"custom:{tail}", "--samples", "10"]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert "max_rounds" in stderr
    code, stdout, _ = run(capsys, *argv, "--max-rounds", "20")
    assert code == 0
    assert stdout.startswith("10 episodes")


def test_simulate_unreachable_tail_of_one_needs_no_round_cap(tmp_path, capsys):
    # a first value of 0 ends every episode before the tail of 1
    game = parse_game_file(PD).game
    path = tmp_path / "profile.strategy"
    write_strategy_file(path, game, [wsls_pd(0), wsls_pd(1)])
    tail = tmp_path / "tail.schedule"
    tail.write_text(schedule_line(Custom((0.0,), tail=1.0)) + "\n",
                    encoding="utf-8")
    code, stdout, stderr = run(capsys, "simulate", "--game", PD,
                               "--strategy", str(path), "--schedule",
                               f"custom:{tail}", "--samples", "10")
    assert code == 0, stderr
    assert "mean rounds 1" in stdout


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_simulate_rejects_round_cap_below_one(tmp_path, capsys, cap):
    game = parse_game_file(PD).game
    path = tmp_path / "profile.strategy"
    write_strategy_file(path, game, [wsls_pd(0), wsls_pd(1)])
    code, stdout, stderr = run(capsys, "simulate", "--game", PD,
                               "--strategy", str(path), "--schedule",
                               "infinite", "--max-rounds", cap)
    assert code == 2
    assert "max_rounds must be >= 1" in stderr
    assert stdout == ""


def test_simulate_requires_all_players(tmp_path, capsys):
    code, _, stderr = run(capsys, "simulate", "--game", DONATION,
                          "--strategy", PIN, "--schedule", "horizon:2")
    assert code == 2
    assert "every player" in stderr


def test_falsify_short_horizon_conclusive(tmp_path, capsys):
    game = parse_game_file(PD).game
    spath = tmp_path / "wsls.strategy"
    write_strategy_file(spath, game, [wsls_pd(0)])
    cpath = tmp_path / "counter.strategy"
    code, stdout, _ = run(capsys, "falsify", "--game", PD,
                          "--strategy", str(spath),
                          "--schedule", "horizon:2", "--action", "C",
                          "--budget", "40", "--threshold", "1e-3",
                          "--out", str(cpath))
    assert code == 0
    assert stdout.startswith("falsified")
    assert cpath.exists()
    doc = parse_strategy_file(cpath, game)
    assert [s.player for s in doc.strategies] == [1]


def test_falsify_true_ruling_vector_inconclusive(capsys):
    code, stdout, _ = run(capsys, "falsify", "--game", DONATION,
                          "--strategy", PIN, "--schedule", "infinite",
                          "--action", "C1", "--budget", "10")
    assert code == 4
    assert stdout.startswith("inconclusive")


def test_falsify_reached_tail_of_one_prints_no_bound(tmp_path, capsys):
    # explicit rounds before a tail of 1 that is reached: no bound is
    # solved, and the pin's column stays a ruling vector up to rounding
    tail = tmp_path / "tail.schedule"
    tail.write_text(schedule_line(Custom((0.9, 0.5), tail=1.0)) + "\n",
                    encoding="utf-8")
    code, stdout, _ = run(capsys, "falsify", "--game", DONATION,
                          "--strategy", PIN, "--schedule", f"custom:{tail}",
                          "--action", "C1", "--budget", "10")
    assert code == 4
    (line,) = stdout.splitlines()
    prefix = "inconclusive: best |<candidate, vbar>| found "
    assert line.startswith(prefix)
    assert float(line.removeprefix(prefix).split()[0]) < 1e-15


def test_falsify_two_rounds_prints_the_optimum_and_bound(capsys):
    # the exact path: seed and budget do not matter
    for seed in ("7", "43", "76"):
        code, stdout, _ = run(capsys, "falsify", "--game", DONATION,
                              "--strategy", PIN, "--schedule", "horizon:2",
                              "--action", "C1", "--seed", seed)
        assert code == 0
        assert stdout == (
            "falsified: |<candidate, vbar>| reaches 0.19 > threshold 1e-06\n"
            "bound: |<candidate, vbar>| <= 0.19 against every opponent\n")


def test_falsify_unreached_tail_of_one_prints_the_bound(tmp_path, capsys):
    # two rounds written with a tail of 1 that is never reached: solved
    # exactly, as horizon:2 is
    tail = tmp_path / "two.schedule"
    tail.write_text(schedule_line(Custom((1.0, 0.0), tail=1.0)) + "\n",
                    encoding="utf-8")
    outputs = [run(capsys, "falsify", "--game", DONATION, "--strategy", PIN,
                   "--schedule", schedule, "--action", "C1")
               for schedule in ("horizon:2", f"custom:{tail}")]
    assert outputs[1] == outputs[0]
    assert outputs[1][1] == (
        "falsified: |<candidate, vbar>| reaches 0.19 > threshold 1e-06\n"
        "bound: |<candidate, vbar>| <= 0.19 against every opponent\n")


@pytest.mark.parametrize("schedule, threshold", [("horizon:10", "1e-6"),
                                                 ("infinite", "1e-300")])
def test_falsify_out_reproduces_the_value_found(tmp_path, capsys, schedule,
                                                threshold):
    # the ascent's counterexample parses back to a deterministic opponent
    # that reaches the value in its header.  Under infinite play the pin's
    # column is a ruling vector, so only a threshold below rounding keeps
    # a counterexample
    cpath = tmp_path / "counter.strategy"
    code, stdout, _ = run(capsys, "falsify", "--game", DONATION,
                          "--strategy", PIN, "--schedule", schedule,
                          "--action", "C1", "--budget", "10",
                          "--threshold", threshold, "--out", str(cpath))
    assert code == 0 and stdout.startswith("falsified")
    header = cpath.read_text(encoding="utf-8").splitlines()[0]
    achieved = float(header.removeprefix("# counterexample achieving "))
    game = parse_game_file(DONATION).game
    (pin,) = parse_strategy_file(PIN, game).strategies
    doc = parse_strategy_file(cpath, game)
    (opponent,) = doc.strategies
    assert set(opponent.conditionals.ravel()) <= {0.0, 1.0}
    assert set(opponent.initial.probs) <= {0.0, 1.0}
    vbar = average_distribution(game, StrategyProfile((pin, opponent)),
                                doc.schedule).dist.probs
    repeat = game.profile_actions[:, 0] == 0
    candidate = pin.conditionals[:, 0] - repeat
    assert abs(abs(float(candidate @ vbar)) - achieved) <= 1e-12


@pytest.mark.parametrize("schedule", ["horizon:3", "delta:0.9"])
def test_falsify_proves_a_memoryless_column(tmp_path, capsys, schedule):
    # always-C's column is a ruling vector under every schedule
    spath = tmp_path / "always.strategy"
    write_strategy_file(spath, parse_game_file(PD).game, [always(0, 0)])
    code, stdout, _ = run(capsys, "falsify", "--game", PD,
                          "--strategy", str(spath), "--schedule", schedule,
                          "--action", "C")
    assert code == 0
    assert stdout == (
        "proved: no opponent takes |<candidate, vbar>| above threshold "
        "1e-06\n"
        "bound: |<candidate, vbar>| <= 0 against every opponent\n")


def test_falsify_probes_the_schedules_ruling_column(tmp_path, capsys):
    # under delta:0.9 the ruling column is 0.9 q + 0.1 sigma - rep, which
    # detect reads and which no opponent moves; q - rep alone reached
    # 0.0522 and printed "falsified"
    out = tmp_path / "pd9.strategy"
    schedule = ["--schedule", "delta:0.9"]
    code, _, _ = run(capsys, "synth", "--game", PD, "--controllers", "1",
                     "--alpha", "0,1", "--gamma", "-2.5", *schedule,
                     "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "detect", "--game", PD, "--strategy",
                          str(out), *schedule)
    assert stdout == "found 1 relation(s)\nalpha=0,1 gamma=-2.5\n"
    for action in ("C", "D"):
        code, stdout, _ = run(capsys, "falsify", "--game", PD, "--strategy",
                              str(out), *schedule, "--action", action)
        assert code == 0
        proved, bound = stdout.splitlines()
        assert proved == ("proved: no opponent takes |<candidate, vbar>| "
                          "above threshold 1e-06")
        prefix = "bound: |<candidate, vbar>| <= "
        assert float(bound.removeprefix(prefix).split()[0]) < 1e-15


def test_falsify_unknown_action_names_the_file_player(capsys):
    # the pin is player 1 in its file
    code, stdout, stderr = run(capsys, "falsify", "--game", DONATION,
                               "--strategy", PIN, "--action", "X")
    assert code == 2 and stdout == ""
    assert stderr == "error: player 1 has no action 'X'\n"


@pytest.mark.parametrize("threshold, budget", [
    ("-1", "10"), ("0", "10"), ("nan", "10"), ("inf", "10"),
    ("1e-6", "0"), ("1e-6", "-3")])
def test_falsify_rejects_bad_threshold_and_budget(capsys, threshold, budget):
    # threshold -1 once "falsified" the pin's true ruling vector
    code, stdout, stderr = run(capsys, "falsify", "--game", DONATION,
                               "--strategy", PIN, "--schedule", "infinite",
                               "--action", "C1", "--budget", budget,
                               f"--threshold={threshold}")
    assert code == 2
    assert stdout == ""
    assert ("budget must be >= 1" if budget != "10"
            else "threshold must be finite and positive") in stderr


def _sampling_argv(tmp_path, command):
    """A valid command line for each subcommand that takes --seed."""
    if command == "simulate":
        path = tmp_path / "profile.strategy"
        write_strategy_file(path, parse_game_file(PD).game,
                            [wsls_pd(0), wsls_pd(1)])
        return ["simulate", "--game", PD, "--strategy", str(path),
                "--schedule", "delta:0.5"]
    if command == "falsify":
        return ["falsify", "--game", DONATION, "--strategy", PIN,
                "--schedule", "horizon:2", "--action", "C1"]
    return ["verify", "--game", DONATION, "--strategy", PIN,
            "--alpha", "0,1", "--gamma", "-2"]


@pytest.mark.parametrize("command", ["verify", "simulate", "falsify"])
def test_negative_seed_names_the_seed(tmp_path, capsys, command):
    # numpy's own message named nothing; under horizon:2 falsify never
    # builds a generator, and still rejects the seed
    code, stdout, stderr = run(capsys, *_sampling_argv(tmp_path, command),
                               "--seed", "-1")
    assert (code, stdout) == (2, "")
    assert stderr == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command, name", [("verify", "verify_relation"),
                                           ("simulate", "monte_carlo_play")])
@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 74.5 GiB for an array",
     "Unable to allocate 74.5 GiB for an array"),
    ("", "out of memory")], ids=["numpy", "bare"])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command, name,
                               message, shown):
    # a huge --samples fails in numpy's allocator; stand in for it, so
    # that nothing is allocated here
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, name, exhausted)
    code, stdout, stderr = run(capsys, *_sampling_argv(tmp_path, command),
                               "--samples", "10000000000")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {shown}\n"


# ---------------------------------------------------------------------------
# outputs pinned byte for byte

SHIPPED_DETECT = [
    (DONATION, "donation-pin.strategy",
     "found 1 relation(s)\nalpha=0,1 gamma=-2\n"),
    (DONATION, "donation-equalizer.strategy",
     "found 1 relation(s)\nalpha=1,-1 gamma=0\n"),
    (PGG, "alliance-pin-u1.strategy",
     "found 2 relation(s)\nalpha=1,0,0 gamma=-1\n"
     "alpha=0,0.181818181818,1 gamma=-1.72727272727\n"),
    (PGG, "alliance-pin-u3.strategy",
     "found 1 relation(s)\nalpha=0,0,1 gamma=-1\n"),
]


@pytest.mark.parametrize("game, strategy, expected", SHIPPED_DETECT)
def test_detect_output_on_shipped_files_is_pinned(capsys, game, strategy,
                                                  expected):
    code, stdout, _ = run(capsys, "detect", "--game", game,
                          "--strategy", str(DATA / strategy))
    assert code == 0
    assert stdout == expected


# the same files under an explicit schedule; delta:0.9 keeps only what the
# discounted ruling vectors still span
SHIPPED_DETECT_BY_SCHEDULE = [
    (game, strategy, "infinite", expected)
    for game, strategy, expected in SHIPPED_DETECT] + [
    (DONATION, "donation-pin.strategy", "delta:0.9",
     "found 0 relation(s)\n"),
    (DONATION, "donation-equalizer.strategy", "delta:0.9",
     "found 0 relation(s)\n"),
    (PGG, "alliance-pin-u1.strategy", "delta:0.9",
     "found 2 relation(s)\nalpha=1,0,0.465909090909 gamma=-1.73863636364\n"
     "alpha=0,0.208345664398,1 gamma=-1.77656111276\n"),
    (PGG, "alliance-pin-u3.strategy", "delta:0.9",
     "found 1 relation(s)\nalpha=0.0645161290323,0,1 gamma=-1.16129032258\n"),
]


@pytest.mark.parametrize("game, strategy, schedule, expected",
                         SHIPPED_DETECT_BY_SCHEDULE)
def test_detect_output_under_each_schedule_is_pinned(capsys, game, strategy,
                                                     schedule, expected):
    code, stdout, _ = run(capsys, "detect", "--game", game,
                          "--strategy", str(DATA / strategy),
                          "--schedule", schedule)
    assert code == 0
    assert stdout == expected


def test_detect_output_on_synthesized_pgg4_alliance_is_pinned(tmp_path,
                                                              capsys):
    game = tmp_path / "pgg4.game"
    write_game_file(game, public_goods_game(4, 3.0, 2.0))
    out = tmp_path / "alliance.strategy"
    code, _, _ = run(capsys, "synth", "--game", str(game), "--controllers",
                     "1,2,3", "--alpha", "0,0,0,1", "--gamma", "-1.5",
                     "--schedule", "delta:0.5", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "detect", "--game", str(game),
                          "--strategy", str(out), "--schedule", "delta:0.5")
    assert code == 0
    assert stdout == ("found 3 relation(s)\n"
                      "alpha=1,0,-1,0 gamma=0\n"
                      "alpha=0,1,-1,0 gamma=0\n"
                      "alpha=0,0,0,1 gamma=-1.5\n")


def test_interval_rung_feasible_output_is_pinned(capsys):
    code, stdout, _ = run(capsys, "synth", "--game", PD, "--controllers",
                          "1", "--alpha", "0,1", "--gamma", "-2.5",
                          "--schedule", "infinite")
    assert code == 0
    assert stdout == ("feasible: target alpha=0,1 gamma=-2.5 controllers 1\n"
                      "margin 0.166666666667\n"
                      "strategy for player 1: initial [0.5 0.5]\n")


def test_interval_rung_reads_a_rounded_zero_as_zero(tmp_path, capsys):
    # alpha = (-2, 3), gamma = -1 makes w(DD) = 0, which the canonical
    # scaling leaves at -5.6e-17; read as a sign, it barred every z
    out = tmp_path / "f.strategy"
    relation = ["--alpha", "-2,3", "--gamma", "-1", "--schedule", "infinite"]
    code, stdout, _ = run(capsys, "synth", "--game", PD, "--controllers",
                          "1", *relation, "--out", str(out))
    assert code == 0
    assert stdout.startswith("feasible: target alpha=0.666666666667,-1 "
                             "gamma=0.333333333333 controllers 1\n")
    code, stdout, _ = run(capsys, "verify", "--game", PD, "--strategy",
                          str(out), *relation, "--samples", "2000")
    assert code == 0
    assert stdout.startswith("pass: ")


@pytest.mark.parametrize("gamma", ["4.0", "1.0", "-0.0", "-1.5", "-4.0",
                                   "2.5", "0.3"])
def test_lone_pin_certificate_output_is_pinned(capsys, gamma):
    code, stdout, _ = run(capsys, "synth", "--game", PGG, "--controllers",
                          "1", "--alpha", "0,0,1", "--gamma", gamma,
                          "--schedule", "infinite")
    assert code == 3
    assert stdout == (
        "infeasible: exact-interval-empty\n"
        "the per-profile bounds on z = 1/y intersect at most in {0}; no "
        "Markov strategy of this controller can reach the target\n")


# ---------------------------------------------------------------------------
# usage errors


def test_main_reuses_one_parser(monkeypatch, capsys):
    def rebuilt():
        raise AssertionError("parser rebuilt")
    monkeypatch.setattr(cli, "build_parser", rebuilt)
    for _ in range(2):
        code, stdout, _ = run(capsys, "classify", "--schedule", "delta:0.5")
        assert code == 0
        assert stdout.startswith("constant continuation delta=0.5")


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_every_subcommand_is_dispatched_directly():
    usage = cli._PARSER.format_usage()
    registered = usage[usage.index("{") + 1:usage.index("}")].split(",")
    assert set(cli._COMMANDS) == set(registered)
    assert len(registered) == 6


SYNTH_PD = ("synth", "--game", PD, "--controllers", "1", "--alpha", "0,1",
            "--gamma", "-2.5")


@pytest.mark.parametrize("argv, code", [
    ((), 2),
    (("--help",), 0),
    (("-h",), 0),
    (("synth", "--help"), 0),
    (("detect", "-h"), 0),
    (("frobnicate",), 2),
    (("Synth", "--help"), 2),
    (SYNTH_PD + ("--bogus",), 2),
    (("synth", "--game", PD, "--controllers", "1", "--alpha", "0,1"), 2),
    (("synth", "--game", PGG, "--controllers", "1", "--alpha", "0,0,1",
      "--gamma", "-4.0"), 3),
    (SYNTH_PD, 0),
])
def test_dispatch_exit_codes_match_one_parser_pass(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


def test_top_level_usage_without_a_subcommand(capsys):
    code, stdout, stderr = run(capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("usage: payoffctl [-h] {synth,")
    assert "the following arguments are required: command" in stderr


def test_unknown_option_is_reported_by_the_subcommand(capsys):
    code, stdout, stderr = run(capsys, *SYNTH_PD, "--bogus")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("usage: payoffctl synth [-h] --game GAME")
    assert stderr.endswith(
        "payoffctl synth: error: unrecognized arguments: --bogus\n")


# argparse reads "-1,1" or "-2e0" after an option as an option name of its
# own; only a plain negative decimal like "-2" passes as a value by itself
@pytest.mark.parametrize("argv, code, stdout", [
    (("synth", "--game", PD, "--controllers", "1", "--alpha", "-1,1",
      "--gamma", "0"), 0, "feasible: target alpha=1,-1 gamma=0 "
                          "controllers 1\n"),
    (("synth", "--game", PD, "--controllers", "1", "--alpha", "-1,1",
      "--gamma", "-0e0"), 0, "feasible: target alpha=1,-1 gamma=0 "
                             "controllers 1\n"),
    (("verify", "--game", DONATION, "--strategy", PIN, "--alpha", "0,1",
      "--gamma", "-2e0", "--samples", "20"), 0, "pass: "),
    (("verify", "--game", DONATION, "--strategy", PIN, "--alpha", "-0.0,1",
      "--gamma", "-1e-3", "--samples", "20"), 1, "FAIL: "),
])
def test_negative_values_written_apart_from_their_option(capsys, argv, code,
                                                          stdout):
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    assert out.startswith(stdout)
    # the same call written --opt=value prints the same
    attached = []
    for token in argv:
        if token[0] == "-" and not token.startswith("--"):
            attached[-1] += "=" + token
        else:
            attached.append(token)
    assert run(capsys, *attached) == (got, out, err)


@pytest.mark.parametrize("argv, message", [
    (("detect", "--game", DONATION, "--strategy", PIN, "--tol", "-1e-3"),
     "tolerance must lie in [machine epsilon, 1), got -0.001"),
    (("detect", "--game", DONATION, "--strategy", PIN, "--tol", "-.5"),
     "tolerance must lie in [machine epsilon, 1), got -0.5"),
    (("verify", "--game", DONATION, "--strategy", PIN, "--alpha", "0,1",
      "--gamma", "-2", "--tol", "-1e-8"), "tolerance must be positive"),
    *((("synth", "--game", PD, "--controllers", "1", *args),
       "relation coefficients must be finite")
      for args in [("--alpha", "0,1", "--gamma", "-inf"),
                   ("--alpha", "0,1", "--gamma", "-nan"),
                   ("--alpha", "0,1", "--gamma", "-Infinity"),
                   ("--alpha", "0,1", "--gamma", "-NaN"),
                   ("--alpha", "-inf,1", "--gamma", "0"),
                   ("--gamma", "0", "--alpha", "-INF,1")]),
])
def test_negative_values_reach_the_command_checks(capsys, argv, message):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: " + message)


def test_option_names_stay_option_names(capsys):
    # only a number is attached to the option before it
    code, _, stderr = run(capsys, "synth", "--game", PD, "--controllers",
                          "1", "--alpha", "--gamma", "0")
    assert code == 2
    assert "argument --alpha: expected one argument" in stderr


def test_missing_required_flag_exits_2(capsys):
    assert run(capsys, "detect", "--game", DONATION)[0] == 2


def test_bad_schedule_argument_exits_2(capsys):
    code, _, stderr = run(capsys, "classify", "--schedule", "delta:2")
    assert code == 2
    assert "error:" in stderr


@pytest.mark.parametrize("schedule, message", [
    ("horizon:2.5", "horizon must be an integer"),
    ("horizon:1e400", "horizon must be an integer"),
    ("horizon:nan", "horizon must be an integer"),
    ("delta:", "expected numbers, got ''"),
    ("delta:x", "expected numbers, got 'x'"),
])
def test_schedule_argument_errors_read_like_the_file_parser(capsys, schedule,
                                                            message):
    code, stdout, stderr = run(capsys, "classify", "--schedule", schedule)
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {message}\n"


def test_integral_horizon_argument_is_accepted_like_in_files(capsys):
    code, stdout, _ = run(capsys, "classify", "--schedule", "horizon:2.0")
    assert code == 0
    assert stdout.endswith("expected rounds: 2\n")


def test_alpha_length_mismatch_exits_2(capsys):
    code, _, stderr = run(capsys, "verify", "--game", DONATION,
                          "--strategy", PIN, "--alpha", "0,0,1",
                          "--gamma", "-1")
    assert code == 2
    assert "alpha" in stderr


def test_missing_game_file_exits_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "detect",
                          "--game", str(tmp_path / "nope.game"),
                          "--strategy", PIN)
    assert code == 2
    assert "error:" in stderr


def test_parse_error_names_location(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("players 2\nactions 1 C D\nactions 2 C D\n"
                   "payoffs\n1 1\n2 nope\n3 3\n4 4\n")
    code, _, stderr = run(capsys, "detect", "--game", str(bad),
                          "--strategy", PIN)
    assert code == 2
    assert "bad.game:6" in stderr


@pytest.mark.parametrize("text, line", [
    ("players 1e400\n", 1),
    ("players 2\nschedule horizon 1e400\n", 2),
    ("players 2\nschedule horizon nan\n", 2)])
def test_integer_fields_out_of_range_exit_2_with_location(tmp_path, capsys,
                                                          text, line):
    bad = tmp_path / "bad.game"
    bad.write_text(text)
    code, stdout, stderr = run(capsys, "detect", "--game", str(bad),
                               "--strategy", PIN)
    assert code == 2
    assert stdout == ""
    assert f"bad.game:{line}: " in stderr


PD_HEAD = "players 2\nactions 1 C D\nactions 2 C D\n"


@pytest.mark.parametrize("kind, text, message, line", [
    # schedule lines
    ("schedule", "schedule\n", "schedule line needs a kind", 1),
    ("schedule", "schedule infinite 1\n", "schedule infinite takes no values",
     1),
    # strategy blocks and game sections in a strategy file
    ("strategy", "strategy.1+2\n", "joint strategy blocks are not "
     "supported; one block per player", 1),
    ("strategy", "strategy.x\n", "bad strategy block id 'x'", 1),
    ("strategy", "strategy.3\n", "strategy player 3 outside 1..2", 1),
    ("strategy", "strategy.1\n1 0\n",
     "strategy block must start with an initial line", 1),
    ("strategy", "players 2\n", "unexpected players line", 1),
    ("strategy", "actions 1 C D\n", "unexpected actions line", 1),
    ("strategy", "payoffs\n", "unexpected payoffs line", 1),
    ("strategy", "schedule infinite\n", "file defines no strategy block",
     None),
    # game files
    ("game", "players 2\nactions 1\n",
     "actions line needs a player id and labels", 2),
    ("game", "players 2\nactions x C D\n", "bad player id 'x'", 2),
    ("game", "players 2\nactions 1 C D\npayoffs\n",
     "payoffs must follow players and one actions line per player", 3),
    ("game", "strategy.1\n", "missing players line", 1),
    ("game", PD_HEAD + "strategy.1\n", "missing payoffs section", 4),
    ("game", "players 2\nactions 1 C C\nactions 2 C D\npayoffs\n"
     "1 1\n2 2\n3 3\n4 4\n", "player 1 has duplicate action labels", 2),
    ("game", "players 2\nactions 1 C D\nactions 2 C\npayoffs\n"
     "1 1\n2 2\n", "player 2 needs at least two actions", 3),
    # command line
    (None, ["classify", "--schedule", "delta0.5"], "bad schedule "
     "'delta0.5'; expected infinite, delta:<d>, horizon:<T>, or "
     "custom:<file>", None),
    (None, ["classify", "--schedule", "geometric:0.9"],
     "unknown schedule kind 'geometric'", None),
    (None, ["classify", "--schedule", "infinite:1"],
     "unknown schedule kind 'infinite'", None),
    (None, ["synth", "--game", PD, "--controllers", "3", "--alpha", "0,1",
            "--gamma", "-2"], "controller 3 outside 1..2", None),
    (None, ["falsify", "--game", PGG, "--strategy",
            str(DATA / "alliance-pin-u1.strategy"), "--action", "C"],
     "falsify expects exactly one controller strategy block", None),
])
def test_error_paths_exit_2_with_their_location(tmp_path, capsys, kind,
                                                text, message, line):
    # every file error names its file, and its line where there is one
    path = tmp_path / f"bad.{kind}"
    argv = {"schedule": ["classify", "--schedule", f"custom:{path}"],
            "strategy": ["detect", "--game", PD, "--strategy", str(path)],
            "game": ["detect", "--game", str(path), "--strategy", PIN],
            None: text}[kind]
    if kind is None:
        where = ""
    else:
        path.write_text(text)
        where = f"{path}: " if line is None else f"{path}:{line}: "
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {where}{message}\n"
