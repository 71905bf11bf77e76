"""Margins of the 35 synthesis cases of the roundtrip benchmark workload
(seven targets under ``infinite`` and four continuation probabilities),
and of the 4-member public-goods alliance in both modes under delta:0.9.

The floors are the margins the bisection on m reached before the
Newton-scaled ascent replaced it (rounded to 12 digits); the pgg5 floors
are the margins before the sign test pruned the pair blocks.  The
ascent, with each row's margin now in closed form from the roots of the
vertex polynomials, must reach each within 1e-9 and give the same
certificate for every infeasible case.

The programs of these cases also pin the pair-LP solver, which calls
scipy's private HiGHS bindings directly, to ``scipy.optimize.linprog``:
a scipy release that changes those bindings fails here.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from payoffcontrol import (
    Delta,
    Infeasible,
    Infinite,
    PayoffRelation,
    SynthesisResult,
    SynthesisTarget,
    public_goods_game,
    synthesis,
    synthesize,
)
from payoffcontrol.fileio import parse_game_file

DATA = Path(__file__).resolve().parent.parent / "data"

# label: (game, controllers, alpha, gamma)
TARGETS = {
    "donation-pin": ("donation3.game", (0,), (0.0, 1.0), -2.0),
    "donation-equalizer": ("donation3.game", (0,), (1.0, -1.0), 0.0),
    "pd-pin-2.5": ("pd.game", (0,), (0.0, 1.0), -2.5),
    "pgg3-outsider-pin": ("pgg3.game", (0, 1), (0.0, 0.0, 1.0), -1.0),
    "pgg4-alliance-pin": ("pgg4", (0, 1, 2), (0.0, 0.0, 0.0, 1.0), -1.5),
    "pgg5-alliance-pin": ("pgg5", (0, 1, 2, 3), (0.0, 0.0, 0.0, 0.0, 1.0),
                          -1.5),
}

SCHEDULES = {"infinite": Infinite(), "delta:0.5": Delta(0.5),
             "delta:0.9": Delta(0.9), "delta:0.999": Delta(0.999),
             "delta:0.999999": Delta(0.999999)}

# (label, mode, schedule): margin floor, or the certificate of an
# infeasible case
FLOORS = {
    ("donation-pin", "independent", "infinite"): 0.142857138316,
    ("donation-equalizer", "independent", "infinite"): 0.0,
    ("pd-pin-2.5", "independent", "infinite"): 0.166666666667,
    ("pgg3-outsider-pin", "independent", "infinite"): 0.25,
    ("pgg3-outsider-pin", "correlated", "infinite"): 0.125,
    ("pgg4-alliance-pin", "independent", "infinite"): 0.333333328366,
    ("pgg4-alliance-pin", "correlated", "infinite"): 0.0833333298564,
    ("donation-pin", "independent", "delta:0.5"): 0.0666666582328,
    ("donation-equalizer", "independent", "delta:0.5"): "exact-lp-empty",
    ("pd-pin-2.5", "independent", "delta:0.5"): 0.0,
    ("pgg3-outsider-pin", "independent", "delta:0.5"): 0.25,
    ("pgg3-outsider-pin", "correlated", "delta:0.5"): 0.125,
    ("pgg4-alliance-pin", "independent", "delta:0.5"): 0.166666637025,
    ("pgg4-alliance-pin", "correlated", "delta:0.5"): 0.0416666641831,
    ("donation-pin", "independent", "delta:0.9"): 0.14285713655,
    ("donation-equalizer", "independent", "delta:0.9"): "exact-lp-empty",
    ("pd-pin-2.5", "independent", "delta:0.9"): 0.155172407627,
    ("pgg3-outsider-pin", "independent", "delta:0.9"): 0.25,
    ("pgg3-outsider-pin", "correlated", "delta:0.9"): 0.125,
    ("pgg4-alliance-pin", "independent", "delta:0.9"): 0.314814813325,
    ("pgg4-alliance-pin", "correlated", "delta:0.9"): 0.0787037029448,
    ("donation-pin", "independent", "delta:0.999"): 0.142857142287,
    ("donation-equalizer", "independent", "delta:0.999"): "exact-lp-empty",
    ("pd-pin-2.5", "independent", "delta:0.999"): 0.166555518284,
    ("pgg3-outsider-pin", "independent", "delta:0.999"): 0.25,
    ("pgg3-outsider-pin", "correlated", "delta:0.999"): 0.125,
    ("pgg4-alliance-pin", "independent", "delta:0.999"): 0.333166494997,
    ("pgg4-alliance-pin", "correlated", "delta:0.999"): 0.0832916246354,
    ("donation-pin", "independent", "delta:0.999999"): 0.142857142786,
    ("donation-equalizer", "independent", "delta:0.999999"):
        "exact-lp-empty",
    ("pd-pin-2.5", "independent", "delta:0.999999"): 0.166666555218,
    ("pgg3-outsider-pin", "independent", "delta:0.999999"): 0.25,
    ("pgg3-outsider-pin", "correlated", "delta:0.999999"): 0.125,
    ("pgg4-alliance-pin", "independent", "delta:0.999999"): 0.333333166463,
    ("pgg4-alliance-pin", "correlated", "delta:0.999999"): 0.0833332916522,
    ("pgg5-alliance-pin", "independent", "delta:0.9"): 0.291666666667,
    ("pgg5-alliance-pin", "correlated", "delta:0.9"): 0.0364583333333,
}


@pytest.fixture(scope="module")
def games():
    loaded = {name: parse_game_file(DATA / name).game
              for name in ("donation3.game", "pd.game", "pgg3.game")}
    loaded["pgg4"] = public_goods_game(4, 3.0, 2.0)
    loaded["pgg5"] = public_goods_game(5, 3.0, 2.0)
    return loaded


@pytest.mark.parametrize("label,mode,schedule", list(FLOORS),
                         ids=["/".join(key) for key in FLOORS])
def test_margin_at_least_the_bisection_floor(games, label, mode, schedule):
    game, controllers, alpha, gamma = TARGETS[label]
    target = SynthesisTarget(PayoffRelation(alpha, gamma), controllers, mode)
    result = synthesize(games[game], SCHEDULES[schedule], target)
    floor = FLOORS[label, mode, schedule]
    if isinstance(floor, str):
        assert isinstance(result, Infeasible)
        assert result.conclusive
        assert result.certificate == floor
        return
    assert isinstance(result, SynthesisResult)
    # a single two-action controller under infinite rounds
    interval = label == "pd-pin-2.5" and schedule == "infinite"
    assert result.note == ("interval" if interval else "pair-lp")
    assert result.margin >= floor - 1e-9


def test_programs_solve_as_scipy_linprog_solves_them(monkeypatch, games):
    # every margin-0 and slack program of the 37 cases, solved again by
    # scipy.optimize.linprog(method="highs") with the same options: the
    # same outcome and, at an optimum, bitwise the same x
    solve, programs = synthesis.linprog, []

    def captured(*args):
        programs.append((args, solve(*args)))
        return programs[-1][1]
    monkeypatch.setattr(synthesis, "linprog", captured)
    for label, mode, schedule in FLOORS:
        game, controllers, alpha, gamma = TARGETS[label]
        synthesize(games[game], SCHEDULES[schedule], SynthesisTarget(
            PayoffRelation(alpha, gamma), controllers, mode))
    assert len(programs) == 124  # 114 of them for the benchmark's 35
    for (cost, (indptr, indices, data), rows, lower, upper, options), \
            result in programs:
        matrix = sparse.csc_array((data, indices, indptr),
                                  shape=(rows.size, cost.size))
        want = linprog(cost, A_ub=matrix, b_ub=rows,
                       bounds=np.column_stack([lower, upper]),
                       method="highs", options=options)
        assert (result.status == 0) == (want.status == 0)
        if want.status == 0:
            assert np.array_equal(result.x, want.x)
