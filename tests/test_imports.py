"""Imports of the package: only pair-LP synthesis that reaches a program
needs scipy, so every other command runs in a fresh interpreter without
ever importing it, and no module imports a name it does not use."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import payoffcontrol
import payoffcontrol.cli  # noqa: F401  (the tracer wraps names in cli)
from payoffcontrol import Custom
from payoffcontrol.fileio import (
    parse_game_file,
    schedule_line,
    write_strategy_file,
)

from conftest import wsls_pd

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "payoffcontrol"
TRACING = ROOT / "perfbench" / "tracing.py"
DATA = ROOT / "data"
DONATION = str(DATA / "donation3.game")
PGG = str(DATA / "pgg3.game")
PD = str(DATA / "pd.game")
PIN = str(DATA / "donation-pin.strategy")
EQUALIZER = str(DATA / "donation-equalizer.strategy")

# Runs each argv through cli.main and prints the exit codes and the scipy
# modules loaded afterwards as the last line of output.
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from payoffcontrol.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([codes, sorted(name for name in sys.modules
                                if name.split(".")[0] == "scipy")]))
"""


def _run_fresh(*commands):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"),
         json.dumps(list(commands))],
        capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(done.stdout.splitlines()[-1])


def test_commands_without_lp_never_import_scipy(tmp_path):
    profile = tmp_path / "profile.strategy"
    write_strategy_file(profile, parse_game_file(PD).game,
                        [wsls_pd(0), wsls_pd(1)])
    tail = tmp_path / "tail.schedule"
    tail.write_text(schedule_line(Custom((0.9, 0.5), tail=0.8)) + "\n",
                    encoding="utf-8")
    codes, loaded = _run_fresh(
        ["verify", "--game", DONATION, "--strategy", PIN, "--alpha", "0,1",
         "--gamma", "-2", "--samples", "200"],
        # enough samples that some draws are reducible chains
        ["verify", "--game", DONATION, "--strategy", EQUALIZER, "--alpha",
         "1,-1", "--gamma", "0", "--samples", "1000"],
        ["simulate", "--game", PD, "--strategy", str(profile),
         "--schedule", "infinite", "--samples", "50", "--max-rounds", "20"],
        ["falsify", "--game", DONATION, "--strategy", PIN, "--action", "C1",
         "--schedule", "horizon:2", "--budget", "10"],
        # trials whose averages take the tail solve
        ["falsify", "--game", DONATION, "--strategy", PIN, "--action", "C1",
         "--schedule", "infinite", "--budget", "2"],
        ["falsify", "--game", DONATION, "--strategy", PIN, "--action", "C1",
         "--schedule", f"custom:{tail}", "--budget", "2"],
        ["detect", "--game", DONATION, "--strategy", PIN],
        ["classify", "--schedule", "delta:0.5"],
        # the interval rung: one controller with two actions, infinite rounds
        ["synth", "--game", PD, "--controllers", "1", "--alpha", "0,1",
         "--gamma", "-2"],
        ["synth", "--game", PGG, "--controllers", "1", "--alpha", "0,0,1",
         "--gamma", "-1"],
        # the sign test: player 1 cannot pin its own PD payoff to 2
        ["synth", "--game", PD, "--controllers", "1", "--alpha", "1,0",
         "--gamma", "-2", "--schedule", "delta:0.9"],
    )
    assert codes == [0, 0, 0, 0, 4, 0, 0, 0, 0, 3, 3]
    assert loaded == []


def test_pair_lp_synthesis_imports_scipy():
    # guards the test above against passing vacuously
    codes, loaded = _run_fresh(
        ["synth", "--game", DONATION, "--controllers", "1", "--alpha", "0,1",
         "--gamma", "-2"])
    assert codes == [0]
    assert "scipy.optimize" in loaded


@pytest.mark.parametrize("argv, code, head", [
    (["--help"], 0, "usage: payoffctl [-h] {synth,"),
    (["detect", "--help"], 0, "usage: payoffctl detect [-h]"),
    ([], 2, "usage: payoffctl [-h] {synth,"),
])
def test_module_entry_point_dispatches_from_sys_argv(argv, code, head):
    # no argv passed to main: it reads sys.argv, and anything that is not
    # a subcommand name goes through the top-level parser
    done = subprocess.run(
        [sys.executable, "-m", "payoffcontrol.cli", *argv],
        capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == code
    assert (done.stdout if code == 0 else done.stderr).startswith(head)


def _traced_names() -> set[tuple[str, str]]:
    """(module, name) of every module-level binding the benchmark tracer
    rebinds: such a name stays imported even where the module never
    calls it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(owner.__name__.rsplit(".", 1)[-1], attr)
            for owner, attr, _, _ in tracing.boundaries(payoffcontrol)
            if isinstance(owner, type(payoffcontrol))}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(
    path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    traced = {name for owner, name in _traced_names() if owner == module}
    assert [name for name in _unused_imports(tree) if name not in traced] == []


def test_public_names_match_all():
    # every public name __init__ binds is exported, and no export is stale
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets}
    public = {name for name in bound if not name.startswith("_")}
    assert len(payoffcontrol.__all__) == len(set(payoffcontrol.__all__))
    assert set(payoffcontrol.__all__) == public
    assert all(hasattr(payoffcontrol, name) for name in public)
