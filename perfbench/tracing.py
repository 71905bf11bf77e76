"""Span tracing of payoffcontrol from outside the package.

``Tracer.install`` rebinds public functions at their module boundary,
under the name the *calling* module looks up (``cli.verify_relation``,
``control.average_distribution``, ``dynamics.connected_components``, ...),
so every call across a layer boundary records a span: name, start, end,
parent span and the id of the CLI op it belongs to.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the durations of its child spans.

The package itself is not modified; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

AVG_METHODS = ("cesaro", "closed_form_delta", "truncated_sum")
RUNGS = ("interval", "two-column", "pair-lp")
CERTIFICATES = ("exact-interval-empty", "exact-lp-empty",
                "search-budget-exhausted")


def _synth_note(args, kwargs, result):
    certificate = getattr(result, "certificate", None)
    if certificate is not None:
        return {"certificate": certificate}
    return {"rung": result.note}


def _avg_note(args, kwargs, result):
    return {"method": result.method, "residual": float(result.residual)}


def _scc_note(args, kwargs, result):
    return {"components": int(result[0])}


def _lp_note(args, kwargs, result):
    return {"feasible": int(result.status == 0)}


def _write_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _mc_note(args, kwargs, result):
    return {"rounds": float(result.mean_rounds) * int(result.episodes)}


def boundaries(pc):
    """(owner, attribute, span name, note) for every traced binding."""
    cli, control, dynamics, synthesis, games = (
        pc.cli, pc.control, pc.dynamics, pc.synthesis, pc.games)
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_game_file", "fileio.parse", None),
        (cli, "parse_strategy_file", "fileio.parse", None),
        (cli, "parse_schedule_file", "fileio.parse", None),
        (cli, "write_csv", "fileio.write", _write_note),
        (cli, "write_strategy_file", "fileio.write", _write_note),
        (games.MixedAction, "__post_init__", "games.validate", None),
        (games.ProfileDistribution, "__post_init__", "games.validate", None),
        (cli, "verify_relation", "control.verify", None),
        (cli, "detect_relations", "control.detect", None),
        (cli, "falsify_candidate", "control.falsify", None),
        (control, "ruling_basis", "control.ruling_basis", None),
        (control, "sample_markov_strategy", "control.sample", None),
        (control, "average_distribution", "dynamics.average", _avg_note),
        (dynamics, "average_distribution", "dynamics.average", _avg_note),
        (dynamics, "transition_matrix", "dynamics.transition", None),
        (dynamics, "initial_distribution", "dynamics.initial", None),
        (dynamics, "csr_matrix", "dynamics.sparse_build", None),
        (dynamics, "connected_components", "dynamics.scc", _scc_note),
        (cli, "monte_carlo_play", "dynamics.monte_carlo", _mc_note),
        (cli, "synthesize", "synthesis.synthesize", _synth_note),
        (synthesis, "linprog", "synthesis.lp", _lp_note),
    ]


class Tracer:
    """In-memory span recorder.  Each span is a list
    ``[name, start, end, parent, op, note]``; ``parent`` indexes ``spans``
    (-1 for a root) and ``note`` holds values read off the call."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.op_kinds: list[str | None] = [None]  # indexed by op id
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, note):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result
        return traced

    def install(self, pc):
        for owner, attr, name, note in boundaries(pc):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, note))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "note": note}) + "\n")


def layer_metrics(spans, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics, per pass, from a list of spans.

    Returns ``(metrics, bases)``: ``metrics`` maps each name to
    ``(value, unit)``, ``bases`` gives numerator and denominator of every
    ratio, summed over all passes.  ``_self_s`` metrics are self time,
    other ``_s`` metrics the inclusive time spent behind that boundary.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    avg_calls = defaultdict(int)
    avg_self = defaultdict(float)
    rungs = defaultdict(int)
    certificates = defaultdict(int)
    avg_failed = 0
    avg_residual = 0.0
    scc_multi = 0
    lp_feasible = 0
    objective_calls = 0
    written = 0
    mc_rounds = 0.0
    for i, (name, start, end, parent, _, note) in enumerate(spans):
        duration = end - start
        total[name] += duration
        self_time[name] += duration - child_time[i]
        calls[name] += 1
        note = note or {}
        if "error" in note:
            if name == "dynamics.average":
                avg_failed += 1
            continue
        if name == "dynamics.average":
            avg_calls[note["method"]] += 1
            avg_self[note["method"]] += duration - child_time[i]
            avg_residual = max(avg_residual, note["residual"])
            if parent >= 0 and spans[parent][0] == "control.falsify":
                objective_calls += 1
        elif name == "dynamics.scc":
            scc_multi += note["components"] > 1
        elif name == "synthesis.lp":
            lp_feasible += note["feasible"]
        elif name == "synthesis.synthesize":
            if "rung" in note:
                rungs[note["rung"]] += 1
            else:
                certificates[note["certificate"]] += 1
        elif name == "fileio.write":
            written += note["bytes"]
        elif name == "dynamics.monte_carlo":
            mc_rounds += note["rounds"]

    n = max(passes, 1)
    lp_calls = calls["synthesis.lp"]
    scc_calls = calls["dynamics.scc"]
    metrics = {
        "cli.self_s": (self_time["cli.main"] / n, "s"),
        "fileio.parse_s": (total["fileio.parse"] / n, "s"),
        "fileio.write_s": (total["fileio.write"] / n, "s"),
        "fileio.bytes_written": (written / n, "bytes"),
        "games.validate_calls": (calls["games.validate"] / n, "count"),
        "games.validate_s": (total["games.validate"] / n, "s"),
        "control.sample_calls": (calls["control.sample"] / n, "count"),
        "control.sample_s": (total["control.sample"] / n, "s"),
        "control.verify_self_s": (self_time["control.verify"] / n, "s"),
        "control.ruling_basis_calls":
            (calls["control.ruling_basis"] / n, "count"),
        "control.detect_s": (total["control.detect"] / n, "s"),
        "control.falsify_self_s": (self_time["control.falsify"] / n, "s"),
        "control.falsify_objective_calls": (objective_calls / n, "count"),
        "dynamics.transition_calls":
            (calls["dynamics.transition"] / n, "count"),
        "dynamics.transition_s": (total["dynamics.transition"] / n, "s"),
        "dynamics.initial_s": (total["dynamics.initial"] / n, "s"),
        "dynamics.sparse_build_s": (total["dynamics.sparse_build"] / n, "s"),
        "dynamics.scc_calls": (scc_calls / n, "count"),
        "dynamics.scc_s": (total["dynamics.scc"] / n, "s"),
        "dynamics.multi_class_share":
            (scc_multi / scc_calls if scc_calls else 0.0, "share"),
        "dynamics.avg_max_residual": (avg_residual, "residual"),
        "dynamics.avg_failed": (avg_failed / n, "count"),
        "dynamics.monte_carlo_s": (total["dynamics.monte_carlo"] / n, "s"),
        "dynamics.monte_carlo_rounds": (mc_rounds / n, "count"),
        "synthesis.synthesize_self_s":
            (self_time["synthesis.synthesize"] / n, "s"),
        "synthesis.lp_calls": (lp_calls / n, "count"),
        "synthesis.lp_s": (total["synthesis.lp"] / n, "s"),
        "synthesis.lp_feasible_ratio":
            (lp_feasible / lp_calls if lp_calls else 0.0, "ratio"),
    }
    for method in AVG_METHODS:
        metrics[f"dynamics.avg_calls.{method}"] = (avg_calls[method] / n,
                                                   "count")
        metrics[f"dynamics.avg_self_s.{method}"] = (avg_self[method] / n, "s")
    for rung in RUNGS:
        metrics[f"synthesis.rung_won.{rung}"] = (rungs[rung] / n, "count")
    for kind in CERTIFICATES:
        metrics[f"synthesis.certificates.{kind}"] = (certificates[kind] / n,
                                                     "count")
    bases = {
        "dynamics.multi_class_share":
            f"{scc_multi} multi-class chains / {scc_calls} SCC calls",
        "synthesis.lp_feasible_ratio":
            f"{lp_feasible} feasible / {lp_calls} attempted LPs",
    }
    return metrics, bases
