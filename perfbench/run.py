"""payoffcontrol benchmark: closed-loop CLI workloads, checked outputs.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-limit --seed 1 \
        --seconds 20 --trace 0

One process, one caller: each ``payoffctl`` op starts when the previous
one returns.  A pass runs every op of the workload once; passes repeat
until ``--seconds`` have elapsed (at least one pass).  Every op's output
is checked; an op fails when it raises, exits with the wrong code or
fails its check, and failures never stop the run.  Op latencies are also
reported in units of a calibration slice timed between ops, which keeps
the gated figures steady while the machine's speed drifts.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
op untraced and then traced and reports the per-layer metrics from the
traced runs plus the tracing overhead.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only at import time)
from calibration import calibrate, reference_seconds  # noqa: E402
from workloads import DEFECT_MESSAGE, WORKLOADS, MissingProgram  # noqa: E402

WORK = HERE / ".work"
SETUP_SAMPLES = 5


@dataclass
class Result:
    op: workloads.Op
    latency: float
    reason: str | None
    facts: dict
    at: float = 0.0  # perf_counter at the op's midpoint
    cost: float = 0.0  # latency in calibration units (untraced runs)

    @property
    def expected_failure(self) -> bool:
        """A documented baseline defect, failing the documented way."""
        return (self.op.known_defect and self.reason is not None
                and DEFECT_MESSAGE in self.reason)


def run_op(pc, op, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = pc.cli.main(argv)
    except Exception:  # a crash is a failed op; the run goes on
        latency = time.perf_counter() - start
        last = traceback.format_exc().strip().splitlines()[-1]
        return Result(op, latency, f"raised {last}", {},
                      start + latency / 2)
    latency = time.perf_counter() - start
    try:
        reason, facts = op.check(rc, out.getvalue(), err.getvalue())
    except Exception:
        last = traceback.format_exc().strip().splitlines()[-1]
        reason, facts = f"check raised {last}", {}
    return Result(op, latency, reason, facts, start + latency / 2)


CALIBRATE_EVERY_S = 0.25


def assign_costs(results, calib):
    """Set each result's ``cost``: its latency over the mean of the last
    calibration sample before its midpoint and the first one after, the
    machine's speed while it ran."""
    times = [at for at, _ in calib]
    for result in results:
        i = bisect.bisect(times, result.at)
        near = calib[max(0, i - 1):i + 1]
        result.cost = result.latency / statistics.fmean(
            seconds for _, seconds in near)


def run_passes(pc, workload, seconds, results, calib=None):
    """Run whole passes until ``seconds`` elapse, at least one.

    Returns the busy time of each pass (the sum of its op latencies).
    With a ``calib`` list, a calibration sample ``(time, seconds)`` is
    taken between ops every ``CALIBRATE_EVERY_S`` seconds, outside every
    op's timing, and one more at the end; ``assign_costs`` then sets each
    op's ``cost``.
    """
    durations = []
    start = time.perf_counter()
    last_calib = -math.inf
    while True:
        busy = 0.0
        for index, op in enumerate(workload.ops):
            if calib is not None and \
                    time.perf_counter() - last_calib >= CALIBRATE_EVERY_S:
                slice_s = calibrate()
                last_calib = time.perf_counter()
                calib.append((last_calib - slice_s / 2, slice_s))
            result = run_op(pc, op, workload.argv(index, len(durations)))
            busy += result.latency
            results.append(result)
        durations.append(busy)
        if time.perf_counter() - start >= seconds:
            break
    if calib is not None:
        slice_s = calibrate()
        calib.append((time.perf_counter() - slice_s / 2, slice_s))
    return durations


def setup_probe(workload, seed, size, count) -> list[tuple[float, float]]:
    """(wall seconds, reference seconds) of the set-up (import, input
    generation, parsing) of ``count`` fresh processes."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), size],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        wall, ref = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(ref)))
    return samples


# ---------------------------------------------------------------------------
# Metrics


def _median_ms(results, kind):
    values = [r.latency * 1e3 for r in results if r.op.kind == kind]
    return (statistics.median(values), len(values)) if values else (None, 0)


def exactness(results) -> float:
    """Fewest exact digits over the workload's exactness probes: verify
    residuals, and the true negative's best |<column, vbar>|."""
    digits = [workloads.exact_digits(r.facts["residual"])
              for r in results if "residual" in r.facts]
    digits += [workloads.exact_digits(r.facts["achieved"])
               for r in results
               if r.op.kind == "falsify-negative" and "achieved" in r.facts]
    return min(digits) if digits else workloads.EXACT_DIGITS_CAP


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def named_report(results, ops_per_pass):
    """The per-workload quality and speed figures, by op class."""
    rows = []
    verify = [r for r in results if "opponents" in r.facts]
    if verify:
        opponents = sum(r.facts["opponents"] for r in verify)
        busy = sum(r.latency for r in verify)
        rows.append(("verify_opponents_per_s", opponents / busy, "1/s",
                     f"{opponents} opponents in {len(verify)} verify ops"))
    for kind, name in (("synth", "synth_ms_p50"),
                       ("certify", "certify_ms_p50"),
                       ("certify-lp", "certify_lp_ms_p50"),
                       ("detect", "detect_ms_p50"),
                       ("falsify", "falsify_ms_p50")):
        value, count = _median_ms(results, kind)
        if count:
            rows.append((name, value, "ms", f"n={count}"))
    margins = [r.facts["margin"] for r in results[:ops_per_pass]
               if "margin" in r.facts]
    if margins:
        rows.append(("synth_margin_mean", statistics.fmean(margins), "prob.",
                     f"over {len(margins)} feasible targets"))
    achieved = [r.facts["achieved"] for r in results
                if r.op.kind == "falsify" and "achieved" in r.facts]
    if achieved:
        rows.append(("falsify_achieved_mean", statistics.fmean(achieved), "-",
                     f"over {len(achieved)} falsify ops"))
    sims = [r for r in results if "episodes" in r.facts]
    if sims:
        episodes = sum(r.facts["episodes"] for r in sims)
        busy = sum(r.latency for r in sims)
        rows.append(("simulate_episodes_per_s", episodes / busy, "1/s",
                     f"{episodes} episodes in {len(sims)} simulate ops"))
    return rows


def class_costs(results, ops_per_pass):
    """Each op class's cost per pass: every op's median cost over the
    run's passes, in calibration units (see ``assign_costs``), summed
    over the ops of the class.

    Ops marked ``known_defect`` are left out: they stop at the defect, so
    fixing it would add their full cost to the class and read as a slowdown.
    """
    costs = {}
    for index in range(ops_per_pass):
        runs = results[index::ops_per_pass]
        op = runs[0].op
        if op.known_defect:
            continue
        kind = workloads.COST_CLASS.get(op.kind, op.kind)
        costs[kind] = costs.get(kind, 0.0) + statistics.median(
            r.cost for r in runs)
    return costs


def end_to_end(results, setup_samples, ops_per_pass, workload):
    """The gated metrics.  Each op class's cost per pass is taken over its
    baseline cost; ``cost_index`` is the mean of those ratios, so every
    class weighs the same whatever its share of the wall time, and
    ``worst_class_ratio`` the largest, so one class slowing down shows
    even when it is a small share of the pass.  The report prints
    wall-clock figures too."""
    costs = class_costs(results, ops_per_pass)
    baseline = workloads.CLASS_BASELINE[workload]
    ratios = [costs[kind] / baseline[kind] for kind in baseline]
    return {
        "setup_s": (statistics.median(ref for _, ref in setup_samples),
                    "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cost_index": (statistics.fmean(ratios), "ratio"),
        "worst_class_ratio": (max(ratios), "ratio"),
        "exact_digits": (exactness(results[:ops_per_pass]), "digits"),
    }


def traced_run(pc, workload, seconds, results):
    import tracing

    # every op runs twice in a row on the same arguments, untraced and
    # then traced, so both halves see the machine at nearly the same speed
    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        k = len(traced)
        plain = busy = 0.0
        for index, op in enumerate(workload.ops):
            argv = workload.argv(index, k)
            result = run_op(pc, op, argv)
            results.append(result)
            plain += result.latency
            tracer.op += 1
            tracer.op_kinds.append(op.kind)
            tracer.install(pc)
            try:
                result = run_op(pc, op, argv)
            finally:
                tracer.uninstall()
            results.append(result)
            busy += result.latency
        untraced.append(plain)
        traced.append(busy)
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.write(spans_path)

    passes = len(traced)
    metrics, bases = tracing.layer_metrics(tracer.spans, passes)
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (
        overhead / statistics.median(untraced), "share")

    # observations behind the layer claims in README.md, printed only: a
    # later change to how the program evaluates must not fail the run
    opponents = sum(r.facts.get("opponents", 0)
                    for r in results) / (2 * passes)
    cesaro_elsewhere = sum(
        1 for name, _, _, _, op, note in tracer.spans
        if name == "dynamics.average" and note and
        note.get("method") == "cesaro"
        and tracer.op_kinds[op] != "falsify-negative"
        and tracer.op_kinds[op] != "verify")
    observations = [
        f"verify opponents per pass {opponents:g}, cesaro calls per pass "
        f"{metrics['dynamics.avg_calls.cesaro'][0]:g}",
        f"cesaro calls outside verify and the true negative: "
        f"{cesaro_elsewhere}",
        f"LP calls per pass {metrics['synthesis.lp_calls'][0]:g}",
    ]
    return metrics, bases, observations, untraced, traced, spans_path


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks sampling work (smoke test)")
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        try:
            workload = workloads.prepare(args.workload, args.seed, workdir,
                                         args.size)
        except MissingProgram as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setup_wall = time.perf_counter() - start
        import payoffcontrol as pc

        results: list[Result] = []
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(workload.ops)} ops per pass")
        if args.trace:
            metrics, bases, observations, untraced, traced, spans_path = \
                traced_run(pc, workload, args.seconds, results)
            passes = len(traced)
            print(f"per-layer metrics, per pass, over {passes} traced "
                  f"pass(es); spans in {spans_path.relative_to(HERE.parent)}")
            for name in sorted(metrics):
                value, unit = metrics[name]
                base = f"  ({bases[name]})" if name in bases else ""
                print(f"  {name} {value:.6g} {unit}{base}")
            print(f"tracing overhead {metrics['trace.overhead_s'][0]:.4f} s "
                  f"per pass, median over {passes} pass(es) (untraced "
                  f"{statistics.median(untraced):.4f} s, traced "
                  f"{statistics.median(traced):.4f} s)")
            for line in observations:
                print(f"observe: {line}")
        else:
            setup_samples = [(setup_wall, reference_seconds(setup_wall))]
            setup_samples += setup_probe(args.workload, args.seed, args.size,
                                         SETUP_SAMPLES - 1)
            calib = []
            durations = run_passes(pc, workload, args.seconds, results,
                                   calib=calib)
            assign_costs(results, calib)
            passes = len(durations)
            metrics = end_to_end(results, setup_samples, len(workload.ops),
                                 args.workload)
            print(f"end-to-end metrics over {passes} pass(es), "
                  f"{len(results)} ops")
            for name, (value, unit) in metrics.items():
                print(f"  {name} {value:.6g} {unit}")
            print("wall clock: setup " + " ".join(
                f"{wall:.3f}" for wall, _ in setup_samples) + " s")
            baseline = workloads.CLASS_BASELINE[args.workload]
            print("cost per pass by op class (calib), over baseline:")
            for kind, cost in class_costs(results,
                                          len(workload.ops)).items():
                print(f"  {kind} {cost:.6g} / {baseline[kind]:.6g} = "
                      f"{cost / baseline[kind]:.4f}")
            print(f"wall clock: pass_s {statistics.median(durations):.4f} s "
                  f"(passes " + " ".join(f"{d:.3f}" for d in durations)
                  + f"), calibration "
                  f"{statistics.median(c for _, c in calib) * 1e3:.3f} ms "
                  f"(median of {len(calib)})")
            print("by op class:")
            for name, value, unit, note in named_report(
                    results, len(workload.ops)):
                print(f"  {name} {value:.6g} {unit}  ({note})")

        failed = [r for r in results if r.reason is not None]
        shown = set()  # later passes repeat these ops
        for r in failed:
            if id(r.op) not in shown:
                shown.add(id(r.op))
                tag = "known defect" if r.expected_failure else "FAILED"
                print(f"{tag}: {r.op.kind} {r.op.label}: {r.reason}")
        correct = all(r.expected_failure for r in failed)
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}
        print(json.dumps({"correct": correct, "attempted": len(results),
                          "failed": len(failed), "metrics": reported}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
