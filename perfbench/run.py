"""Certification-throughput benchmark for bdsched.

    python3 perfbench/run.py --workload sweep-h2k4 --seed 0 --seconds 40 --trace 0

With ``--trace 0`` the workload's round of campaigns repeats for about
``--seconds`` and the end-to-end metrics are reported: ``instances_per_s``
(the round's instances over the sum of each campaign's fastest repeat),
``setup_s`` (median over fresh set-up processes spread over the run) and
``peak_rss_mb``.  ``failed_frac`` is printed beside them and carried by the
result's ``attempted`` and ``failed`` counts.

With ``--trace 1`` one fixed round runs three times: serially, on two
workers, and serially under the span tracer.  The per-layer metrics come
from the traced pass; the two untraced passes give ``harness.speedup_2w``
and ``trace.overhead_ratio``.  Spans are written to
``perfbench/out/<workload>.spans.tsv.gz``.

Every campaign's summary, and every round's merged summary, passes the
correctness gate in workloads.py.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  ``--tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_PROBES = 11

#: Per-layer metrics: (name, unit, better, span or counter it is read from,
#: end-to-end metric and workload it should move).
PER_LAYER = (
    ("offline.solve_partial.calls", "count", "lower", "offline.solve_partial", "instances_per_s on fuzz-deep, fuzz-long"),
    ("offline.solve_partial.unique", "count", "lower", "offline.solve_partial", "instances_per_s on fuzz-deep, fuzz-long"),
    ("offline.solve_partial.redundant_ratio", "ratio", "lower", "offline.solve_partial", "instances_per_s on fuzz-deep, fuzz-long"),
    ("offline.solve_partial.self_s", "s", "lower", "offline.solve_partial", "instances_per_s on fuzz-deep, fuzz-long"),
    ("offline.opt_full.s", "s", "lower", "offline.opt_full", "instances_per_s on fuzz-deep, fuzz-long"),
    ("offline.brute_force_partial.calls", "count", "lower", "offline.brute_force_partial", "instances_per_s on fuzz-deep"),
    ("offline.brute_force_partial.self_s", "s", "lower", "offline.brute_force_partial", "instances_per_s on fuzz-deep"),
    ("model.quad17.compares", "count", "lower", "model.quad17.compare", "instances_per_s on sweep-h2k4"),
    ("model.quad17.s", "s", "lower", "model.quad17.compare", "instances_per_s on sweep-h2k4"),
    ("model.profit.s", "s", "lower", "model.profit", "instances_per_s on sweep-h2k4"),
    ("model.instance_hash.s", "s", "lower", "model.instance_hash", "instances_per_s on sweep-h2k4"),
    ("cp.run_cp.calls", "count", "lower", "cp.run_cp", "instances_per_s on sweep-h2k4"),
    ("cp.run_cp.self_s", "s", "lower", "cp.run_cp", "instances_per_s on sweep-h2k4"),
    ("cp.queries_logged", "count", "lower", "cp.run_cp", "instances_per_s on sweep-h2k4"),
    ("cp.query_hit_ratio", "ratio", "higher", "cp.run_cp", "instances_per_s on sweep-h2k4"),
    ("cp.fallback_steps", "count", "lower", "cp.run_cp", "instances_per_s on sweep-h2k4"),
    ("analysis.build_intervals.s", "s", "lower", "analysis.build_intervals", "instances_per_s on sweep-h2k4"),
    ("analysis.check_interval_bounds.s", "s", "lower", "analysis.check_interval_bounds", "instances_per_s on sweep-h2k4"),
    ("analysis.check_inclusions.self_s", "s", "lower", "analysis.check_inclusions", "instances_per_s on fuzz-deep, fuzz-long"),
    ("analysis.check_lemma_bounds.self_s", "s", "lower", "analysis.check_lemma_bounds", "instances_per_s on fuzz-deep, fuzz-long"),
    ("analysis.check_forced_opt.self_s", "s", "lower", "analysis.check_forced_opt", "instances_per_s on fuzz-deep, fuzz-long"),
    ("analysis.p_set.calls", "count", "lower", "analysis.p_set", "instances_per_s on fuzz-deep, fuzz-long"),
    ("generators.enumerate_instances.s", "s", "lower", "generators.enumerate_instances", "instances_per_s on sweep-h2k4"),
    ("generators.gen_random.s", "s", "lower", "generators.gen_random", "instances_per_s on fuzz-deep, fuzz-long"),
    ("generators.greedy_baseline.s", "s", "lower", "generators.greedy_baseline", "instances_per_s on all"),
    ("harness.check_instance.self_s", "s", "lower", "harness.check_instance", "instances_per_s on sweep-h2k4"),
    ("harness.check_instance.p50_ms", "ms", "lower", "harness.check_instance", "instances_per_s on sweep-h2k4"),
    ("harness.check_instance.p99_ms", "ms", "lower", "harness.check_instance", "instances_per_s on sweep-h2k4"),
    ("harness.cross_check_queries.self_s", "s", "lower", "harness.cross_check_queries", "instances_per_s on fuzz-deep"),
    ("harness.speedup_2w", "ratio", "higher", None, "instances_per_s on sweep-h2k4"),
    ("layer.generators.self_s", "s", "lower", None, "instances_per_s on all"),
    ("layer.cp.self_s", "s", "lower", None, "instances_per_s on sweep-h2k4"),
    ("layer.offline.self_s", "s", "lower", None, "instances_per_s on fuzz-deep, fuzz-long"),
    ("layer.analysis.self_s", "s", "lower", None, "instances_per_s on all"),
    ("layer.model.self_s", "s", "lower", None, "instances_per_s on sweep-h2k4"),
    ("layer.harness.self_s", "s", "lower", None, "instances_per_s on sweep-h2k4"),
    ("trace.instances", "count", "higher", None, "size of the traced pass"),
    ("trace.wall_s", "s", "lower", None, "the sum of the layer self times"),
    ("trace.overhead_ratio", "ratio", "lower", None, "none: cost of tracing"),
)

END_TO_END = (("instances_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Outcome:
    """One campaign: its wall time and its gate verdict."""

    label: str
    instances: int
    wall_s: float
    problems: list[str]
    failed: int
    raised: bool = False
    digest: str = ""


def certify(c, workers: int, tracer=None) -> tuple[Outcome, dict]:
    """Run one campaign and gate its summary.  An exception aborts only this
    campaign and counts all of its instances as failed."""
    entry = "run_exhaustive" if c.grid is not None else "run_fuzz"
    root = tracer.span(f"harness.{entry}", "harness") if tracer else nullcontext()
    t0 = perf_counter()
    try:
        with root:
            report = c.run(workers)
    except Exception as exc:  # the benchmark must report the failure and go on
        wall = perf_counter() - t0
        traceback.print_exc()
        return Outcome(c.label, c.expected, wall, [f"raised {exc!r}"], c.expected, raised=True), {}
    wall = perf_counter() - t0
    summary = workloads.summary_of(report)
    problems, failed = workloads.gate(c.label, c.expected, summary)
    return Outcome(c.label, c.expected, wall, problems, failed, digest=workloads.digest(summary)), summary


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop.  Host context only: it is reported
    beside the metrics and never used to rescale them."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - t0


def setup_time(name: str, seed: int, tiny: bool) -> float:
    """Seconds from the start of a fresh set-up probe process to its readiness."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), name, str(seed), "1" if tiny else "0"],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any reaped child (pool workers)."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def log(outcome: Outcome) -> None:
    verdict = "ok" if not outcome.problems else "FAIL " + "; ".join(outcome.problems)
    print(
        f"# campaign {outcome.label}: {outcome.instances} instances in {outcome.wall_s:.4f} s, "
        f"gate {verdict}, summary sha256 {outcome.digest or '-'}"
    )


def gate_round(label: str, expected: int, outcomes: list[Outcome], summaries: list[dict]) -> None:
    """Gate a round's merged summary; a failure fails all of its instances."""
    problems, _ = workloads.gate(label, expected, workloads.merge(summaries))
    if problems:
        print(f"# round {label}: gate FAIL " + "; ".join(problems))
        outcomes[0].problems += problems
        for outcome in outcomes:
            outcome.failed = outcome.instances


def run_untraced(w, seed: int, seconds: float, probe) -> tuple[list[Outcome], dict, str, list[float]]:
    """Repeat the workload's round of campaigns until the next round would end
    after --seconds (at least one round).  Between rounds, ``probe()`` times
    a fresh set-up; the SETUP_PROBES probes are spread over the run so that
    no single slow spell of the host decides setup_s.

    Every repeat of a campaign certifies the same instances, so the host's
    slow spells are the only thing that makes one repeat slower than another:
    each campaign's fastest repeat is taken, and instances_per_s is the
    round's instances over the sum of those times.  Each round's merged
    summary passes the gate, and every repeat of a campaign must produce the
    same summary as its first.
    """
    campaigns = workloads.round_of(w, seed)
    label = workloads.round_label(campaigns)
    expected = sum(c.expected for c in campaigns)
    walls: dict[str, list[float]] = {c.label: [] for c in campaigns}
    first_digest: dict[str, str] = {}
    outcomes: list[Outcome] = []
    rounds: list[float] = []
    setups: list[float] = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        this_round: list[Outcome] = []
        summaries = []
        for c in campaigns:
            outcome, summary = certify(c, w.workers)
            log(outcome)
            outcomes.append(outcome)
            if outcome.raised:
                break
            expected_digest = first_digest.setdefault(c.label, outcome.digest)
            if outcome.digest != expected_digest:
                outcome.problems.append(f"summary differs from the first repeat ({expected_digest})")
                outcome.failed = outcome.instances
            walls[c.label].append(outcome.wall_s)
            this_round.append(outcome)
            summaries.append(summary)
        else:
            gate_round(label, expected, this_round, summaries)
            rounds.append(perf_counter() - round_start)
            while len(setups) < SETUP_PROBES * min(1.0, (perf_counter() - start) / seconds):
                setups.append(probe())
            if perf_counter() - start + statistics.median(rounds) <= seconds:
                continue
        break
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    best = sum(min(t) for t in walls.values() if t)
    done = sum(c.expected for c in campaigns if walls[c.label])
    rate = done / best if best else 0.0
    note = (f"round of {len(campaigns)} campaigns x {len(rounds)} repeats, fastest repeat of each; "
            f"median-repeat rate {done / sum(statistics.median(t) for t in walls.values() if t):.6g}"
            if best else "no campaign finished")
    return outcomes, {"instances_per_s": rate}, note, setups


def _quantile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000 * ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def run_traced(w, seed: int) -> tuple[list[Outcome], dict, set[str]]:
    """The fixed traced round: serially, on two workers, then traced."""
    campaigns = workloads.trace_round(w, seed)
    label = workloads.round_label(campaigns)
    expected = sum(c.expected for c in campaigns)

    def each(workers: int, tracer=None) -> tuple[list[Outcome], float]:
        outcomes, summaries = [], []
        for c in campaigns:
            outcome, summary = certify(c, workers, tracer)
            log(outcome)
            outcomes.append(outcome)
            summaries.append(summary)
        gate_round(label, expected, outcomes, summaries)
        return outcomes, sum(o.wall_s for o in outcomes)

    serial, serial_s = each(1)
    pair, pair_s = each(2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = each(1, tracer)
    finally:
        tracer.uninstall()
    tracer.write(HERE / "out" / f"{w.name}.spans.tsv.gz")

    span, by_layer, root_s = tracer.totals()
    counts = tracer.counts
    durations = span["harness.check_instance"].durations
    solve_calls = span["offline.solve_partial"].calls
    logged = counts["cp.queries_logged"]
    values = {
        "offline.solve_partial.calls": solve_calls,
        "offline.solve_partial.unique": counts["offline.solve_partial.unique"],
        "offline.solve_partial.redundant_ratio": 1 - counts["offline.solve_partial.unique"] / solve_calls if solve_calls else 0.0,
        "offline.solve_partial.self_s": span["offline.solve_partial"].self_s,
        "offline.opt_full.s": span["offline.opt_full"].inclusive_s,
        "offline.brute_force_partial.calls": span["offline.brute_force_partial"].calls,
        "offline.brute_force_partial.self_s": span["offline.brute_force_partial"].self_s,
        "model.quad17.compares": span["model.quad17.compare"].calls,
        "model.quad17.s": span["model.quad17.compare"].self_s + span["model.quad17.arith"].self_s,
        "model.profit.s": span["model.profit"].inclusive_s,
        "model.instance_hash.s": span["model.instance_hash"].inclusive_s,
        "cp.run_cp.calls": span["cp.run_cp"].calls,
        "cp.run_cp.self_s": span["cp.run_cp"].self_s,
        "cp.queries_logged": logged,
        "cp.query_hit_ratio": 1 - counts["cp.queries_unique"] / logged if logged else 0.0,
        "cp.fallback_steps": counts["cp.fallback_steps"],
        "analysis.build_intervals.s": span["analysis.build_intervals"].inclusive_s,
        "analysis.check_interval_bounds.s": span["analysis.check_interval_bounds"].inclusive_s,
        "analysis.check_inclusions.self_s": span["analysis.check_inclusions"].self_s,
        "analysis.check_lemma_bounds.self_s": span["analysis.check_lemma_bounds"].self_s,
        "analysis.check_forced_opt.self_s": span["analysis.check_forced_opt"].self_s,
        "analysis.p_set.calls": span["analysis.p_set"].calls,
        "generators.enumerate_instances.s": span["generators.enumerate_instances"].inclusive_s,
        "generators.gen_random.s": span["generators.gen_random"].inclusive_s,
        "generators.greedy_baseline.s": span["generators.greedy_baseline"].inclusive_s,
        "harness.check_instance.self_s": span["harness.check_instance"].self_s,
        "harness.check_instance.p50_ms": _quantile_ms(durations, 0.50),
        "harness.check_instance.p99_ms": _quantile_ms(durations, 0.99),
        "harness.cross_check_queries.self_s": span["harness.cross_check_queries"].self_s,
        "harness.speedup_2w": serial_s / pair_s,
        "trace.instances": expected,
        "trace.wall_s": traced_s,
        "trace.overhead_ratio": traced_s / serial_s,
    }
    for layer, self_s in by_layer.items():
        values[f"layer.{layer}.self_s"] = self_s

    absent_spans = tracer.absent_spans()
    absent = {name for name, _, _, source, _ in PER_LAYER if source in absent_spans}
    if "offline.solve_partial.unique" in tracer.hooks_failed:
        absent |= {"offline.solve_partial.unique", "offline.solve_partial.redundant_ratio"}
    if "cp.trace" in tracer.hooks_failed:
        absent |= {"cp.queries_logged", "cp.query_hit_ratio", "cp.fallback_steps"}
    for target in tracer.absent:
        print(f"# absent target {target}")
    print(f"# traced wall {traced_s:.6f} s, root spans {root_s:.6f} s, "
          f"layer self sum {sum(by_layer.values()):.6f} s, {len(tracer.start)} spans, "
          f"{len(durations)} check_instance samples, peak rss {peak_rss_mb():.1f} MB")
    return serial + pair + traced, values, absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="fuzz seeds start at seed * 1,000,000")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload (smoke test)")
    args = parser.parse_args()

    ref_start = reference_loop_s()
    w = workloads.workload(args.workload, args.tiny)
    print(f"# workload {w.name} seed {args.seed} trace {args.trace}{' tiny' if args.tiny else ''}")

    if args.trace:
        outcomes, values, absent = run_traced(w, args.seed)
        table = [(name, unit, values[name], f"-> {moves}" + (" (absent)" if name in absent else ""))
                 for name, unit, _, _, moves in PER_LAYER]
    else:
        outcomes, values, rate_note, setups = run_untraced(
            w, args.seed, args.seconds, lambda: setup_time(args.workload, args.seed, args.tiny))
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = peak_rss_mb()
        notes = {
            "instances_per_s": rate_note,
            "setup_s": f"median of {len(setups)} processes, min {min(setups):.4f} max {max(setups):.4f}",
            "peak_rss_mb": "max of process and pool workers",
        }
        table = [(name, unit, values[name], notes[name]) for name, unit in END_TO_END]

    attempted = sum(o.instances for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = not any(o.problems for o in outcomes)
    host = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "ref_loop_s": [round(ref_start, 6), round(reference_loop_s(), 6)],
    }
    print(f"# host {json.dumps(host)}")
    for name, unit, value, note in table:
        print(f"{name} {value:.6g} {unit}  ({note})")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} instances)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value, _ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
