"""Benchmark workloads, their correctness gate, and the campaign runner.

Every campaign goes through the public entry points the ``bdsched`` CLI
calls (``run_exhaustive`` for ``bdsched exhaustive``, ``run_fuzz`` for
``bdsched fuzz``) and is judged on the summary the CLI would print
(``report_to_json``).  The benchmark only builds the inputs and checks the
output; it changes nothing inside the package.

Importing this module imports ``bdsched`` from this checkout's ``src/``.
That import and the workload construction are what ``setup_s`` times.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bdsched  # noqa: E402
from bdsched.generators import GridSpec, RandomConfig, count_instances  # noqa: E402
from bdsched.harness import CheckConfig, report_to_json, run_exhaustive, run_fuzz  # noqa: E402

if Path(bdsched.__file__).resolve().parent != (SRC / "bdsched").resolve():
    raise ImportError(f"bdsched was imported from {bdsched.__file__}, not from {SRC}")

#: Fuzz seeds of --seed s start at s * SEED_STRIDE, so the seed ranges of
#: different --seed values never overlap within one run.
SEED_STRIDE = 1_000_000

#: The acceptance values of `bdsched exhaustive --values 1,5/4,8/5,2,3`.
ACCEPTANCE_VALUES = (Fraction(1), Fraction(5, 4), Fraction(8, 5), Fraction(2), Fraction(3))

#: The sweep's round: the h=2, k=4 grids over five pairs of the acceptance
#: values, a cycle that uses each value twice.  Each grid has 1,819
#: instances and takes well under a second on two workers, so a run repeats
#: the round many times; the pair 5/4,3 fires all twelve cases.
SWEEP_PAIRS = ((1, Fraction(8, 5)), (Fraction(8, 5), 3), (Fraction(5, 4), 3), (Fraction(5, 4), 2), (1, 2))


@dataclass(frozen=True)
class Workload:
    """One named campaign shape.

    An untraced run repeats one round of campaigns.  An exhaustive workload
    (``grids`` set) has one campaign per grid as its round, in both the
    untraced and the traced pass, and ignores the seed.  A fuzz workload
    (``fuzz`` set) has ``round_seeds`` consecutive seeds from
    ``seed * SEED_STRIDE`` as its round, split into campaigns of
    ``chunk_seeds``; its traced pass is one campaign of the first
    ``trace_seeds`` seeds.
    """

    name: str
    workers: int
    checks: CheckConfig
    grids: tuple[GridSpec, ...] = ()
    fuzz: RandomConfig | None = None
    round_seeds: int = 0
    chunk_seeds: int = 0
    trace_seeds: int = 0


# Why each workload was chosen is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-h2k4",
            workers=2,
            checks=CheckConfig(forced_opt=True),
            grids=tuple(
                GridSpec(horizon=2, max_packets=4, value_grid=tuple(map(Fraction, pair))) for pair in SWEEP_PAIRS
            ),
        ),
        Workload(
            "fuzz-deep",
            workers=1,
            checks=CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True, cross_check=True),
            fuzz=RandomConfig(),
            round_seeds=400,
            chunk_seeds=10,
            trace_seeds=1000,
        ),
        Workload(
            "fuzz-long",
            workers=1,
            checks=CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True),
            fuzz=RandomConfig(horizon=40, arrival_rate=1.5),
            round_seeds=40,
            chunk_seeds=2,
            trace_seeds=200,
        ),
    )
}

#: Small versions of the workloads for the smoke test.
TINY = {
    "sweep-h2k4": Workload(
        "sweep-h2k4", 2, CheckConfig(forced_opt=True),
        grids=(GridSpec(horizon=1, max_packets=2, value_grid=ACCEPTANCE_VALUES),),
    ),
    "fuzz-deep": Workload(
        "fuzz-deep", 1, WORKLOADS["fuzz-deep"].checks,
        fuzz=RandomConfig(), round_seeds=6, chunk_seeds=3, trace_seeds=8,
    ),
    "fuzz-long": Workload(
        "fuzz-long", 1, WORKLOADS["fuzz-long"].checks,
        fuzz=WORKLOADS["fuzz-long"].fuzz, round_seeds=2, chunk_seeds=1, trace_seeds=2,
    ),
}

# Summaries of the seed commit, keyed by round label (a round's campaign
# summaries are merged first).  Only these fields are compared; keys that
# later versions add to the summary are ignored.
PINS: dict[str, dict] = {
    "sweep-h2k4:5 grids": {"instances": 9095, "max_ratio": "19/15", "cases_seen": {
        "1.1": 12679, "1.2.1": 888, "1.2.2": 5078, "1.2.3.1": 306, "1.2.3.2": 483, "1.2.3.3": 105,
        "1.2.3.4": 270, "2.1": 78, "2.2.1": 1, "2.2.2.2": 1, "commit": 5358, "idle": 5018}},
    "fuzz-deep:0+400": {"instances": 400, "max_ratio": "95/82", "cases_seen": {
        "1.1": 1161, "1.2.1": 102, "1.2.2": 442, "1.2.3.1": 54, "1.2.3.2": 48, "1.2.3.3": 60,
        "1.2.3.4": 40, "2.1": 8, "2.2.1": 1, "commit": 585, "idle": 444}},
    "fuzz-deep:0+1000": {"instances": 1000, "max_ratio": "95/82", "cases_seen": {
        "1.1": 2720, "1.2.1": 277, "1.2.2": 1152, "1.2.3.1": 134, "1.2.3.2": 140, "1.2.3.3": 132,
        "1.2.3.4": 103, "2.1": 25, "2.2.1": 2, "2.2.2.2": 1, "commit": 1507, "idle": 1131}},
    "fuzz-long:0+40": {"instances": 40, "max_ratio": "716/705", "cases_seen": {
        "1.1": 708, "1.2.1": 74, "1.2.2": 257, "1.2.3.1": 38, "1.2.3.2": 20, "1.2.3.3": 23,
        "1.2.3.4": 34, "2.1": 6, "2.2.2.1": 1, "commit": 386, "idle": 117}},
    "fuzz-long:0+200": {"instances": 200, "max_ratio": "649/630", "cases_seen": {
        "1.1": 3468, "1.2.1": 383, "1.2.2": 1258, "1.2.3.1": 213, "1.2.3.2": 130, "1.2.3.3": 118,
        "1.2.3.4": 180, "2.1": 45, "2.2.1": 3, "2.2.2.1": 4, "commit": 1967, "idle": 532}},
}


@dataclass(frozen=True)
class Campaign:
    """One call into the harness: one grid, or a range of fuzz seeds."""

    workload: Workload
    grid: GridSpec | None = None
    first_seed: int = 0
    count: int = 0

    @property
    def label(self) -> str:
        if self.grid is not None:
            values = ",".join(str(v) for v in self.grid.value_grid)
            return f"{self.workload.name}:h{self.grid.horizon}k{self.grid.max_packets}v{values}"
        return f"{self.workload.name}:{self.first_seed}+{self.count}"

    @property
    def expected(self) -> int:
        """Instances the campaign must certify."""
        if self.grid is not None:
            return count_instances(self.grid)
        return self.count

    def run(self, workers: int):
        w = self.workload
        if self.grid is not None:
            return run_exhaustive(self.grid, w.checks, workers=workers)
        seeds = range(self.first_seed, self.first_seed + self.count)
        return run_fuzz(seeds, w.fuzz, w.checks, workers=workers)


def workload(name: str, tiny: bool = False) -> Workload:
    """The workload named `name`, or its smoke-test version."""
    return (TINY if tiny else WORKLOADS)[name]


def round_of(w: Workload, seed: int) -> list[Campaign]:
    """The campaigns that one round of an untraced run makes, in order."""
    if w.grids:
        return [Campaign(w, grid=g) for g in w.grids]
    first = seed * SEED_STRIDE
    return [Campaign(w, first_seed=first + k, count=w.chunk_seeds) for k in range(0, w.round_seeds, w.chunk_seeds)]


def trace_round(w: Workload, seed: int) -> list[Campaign]:
    """The campaigns that every pass of a traced run makes."""
    if w.grids:
        return round_of(w, seed)
    return [Campaign(w, first_seed=seed * SEED_STRIDE, count=w.trace_seeds)]


def round_label(campaigns: list[Campaign]) -> str:
    """The label of a round of campaigns; it keys the round's pin."""
    first = campaigns[0]
    if first.grid is not None:
        return f"{first.workload.name}:{len(campaigns)} grids"
    return f"{first.workload.name}:{first.first_seed}+{sum(c.count for c in campaigns)}"


def summary_of(report) -> dict:
    """The summary exactly as `bdsched exhaustive|fuzz --format json` prints it."""
    return json.loads(report_to_json(report))["summary"]


def gate(label: str, expected: int, summary: dict) -> tuple[list[str], int]:
    """Check the summary of a campaign or round; return (problems, failed
    instances).

    Violations count their instances as failed; a wrong instance count or a
    pinned field that moved fails all of them.
    """
    problems: list[str] = []
    failed = summary.get("violations", expected)
    if failed:
        problems.append(f"{failed} violations, findings {summary.get('findings_by_kind')}")
    elif summary.get("findings_by_kind"):
        problems.append(f"findings {summary['findings_by_kind']}")
        failed = expected
    mismatch = []
    if summary.get("instances") != expected:
        mismatch.append(f"instances {summary.get('instances')} != {expected}")
    pin = PINS.get(label)
    if pin is not None:
        if summary.get("instances") != pin["instances"]:
            mismatch.append(f"instances {summary.get('instances')} != pinned {pin['instances']}")
        got_ratio = summary.get("max_ratio", {}).get("exact")
        if got_ratio != pin["max_ratio"]:
            mismatch.append(f"max_ratio {got_ratio} != {pin['max_ratio']}")
        if summary.get("cases_seen") != pin["cases_seen"]:
            mismatch.append(f"cases_seen {summary.get('cases_seen')} != {pin['cases_seen']}")
    if mismatch:
        problems += mismatch
        failed = expected
    return problems, failed


def merge(summaries: list[dict]) -> dict:
    """The summary fields the gate reads, combined over a round's campaigns."""
    merged: dict = {"instances": 0, "violations": 0, "findings_by_kind": {}, "cases_seen": {}}
    best = None
    for s in summaries:
        merged["instances"] += s.get("instances", 0)
        merged["violations"] += s.get("violations", 0)
        for field in ("findings_by_kind", "cases_seen"):
            for k, v in s.get(field, {}).items():
                merged[field][k] = merged[field].get(k, 0) + v
        exact = (s.get("max_ratio") or {}).get("exact")
        if exact is not None and (best is None or Fraction(exact) > Fraction(best)):
            best = exact
    merged["cases_seen"] = dict(sorted(merged["cases_seen"].items()))
    merged["max_ratio"] = {"exact": best}
    return merged


def digest(summary: dict) -> str:
    """sha256 of the canonical summary JSON, for information only."""
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
