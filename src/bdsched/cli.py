"""Command line interface.

Subcommands: run, trace, exhaustive, fuzz, compare.  Exit codes: 0 all
checks pass, 1 a property violation was found (a witness instance is
emitted), 2 input or usage error, a path that cannot be read or written
included.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cp import run_cp, trace_records, trace_to_jsonl
from .generators import GridSpec, RandomConfig, count_bases, count_instances, greedy_baseline
from .harness import (
    CheckConfig,
    certify,
    check_or_crash,
    compare_algorithms,
    evaluate,
    minimize_witness,
    render_rows_csv,
    report_to_json,
    run_exhaustive,
    run_fuzz,
)
from .model import (
    Instance,
    InstanceFormatError,
    dump_instance,
    load_instance,
    profit,
    render_decimal,
    render_value,
    validate_instance,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

#: cli_exhaustive refuses larger grids unless --yes is passed.
GUARD_LIMIT = 10**7


def _load_instance_file(path: str) -> Instance:
    inst = load_instance(Path(path).read_text())
    violations = validate_instance(inst)
    if violations:
        msgs = "; ".join(f"packet {v.packet_id}: {v.reason}" for v in violations)
        raise InstanceFormatError(f"invalid instance in {path}: {msgs}")
    return inst


def _parse_values(raw: str) -> tuple[Fraction, ...]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(Fraction(part))
        except ZeroDivisionError:
            raise InstanceFormatError(f"value {part!r} has a zero denominator") from None
    if not out:
        raise InstanceFormatError("empty value list")
    return tuple(out)


def _parse_seed_range(raw: str) -> range:
    """A..B, both ends inclusive."""
    try:
        lo_s, hi_s = raw.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise InstanceFormatError(f"bad seed range {raw!r}; expected A..B") from None
    if hi < lo:
        raise InstanceFormatError(f"bad seed range {raw!r}: end before start")
    return range(lo, hi + 1)


def _check_workers(workers: int) -> None:
    """A count below 1 would otherwise run the campaign serially."""
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")


def _write_trace_dir(trace, directory: str) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.jsonl").write_text(trace_to_jsonl(trace))


def cmd_run(args) -> int:
    inst = _load_instance_file(args.instances)
    run = evaluate(inst)
    trace, opt_sched, report = run
    greedy = greedy_baseline(inst)
    v_greedy = profit(greedy, inst)
    res = certify(run, CheckConfig(inclusions=True, lemma_bounds=True, forced_opt=True))

    if args.trace_dir:
        _write_trace_dir(trace, args.trace_dir)

    if args.json:
        doc = {
            "schedules": {
                "cp": {str(rec.t): rec.transmitted for rec in trace.steps if rec.transmitted is not None},
                "opt": {str(t): pid for t, pid in sorted(opt_sched.items())},
                "greedy": {str(t): pid for t, pid in sorted(greedy.items())},
            },
            "profits": {
                "cp": render_value(report.v_cp),
                "opt": render_value(report.v_opt),
                "greedy": render_value(v_greedy),
            },
            "within_bound": report.global_within_bound,
            "intervals": [
                {
                    "cp_span": list(iv.cp_span),
                    "opt_span": list(iv.opt_span),
                    "v_cp": render_value(iv.v_cp),
                    "v_opt": render_value(iv.v_opt),
                    "trigger": iv.trigger,
                    "within_bound": iv.within_bound,
                }
                for iv in report.intervals
            ],
            "findings": [f.to_dict() for f in res.findings],
            "trace": trace_records(trace),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"packets: {len(inst)}   horizon: {inst.horizon}")
        print("case trace:")
        for rec in trace.steps:
            mark = f"commit({rec.committed})" if isinstance(rec.committed, int) else rec.committed
            committed = f"  commit->{mark}" if mark else ""
            extra = f"  [{rec.fallback}]" if rec.fallback else ""
            sent = f"sent {rec.transmitted}" if rec.transmitted is not None else "-"
            print(f"  t={rec.t:<3} case {rec.case:<10} {sent}{committed}{extra}")
        print(f"profit  policy:  {render_value(report.v_cp)}")
        print(f"profit  optimum: {render_value(report.v_opt)}")
        print(f"profit  greedy:  {render_value(v_greedy)}")
        print(f"bound check (v_opt <= R*v_cp): {'ok' if report.global_within_bound else 'VIOLATED'}")
        print("intervals:")
        for iv in report.intervals:
            verdict = "ok" if iv.within_bound else "VIOLATED"
            print(
                f"  cp{iv.cp_span} opt{iv.opt_span} v_cp={render_value(iv.v_cp)} "
                f"v_opt={render_value(iv.v_opt)} [{iv.trigger}] {verdict}"
            )
        if res.findings:
            print("findings:")
            for f in res.findings:
                print(f"  {f.kind}: {f.detail} ({f.lhs} vs {f.rhs})")
        else:
            print("findings: none")

    return EXIT_OK if res.ok else EXIT_VIOLATION


def cmd_trace(args) -> int:
    inst = _load_instance_file(args.instances)
    trace = run_cp(inst)
    text = trace_to_jsonl(trace)
    if args.trace_dir:
        _write_trace_dir(trace, args.trace_dir)
    sys.stdout.write(text)
    return EXIT_OK


def _emit_witness(path: str | None, summary, default_name: str, checks: CheckConfig) -> None:
    """Write the first violation, minimized under the campaign's own checks,
    or else (when a path is given) the argmax instance."""
    if summary.first_violation is not None:
        inst = summary.first_violation.instance
        witness = minimize_witness(inst, lambda candidate: not check_or_crash(candidate, checks).ok)
        target = path or default_name
        Path(target).write_text(dump_instance(witness))
        print(f"violation witness written to {target}", file=sys.stderr)
    elif path and summary.argmax_instance is not None:
        Path(path).write_text(dump_instance(summary.argmax_instance))


def _print_report(report, fmt: str) -> None:
    summary = report.summary
    if fmt == "json":
        sys.stdout.write(report_to_json(report))
        return
    if fmt == "csv":
        sys.stdout.write(render_rows_csv(report.rows))
        return
    print(f"instances:  {summary.instances}")
    print(f"violations: {summary.violations}")
    max_ratio = summary.max_ratio
    if max_ratio:
        v_opt, v_cp = max_ratio
        ratio = v_opt / v_cp
        print(f"max ratio:  ({render_value(v_opt)}) / ({render_value(v_cp)}) = {render_decimal(ratio)}")
    if summary.cases_seen:
        cases = " ".join(f"{k}:{v}" for k, v in sorted(summary.cases_seen.items()))
        print(f"cases:      {cases}")


def cmd_exhaustive(args) -> int:
    _check_workers(args.workers)
    spec = GridSpec(
        horizon=args.horizon,
        max_packets=args.max_packets,
        value_grid=_parse_values(args.values),
    )
    total = count_instances(spec)
    print(f"estimated instances: {total}", file=sys.stderr)
    if total > GUARD_LIMIT and not args.yes:
        print(f"grid larger than {GUARD_LIMIT}; pass --yes to proceed", file=sys.stderr)
        return EXIT_INPUT
    keep_rows = args.format == "csv"
    checked = total if keep_rows else count_bases(spec)
    folded = total - checked
    print(f"checked instances: {checked}   translates, inert twins and scaled copies folded in: {folded}", file=sys.stderr)
    checks = CheckConfig(forced_opt=True)
    report = run_exhaustive(spec, checks, workers=args.workers, keep_rows=keep_rows)
    _print_report(report, args.format)
    _emit_witness(args.emit_witness, report.summary, "witness.json", checks)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_fuzz(args) -> int:
    seeds = _parse_seed_range(args.seeds)
    _check_workers(args.workers)
    config = RandomConfig(
        horizon=args.horizon,
        arrival_rate=args.rate,
        value_grid=_parse_values(args.values),
    )
    checks = CheckConfig(
        inclusions=True, lemma_bounds=True, forced_opt=True, cross_check=args.cross_check
    )
    report = run_fuzz(
        list(seeds), config, checks, workers=args.workers, keep_rows=args.format == "csv"
    )
    _print_report(report, args.format)
    _emit_witness(args.emit_witness, report.summary, "witness.json", checks)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_compare(args) -> int:
    inst = _load_instance_file(args.instances)
    rows = compare_algorithms(inst)
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    elif args.format == "csv":
        print("algorithm,profit,profit_decimal,opt_ratio,opt_ratio_decimal")
        for r in rows:
            print(",".join(r[k] for k in ("algorithm", "profit", "profit_decimal", "opt_ratio", "opt_ratio_decimal")))
    else:
        for r in rows:
            print(f"{r['algorithm']:<8} profit={r['profit']:<10} opt/alg={r['opt_ratio']} ({r['opt_ratio_decimal']})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdsched",
        description="Simulate and certify 2-bounded delay packet scheduling with lookahead.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="trace one instance and check every bound")
    p_run.add_argument("--instances", required=True, help="instance JSON file")
    p_run.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
    p_run.add_argument("--trace-dir", help="write per-step JSONL records into this directory")
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser("trace", help="emit the per-step JSONL trace")
    p_trace.add_argument("--instances", required=True)
    p_trace.add_argument("--trace-dir")
    p_trace.set_defaults(func=cmd_trace)

    p_ex = sub.add_parser("exhaustive", help="certify every instance of a small grid")
    p_ex.add_argument("--horizon", type=int, default=2)
    p_ex.add_argument("--max-packets", type=int, default=3)
    p_ex.add_argument("--values", default="1,5/4,8/5,2,3")
    p_ex.add_argument("--workers", type=int, default=1)
    p_ex.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_ex.add_argument("--emit-witness", metavar="PATH")
    p_ex.add_argument("--yes", action="store_true", help="proceed past the instance-count guard")
    p_ex.set_defaults(func=cmd_exhaustive)

    p_fuzz = sub.add_parser("fuzz", help="run seeded random instances through all checks")
    p_fuzz.add_argument("--seeds", default="0..999", help="inclusive seed range A..B")
    p_fuzz.add_argument("--horizon", type=int, default=6)
    p_fuzz.add_argument("--rate", type=float, default=1.2, help="expected packets per step")
    p_fuzz.add_argument("--values", default="1,5/4,13/8,2,3")
    p_fuzz.add_argument("--workers", type=int, default=1)
    p_fuzz.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_fuzz.add_argument("--emit-witness", metavar="PATH")
    p_fuzz.add_argument(
        "--cross-check",
        action="store_true",
        help="replay the policy's queries and the optimum's window against the dynamic-programming oracle",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_cmp = sub.add_parser("compare", help="policy vs greedy vs optimum on one instance")
    p_cmp.add_argument("--instances", required=True)
    p_cmp.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # InstanceFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
