"""Run a fault-injection campaign (or soak) from the command line.

::

    python -m repro.faults                      # quick matrix -> results/
    python -m repro.faults --seed s2 --iters 5
    python -m repro.faults --out /tmp/faults.json --jobs 4
    python -m repro.faults --soak               # chained-fault soak suite
    python -m repro.faults --soak --seed s7 --duration 120
    python -m repro.faults --soak --trace traces/  # + one Perfetto file per run

The report is JSON with sorted keys: running the same seed twice produces
byte-identical files (the determinism the campaign and soak tests assert).
``--soak`` swaps the one-fault-per-cell matrix for the chained soak suite
(fail→recover I/OAT flaps, flapping links, incast bursts) with periodic
livelock/leak checkpoints — see DESIGN.md §12.  ``--tiebreak-seed`` replays
the whole run under a seeded shuffle of same-timestamp ties (see
:mod:`repro.analysis.races`): outcome totals should be unchanged by any
such shuffle, so a differing report is a schedule race under faults.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.faults.campaign import quick_campaign_spec, run_campaign, write_report
from repro.reporting.sweeps import SweepExecutor
from repro.reporting.table import Table


def _write_traces(records: list, out_dir: str, name) -> None:
    """Extract each record's trace into its own Perfetto file, named
    ``name(record)``, and print how many were written.

    The timelines are moved out of the report (they would swamp the JSON
    and break its byte-stable determinism contract, which excludes traces).
    """
    from repro.obs.trace import write_trace

    written = 0
    for record in records:
        doc = record.pop("trace_events", None)
        if doc is None:
            continue
        write_trace(doc, Path(out_dir) / name(record))
        written += 1
    print(f"traces: {written} file(s) under {out_dir}")


def _soak_main(args) -> int:
    """``--soak``: the chained-fault suite with checkpointed invariants."""
    from repro.faults.soak import SOAK_DEADLINE, run_soak_suite
    from repro.units import ms

    deadline = ms(args.duration) if args.duration is not None else SOAK_DEADLINE
    seed = args.seed if args.seed != "campaign" else "soak"
    report = run_soak_suite(seed, iters=args.iters * 2, deadline=deadline,
                            trace=args.trace is not None)
    if args.trace is not None:
        _write_traces(report["runs"], args.trace,
                      lambda run: f'{run["soak"]}.json')
    out = args.out
    if out == "results/faults_campaign.json":
        out = "results/faults_soak.json"
    path = write_report(report, out)

    t = Table(f"fault soak (seed={seed!r})",
              ["run", "completed", "failed", "hung", "breaker trips",
               "reopens", "sanitizer"])
    for run in report["runs"]:
        t.add_row(
            f'{run["soak"]}/{run["workload"]}/{run["size"] // 1024}K',
            run["outcomes"]["completed"],
            run["outcomes"]["failed"],
            run["outcomes"]["hung"],
            run["health"].get("breaker_trips", 0),
            run["health"].get("breaker_reopens", 0),
            "DIRTY" if run["sanitizer"] else "clean",
        )
    print(t.render())
    fabric = report.get("fabric")
    if fabric is not None:
        ft = Table(f"fabric soak (seed={seed!r})",
                   ["run", "topology", "delivered", "failed", "retried",
                    "reroutes", "flaps supp.", "dead", "epoch", "sanitizer"])
        for run in fabric["runs"]:
            res = run.get("resilience", {})
            ft.add_row(
                run["soak"], run["topology"],
                run["net"]["msgs_delivered"], run["net"]["msgs_failed"],
                run["net"]["chunks_retried"],
                res.get("reroutes", 0), res.get("flaps_suppressed", 0),
                len(run["dead_ranks"]), run["epoch"],
                "DIRTY" if run["sanitizer"] else "clean",
            )
        print(ft.render())
    totals = report["totals"]
    print(f"report: {path}")
    print(f"totals: {totals['completed']} completed, {totals['failed']} "
          f"failed (typed), {totals['hung']} hung")
    bad = totals["hung"] or report["sanitizer_dirty_runs"]
    if fabric is not None and fabric["sanitizer_dirty_runs"]:
        bad = True
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="deterministic fault-injection campaign",
    )
    ap.add_argument("--seed", default="campaign", help="plan seed (string)")
    ap.add_argument("--iters", type=int, default=3,
                    help="messages per sender per cell")
    ap.add_argument("--out", default="results/faults_campaign.json",
                    help="report path")
    ap.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: REPRO_JOBS or 1)")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable the sweep cache")
    ap.add_argument("--trace", default=None, metavar="DIR",
                    help="also write one Perfetto trace per cell (or per "
                         "host-pair soak run) into DIR")
    ap.add_argument("--soak", action="store_true",
                    help="run the chained-fault soak suite instead of the "
                         "campaign matrix")
    ap.add_argument("--duration", type=int, default=None, metavar="MS",
                    help="soak deadline in simulated milliseconds "
                         "(default 60)")
    ap.add_argument("--tiebreak-seed", default=None, metavar="SEED",
                    help="replay the whole run under a seeded shuffle of "
                         "same-timestamp event ties (schedule-race hunting; "
                         "forces --jobs 1 and disables the sweep cache)")
    args = ap.parse_args(argv)

    if args.tiebreak_seed is not None:
        # The policy factory is process-global state: worker processes would
        # not inherit it, and cached cells would be stale FIFO results.
        from repro.simkernel.tiebreak import SeededShuffleTieBreak, default_tiebreak

        args.jobs, args.no_cache = 1, True
        with default_tiebreak(lambda: SeededShuffleTieBreak(args.tiebreak_seed)):
            return _dispatch(args)
    return _dispatch(args)


def _dispatch(args) -> int:
    if args.soak:
        return _soak_main(args)

    spec = quick_campaign_spec(args.seed)
    if args.iters != spec.iters:
        from dataclasses import replace

        spec = replace(spec, iters=args.iters)
    executor = SweepExecutor(jobs=args.jobs, cache=not args.no_cache)
    report = run_campaign(spec, executor=executor, trace=args.trace is not None)
    if args.trace is not None:
        _write_traces(report["cells"], args.trace,
                      lambda c: f'{c["workload"]}-{c["size"]}-{c["plan"]}.json')
    path = write_report(report, args.out)

    t = Table(f"fault campaign (seed={args.seed!r})",
              ["cell", "completed", "failed", "hung", "sanitizer"])
    for cell in report["cells"]:
        t.add_row(
            f'{cell["workload"]}/{cell["size"] // 1024}K/{cell["plan"]}',
            cell["outcomes"]["completed"],
            cell["outcomes"]["failed"],
            cell["outcomes"]["hung"],
            "DIRTY" if cell["sanitizer"] else "clean",
        )
    print(t.render())
    totals = report["totals"]
    print(f"report: {path}")
    print(f"totals: {totals['completed']} completed, {totals['failed']} "
          f"failed (typed), {totals['hung']} hung; "
          f"{report['retransmissions']} retransmissions, "
          f"{report['dead_letters']} dead letters, "
          f"{report['fallback_copies']} memcpy fallbacks")
    bad = totals["hung"] or report["sanitizer_dirty_cells"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
