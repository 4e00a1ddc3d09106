#!/usr/bin/env python3
"""Host-cost benchmark of the Open-MX I/OAT simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pingpong_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, one fresh
                                                     # interpreter each
    python3 perfbench/run.py --workload stream_large --record-reference
    python3 perfbench/run.py --diff perfbench/out/A.json perfbench/out/B.json

A run turns ``--seed`` into the workload's op list (see ``workloads.py``),
pays set-up (imports, inputs, one untimed warm-up op per configuration,
repeated to take a median), then repeats the op list in closed-loop passes
with phantom payloads on for about ``--seconds`` (whole passes, ending
within half a pass of it) and at least 100 ops.  It then checks the
outputs: no failed op, identical simulated results for every repeat of an
op, the paper invariants of ``check_pass``, the zero predictions of
``predictions.json``, the recorded reference (default seed only) and a
byte-moving re-run of sampled ops.

Host times are reported at a reference host speed: between ops the run
times a fixed calibration kernel that runs none of the simulator's code,
and each pass's op times are divided by how much slower than its
reference the kernel ran in that pass (``measure.HostSpeed``; set-up
time by the whole run's factor), so the swings of a shared host cancel
while a change to the simulator shows in full.  The raw times and factors are printed and kept in the provenance.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced (spans around each op stage plus a CPU-time
profiling timer sampling the innermost ``repro.<module>`` frame) and
reports the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any check fails.  Provenance, per-op records and spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference"

WORKLOAD_NAMES = ("pingpong_small", "stream_large", "fabric_collectives",
                  "lossy_transfers")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
#: op_ms_p90 needs ten samples beyond it
MIN_OPS = 100
#: hard stop for the timed phase, so a run ends well inside 180 s
MAX_TIMED_S = 120.0
SETUP_REPEATS = 3

#: name -> unit of the end-to-end metrics (untraced runs)
END_TO_END = {
    "cpu_s": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "op_ms_p50": "ms", "op_ms_p90": "ms", "msgs_per_s": "1/s",
}

#: layers the CPU sampler attributes to (``src/repro/<layer>/``), plus the
#: package's top-level files (``repro``) and everything else (``other``)
LAYERS = ("simkernel", "ethernet", "core", "memory", "ioat", "mpi", "imb",
          "mx", "cluster", "fabric", "health", "faults", "workloads", "obs",
          "analysis", "reporting", "repro", "other")

#: span stages of one op, in nesting order under the root ``op`` span
STAGES = ("op", "build", "run", "finish", "counters")


def _per_layer_units() -> dict:
    units = {
        "simkernel.events": "count", "simkernel.events_per_cpu_s": "1/s",
        "ethernet.frames": "count", "ethernet.pkts_per_softirq_batch": "ratio",
        "ethernet.rx_dropped": "count",
        "core.offload_dma_ratio": "ratio", "core.pull_replies": "count",
        "core.retransmissions": "count", "core.reacks": "count",
        "core.fallback_copies": "count",
        "memory.copy_calls": "count", "memory.bytes_copied": "bytes",
        "memory.regcache_hit_ratio": "ratio",
        "ioat.descriptors": "count", "ioat.bytes_copied": "bytes",
        "ioat.busy_ns": "sim_ns", "ioat.descriptors_failed": "count",
        "fabric.chunks_forwarded": "count", "fabric.chunks_per_cpu_s": "1/s",
        "fabric.peak_port_queue": "sim_ns", "fabric.ioat_sim_time_ratio": "ratio",
        "health.breaker_trips": "count", "faults.injected": "count",
    }
    units.update({f"span.{s}_self_ms": "ms" for s in STAGES})
    units.update({f"{layer}.cpu_share": "share" for layer in LAYERS})
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


class Run:
    """Executes ops of one workload and keeps their records."""

    def __init__(self, workload, events_total):
        from measure import HostSpeed

        self.workload = workload
        #: the simulator's process-wide event counter (read before/after)
        self.events_total = events_total
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.speed = HostSpeed(("timed", "untraced", "traced"))
        #: (phase, pass) -> (cpu, wall) host-speed factor, set after timing
        self.factors: dict = {}

    def op(self, op: dict, tracer, phase: str, pass_no: int = -1) -> dict:
        params = {k: v for k, v in op.items() if k != "id"}
        e0 = self.events_total()
        c0, w0 = time.process_time(), time.perf_counter()
        rec = {"id": op["id"], "phase": phase, "pass": pass_no, "params": params}
        try:
            with tracer.span("op", op["id"]):
                res = self.workload.run_op(op, tracer.span)
        except Exception as exc:  # an op boundary: record, keep running
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["traceback"] = traceback.format_exc()
            self.failures.append(f"{op['id']} {params}: {rec['error']}")
        else:
            res["sim"]["events"] = self.events_total() - e0
            rec.update(res)
        rec["host_ms"] = (time.process_time() - c0) * 1e3
        rec["wall_ms"] = (time.perf_counter() - w0) * 1e3
        self.records.append(rec)
        return rec

    def passes(self, ops, tracer, phase: str, seconds: float,
               min_ops: int) -> list[dict]:
        """Repeat ``ops`` in passes for about ``seconds`` and at least
        ``min_ops`` ops; one summary (per-layer counts, messages, results
        by op id) per pass.  The last pass is the one that ends nearest
        ``seconds``: it stops once half a mean pass more would pass it,
        so a run does not overshoot by up to a whole pass."""
        from workloads import sum_counts

        out = []
        t0 = time.perf_counter()
        n = 0
        while True:
            results = {}
            for op in ops:
                rec = self.op(op, tracer, phase, len(out))
                self.speed.tick(phase, len(out))
                if "error" not in rec:
                    results[op["id"]] = rec
            counts = sum_counts(r["counts"] for r in results.values())
            counts["simkernel.events"] = sum(r["sim"]["events"]
                                             for r in results.values())
            for err in self.workload.check_pass(ops, results):
                self.failures.append(f"{phase} pass {len(out)}: {err}")
            out.append({"counts": counts,
                        "msgs": sum(r["msgs"] for r in results.values()),
                        "results": results})
            n += len(ops)
            elapsed = time.perf_counter() - t0
            half_pass = elapsed / len(out) / 2
            if (elapsed + half_pass >= seconds and n >= min_ops) \
                    or elapsed >= MAX_TIMED_S:
                return out

    def scaled(self, rec: dict, key: str) -> float:
        """``rec[key]`` (``host_ms`` or ``wall_ms``) at the reference host
        speed: divided by the CPU or wall factor of the record's pass."""
        cpu, wall = self.factors.get((rec["phase"], rec["pass"]),
                                     self.factors[None])
        return rec[key] / (cpu if key == "host_ms" else wall)

    def pass_seconds(self, phase: str, key: str, raw: bool = False) -> float:
        """Host seconds of one pass over the op list in ``phase``: the sum
        over ops of each op's median ``key`` (ms, scaled unless ``raw``)
        across the passes.  Per-op medians drop the bursts a shared
        machine adds to single ops."""
        by_id: dict = {}
        for rec in self.records:
            if rec["phase"] == phase and "error" not in rec:
                by_id.setdefault(rec["id"], []).append(
                    rec[key] if raw else self.scaled(rec, key))
        return sum(median(v) for v in by_id.values()) / 1e3


def _load_json(path: Path):
    with open(path) as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # Everything from interpreter start to the first timed op is set-up.
    from measure import (CpuSampler, NullTracer, Tracer, compare_reference,
                         layer_shares, percentile, provenance, ratio,
                         speed_factors)
    from workloads import WORKLOADS, ioat_sim_time_ratio
    import random

    import repro
    from repro.memory.phantom import phantom_payloads
    from repro.simkernel.scheduler import Simulator

    workload = WORKLOADS[name]
    run = Run(workload, lambda: Simulator.events_total)
    null = NullTracer()
    imports_cpu = time.process_time()

    with phantom_payloads(True):
        setups = []
        for _ in range(SETUP_REPEATS):
            c0 = time.process_time()
            ops = workload.make_ops(random.Random(f"{name}:{seed}"))
            warm = {}
            for op in sorted(ops, key=lambda o: (o["size"], o["id"])):
                warm.setdefault(workload.config(op), op)
            for op in warm.values():
                run.op(op, null, "warmup")
            setups.append(time.process_time() - c0)
        setup_s = imports_cpu - run.speed.build_cpu_s + median(setups)

        if trace:
            run.passes(ops, null, "untraced", seconds / 2, 1)
            tracer = Tracer()
            sampler = CpuSampler(str(Path(repro.__file__).resolve().parent))
            sampler.start()
            try:
                timed = run.passes(ops, tracer, "traced", seconds / 2, 1)
            finally:
                sampler.stop()
        else:
            timed = run.passes(ops, null, "timed", seconds, MIN_OPS)
    run.factors = speed_factors(run.speed.slices)

    # -- checks (untimed) -------------------------------------------------
    failures = run.failures
    first: dict = {}
    for rec in run.records:
        if "error" in rec:
            continue
        ref = first.setdefault(rec["id"], rec)
        for d in compare_reference(ref["sim"], rec["sim"]):
            failures.append(f"{rec['id']} not repeatable ({rec['phase']} "
                            f"pass {rec['pass']}): {d}")
    for p in timed[1:]:
        if p["counts"] != timed[0]["counts"] and len(p["results"]) == len(ops):
            failures.append("per-layer counts differ between passes")
    predictions = _load_json(HERE / "predictions.json")
    for key in predictions["zero"].get(name, []):
        if timed[0]["counts"].get(key, 0) != 0:
            failures.append(f"zero prediction broken: {key} = "
                            f"{timed[0]['counts'][key]} on {name}")
    ref_path = REFERENCE / f"{name}.json"
    if seed == DEFAULT_SEED:
        if not ref_path.exists():
            failures.append(f"no reference {ref_path.name} for the default seed")
        else:
            reference = _load_json(ref_path)["ops"]
            for op_id, rec in first.items():
                if op_id not in reference:
                    failures.append(f"{op_id} missing from the reference")
                for d in compare_reference(reference.get(op_id, {}), rec["sim"]):
                    failures.append(f"{op_id} vs reference: {d}")
    for op in workload.byte_sample(ops):
        failures.extend(_byte_moving(run, op, first.get(op["id"])))

    # -- metrics ------------------------------------------------------------
    timed_recs = [r for r in run.records
                  if r["phase"] in ("timed", "untraced", "traced")]
    attempted = len(timed_recs)
    failed = sum(1 for r in timed_recs if "error" in r)
    metrics: dict = {}
    try:
        if trace:
            counts = dict(timed[0]["counts"])
            base_cpu = run.pass_seconds("untraced", "host_ms")
            shares = layer_shares(sampler.samples, LAYERS)
            span_ms = tracer.self_ms_by_name()
            n_traced = sum(1 for r in timed_recs if r["phase"] == "traced")
            values = {
                **{k: counts.get(k, 0) for k in PER_LAYER if k in counts},
                "simkernel.events_per_cpu_s": counts["simkernel.events"] / base_cpu,
                "ethernet.pkts_per_softirq_batch": ratio(
                    counts["ethernet.softirq_packets"],
                    counts["ethernet.softirq_batches"]),
                "core.offload_dma_ratio": ratio(
                    counts["core.frags_dma"],
                    counts["core.frags_dma"] + counts["core.frags_memcpy"]),
                "memory.regcache_hit_ratio": ratio(
                    counts["memory.regcache_hits"],
                    counts["memory.regcache_hits"] + counts["memory.regcache_misses"]),
                "fabric.chunks_per_cpu_s": counts["fabric.chunks_forwarded"] / base_cpu,
                "fabric.ioat_sim_time_ratio": ioat_sim_time_ratio(
                    ops, timed[0]["results"]),
                **{f"span.{s}_self_ms": span_ms.get(s, 0.0) / n_traced
                   for s in STAGES},
                **{f"{layer}.cpu_share": shares[layer] for layer in LAYERS},
                "trace.overhead_ratio": run.pass_seconds("traced", "host_ms") / base_cpu,
            }
            metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
        else:
            op_ms = [run.scaled(r, "host_ms") for r in timed_recs if "error" not in r]
            values = {
                "cpu_s": run.pass_seconds("timed", "host_ms"),
                "wall_s": run.pass_seconds("timed", "wall_ms"),
                # too short for slices of its own: the whole run's factor
                "setup_s": setup_s / run.factors[None][0],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "op_ms_p50": median(op_ms),
                "op_ms_p90": percentile(op_ms, 0.9),
                "msgs_per_s": timed[0]["msgs"] / run.pass_seconds("timed", "host_ms"),
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        failures.append(f"metrics: {type(exc).__name__}: {exc}")
        metrics = {}

    correct = not failures and failed == 0 and bool(metrics)
    prov = provenance(ROOT, name, seed, phantom=True, trace=trace)
    cpu_f, wall_f = run.factors[None]
    raw = {"cpu_s": run.pass_seconds(timed_recs[0]["phase"], "host_ms", raw=True),
           "setup_s": setup_s}
    prov.update(ops_per_pass=len(ops), passes=len(timed), ops_attempted=attempted,
                ops_failed=failed, host_speed={
                    "cpu_factor": cpu_f, "wall_factor": wall_f,
                    "slices": len(run.speed.slices), "raw": raw})
    _write_outputs(name, seed, trace, prov, metrics, failures, run.records,
                   timed[0]["counts"], getattr(tracer, "spans", None) if trace else None)

    print(f"# {name} seed={seed} trace={int(trace)} commit={prov['commit']} "
          f"dirty={prov['dirty']} src={prov['source_sha256'][:12]} "
          f"python={prov['python']} phantom=on")
    print(f"# ops: {attempted} attempted, {failed} failed "
          f"({len(ops)} per pass x {len(timed)} passes); "
          f"ops_failed_ratio={ratio(failed, attempted):.4f}")
    print(f"# host speed: cpu x{cpu_f:.3f}, wall x{wall_f:.3f} of the reference "
          f"over {len(run.speed.slices)} slices; unscaled cpu_s "
          f"{raw['cpu_s']:.4f} s, setup_s {raw['setup_s']:.4f} s")
    for k, m in metrics.items():
        print(f"{k:36s} {m['value']:>16.6g} {m['unit']}")
    for msg in failures[:50]:
        print(f"CHECK FAILED: {msg}")
    if len(failures) > 50:
        print(f"CHECK FAILED: ... and {len(failures) - 50} more")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _byte_moving(run: Run, op: dict, phantom_rec) -> list[str]:
    """Re-run ``op`` with real payloads under the resource sanitizer: the
    receive buffers must hold the sender's pattern and the simulated
    results must equal the phantom run's (``phantom_rec``)."""
    from measure import NullTracer, compare_reference
    from workloads import recorded_allocs

    from repro.analysis.sanitizers import Sanitizer
    from repro.memory.phantom import phantom_payloads

    workload = run.workload

    san = Sanitizer()
    testbeds = []

    def watch(tb):
        san.watch_testbed(tb)
        testbeds.append(tb)

    errors = []
    try:
        with phantom_payloads(False), recorded_allocs() as allocs:
            e0 = run.events_total()
            res = workload.run_op(op, NullTracer().span, watch)
            res["sim"]["events"] = run.events_total() - e0
            workload.check_bytes(op, allocs)
            for tb in testbeds:
                tb.sim.run(max_events=10_000_000)
            errors += [f"{op['id']} byte-moving: {v.format()}" for v in san.check()]
    except Exception as exc:  # report as a failed check, not a crash
        return [f"{op['id']} byte-moving: {type(exc).__name__}: {exc}"]
    if phantom_rec is not None:
        errors += [f"{op['id']} byte-moving vs phantom: {d}"
                   for d in compare_reference(phantom_rec["sim"], res["sim"])]
    return errors


def _write_outputs(name, seed, trace, prov, metrics, failures, records,
                   counts, spans) -> None:
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    summary = {"provenance": prov, "metrics": metrics, "pass_counts": counts,
               "failures": failures}
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    with open(f"{stem}.ops.jsonl", "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    if spans is not None:
        with open(f"{stem}.spans.jsonl", "w") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# other modes
# ---------------------------------------------------------------------------


def record_reference(name: str) -> int:
    """Record the default seed's simulated results, one op at a time."""
    import random

    from measure import NullTracer
    from workloads import WORKLOADS

    from repro.memory.phantom import phantom_payloads
    from repro.simkernel.scheduler import Simulator

    workload = WORKLOADS[name]
    run = Run(workload, lambda: Simulator.events_total)
    ops = workload.make_ops(random.Random(f"{name}:{DEFAULT_SEED}"))
    with phantom_payloads(True):
        for op in ops:
            run.op(op, NullTracer(), "reference")
    if run.failures:
        print("\n".join(run.failures))
        return 1
    REFERENCE.mkdir(exist_ok=True)
    body = ",\n".join(f"  {json.dumps(r['id'])}: {json.dumps(r['sim'], sort_keys=True)}"
                      for r in sorted(run.records, key=lambda r: r["id"]))
    (REFERENCE / f"{name}.json").write_text(
        f'{{"seed": {DEFAULT_SEED}, "ops": {{\n{body}\n}}}}\n')
    print(f"recorded {len(run.records)} ops to {REFERENCE / (name + '.json')}")
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh interpreter, one after another."""
    rc = 0
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            rc = 1
        for k, m in result["metrics"].items():
            rows.append((name, k, m["value"], m["unit"], result["attempted"]))
        rows.append((name, "correct", result["correct"], "", result["attempted"]))
    print(f"\n{'workload':20s} {'metric':36s} {'value':>14s} {'unit':6s} ops")
    for name, k, v, unit, n in rows:
        v = f"{v:.6g}" if isinstance(v, float) else str(v)
        print(f"{name:20s} {k:36s} {v:>14s} {unit:6s} {n}")
    return rc


def diff_runs(a: Path, b: Path) -> int:
    """Compare two runs op by op (simulated results, host ms) and metric by
    metric (end-to-end or per-layer)."""
    from measure import compare_reference

    def load(path: Path):
        ops: dict = {}
        with open(path.with_suffix(".ops.jsonl")) as f:
            for line in f:
                rec = json.loads(line)
                if "error" not in rec and rec["phase"] in ("timed", "traced"):
                    ops.setdefault(rec["id"], []).append(rec)
        return _load_json(path), ops

    (sa, oa), (sb, ob) = load(a), load(b)
    print(f"A: {sa['provenance']}\nB: {sb['provenance']}")
    for k in sorted(set(sa["metrics"]) | set(sb["metrics"])):
        va = sa["metrics"].get(k, {}).get("value")
        vb = sb["metrics"].get(k, {}).get("value")
        if va != vb:
            rel = f" ({vb / va:.3f}x)" if va and vb is not None else ""
            print(f"metric {k}: {va} -> {vb}{rel}")
    for op_id in sorted(set(oa) & set(ob)):
        for d in compare_reference(oa[op_id][0]["sim"], ob[op_id][0]["sim"]):
            print(f"op {op_id} sim: {d}")
        ma = median(r["host_ms"] for r in oa[op_id])
        mb = median(r["host_ms"] for r in ob[op_id])
        print(f"op {op_id} host_ms {ma:.3f} -> {mb:.3f} ({mb / ma:.3f}x)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in a fresh interpreter")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="record the default seed's simulated results")
    ap.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two run summaries from perfbench/out/")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.diff:
        return diff_runs(*args.diff)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        ap.error("--workload, --all or --diff is required")
    if args.record_reference:
        return record_reference(args.workload)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
