"""Measurement helpers of the benchmark: percentiles, host-speed
calibration, spans, CPU sampling, reference comparison and provenance.

Nothing here imports the simulator, so the helpers are unit-testable on
their own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import platform
import signal
import subprocess
import time
from array import array
from contextlib import nullcontext
from pathlib import Path
from typing import Iterable, Optional

#: record keys that hold host time; they differ between runs of the same
#: code and never take part in a reference comparison.  ``sim_wall_ms`` is
#: the registry's wall-clock counter, which ``faults.campaign.run_cell``
#: strips for the same reason.
HOST_TIME_KEYS = frozenset({"host_ms", "wall_ms", "sim_wall_ms"})

#: relative tolerance for float outputs in the reference comparison
FLOAT_RTOL = 1e-9

#: a percentile is reported only with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    Refuses (``ValueError``) when fewer than :data:`MIN_SAMPLES_BEYOND`
    samples lie beyond the selected rank: such a tail is one or two
    outliers, not a percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}")
    return xs[rank - 1]


def ratio(num: float, den: float) -> float:
    """``num / den``, with 0 for an empty denominator (a layer that did no
    work has no hit or offload ratio)."""
    return num / den if den else 0.0


def layer_shares(samples: dict[str, int], layers: Iterable[str]) -> dict[str, float]:
    """Each layer's share of all samples; layers never sampled get 0.

    Every sampled key must be one of ``layers``, so the shares of
    ``layers`` sum to 1 whenever anything was sampled.
    """
    layers = list(layers)
    unknown = sorted(set(samples) - set(layers))
    if unknown:
        raise ValueError(f"samples for undeclared layers {unknown}")
    total = sum(samples.values())
    if total <= 0:
        raise ValueError("no CPU samples were taken")
    return {layer: samples.get(layer, 0) / total for layer in layers}


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------

#: events of the event-loop half of one :func:`calibration_kernel` slice
KERNEL_EVENTS = 2500
#: dependent loads of its memory half
KERNEL_LOADS = 12000
#: slots of the load chain (8 MiB, beyond the per-core caches)
CHAIN_SLOTS = 1 << 20
#: nominal CPU seconds of one slice (about its time on an unloaded
#: 2.1 GHz Xeon VM, Python 3.11); host times are reported at this speed
REF_KERNEL_S = 0.0016
#: a slice runs after an op once this much wall time passed since the last
CALIBRATION_INTERVAL_S = 0.05
#: a pass with fewer slices is scaled by the whole run's factor
MIN_PASS_SLICES = 5


#: the kernel's heap and counters, reused so that a slice allocates no
#: object the cyclic collector tracks and never moves the simulator's
#: collections (which would change its peak memory from run to run)
_KERNEL_HEAP: list = []
_KERNEL_COUNTS = [0] * 64


def calibration_chain(slots: int = CHAIN_SLOTS) -> array:
    """A flat int array holding one cycle through all ``slots`` (a
    full-period LCG modulo a power of two), so that each load's address
    depends on the previous load."""
    import numpy as np

    nxt = (np.arange(slots, dtype=np.int64) * 1103515245 + 12345) & (slots - 1)
    chain = array("q")
    chain.frombytes(nxt.tobytes())
    return chain


def calibration_kernel(chain: array, events: int = KERNEL_EVENTS,
                       loads: int = KERNEL_LOADS) -> int:
    """Fixed work in two halves, none of it the simulator's code, so no
    change to the simulator changes its cost: a pure-Python event loop
    (a heap of int-encoded events, list counters) and a walk of dependent
    loads through ``chain``, which misses the caches as the simulator's
    object graph does.  Under co-tenant load the event loop alone slows
    more than the simulator and the walk alone less (0.8x and 1.4x its
    slowdown over 5-20 s windows); the sum of the two tracks it (1.0x)."""
    heap, counts = _KERNEL_HEAP, _KERNEL_COUNTS
    heap.clear()
    for j in range(len(counts)):
        counts[j] = 0
    now = 0
    for i in range(events):
        heapq.heappush(heap, (now + (i * 7919) % 1009) << 16 | i & 0xFFFF)
        if len(heap) > 32:
            event = heapq.heappop(heap)
            now = event >> 16
            counts[event & 63] += 1
    slot = 0
    for _ in range(loads):
        slot = chain[slot]
        counts[slot & 63] += 1
    return sum(counts)


class HostSpeed:
    """Samples how slowly the host runs fixed work, between ops.

    On a shared host the same code's CPU time swings by 2-3x over
    minutes: the guest counts time the host gives to co-tenants as the
    process's own.  Host times divided by the factor of the pass they ran
    in (:func:`speed_factors`) no longer carry that swing, while a change
    to the simulator moves them in full.

    A slice allocates no object the cyclic collector tracks (its records
    go into flat arrays), so however many slices a run takes, the
    simulator's collections, and with them its peak memory, stay as they
    would be without them.
    """

    def __init__(self, phases: tuple[str, ...]):
        c0 = time.process_time()
        self.chain = calibration_chain()
        #: CPU seconds spent building the chain, which set-up time excludes
        self.build_cpu_s = time.process_time() - c0
        self.phases = phases
        self._phase = array("i")
        self._pass = array("i")
        self._cpu = array("d")
        self._wall = array("d")
        self._last = time.perf_counter()

    def tick(self, phase: str, pass_no: int) -> None:
        """Run one slice for ``phase`` and ``pass_no`` if the interval
        has passed since the last."""
        if time.perf_counter() - self._last < CALIBRATION_INTERVAL_S:
            return
        c0, w0 = time.process_time(), time.perf_counter()
        calibration_kernel(self.chain)
        c1, w1 = time.process_time(), time.perf_counter()
        self._phase.append(self.phases.index(phase))
        self._pass.append(pass_no)
        self._cpu.append(c1 - c0)
        self._wall.append(w1 - w0)
        self._last = time.perf_counter()

    @property
    def slices(self) -> list[tuple]:
        """``((phase, pass), cpu seconds, wall seconds)`` of each slice."""
        return [((self.phases[ph], p), c, w) for ph, p, c, w
                in zip(self._phase, self._pass, self._cpu, self._wall)]


def speed_factors(slices: list[tuple], ref_s: float = REF_KERNEL_S,
                  min_slices: int = MIN_PASS_SLICES) -> dict:
    """``{key: (cpu factor, wall factor)}``: mean slice time per key over
    ``ref_s`` (a ratio of sums, so a slice the host stalled counts in
    full).  Keys with fewer than ``min_slices`` slices get the factor of
    all slices, which is also stored under ``None``."""
    if not slices:
        raise ValueError("no calibration slices were run")
    sums: dict = {}
    for key, cpu, wall in slices:
        n, c, w = sums.get(key, (0, 0.0, 0.0))
        sums[key] = (n + 1, c + cpu, w + wall)
    n_all = len(slices)
    run = (sum(s[1] for s in slices) / n_all / ref_s,
           sum(s[2] for s in slices) / n_all / ref_s)
    out = {key: (c / n / ref_s, w / n / ref_s) if n >= min_slices else run
           for key, (n, c, w) in sums.items()}
    out[None] = run
    return out


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------


def compare_reference(ref: dict, got: dict, path: str = "") -> list[str]:
    """Differences between a recorded op result and a fresh one.

    Integers (and bools, strings, ``None``) must match exactly; floats
    within :data:`FLOAT_RTOL` relative.  Keys in :data:`HOST_TIME_KEYS` are
    ignored at every nesting level.  Returns one message per difference.
    """
    diffs: list[str] = []
    for key in sorted(set(ref) | set(got)):
        if key in HOST_TIME_KEYS:
            continue
        where = f"{path}{key}"
        if key not in got:
            diffs.append(f"{where}: missing (reference {ref[key]!r})")
            continue
        if key not in ref:
            diffs.append(f"{where}: not in reference (got {got[key]!r})")
            continue
        a, b = ref[key], got[key]
        if isinstance(a, dict) and isinstance(b, dict):
            diffs.extend(compare_reference(a, b, where + "."))
        elif isinstance(a, float) or isinstance(b, float):
            if (isinstance(a, bool) or isinstance(b, bool)
                    or not isinstance(a, (int, float))
                    or not isinstance(b, (int, float))
                    or not math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)):
                diffs.append(f"{where}: reference {a!r}, got {b!r}")
        elif a != b or type(a) is not type(b):
            diffs.append(f"{where}: reference {a!r}, got {b!r}")
    return diffs


# ---------------------------------------------------------------------------
# tracing: spans around the benchmark's own calls, and a CPU sampler
# ---------------------------------------------------------------------------


_NULL_SPAN = nullcontext()


class NullTracer:
    """The untraced run's tracer: every span is the same no-op context."""

    def span(self, name: str, op_id: str = "") -> nullcontext:
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "name", "op_id", "parent", "start", "child_ns")

    def __init__(self, tracer: "Tracer", name: str, op_id: str):
        self.tracer = tracer
        self.name = name
        self.op_id = op_id
        self.child_ns = 0

    def __enter__(self):
        stack = self.tracer._stack
        self.parent = stack[-1] if stack else None
        if self.parent is not None and not self.op_id:
            self.op_id = self.parent.op_id
        stack.append(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack.pop()
        dur = end - self.start
        parent = self.parent
        if parent is not None:
            parent.child_ns += dur
        self.tracer.spans.append({
            "op": self.op_id, "name": self.name,
            "parent": parent.name if parent is not None else None,
            "start_ns": self.start, "end_ns": end,
            "self_ns": dur - self.child_ns,
        })
        return False


class Tracer:
    """Spans kept in memory, one dict each: op id, name, parent name,
    start/end (``perf_counter_ns``) and self time (duration minus the time
    covered by its child spans).

    The root span of an op names the op id; child spans inherit it, so all
    spans of one op share an identifier.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[_Span] = []

    def span(self, name: str, op_id: str = "") -> _Span:
        return _Span(self, name, op_id)

    def self_ms_by_name(self) -> dict[str, float]:
        """Total self time per span name, in ms."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span["name"]] = out.get(span["name"], 0.0) + span["self_ns"] / 1e6
        return out


def layer_of(filename: str, package_root: str) -> str:
    """The simulator layer a source file belongs to.

    ``src/repro/<module>/...`` gives ``<module>``; the package's top-level
    files (``params.py``, ``units.py``) give ``repro``; anything else
    (numpy, the standard library, the benchmark itself) gives ``other``.
    """
    if not filename.startswith(package_root):
        return "other"
    rest = filename[len(package_root):].lstrip(os.sep)
    head, sep, _ = rest.partition(os.sep)
    return head if sep else "repro"


class CpuSampler:
    """Counts host-CPU samples per layer (see :func:`layer_of`) of the
    innermost Python frame of the main thread.

    A CPU-time profiling timer (``ITIMER_PROF``) delivers ``SIGPROF``; the
    handler runs in the main thread between bytecodes and sees the frame it
    interrupted, so samples are proportional to CPU time.  A sampling
    thread would see the main thread only where it drops the interpreter
    lock, which skews the shares toward code that calls into numpy.
    """

    def __init__(self, package_root: str, interval_s: float = 0.001):
        self.package_root = package_root
        self.interval_s = interval_s
        self.samples: dict[str, int] = {}
        self._layer_cache: dict[str, str] = {}
        self._prev_handler = None

    def _on_sample(self, signum, frame) -> None:
        # calibration slices are not the simulator's time
        if frame is None or frame.f_code is calibration_kernel.__code__:
            return
        fn = frame.f_code.co_filename
        layer = self._layer_cache.get(fn)
        if layer is None:
            layer = self._layer_cache[fn] = layer_of(fn, self.package_root)
        self.samples[layer] = self.samples.get(layer, 0) + 1

    def start(self) -> None:
        self._prev_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._prev_handler or signal.SIG_DFL)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git(root: Path, *args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", *args], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: Path) -> str:
    """SHA-256 over the simulator's sources (path + bytes, sorted), which
    identifies the code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, workload: str, seed: int, phantom: bool,
               trace: bool) -> dict:
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "phantom": phantom,
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "source_sha256": source_digest(root / "src" / "repro"),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
