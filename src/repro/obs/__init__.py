"""Unified observability: metrics registry, trace export, CPU profiler.

The paper's evidence is observability data — fragment timelines (Figs. 5/6)
and receive-side CPU usage (Fig. 9).  This package gives the simulated stack
the first-class equivalents:

* :mod:`repro.obs.registry` — a typed metrics registry every hardware model
  and protocol layer registers into; ``core/counters.py`` snapshots are
  generated from it, so counters can never silently drift out of the dump;
* :mod:`repro.obs.trace` — exports :class:`~repro.simkernel.tracing.TraceRecorder`
  spans as Chrome/Perfetto ``trace_events`` JSON (open in ``ui.perfetto.dev``);
* :mod:`repro.obs.profiler` — attributes per-core busy time to *phases*
  (fragment copy, DMA submit, poll, syscall, pinning...) in simulated time
  and reproduces the Fig. 9 CPU-usage report.

CLI: ``omx-repro fig9_phases``, ``omx-repro fig56 --trace DIR`` and
``omx-repro --diff A B``.
"""

from repro.obs.profiler import PhaseProfiler, fig9_report
from repro.obs.registry import Histogram, Metric, MetricsRegistry
from repro.obs.trace import export_trace_events, validate_trace_events, write_trace

__all__ = [
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "PhaseProfiler",
    "export_trace_events",
    "fig9_report",
    "validate_trace_events",
    "write_trace",
]
