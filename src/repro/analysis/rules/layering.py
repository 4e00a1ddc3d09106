"""HLT001 / OFF001 / FAB001: layering rules, one table and one walker.

Each rule guards one subsystem's write surface.  It is a row of
:data:`LAYERS`: a code, a summary, the *sanctioned* module paths that own
the surface (skipped by substring match on the /-normalized path), and a
matcher that maps one AST node to its findings.  Anywhere else, suppress a
deliberate exception with ``# noqa: <code>``.

Two rules match *channel-like* receivers (:func:`_channel_like`): a name
spelled ``ch``/``chan``/``channel`` (or ending in ``channel``), or an
attribute chain ending in one of those (``state.channel``,
``self._channel``).  The simkernel's ``Process.fail``/``Event.fail``,
endpoint eager rings (``ep.ring``) and process pools (``pool.submit``)
never look like that, so they stay clean without pragmas.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, Optional

from repro.analysis.lint import Finding, ModuleSource, Rule, register_rule

_CHANNEL_NAMES = ("ch", "chan", "channel")

#: what a matcher yields: the node to anchor the finding on, and its message
Match = Iterator[tuple[ast.AST, str]]


def _channel_like(node: ast.AST) -> Optional[str]:
    """The receiver's spelling when it plausibly denotes a DMA channel."""
    if isinstance(node, ast.Name):
        name = node.id
        if name in _CHANNEL_NAMES or name.lower().endswith("channel"):
            return name
    if isinstance(node, ast.Attribute):
        if node.attr in _CHANNEL_NAMES or node.attr.lower().endswith("channel"):
            return node.attr
    return None


def _health_bypass(module: ModuleSource, node: ast.AST) -> Match:
    """HLT001: channel fault/offload decisions bypassing the health layer.

    The circuit breaker (:mod:`repro.health.breaker`, DESIGN.md §12) is
    only sound if it *sees* every channel-health event and *gates* every
    offload decision.  ``channel.fail(...)`` called directly aborts the
    channel's pending descriptors with nothing in supervision recording
    why, and fault schedules become unreproducible: faults belong in a
    :class:`~repro.faults.plan.FaultPlan` armed through the injector
    layer.  ``should_offload(...)`` called from outside the offload
    manager re-derives (or caches) the breaker's memcpy-only verdict and
    reintroduces submissions to channels the breaker already tripped.
    """
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return
    if node.func.attr == "fail":
        receiver = _channel_like(node.func.value)
        if receiver is not None:
            yield node, (f"direct '{receiver}.fail()' bypasses the health "
                         f"layer: inject faults through a FaultPlan "
                         f"(repro.faults) so the circuit breaker records them")
    elif node.func.attr == "should_offload":
        yield node, ("'should_offload()' outside the offload manager "
                     "re-derives a breaker-gated decision; route copies "
                     "through OffloadManager.copy_fragment instead")


def _offload_bypass(module: ModuleSource, node: ast.AST) -> Match:
    """OFF001: direct DMA-channel manipulation outside the backend layer.

    Every copy submission flows through a
    :class:`~repro.core.backends.CopyBackend`, which is what lets the
    breaker supervise lanes, the sanitizer watch cookies, and the fault
    injectors reach every channel.  Three shapes bypass all three:
    ``DmaChannel(...)`` construction (resolved through import aliases, so
    ``channel.DmaChannel(...)`` after ``from repro.ioat import channel``
    is caught too), ``<channel>.submit(...)`` and ``<channel>.ring``.
    The offload manager (``repro/core/offload.py``) is deliberately not
    sanctioned: it must go through its backend.
    """
    if isinstance(node, ast.Call):
        dotted = module.dotted_name(node.func)
        if dotted is not None and dotted.split(".")[-1] == "DmaChannel":
            yield node, ("'DmaChannel(...)' constructed outside the backend "
                         "layer: lanes belong in a CopyBackend "
                         "(repro.core.backends) so health, sanitizers and "
                         "fault injection can reach them")
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "submit":
            receiver = _channel_like(node.func.value)
            if receiver is not None:
                yield node, (f"direct '{receiver}.submit(...)' bypasses the "
                             f"copy-backend layer; submit copies through "
                             f"CopyBackend.submit_fragment")
    elif isinstance(node, ast.Attribute) and node.attr == "ring":
        receiver = _channel_like(node.value)
        if receiver is not None:
            yield node, (f"direct '{receiver}.ring' access reaches into the "
                         f"descriptor ring; ring management belongs to the "
                         f"backend layer (repro.core.backends)")


#: the fabric route/link mutation calls
_MUTATORS = ("demote_link", "restore_link", "kill_link", "revive_link",
             "degrade_link")

#: per-port gray-degrade attributes
_PORT_STATE = ("service_scale", "extra_delay")


def _route_mutation(module: ModuleSource, node: ast.AST) -> Match:
    """FAB001: fabric route/link state mutated outside the resilience stack.

    Every change to the live-link set, the ECMP demotion set or a port's
    gray-degrade state flows through :mod:`repro.fabric.routing` (the
    versioned tables), :mod:`repro.fabric.resilience` (the only writer of
    demotions; its hysteresis keeps flapping trunks from thrashing) and
    :mod:`repro.faults.injectors` (the only place fault plans arm kills,
    flaps and degrades), plus :mod:`repro.fabric.network`, which owns the
    ports.  A ``routes.demote_link(...)`` call or a ``port.service_scale``
    write elsewhere desyncs the route version from the mutation and makes
    the run irreproducible from its plan (DESIGN.md §17).
    """
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS):
        yield node, (f"direct '{node.func.attr}()' call mutates fabric "
                     f"route/link state: arm a FaultPlan through "
                     f"repro.faults (kills, flaps, degrades) or let the "
                     f"health breaker (repro.fabric.resilience) drive "
                     f"demotions, so the schedule stays seeded and "
                     f"replayable")
    elif isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in _PORT_STATE:
                yield target, (f"direct '.{target.attr}' write bypasses the "
                               f"fabric degrade surface: use "
                               f"FabricNetwork.degrade_link (or a FaultPlan "
                               f"degrade axis) so the health estimator and "
                               f"the route version see the change")


#: (code, summary, sanctioned module paths, matcher)
LAYERS: tuple[tuple[str, str, tuple[str, ...],
                    Callable[[ModuleSource, ast.AST], Match]], ...] = (
    ("HLT001", "channel fail()/should_offload() call bypasses the circuit breaker",
     ("repro/health/", "repro/faults/", "repro/core/offload.py",
      "repro/ioat/channel.py", "repro/ioat/engine.py"),
     _health_bypass),
    ("OFF001", "direct DMA-channel manipulation bypasses the copy-backend layer",
     ("repro/core/backends/", "repro/ioat/", "repro/health/",
      "repro/faults/", "repro/analysis/"),
     _offload_bypass),
    ("FAB001", "fabric route/link state mutated outside the resilience stack",
     ("repro/fabric/routing.py", "repro/fabric/resilience.py",
      "repro/fabric/network.py", "repro/faults/injectors.py"),
     _route_mutation),
)


class LayeringRule(Rule):
    """One :data:`LAYERS` row: skip sanctioned paths, match every node."""

    sanctioned: tuple[str, ...] = ()
    match: Callable[[ModuleSource, ast.AST], Match]

    def check(self, module: ModuleSource, project=None) -> Iterator[Finding]:
        norm = module.path.replace("\\", "/")
        if any(part in norm for part in self.sanctioned):
            return
        for node in ast.walk(module.tree):
            for anchor, message in self.match(module, node):
                yield module.finding(self.code, anchor, message)


for _code, _summary, _sanctioned, _match in LAYERS:
    register_rule(type(f"{_code}Rule", (LayeringRule,), {
        "code": _code, "summary": _summary, "sanctioned": _sanctioned,
        "match": staticmethod(_match), "__doc__": _match.__doc__,
    }))
