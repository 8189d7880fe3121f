"""The per-layer ledger: metric names, what each should move, and how each
is read off the program's span trees and phase timings.

Every traced run reports every metric below on every workload, so the
ledgers of two commits line up row for row.  A layer a workload does not
exercise reads 0, and the row's ``note`` says why; a note also names the
source of a row not measured on the workload's own operations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Tuple

from harness import ALL_PROTOCOLS

#: (metric, unit, should move, should not move) — README.md explains each
LAYERS: List[Tuple[str, str, str, str]] = [
    ("import.cli_s", "s",
     "setup_s on paper-sweep and serve-jobs; run_s on cli-grids (ungated)",
     "run_s on paper-sweep"),
    ("mobility.synthesize_s", "s",
     "setup_s on paper-sweep and serve-jobs; run_s on cli-grids (ungated)",
     "job_s.* (trace cache warm)"),
    ("mobility.replay_events_s", "s",
     "setup_s on paper-sweep and serve-jobs; run_s on cli-grids (ungated)",
     "job_s.* (trace cache warm)"),
    ("sim.event_assembly_s", "s",
     "run_s on paper-sweep (plain loop); job_s.* on serve-jobs (checkpointed loop)", "-"),
    ("sim.dispatch.visit_start_s", "s", "run_s on paper-sweep; job_s.* on serve-jobs", "-"),
    ("sim.dispatch.visit_end_s", "s", "run_s on paper-sweep; job_s.* on serve-jobs", "-"),
    ("sim.dispatch.packet_gen_s", "s", "run_s on paper-sweep; job_s.* on serve-jobs", "-"),
    ("sim.dispatch.fault_edge_s", "s", "run_s on cli-grids (ungated; faulted grid)", "-"),
    ("sim.events", "count", "run_s on paper-sweep; job_s.* on serve-jobs", "-"),
    ("sim.host_us_per_event", "us", "run_s on paper-sweep; job_s.* on serve-jobs", "-"),
    ("core.router.carrier_selection_s", "s",
     "run_s on paper-sweep; job_s.p90 on serve-jobs", "setup_s"),
    ("core.router.table_exchange_s", "s",
     "run_s on paper-sweep; job_s.p90 on serve-jobs", "setup_s"),
    ("core.router.handover_s", "s",
     "run_s on paper-sweep; job_s.p90 on serve-jobs", "setup_s"),
    ("baselines.carrier_selection_s", "s", "run_s on paper-sweep", "setup_s"),
    *[
        (f"proto.{name}.s", "s",
         "run_s on paper-sweep" + ("; job_s.p90 on serve-jobs" if name == "DTN-FLOW" else ""),
         "setup_s")
        for name in ALL_PROTOCOLS
    ],
    ("eval.runner.pool_wall_s", "s", "run_s on cli-grids (ungated)",
     "paper-sweep, serve-jobs"),
    ("eval.runner.serial_wall_s", "s", "run_s on cli-grids (ungated)",
     "paper-sweep, serve-jobs"),
    ("sim.checkpoint.files", "count", "job_s.p50 on serve-jobs", "paper-sweep"),
    ("sim.checkpoint.bytes", "bytes", "job_s.p50 on serve-jobs", "paper-sweep"),
    ("store.ingest_s", "s", "job_s.p50 on serve-jobs; run_s on cli-grids (ungated)",
     "paper-sweep"),
    ("store.points_new", "count", "job_s.p50 on serve-jobs; run_s on cli-grids (ungated)",
     "paper-sweep"),
    ("store.points_dup", "count", "job_s.p50 on serve-jobs; run_s on cli-grids (ungated)",
     "paper-sweep"),
    ("serve.submit_s.p50", "s", "job_s.p50 on serve-jobs", "paper-sweep"),
    ("serve.first_event_s.p50", "s", "job_s.p50 on serve-jobs", "paper-sweep"),
    ("serve.overhead_s.p50", "s", "job_s.p50 on serve-jobs", "paper-sweep"),
    ("serve.sse_events", "count", "job_s.p50 on serve-jobs", "paper-sweep"),
    ("obs.tracing_overhead", "ratio", "reported only", "-"),
    ("obs.span_coverage", "ratio", "reported only (target >= 0.90)", "-"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in LAYERS}

DISPATCH_KINDS = ("visit_start", "visit_end", "packet_gen", "fault_edge")
ROUTER_PHASES = ("carrier_selection", "table_exchange", "handover")


def _walk(node: Mapping[str, Any]) -> Iterator[Mapping[str, Any]]:
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def engine_layers(tree: Mapping[str, Any]) -> Dict[str, float]:
    """Engine and protocol layers from a ``SpanRecorder.tree()`` export.

    Dispatch phases are *self* time (their router/baseline children are
    reported on their own rows); the rest are cumulative.  ``sim.events``
    counts dispatched events, one per dispatch-span call.
    """
    out: Dict[str, float] = {
        "sim.event_assembly_s": 0.0,
        "sim.events": 0.0,
        "baselines.carrier_selection_s": 0.0,
    }
    for kind in DISPATCH_KINDS:
        out[f"sim.dispatch.{kind}_s"] = 0.0
    for phase in ROUTER_PHASES:
        out[f"core.router.{phase}_s"] = 0.0
    for node in _walk(tree):
        name = node["name"]
        if name == "event_assembly":
            out["sim.event_assembly_s"] += node["seconds"]
        elif name.startswith("dispatch."):
            kind = name[len("dispatch."):]
            out[f"sim.dispatch.{kind}_s"] = (
                out.get(f"sim.dispatch.{kind}_s", 0.0) + node["self_seconds"]
            )
            out["sim.events"] += node["calls"]
        elif name.startswith("router."):
            key = f"core.router.{name[len('router.'):]}_s"
            out[key] = out.get(key, 0.0) + node["seconds"]
        elif name == "baseline.carrier_selection":
            out["baselines.carrier_selection_s"] += node["seconds"]
    return out


def flat_layers(phase_timings: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Router and baseline layers summed from flat ``phase_timings`` dicts.

    The checkpointed loop (serve jobs) times no dispatch spans, so only
    the protocol hooks and event assembly are recoverable from its points.
    """
    out: Dict[str, float] = {"sim.event_assembly_s": 0.0,
                             "baselines.carrier_selection_s": 0.0}
    for phase in ROUTER_PHASES:
        out[f"core.router.{phase}_s"] = 0.0
    for timings in phase_timings:
        for name, rec in (timings or {}).items():
            if name == "event_assembly":
                out["sim.event_assembly_s"] += rec["seconds"]
            elif name.startswith("router."):
                key = f"core.router.{name[len('router.'):]}_s"
                out[key] = out.get(key, 0.0) + rec["seconds"]
            elif name == "baseline.carrier_selection":
                out["baselines.carrier_selection_s"] += rec["seconds"]
    return out


def proto_seconds(samples: Iterable[Tuple[str, float]]) -> Dict[str, float]:
    """``proto.<name>.s``: summed point wall per protocol."""
    out = {f"proto.{name}.s": 0.0 for name in ALL_PROTOCOLS}
    for name, seconds, *_ in samples:
        out[f"proto.{name}.s"] += seconds
    return out


def table(values: Mapping[str, float], notes: Mapping[str, str]) -> List[Dict[str, Any]]:
    """The ledger rows: every layer metric with its value and its claims."""
    return [
        {
            "metric": name,
            "unit": unit,
            "value": values.get(name, 0.0),
            "should_move": moves,
            "should_not_move": stays,
            **({"note": notes[name]} if name in notes else {}),
        }
        for name, unit, moves, stays in LAYERS
    ]


def complete(values: Mapping[str, float], notes: Dict[str, str], why: str) -> Dict[str, float]:
    """Fill every layer the workload left unmeasured with 0 and a reason."""
    out = dict(values)
    for name, _, _, _ in LAYERS:
        if name not in out:
            out[name] = 0.0
            notes.setdefault(name, why)
    return out
