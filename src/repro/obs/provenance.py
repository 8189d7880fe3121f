"""Run provenance: make every result row self-describing.

A :class:`RunProvenance` pins down *what produced a number*: the protocol,
the trace, the workload seed, the full simulation config, and the package
and Python versions.  Benchmark JSON that carries it can be re-run months
later without archaeology through shell history.
"""

from __future__ import annotations

import dataclasses
import json
import platform
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Any, Dict, Optional


def package_version() -> str:
    """The repro package version (lazy import to avoid a cycle)."""
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - broken install only
        return "unknown"


def _set_sort_key(value: Any) -> str:
    """A total order over already-jsonable values (for set determinism)."""
    return json.dumps(value, sort_keys=True)


def _jsonable(value: Any) -> Any:
    """Recursively coerce config values into JSON-serialisable shapes.

    The output is *deterministic*: sets/frozensets are emitted sorted (by
    their canonical JSON encoding, so mixed-type sets still order stably),
    tuples become lists, :class:`~pathlib.PurePath` becomes its string, and
    numpy scalars collapse to plain Python numbers.  Determinism matters
    because the experiment store content-hashes these dicts — the same
    resolved scenario must always hash identically.
    """
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(v) for v in value), key=_set_sort_key)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # numpy scalars (np.int64, np.float32, np.bool_, ...) expose .item();
    # duck-type rather than import numpy here.  Checked before the plain
    # scalars because np.float64 subclasses float but must collapse to the
    # builtin type for hash/type determinism.
    if type(value).__module__ == "numpy" and hasattr(value, "item"):
        return _jsonable(value.item())
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, PurePath):
        return str(value)
    return repr(value)


@dataclass(frozen=True)
class RunProvenance:
    """Everything needed to reproduce (or audit) one simulation run."""

    protocol: str
    trace: str
    seed: int
    config: Dict[str, Any] = field(default_factory=dict)
    #: the resolved scenario this run materialized from (repro.eval.scenario);
    #: ``repro rerun`` rebuilds a bit-identical run from this dict alone
    scenario: Optional[Dict[str, Any]] = None
    package_version: str = field(default_factory=package_version)
    python_version: str = field(default_factory=platform.python_version)

    @classmethod
    def from_run(
        cls,
        protocol: str,
        trace: str,
        config: Any,
        *,
        scenario: Optional[Dict[str, Any]] = None,
    ) -> "RunProvenance":
        """Build provenance from a protocol name, trace name and SimConfig."""
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            cfg = _jsonable(dataclasses.asdict(config))
            seed = getattr(config, "seed", 0)
        elif isinstance(config, dict):
            cfg = _jsonable(config)
            seed = int(cfg.get("seed", 0) or 0)
        else:
            cfg = {"repr": repr(config)}
            seed = 0
        return cls(
            protocol=protocol,
            trace=trace,
            seed=int(seed),
            config=cfg,
            scenario=_jsonable(scenario) if scenario is not None else None,
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "trace": self.trace,
            "seed": self.seed,
            "config": dict(self.config),
            "scenario": dict(self.scenario) if self.scenario is not None else None,
            "package_version": self.package_version,
            "python_version": self.python_version,
        }
