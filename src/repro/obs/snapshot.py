"""Versioned, machine-readable performance snapshots (``BENCH_*.json``).

One schema for every performance artifact the repo produces — the
serve-bench summary, the benchmark-figure tables and the CI perf gate —
so the performance trajectory is diffable and a regression gate has a
stable document to consume:

.. code-block:: json

    {
      "schema_version": 1,
      "name": "serve",
      "created_at": "2026-08-05T12:00:00+00:00",
      "machine": {"platform": "...", "cpu_count": 2, "affinity": [0, 1],
                  "python": "...", "numpy": "..."},
      "config":   {"...workload parameters..."},
      "timings":  {"...wall-clock measurements, seconds..."},
      "counters": {"...deterministic counts and rates..."},
      "obs":      {"...tracer aggregates, when tracing was on..."},
      "tables":   {"...figure rows, for bench tables..."}
    }

Conventions enforced by :func:`write_snapshot`: keys are sorted, values
are plain JSON types (numpy scalars/arrays converted), the file is
named ``BENCH_<name>.json`` when a directory is given, and the
``counters`` section must be deterministic for a fixed seed — the CI
gate (``benchmarks/ci_gate.py``) compares it exactly, while ``timings``
are only ratio-gated.  ``created_at`` and ``machine`` are provenance
only; consumers must ignore them when diffing.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

#: Bump when a section is renamed/removed or its meaning changes.
#: Adding new optional keys is backward compatible and does not bump.
SCHEMA_VERSION = 1


def machine_info() -> dict[str, Any]:
    """Provenance of the machine that produced a snapshot.

    ``cpu_count`` is the host's logical CPUs; ``affinity`` the CPUs this
    process may run on (``None`` where the OS cannot say), which is what
    bounds a multi-process speedup.
    """
    import numpy
    import scipy

    getaffinity = getattr(os, "sched_getaffinity", None)
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or "unknown",
        "cpu_count": os.cpu_count(),
        "affinity": sorted(getaffinity(0)) if getaffinity else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _jsonable(value: Any) -> Any:
    """``value`` with numpy scalars/arrays and mappings made plain JSON."""
    if isinstance(value, Mapping):
        return {str(key): _jsonable(value[key]) for key in value}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if hasattr(value, "tolist"):  # numpy scalar or array
        return _jsonable(value.tolist())
    if hasattr(value, "item"):  # 0-d numpy scalar fallback
        return value.item()
    return str(value)


def snapshot_payload(
    name: str,
    *,
    config: Mapping[str, Any] | None = None,
    timings: Mapping[str, Any] | None = None,
    counters: Mapping[str, Any] | None = None,
    obs: Mapping[str, Any] | None = None,
    tables: Mapping[str, Any] | None = None,
    notes: str = "",
) -> dict[str, Any]:
    """The full snapshot document for ``name`` (omitted sections excluded)."""
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": machine_info(),
    }
    for key, section in (
        ("config", config),
        ("timings", timings),
        ("counters", counters),
        ("obs", obs),
        ("tables", tables),
    ):
        if section is not None:
            payload[key] = _jsonable(section)
    if notes:
        payload["notes"] = notes
    return payload


def snapshot_path(target: str | Path, name: str) -> Path:
    """Resolve where a snapshot named ``name`` lands for ``target``.

    A directory (existing, or a path without a ``.json`` suffix) maps to
    ``<target>/BENCH_<name>.json``; an explicit ``*.json`` path is used
    as-is.
    """
    target = Path(target)
    if target.suffix == ".json" and not target.is_dir():
        return target
    return target / f"BENCH_{name}.json"


def write_snapshot(
    target: str | Path,
    name: str,
    *,
    config: Mapping[str, Any] | None = None,
    timings: Mapping[str, Any] | None = None,
    counters: Mapping[str, Any] | None = None,
    obs: Mapping[str, Any] | None = None,
    tables: Mapping[str, Any] | None = None,
    notes: str = "",
) -> Path:
    """Write one ``BENCH_<name>.json`` snapshot; returns the written path.

    Keys are sorted and the JSON is indented, so two snapshots of the
    same workload diff line-by-line (only ``created_at``, ``machine``
    and the timing values move between runs on one machine).
    """
    path = snapshot_path(target, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = snapshot_payload(
        name,
        config=config,
        timings=timings,
        counters=counters,
        obs=obs,
        tables=tables,
        notes=notes,
    )
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Read a snapshot back, validating the schema version.

    Raises
    ------
    ValueError
        If the file is not a snapshot or its ``schema_version`` is newer
        than this reader understands.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "schema_version" not in data:
        raise ValueError(f"{path} is not a BENCH snapshot (no schema_version)")
    version = data["schema_version"]
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise ValueError(
            f"{path} has schema_version {version!r}; this reader "
            f"understands <= {SCHEMA_VERSION}"
        )
    return data
