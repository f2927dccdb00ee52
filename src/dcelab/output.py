"""Deterministic result tables (CSV/JSON) and run manifests.

Floats are written with 17 significant digits ('%.17g'), enough to round
trip any IEEE double bit for bit, with '.' as the decimal separator and a
header row naming the columns. An empty sweep still produces the header,
so downstream joins see a stable schema. The JSON format mirrors the same
values as {"columns": [...], "rows": [[...]]}.

Every run also emits a manifest recording the scenario-file hash, the
seed, package and dependency versions, the tolerances the solvers actually
used, and the wall-clock time, so a result file can always be traced back
to the exact inputs that produced it.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import __version__

__all__ = [
    "FLOAT_FMT",
    "write_table",
    "RunManifest",
]

FLOAT_FMT = ".17g"


def _csv_lines(rows):
    """The CSV line of each row, by one '%': '%s' for the string cells, written
    verbatim, and '%.17g', which formats float(v), for the rest. Each sequence
    of cell types builds its format string once."""
    formats = {}
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join("%s" if issubclass(t, str) else "%" + FLOAT_FMT
                                            for t in types)
        yield fmt % tuple(row)


def write_table(path, header, rows, fmt="csv"):
    """Write one table; `path` gets the format suffix appended.

    Returns the full path written. Rows may mix floats and strings; a CSV
    written twice from the same rows is byte identical.
    """
    header = list(header)
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != len(header):
            raise ValueError("row length does not match header")
    if fmt == "csv":
        out = path.with_suffix(".csv")
        lines = [",".join(header)]
        lines.extend(_csv_lines(rows))
        out.write_text("\n".join(lines) + "\n")
    elif fmt == "json":
        out = path.with_suffix(".json")
        payload = {"columns": header,
                   "rows": [[v if isinstance(v, str) else float(v) for v in row]
                            for row in rows]}
        out.write_text(json.dumps(payload, indent=1) + "\n")
    else:
        raise ValueError(f"unknown output format '{fmt}'")
    return out


@dataclass
class RunManifest:
    """Provenance of one command-line run."""

    subcommand: str
    config_path: str
    config_sha256: str
    seed: int
    tolerances: dict = field(default_factory=dict)
    # what the solvers achieved, such as the open gate's series and checks;
    # empty for a run that records none
    diagnostics: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    wall_clock_s: float = 0.0
    versions: dict = field(default_factory=lambda: {
        "dcelab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    })
    created: str = field(default_factory=lambda: time.strftime(
        "%Y-%m-%dT%H:%M:%S%z"))

    def write(self, path):
        path.write_text(json.dumps(asdict(self), indent=1) + "\n")
        return path
