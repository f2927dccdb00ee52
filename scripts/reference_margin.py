"""How close each shipped table sits to the tolerance of its benchmark reference.

    python scripts/reference_margin.py OUT_ROOT

``perfbench.checks.compare_reference`` passes a table when every strided
value is within REF_RTOL of the reference value plus REF_COL_ATOL of its
column's largest magnitude, and every column's sum of magnitudes is within
REF_RTOL of the recorded one. This script reports, per table, the worst
|got - reference| / tolerance over both tests: below 1 the table passes,
and the figure shows how much of the tolerance a change has used.

OUT_ROOT holds one directory of tables per shipped config, named after the
config (``configs/<name>.yaml`` -> ``OUT_ROOT/<name>/``), as the CI smoke
run leaves them. perfbench is only read: its tolerances, its CSV reader and
``reference.json``. Prints one line per table. Exits 1 when a table is
missing or its shape or labels differ from the reference, which
``compare_reference`` reports as a failure too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.checks import (  # noqa: E402
    REF_COL_ATOL,
    REF_RTOL,
    REFERENCE_PATH,
    _split,
    read_csv,
)


def margin(path, ref):
    """(values, column sums): the worst |got - reference| / tolerance of the
    strided values and of the column sums of magnitudes of the table at path,
    or a string saying why the table cannot be compared."""
    if not path.is_file():
        return f"missing {path}"
    header, rows = read_csv(path)
    if header != ref["columns"] or len(rows) != ref["n_rows"]:
        return "shape differs from the reference"
    _, got, got_text = _split(header, rows[::ref["stride"]])
    _, want, want_text = _split(header, ref["rows"])
    if got_text != want_text:
        return "labels differ from the reference"
    scale = np.abs(want).max(axis=0, initial=0.0) if want.size else 0.0
    values = _ratio(np.abs(got - want), REF_RTOL * np.abs(want) + REF_COL_ATOL * scale)
    sums = np.abs(_split(header, rows)[1]).sum(axis=0)
    want_sums = np.asarray(ref["abs_sum"])
    return values, _ratio(np.abs(sums - want_sums), REF_RTOL * np.abs(want_sums))


def _ratio(gap, tol):
    """max gap / tol, where a zero gap counts 0 even at a zero tolerance."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(gap == 0.0, 0.0, gap / tol)
    return float(r.max(initial=0.0))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_root", type=Path, metavar="OUT_ROOT",
                    help="directory of <config>/ table directories")
    out_root = ap.parse_args(argv).out_root
    failed = False
    print(f"{'table':42s} {'values':>9s} {'sums':>9s}  (|got - reference| / tolerance)")
    for stem, tables in json.loads(REFERENCE_PATH.read_text()).items():
        for table, ref in tables.items():
            m = margin(out_root / stem / f"{table}.csv", ref)
            name = f"{stem}/{table}"
            if isinstance(m, str):
                failed = True
                print(f"{name:42s} {m}")
            else:
                print(f"{name:42s} {m[0]:9.3g} {m[1]:9.3g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
