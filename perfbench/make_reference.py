"""Record reference.json from the shipped configs at the current commit.

    python3 perfbench/make_reference.py

Run it only at a commit whose results are trusted: every benchmark run
compares the shipped configs' tables against this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run  # noqa: E402


def main():
    run.pin_blas()
    run.import_program()
    import dcelab.cli as cli

    from perfbench.checks import REFERENCE_PATH, reference_entry
    from perfbench.workloads import VERBATIM

    tmp = run.WORK / "reference"
    reference = {}
    try:
        for stem, sub in (v for vs in VERBATIM.values() for v in vs):
            out = tmp / stem
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([sub, "--config", str(run.ROOT / "configs" / f"{stem}.yaml"),
                               "--out", str(out)])
            if rc != 0:
                raise SystemExit(f"{stem}: exit code {rc}")
            reference[stem] = reference_entry(out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=0) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
