"""Whole-process wall time of every shipped config, before and after a change.

    python scripts/time_configs.py [--before TREE] [--after TREE] [--runs N]
                                   [--out FILE]

Each run is a fresh ``python -m dcelab.cli <subcommand> --config
configs/<name>.yaml`` process, so imports count, as they do for a user. The
subcommand comes from the config's ``#   dcelab <subcommand> --config``
header line, as in CI. TREE is a checkout; its ``src/`` is put on PYTHONPATH.
``--after`` defaults to the checkout this script sits in; without
``--before`` only that tree is timed. Both trees run the after tree's
configs. Run i times every config on both trees, the before tree first on
even i and the after tree first on odd i, so slow drift in the machine
falls on both sides. BLAS runs on one thread.

Prints, and with ``--out`` writes as JSON, each tree's median and quartiles
per config, in seconds, and the median minor page faults of its runs: the
growth of ``getrusage(RUSAGE_CHILDREN).ru_minflt`` across each child, which
counts first touches of fresh memory. A run that exits non-zero stops the
script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_HEADER = re.compile(r"^#   dcelab ([a-z]+) --config ", re.M)
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def shipped_configs(tree):
    """(stem, subcommand, path) of every configs/*.yaml, by name."""
    out = []
    for path in sorted((tree / "configs").glob("*.yaml")):
        match = _HEADER.search(path.read_text())
        if match is None:
            raise SystemExit(f"{path}: no '#   dcelab <subcommand> --config' header line")
        out.append((path.stem, match.group(1), path))
    return out


def time_run(tree, subcommand, config, out_dir):
    """Seconds and minor page faults of one whole `python -m dcelab.cli` process
    on tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           **{var: "1" for var in _BLAS_VARS}}
    cmd = [sys.executable, "-m", "dcelab.cli", subcommand, "--config", str(config),
           "--out", str(out_dir)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} (PYTHONPATH={tree / 'src'}) exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return seconds, faults


def summary(runs):
    """Median and quartiles (inclusive method) of one config's run seconds, and
    the median of its runs' minor page faults, from (seconds, faults) pairs."""
    times, faults = (list(column) for column in zip(*runs))
    q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                      if len(times) > 1 else times * 3)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "runs_s": times,
            "minflt_median": statistics.median(faults), "minflt_runs": faults}


def _commit(tree):
    """HEAD of tree's git checkout, or None unless tree is that checkout's top
    directory: an export inside another checkout would report that one's HEAD."""
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    top, commit = proc.stdout.splitlines()
    return commit if Path(top).resolve() == Path(tree).resolve() else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, default=None, metavar="TREE",
                    help="checkout to compare against (default: none)")
    ap.add_argument("--after", type=Path, default=ROOT, metavar="TREE",
                    help="checkout under test (default: this one)")
    ap.add_argument("--runs", type=int, default=10, help="runs per tree and config")
    ap.add_argument("--out", type=Path, default=None, metavar="FILE",
                    help="write the results as JSON")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    trees = {"after": args.after.resolve()}
    if args.before is not None:
        trees = {"before": args.before.resolve(), **trees}
    configs = shipped_configs(trees["after"])
    times = {stem: {side: [] for side in trees} for stem, _, _ in configs}
    with tempfile.TemporaryDirectory(prefix="time_configs_") as scratch:
        for i in range(args.runs):
            sides = list(trees) if i % 2 == 0 else list(reversed(trees))
            for stem, subcommand, path in configs:
                for side in sides:
                    out_dir = Path(scratch) / side / stem
                    times[stem][side].append(time_run(trees[side], subcommand, path, out_dir))
    result = {
        "command": "python scripts/time_configs.py " + " ".join(argv or sys.argv[1:]),
        "environment": {"python": platform.python_version(),
                        "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
                        "runs": args.runs},
        "trees": {side: {"path": str(tree), "commit": _commit(tree)}
                  for side, tree in trees.items()},
        "configs": {stem: {"subcommand": subcommand,
                           **{side: summary(times[stem][side]) for side in trees}}
                    for stem, subcommand, _ in configs},
    }
    for stem, entry in result["configs"].items():
        cells = [f"{side} {entry[side]['median_s']:.3f} s "
                 f"[{entry[side]['q1_s']:.3f}, {entry[side]['q3_s']:.3f}] "
                 f"{entry[side]['minflt_median']:.0f} faults" for side in trees]
        print(f"{stem:24s} {entry['subcommand']:10s} " + "  ".join(cells))
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
