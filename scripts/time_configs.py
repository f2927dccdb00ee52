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
per config, in seconds, and two medians over its runs from each child's own
resource usage (``os.wait4``): the minor page faults (``ru_minflt``), which
count first touches of fresh memory, and the peak resident set in MB
(``ru_maxrss``). ``getrusage(RUSAGE_CHILDREN)`` would give only the largest
peak over all children so far. A child's peak never reads below the resident
set of the process that started it, which the kernel carries across exec, so
run this as a script (a few MB, below any dcelab run), not inside a larger
process. A run that exits non-zero stops the script.

With ``--before``, every file a config's last run wrote on the two trees is
then compared byte for byte, its manifest (paths, times) excepted: the line
of each config ends in ``tables identical`` or names the files that differ
(a file only one tree wrote differs too), and ``--out`` records
``tables_identical`` per config. For a differing CSV file both trees wrote
with one header and row count, the line also gives, per column whose cells
differ, the largest absolute change and the largest change relative to the
larger magnitude of the two cells, and ``--out`` records them under
``table_changes`` (null for a file that cannot be compared so: one side
only, another header or row count, or a differing cell that is not a
number). Differing tables do not change the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import re
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
    """Seconds, minor page faults and peak resident MB of one whole
    `python -m dcelab.cli` process on tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           **{var: "1" for var in _BLAS_VARS}}
    cmd = [sys.executable, "-m", "dcelab.cli", subcommand, "--config", str(config),
           "--out", str(out_dir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True) as proc:
        stderr = proc.stderr.read()
        # reap the child here, so its own rusage comes back; Popen then sees it done
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} (PYTHONPATH={tree / 'src'}) exited "
                         f"{proc.returncode}: {stderr.strip()}")
    return seconds, usage.ru_minflt, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def summary(runs):
    """Median and quartiles (inclusive method) of one config's run seconds, and
    the medians of its runs' minor page faults and peak resident MB, from
    (seconds, faults, MB) triples."""
    times, faults, rss = (list(column) for column in zip(*runs))
    q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                      if len(times) > 1 else times * 3)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "runs_s": times,
            "minflt_median": statistics.median(faults), "minflt_runs": faults,
            "maxrss_mb_median": statistics.median(rss), "maxrss_mb_runs": rss}


def differing_tables(subcommand, before, after):
    """Sorted names of the files in the output directories before and after that
    differ byte for byte or exist on one side only, the run's manifest excepted."""
    names = {p.name for d in (before, after) for p in d.iterdir()}
    names.discard(f"{subcommand}_manifest.json")
    return sorted(name for name in names
                  if not ((before / name).is_file() and (after / name).is_file()
                          and (before / name).read_bytes() == (after / name).read_bytes()))


def column_changes(before, after):
    """{column: {"max_abs": largest absolute change, "max_rel": largest
    relative change}} over the columns whose cells differ between the CSV
    files before and after, the relative change of two cells taken against
    the larger magnitude of the two; None if either file is missing, their
    headers or row counts differ, or a differing cell is not a number."""
    if not (before.is_file() and after.is_file()):
        return None
    tables = [list(csv.reader(path.read_text().splitlines())) for path in (before, after)]
    if tables[0][:1] != tables[1][:1] or len(tables[0]) != len(tables[1]):
        return None
    changes = {}
    for row_before, row_after in zip(tables[0][1:], tables[1][1:]):
        for column, b, a in zip(tables[0][0], row_before, row_after):
            if a == b:
                continue
            try:
                b, a = float(b), float(a)
            except ValueError:
                return None
            worst = changes.setdefault(column, {"max_abs": 0.0, "max_rel": 0.0})
            worst["max_abs"] = max(worst["max_abs"], abs(a - b))
            worst["max_rel"] = max(worst["max_rel"], abs(a - b) / max(abs(a), abs(b)))
    return changes


def _describe(name, changes):
    """name, followed by the column changes of changes[name] if it has any."""
    columns = changes.get(name)
    if not columns:
        return name
    return name + " (" + ", ".join(f"{column} max abs {c['max_abs']:.2g} rel {c['max_rel']:.2g}"
                                   for column, c in columns.items()) + ")"


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
        differing = {stem: differing_tables(subcommand, Path(scratch) / "before" / stem,
                                            Path(scratch) / "after" / stem)
                     for stem, subcommand, _ in configs if "before" in trees}
        changes = {stem: {name: column_changes(Path(scratch) / "before" / stem / name,
                                               Path(scratch) / "after" / stem / name)
                          for name in names if name.endswith(".csv")}
                   for stem, names in differing.items()}
    result = {
        "command": "python scripts/time_configs.py " + " ".join(argv or sys.argv[1:]),
        "environment": {"python": platform.python_version(),
                        "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
                        "runs": args.runs},
        "trees": {side: {"path": str(tree), "commit": _commit(tree)}
                  for side, tree in trees.items()},
        "configs": {stem: {"subcommand": subcommand,
                           **{side: summary(times[stem][side]) for side in trees},
                           **({"tables_identical": not differing[stem],
                               "table_changes": changes[stem]}
                              if stem in differing else {})}
                    for stem, subcommand, _ in configs},
    }
    for stem, entry in result["configs"].items():
        cells = [f"{side} {entry[side]['median_s']:.3f} s "
                 f"[{entry[side]['q1_s']:.3f}, {entry[side]['q3_s']:.3f}] "
                 f"{entry[side]['minflt_median']:.0f} faults "
                 f"{entry[side]['maxrss_mb_median']:.1f} MB" for side in trees]
        if stem in differing:
            cells.append("tables differ: " + ", ".join(_describe(name, changes[stem])
                                                       for name in differing[stem])
                          if differing[stem] else "tables identical")
        print(f"{stem:24s} {entry['subcommand']:10s} " + "  ".join(cells))
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
