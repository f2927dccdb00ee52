"""dcelab benchmark: one closed loop of generated and shipped scenarios.

    python3 perfbench/run.py --workload drive|ramp|gate --seed N \
        --seconds S --trace 0|1

A single process runs the workload's scenarios one after another through
``dcelab.cli.main`` (plus the library-only lab-frame validation on
``gate``), pass after pass, until the passes have taken ``--seconds``.
The program is imported from ``src/`` of the checkout the script sits in.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s`` and ``cpu_s`` (median wall and user+system CPU time of one pass),
``setup_s`` (median over fresh processes of the time from process start to
the first solve: imports plus generating and validating the pass's
scenarios) and ``peak_rss_mb``. With ``--trace 1`` the same untraced passes
are followed by one traced pass, and the per-layer metrics are reported.

Every task's output is checked (exit code, table shape, finite values,
physics bounds, and the seed-commit reference for shipped configs) and
hashed; a pass whose hashes differ from the first pass's fails. Failed
tasks are counted in ``failed`` out of ``attempted``. BLAS runs on one
thread and the CLI on ``CLI_THREADS``; both are recorded with the
environment in ``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "work"
BLAS_THREADS = 1
CLI_THREADS = 1
SETUP_PROBES = 3
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pin_blas():
    """Pin BLAS/OpenMP pools to BLAS_THREADS; call before numpy is imported."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import dcelab from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    for p in (str(ROOT), str(src)):
        if p not in sys.path:
            sys.path.insert(0, p)
    try:
        import dcelab.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dcelab from {src}: {exc}")
    import dcelab
    if src not in Path(dcelab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: dcelab imported from {dcelab.__file__}, not {src}")


class Runner:
    """Generated scenario files of one workload and seed, and their passes."""

    def __init__(self, workload, seed, work_dir, tiny=False):
        import yaml

        from dcelab.config import load_config
        from perfbench.workloads import CliTask, generate

        self.seed = seed
        self.tasks = generate(workload, seed, tiny=tiny)
        self.work_dir = Path(work_dir)
        scen = self.work_dir / "scenarios"
        scen.mkdir(parents=True, exist_ok=True)
        self.paths, self.configs = {}, {}
        for t in self.tasks:
            if not isinstance(t, CliTask):
                continue
            if t.verbatim:
                path = ROOT / "configs" / f"{t.stem}.yaml"
            else:
                path = scen / f"{t.name}.yaml"
                path.write_text(yaml.safe_dump(t.config, sort_keys=False))
            self.paths[t.name] = path
            self.configs[t.name] = load_config(path)
        self.first_hashes = None

    def _out(self, task):
        return self.work_dir / "out" / task.name

    def _run_cli(self, task):
        import dcelab.cli as cli
        argv = [task.subcommand, "--config", str(self.paths[task.name]),
                "--out", str(self._out(task)), "--threads", str(CLI_THREADS),
                "--seed", str(self.seed)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return None if rc == 0 else f"exit code {rc}: {err.getvalue().strip()}"

    def _run_lab_frame(self, task):
        import numpy as np

        import dcelab.gate as gate
        from dcelab.config import build_gate
        params = build_gate({"r": task.r, "theta": task.theta, "n_max": task.n_max,
                             "p_z": []})[0]
        vac = np.zeros(task.n_max + 1, dtype=complex)
        vac[0] = 1.0
        # the tolerance of test_ac11
        squeezed = gate.lab_frame_branch(params, 1, vac, rtol=1e-9)
        target = gate.squeeze_state(params.r_gate, params.theta + np.pi, task.n_max,
                                    leak_tol=1e-3)
        rotated = gate.lab_frame_branch(params, 0, vac, rtol=1e-9)
        return (float(np.abs(np.vdot(target, squeezed)) ** 2),
                float(np.abs(rotated[0]) ** 2),
                hashlib.sha256(squeezed.tobytes() + rotated.tobytes()).hexdigest())

    def run_pass(self):
        """Run every task once.

        Returns (wall, cpu, raw, task_s): the pass's wall and CPU seconds,
        per-task raw outcomes for verify(), and per-task wall seconds.
        """
        from perfbench.workloads import CliTask

        shutil.rmtree(self.work_dir / "out", ignore_errors=True)
        raw, task_s = {}, {}
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for task in self.tasks:
            t0 = time.perf_counter()
            try:
                if isinstance(task, CliTask):
                    raw[task.name] = self._run_cli(task)
                else:
                    raw[task.name] = self._run_lab_frame(task)
            except Exception as exc:  # a failing solver must not end the run
                raw[task.name] = f"raised {type(exc).__name__}: {exc}"
            task_s[task.name] = time.perf_counter() - t0
        return time.perf_counter() - wall0, time.process_time() - cpu0, raw, task_s

    def verify(self, raw):
        """Check and hash every task's output; returns {name: error or None}.

        The first verified pass fixes the hashes that later passes (and
        reruns with the same seed) must reproduce byte for byte.
        """
        from perfbench import checks
        from perfbench.workloads import CliTask

        reference = None
        errors, hashes = {}, {}
        for task in self.tasks:
            outcome = raw[task.name]
            try:
                if isinstance(outcome, str):
                    raise checks.CheckError(outcome)
                if isinstance(task, CliTask):
                    out = self._out(task)
                    checks.check_cli_output(task.subcommand, self.configs[task.name], out)
                    if task.verbatim:
                        if reference is None:
                            reference = json.loads(checks.REFERENCE_PATH.read_text())
                        checks.compare_reference(task.stem, out, reference)
                    hashes[task.name] = checks.hash_files(sorted(out.glob("*.csv")))
                else:
                    fid_s, fid_r, hashes[task.name] = outcome
                    checks.check_lab_frame(fid_s, fid_r)
                if self.first_hashes and hashes[task.name] != self.first_hashes.get(task.name):
                    raise checks.CheckError("result hash differs from the first pass")
                errors[task.name] = None
            except (checks.CheckError, OSError, ValueError) as exc:
                errors[task.name] = str(exc)
        if self.first_hashes is None:
            self.first_hashes = hashes
        return errors

    def results_hash(self):
        """One sha256 over the per-task result hashes of the first pass."""
        items = sorted((self.first_hashes or {}).items())
        return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def _commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    return (git / name).read_text().strip() if (git / name).is_file() else None


def environment(args):
    import numpy as np
    import scipy

    src = sorted((ROOT / "src" / "dcelab").glob("*.py"))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "cli_threads": CLI_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "commit": _commit(),
        "source_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest(),
    }


def measure_setup(args, probe_root):
    """Median seconds from spawning a fresh process to its first solve."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
               "--setup-probe", str(probe_root / f"probe{i}")]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=60)
        except subprocess.TimeoutExpired:
            raise RuntimeError("setup probe did not finish within 60 s") from None
        last = proc.stdout.split()
        if proc.returncode != 0 or last[:1] != ["ready"]:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        # CLOCK_MONOTONIC is system-wide, so the probe's reading is comparable
        times.append(float(last[1]) - t0)
    return statistics.median(times), times


def _parse(argv):
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("drive", "ramp", "gate"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = _parse(argv)
    pin_blas()
    import_program()
    if args.setup_probe is not None:
        Runner(args.workload, args.seed, args.setup_probe)
        print(f"ready {time.monotonic()!r}")
        return 0

    from perfbench.tracing import PER_LAYER, Tracer, layer_metrics
    from perfbench.workloads import VERBATIM

    if CLI_THREADS > len(os.sched_getaffinity(0)):
        raise SystemExit("perfbench: CLI_THREADS exceeds the usable cores")
    env = environment(args)
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setup_s, setup_all = measure_setup(args, work / "probes")
        runner = Runner(args.workload, args.seed, work / "main")
        walls, cpus, task_walls, failures = [], [], [], []
        attempted = 0

        def account(raw, label):
            nonlocal attempted
            errors = runner.verify(raw)
            attempted += len(errors)
            failures.extend(f"{label} {name}: {e}" for name, e in errors.items() if e)

        while sum(walls) < args.seconds:
            wall, cpu, raw, task_s = runner.run_pass()
            walls.append(wall)
            cpus.append(cpu)
            task_walls.append(task_s)
            account(raw, f"pass {len(walls)}")
        wall_s = statistics.median(walls)
        if args.trace:
            with Tracer() as tracer:
                traced_wall, _, raw, task_s = runner.run_pass()
            account(raw, "traced pass")
            metrics = layer_metrics(tracer, traced_wall, wall_s)
            units = dict(PER_LAYER)
            for stem, _ in (v for vs in VERBATIM.values() for v in vs):
                metrics[f"cli.run.{stem}_s"] = task_s.get(stem, 0.0)
                units[f"cli.run.{stem}_s"] = "s"
        else:
            metrics = {"wall_s": wall_s, "cpu_s": statistics.median(cpus),
                       "setup_s": setup_s,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"env": env, "results_sha256": runner.results_hash(), "pass_wall_s": walls,
              "pass_cpu_s": cpus, "pass_task_s": task_walls, "setup_probe_s": setup_all,
              "failures": failures, "attempted": attempted, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"env {json.dumps(env)}")
    print(f"results_sha256 {record['results_sha256']} passes {len(walls)} "
          f"failed_frac {len(failures) / attempted:.6g}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
