"""Command-line front end: scenario files in, result tables out.

Subcommands mirror the solver modules. spectrum solves the SQUID-cavity
boundary pair, bogoliubov runs the coupled-mode ODE and tabulates mode
occupations over time, msa solves the resonant slow flow, moore
tabulates the conformal phase function and the stress-energy density,
otto sweeps the cycle over stroke durations, gate sweeps the encoding
fidelity over qubit polarizations, and crosscheck runs the coupled-mode,
conformal and slow-flow solvers on one resonant drive and scores their
agreement.

Exit codes: 0 on success, 2 for scenario-file problems (unknown keys,
missing blocks, an output directory that cannot be created or a result
file that cannot be written), 3 for physics failures (non-convergence,
superluminal walls, truncation leaks, crosscheck disagreement) with the
solver's message printed verbatim.
Identical scenario file and seed give byte-identical CSV output regardless
of --threads; the seed is recorded in the manifest and only matters for
sampling-based work, none of which feeds the tables below.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import (ConfigError, build_cavity, build_gate, build_otto,
                     build_squid, build_trajectory, load_config, require_block)
from .output import RunManifest, sha256_of_file, write_table

__all__ = ["main", "build_parser"]

# The solver names the runners call, by defining module. They are attributes
# of this module that import their module on first use (__getattr__), so a
# run loads only its own subcommand's solver, and a name bound on dcelab.cli
# itself, such as a test's monkeypatch, is the one the runner calls.
_SOLVERS = {
    "bogoliubov": ("extract_bogoliubov", "integrate_modes", "mode_snapshots",
                   "photon_spectrum"),
    "cavity": ("ModeBasis", "thermal_occupation"),
    "gate": ("average_fidelity", "open_average_fidelity", "simulated_average_fidelity"),
    "moore": ("bogoliubov_from_moore", "energy_density", "solve_moore"),
    "msa": ("evolve_slow",),
    "otto": ("nonadiabatic_cycles",),
    "squid": ("solve_spectrum",),
}
_HOME = {name: module for module, names in _SOLVERS.items() for name in names}
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_HOME[name]}"), name)


def _map_ordered(fn, items, threads):
    """Apply fn over items, optionally on a thread pool, preserving order."""
    items = list(items)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _run_spectrum(cfg, args):
    params, n_max = build_squid(require_block(cfg, "squid", "spectrum"))
    roots = _cli.solve_spectrum(params, n_max)
    rows = [[float(i + 1), r.kd, r.phi] for i, r in enumerate(roots)]
    worst = max(max(r.residuals(params)) for r in roots) if roots else 0.0
    tables = [("spectrum", ["n", "kd", "phi"], rows)]
    return tables, {"max_sine_residual": worst}, [], True


def _run_bogoliubov(cfg, args):
    cav = build_cavity(require_block(cfg, "cavity", "bogoliubov"))
    tblock = require_block(cfg, "trajectory", "bogoliubov")
    traj = build_trajectory(tblock, cav.length)
    opts = cfg.get("bogoliubov", {})
    from .bogoliubov import DEFAULT_RTOL
    rtol = float(opts.get("rtol", DEFAULT_RTOL))
    n_times = int(opts.get("n_times", 81))
    horizon = float(tblock.get("t_end", traj.t_end))
    if horizon <= 0.0:
        raise ConfigError("bogoliubov needs a positive time span; "
                          "set trajectory.t_end")
    n_in = None
    if "beta_temp" in opts:
        n_in = _cli.thermal_occupation(float(opts["beta_temp"]),
                                       _cli.ModeBasis.build(cav).omega)
    times = np.linspace(0.0, horizon, n_times)
    rows = []
    for t, snap in zip(times, _cli.mode_snapshots(cav, traj, times, rtol=rtol)):
        bog = _cli.extract_bogoliubov(snap)
        occ = _cli.photon_spectrum(bog, n_in)
        rows.append([float(t), float(np.abs(bog.beta).max()), *occ.tolist()])
    header = ["t", "beta_max"] + [f"N_{k}" for k in range(1, cav.n_modes + 1)]
    return [("occupations", header, rows)], {"ode_rtol": rtol}, [], True


def _run_msa(cfg, args):
    cav = build_cavity(require_block(cfg, "cavity", "msa"))
    block = require_block(cfg, "msa", "msa")
    pairs = [tuple(int(v) for v in p) for p in block.get("pairs", [[1, 1]])]
    for n, k in pairs:
        if n > cav.n_modes or k > cav.n_modes:
            raise ConfigError(f"msa pair ({n}, {k}) exceeds n_modes = {cav.n_modes}")
    eps = block.get("epsilon")
    from .msa import DEFAULT_TOL as tol
    sl = _cli.evolve_slow(_cli.ModeBasis.build(cav), float(block["omega"]),
                          eps=None if eps is None else float(eps),
                          tau_max=float(block.get("tau_max", 1.0)),
                          n_samples=int(block.get("n_samples", 101)), tol=tol)
    header = ["tau"]
    for n, k in pairs:
        header += [f"abs_alpha_{n}_{k}", f"abs_beta_{n}_{k}"]
    rows = []
    for i, tau in enumerate(sl.tau):
        row = [float(tau)]
        for n, k in pairs:
            row += [float(abs(sl.alpha[i, n - 1, k - 1])),
                    float(abs(sl.beta[i, n - 1, k - 1]))]
        rows.append(row)
    return [("slow_amplitudes", header, rows)], {"resonance_tol": tol}, [], True


def _run_moore(cfg, args):
    cav = build_cavity(require_block(cfg, "cavity", "moore"))
    tblock = require_block(cfg, "trajectory", "moore")
    traj = build_trajectory(tblock, cav.length)
    block = require_block(cfg, "moore", "moore")
    t_max = float(block["t_max"])
    from .moore import DEFAULT_POINTS_PER_LENGTH
    ppl = int(block.get("points_per_length", DEFAULT_POINTS_PER_LENGTH))
    temperature = float(block.get("temperature", 0.0))
    F = _cli.solve_moore(traj, t_max, points_per_length=ppl)
    z = np.linspace(F.z_min, F.z_max, int(block.get("n_z", 201)))
    f_rows = [[float(zi), float(fi)] for zi, fi in zip(z, F(z))]
    # rectangular (x, t) grid: keep x inside the cavity at every sampled t
    r_min = float(np.min(traj.position(np.linspace(0.0, t_max, 2048))))
    x = np.linspace(0.0, r_min, int(block.get("n_x", 41)))
    ts = np.linspace(0.0, t_max, int(block.get("n_t", 41)))
    dens = _cli.energy_density(F, temperature, x, ts[:, None])  # [t, x]
    e_rows = [[float(xi), float(tj), float(di)]
              for tj, row in zip(ts, dens) for xi, di in zip(x, row)]
    tables = [("moore_function", ["z", "F"], f_rows),
              ("energy_density", ["x", "t", "T_tt"], e_rows)]
    return tables, {"points_per_length": ppl}, [], True


def _run_otto(cfg, args):
    spec, tau = build_otto(require_block(cfg, "otto", "otto"))
    tau = np.sort(np.asarray(tau, dtype=float))
    res = _cli.nonadiabatic_cycles(spec, tau)
    rows = np.column_stack([tau * (np.pi / spec.L0), res.eta, res.W, res.Q, res.P]).tolist()
    header = ["tau_omega1", "eta", "W", "Q", "P"]
    return [("otto_cycle", header, rows)], {"n_modes": spec.n_modes}, [], True


def _run_gate(cfg, args):
    params, p_z, rates = build_gate(require_block(cfg, "gate", "gate"))
    r = params.r_gate

    def one(pz):
        a = np.sqrt((1.0 + pz) / 2.0)
        b = np.sqrt((1.0 - pz) / 2.0)
        f_closed = _cli.average_fidelity(r, pz)
        f_sim = _cli.simulated_average_fidelity(a, b, params)
        if rates is None:
            # lossless limit: the open gate coincides with the closed one
            f_open, purity = f_sim, 1.0
        else:
            f_open, purity = _cli.open_average_fidelity(a, b, params, rates)
        return [float(pz), float(f_closed), float(f_sim),
                float(f_open), float(purity)]

    rows = _map_ordered(one, p_z, args.threads)
    header = ["p_z", "fbar_closed", "fbar_simulated", "fbar_open", "purity"]
    tol = {"n_max": params.n_max, "leak_tol": params.leak_tol}
    return [("gate_fidelity", header, rows)], tol, [], True


def _run_crosscheck(cfg, args):
    cav = build_cavity(require_block(cfg, "cavity", "crosscheck"))
    tblock = require_block(cfg, "trajectory", "crosscheck")
    if tblock.get("type") != "harmonic":
        raise ConfigError("crosscheck needs a harmonic trajectory block")
    traj = build_trajectory(tblock, cav.length)
    eps, t_end = float(tblock["epsilon"]), float(tblock["t_end"])
    opts = cfg.get("crosscheck", {})
    beta_factor = float(opts.get("beta_factor", 5.0))
    msa_rel_tol = float(opts.get("msa_rel_tol", 0.05))
    ode_rtol = 1e-10

    basis = _cli.ModeBasis.build(cav)
    bog = _cli.extract_bogoliubov(_cli.integrate_modes(cav, traj, rtol=ode_rtol, t_final=t_end))
    mm = _cli.bogoliubov_from_moore(_cli.solve_moore(traj, t_end), basis, t_end)
    d_moore = float(np.abs(mm.beta - bog.beta).max())
    bound = beta_factor * eps**2

    sl = _cli.evolve_slow(basis, float(tblock["omega"]), eps=eps, tau_max=eps * t_end)
    n, k = np.unravel_index(np.argmax(np.abs(sl.beta_final)), sl.beta_final.shape)
    b_msa = float(abs(sl.beta_final[n, k]))
    if b_msa < 1e-12:
        raise RuntimeError("crosscheck needs a resonant drive: the slow flow "
                           "predicts no pair creation at this frequency")
    rel = abs(abs(bog.beta[n, k]) - b_msa) / b_msa

    ok_moore, ok_msa = d_moore <= bound, rel <= msa_rel_tol
    messages = [
        f"ode vs moore: max |dbeta| = {d_moore:.6e} "
        f"(bound {bound:.6e}) -> {'ok' if ok_moore else 'FAIL'}",
        f"ode vs msa: |beta_{n + 1}{k + 1}| relative deviation = {rel:.6e} "
        f"(bound {msa_rel_tol:.6e}) -> {'ok' if ok_msa else 'FAIL'}",
    ]
    rows = [["ode_vs_moore_max_dbeta", d_moore, bound],
            ["ode_vs_msa_rel_beta", rel, msa_rel_tol]]
    tables = [("crosscheck", ["comparison", "value", "bound"], rows)]
    tol = {"beta_factor": beta_factor, "msa_rel_tol": msa_rel_tol,
           "ode_rtol": ode_rtol}
    return tables, tol, messages, ok_moore and ok_msa


_RUNNERS = {
    "spectrum": (_run_spectrum, "roots of the SQUID-cavity boundary pair"),
    "bogoliubov": (_run_bogoliubov, "coupled-mode occupations over time"),
    "msa": (_run_msa, "resonant slow-flow amplitudes"),
    "moore": (_run_moore, "conformal phase function and energy density"),
    "otto": (_run_otto, "cycle efficiency/work/power over stroke duration"),
    "gate": (_run_gate, "encoding fidelity over qubit polarization"),
    "crosscheck": (_run_crosscheck, "three-solver agreement on one drive"),
}


def _seed_type(text):
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit "
                                         "integer")
    return value


def _threads_type(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("thread count must be >= 1")
    return value


def build_parser():
    """A new argument parser with one subparser per subcommand."""
    parser = argparse.ArgumentParser(
        prog="dcelab",
        description="numerical laboratory for cavities with moving boundaries")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="SUBCOMMAND")
    for name, (_, doc) in _RUNNERS.items():
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="scenario file (YAML)")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (default: output.path or '.')")
        sp.add_argument("--format", choices=["csv", "json"], default=None,
                        help="table format (default: output.format or csv)")
        sp.add_argument("--threads", type=_threads_type, default=1,
                        help="worker threads for the gate's p_z sweep (default 1)")
        sp.add_argument("--seed", type=_seed_type, default=0,
                        help="seed recorded in the manifest (default 0)")
    return parser


@functools.cache
def _parser():
    """The parser main uses: built on the first call, not at import, and kept
    for the process. Parsing leaves it unchanged, so every call may share it."""
    return build_parser()


def main(argv=None):
    """Run one subcommand on argv (default sys.argv[1:]) and return its exit
    code. The argument parser is built once per process, on the first call."""
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        out_block = cfg.get("output", {})
        fmt = args.format or out_block.get("format", "csv")
        out_dir = Path(args.out) if args.out else Path(out_block.get("path", "."))
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
        tables, tolerances, messages, ok = _RUNNERS[args.subcommand][0](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    try:
        written = [write_table(out_dir / name, header, rows, fmt)
                   for name, header, rows in tables]
        manifest = RunManifest(
            subcommand=args.subcommand, config_path=str(args.config),
            config_sha256=sha256_of_file(args.config), seed=args.seed,
            tolerances=tolerances, outputs=[w.name for w in written],
            wall_clock_s=time.perf_counter() - t0)
        written.append(manifest.write(out_dir / f"{args.subcommand}_manifest.json"))
    except OSError as exc:
        print(f"config error: cannot write the results to {out_dir}: {exc}", file=sys.stderr)
        return 2
    for line in messages:
        print(line)
    for w in written:
        print(f"wrote {w}")
    if not ok:
        print("crosscheck failed: solver disagreement exceeds the configured "
              "bounds", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
