"""Output checks, reference tables and result hashes.

A task fails when the CLI exits non-zero or raises, when a table has the
wrong shape or a non-finite value, when a physics bound is broken, or, for
the verbatim shipped configs, when a table drifts from the reference
recorded at the benchmark's seed commit. The reference tolerance (relative
1e-6, plus 1e-7 of the column's largest magnitude) sits well above the
solver tolerances (1e-9 to 1e-10), so an exact-exponential or monodromy
rewrite that keeps the physics passes while a wrong answer does not.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["CheckError", "read_csv", "check_cli_output", "check_lab_frame",
           "compare_reference", "reference_entry", "hash_files", "REFERENCE_PATH"]

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REF_RTOL = 1e-6
REF_COL_ATOL = 1e-7
_REF_MAX_ROWS = 64

# CLI defaults for keys a scenario may omit (dcelab/cli.py)
_DEFAULT_N_TIMES = 81
_DEFAULT_N_STEPS = 1000
_DEFAULT_N_SAMPLES = 101
_DEFAULT_GRID = 41
_DEFAULT_N_Z = 201


class CheckError(Exception):
    """An output that is missing, malformed or physically wrong."""


def read_csv(path):
    """(header, rows) of a CSV table; numeric cells become floats."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise CheckError(f"{path.name}: empty file")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise CheckError(f"{path.name}: ragged row {ln!r}")
        row = []
        for c in cells:
            try:
                row.append(float(c))
            except ValueError:
                row.append(c)
        rows.append(row)
    return header, rows


def _numeric(name, header, rows, n_rows, n_cols):
    if len(header) != n_cols:
        raise CheckError(f"{name}: {len(header)} columns, expected {n_cols}")
    if len(rows) != n_rows:
        raise CheckError(f"{name}: {len(rows)} rows, expected {n_rows}")
    arr = np.array(rows, dtype=float).reshape(n_rows, n_cols)
    if not np.all(np.isfinite(arr)):
        raise CheckError(f"{name}: non-finite values")
    return arr


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _load(out_dir, table):
    path = Path(out_dir) / f"{table}.csv"
    if not path.is_file():
        raise CheckError(f"missing table {path.name}")
    return read_csv(path)


def _check_spectrum(cfg, out):
    n_max = int(cfg["squid"]["n_max"])
    a = _numeric("spectrum", *_load(out, "spectrum"), n_max, 3)
    _require(np.array_equal(a[:, 0], np.arange(1, n_max + 1)), "spectrum: root numbering")
    _require(a[0, 1] > 0 and np.all(np.diff(a[:, 1]) > 0),
             "spectrum: kd not positive and increasing")


def _check_bogoliubov(cfg, out):
    n_modes = int(cfg["cavity"]["n_modes"])
    n_times = int(cfg.get("bogoliubov", {}).get("n_times", _DEFAULT_N_TIMES))
    a = _numeric("occupations", *_load(out, "occupations"), n_times, 2 + n_modes)
    _require(a[0, 0] == 0.0 and np.all(np.diff(a[:, 0]) > 0), "occupations: time grid")
    _require(np.all(a[:, 1:] >= 0.0), "occupations: negative |beta| or N_k")


def _check_msa(cfg, out):
    block = cfg["msa"]
    pairs = block.get("pairs", [[1, 1]])
    n_rows = min(int(block.get("n_samples", _DEFAULT_N_SAMPLES)),
                 int(block.get("n_steps", _DEFAULT_N_STEPS)) + 1)
    a = _numeric("slow_amplitudes", *_load(out, "slow_amplitudes"), n_rows, 1 + 2 * len(pairs))
    tau_max = float(block.get("tau_max", 1.0))
    _require(a[0, 0] == 0.0 and math.isclose(a[-1, 0], tau_max, rel_tol=1e-12),
             "slow_amplitudes: tau grid does not span [0, tau_max]")
    _require(np.all(a[:, 1:] >= 0.0), "slow_amplitudes: negative magnitude")


def _check_moore(cfg, out):
    block = cfg["moore"]
    f = _numeric("moore_function", *_load(out, "moore_function"),
                 int(block.get("n_z", _DEFAULT_N_Z)), 2)
    _require(np.all(np.diff(f[:, 1]) > 0.0), "moore_function: F not increasing")
    _numeric("energy_density", *_load(out, "energy_density"),
             int(block.get("n_x", _DEFAULT_GRID)) * int(block.get("n_t", _DEFAULT_GRID)), 3)


def _check_otto(cfg, out):
    block = cfg["otto"]
    n_rows = len(block["tau_values"]) if "tau_values" in block else int(block["n_tau"])
    a = _numeric("otto_cycle", *_load(out, "otto_cycle"), n_rows, 5)
    eps = float(block["epsilon"])
    # eta = W/Q stays below the adiabatic value eps while friction is on.
    # Rounding in W/Q alone gives eps (1 + 2e-14) for the adiabatic cycle,
    # and slow strokes (friction ~ 1e-15 eps) land within that rounding.
    _require(np.all(a[:, 1] <= eps * (1.0 + 1e-12)), f"otto_cycle: eta exceeds eps = {eps}")


def _check_gate(cfg, out):
    n_rows = len(cfg["gate"]["p_z"])
    a = _numeric("gate_fidelity", *_load(out, "gate_fidelity"), n_rows, 5)
    fbar = a[:, 1:4]
    _require(np.all((fbar >= 0.0) & (fbar <= 1.0)), "gate_fidelity: fbar outside [0, 1]")
    _require(np.all(a[:, 3] <= a[:, 2]), "gate_fidelity: fbar_open above fbar_simulated")
    _require(np.all((a[:, 4] > 0.0) & (a[:, 4] <= 1.0)), "gate_fidelity: purity outside (0, 1]")


def _check_crosscheck(cfg, out):
    header, rows = _load(out, "crosscheck")
    _require(header == ["comparison", "value", "bound"] and len(rows) == 2,
             "crosscheck: table shape")
    for name, value, bound in rows:
        _require(isinstance(value, float) and math.isfinite(value) and value <= bound,
                 f"crosscheck: {name} = {value} exceeds its bound {bound}")


_CHECKS = {"spectrum": _check_spectrum, "bogoliubov": _check_bogoliubov,
           "msa": _check_msa, "moore": _check_moore, "otto": _check_otto,
           "gate": _check_gate, "crosscheck": _check_crosscheck}


def check_cli_output(subcommand, cfg, out_dir):
    """Raise CheckError unless the tables of one CLI run look right."""
    _CHECKS[subcommand](cfg, out_dir)


def check_lab_frame(fid_squeeze, fid_rotate):
    """Both branches must reproduce the rotating-frame gate (as test_ac11)."""
    _require(fid_squeeze > 0.99, f"lab frame: squeeze-branch fidelity {fid_squeeze:.6f}")
    _require(fid_rotate > 0.99, f"lab frame: rotation-branch fidelity {fid_rotate:.6f}")


def hash_files(paths):
    """sha256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode() + b"\0" + Path(p).read_bytes())
    return h.hexdigest()


def _split(header, rows):
    """Numeric columns as one float array, the rest as a list of lists."""
    num = [i for i, _ in enumerate(header) if all(isinstance(r[i], float) for r in rows)]
    text = [[r[i] for i, _ in enumerate(header) if i not in num] for r in rows]
    arr = np.array([[r[i] for i in num] for r in rows], dtype=float).reshape(len(rows), len(num))
    return num, arr, text


def reference_entry(out_dir):
    """Reference record of every table in out_dir: at most 64 evenly strided
    rows plus the column sums of magnitudes over all rows."""
    entry = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        header, rows = read_csv(path)
        num, arr, _ = _split(header, rows)
        stride = max(1, math.ceil(len(rows) / _REF_MAX_ROWS))
        entry[path.stem] = {"columns": header, "n_rows": len(rows), "stride": stride,
                            "rows": rows[::stride],
                            "abs_sum": np.abs(arr).sum(axis=0).tolist()}
    return entry


def compare_reference(stem, out_dir, reference=None):
    """Raise CheckError if a verbatim config's tables drift from the reference."""
    if reference is None:
        reference = json.loads(REFERENCE_PATH.read_text())
    if stem not in reference:
        raise CheckError(f"no reference recorded for {stem}")
    for table, ref in reference[stem].items():
        header, rows = _load(out_dir, table)
        _require(header == ref["columns"] and len(rows) == ref["n_rows"],
                 f"{stem}/{table}: shape differs from the reference")
        num, got, got_text = _split(header, rows[::ref["stride"]])
        _, want, want_text = _split(header, ref["rows"])
        _require(got_text == want_text, f"{stem}/{table}: labels differ from the reference")
        scale = np.abs(want).max(axis=0, initial=0.0) if want.size else 0.0
        tol = REF_RTOL * np.abs(want) + REF_COL_ATOL * scale
        bad = np.abs(got - want) > tol
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise CheckError(f"{stem}/{table}: row {i * ref['stride']} column "
                             f"{header[num[j]]} = {got[i, j]!r}, reference {want[i, j]!r}")
        _, full, _ = _split(header, rows)
        sums = np.abs(full).sum(axis=0)
        _require(np.allclose(sums, ref["abs_sum"], rtol=REF_RTOL, atol=0.0),
                 f"{stem}/{table}: column magnitudes differ from the reference")
