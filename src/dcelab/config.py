"""Scenario files: strict YAML documents driving the command-line runs.

A scenario is a mapping of named blocks; each subcommand consumes the
blocks it needs (cavity + trajectory for the coupled-mode solver, squid
for the transcendental spectrum, and so on). Validation is deliberately
unforgiving: unknown blocks and unknown keys inside a block are rejected
with the offending path, so a typo cannot silently fall back to a default.
Cheap numeric sanity lives in the schema; everything physical (subluminal
walls, 0 < eps < 1, truncation leakage) is enforced by the solver
constructors and surfaces as a physics error, not a config error.

Units follow the solver modules: natural units (c = hbar = k_B = 1) for
the cavity blocks, nanoseconds / rad/ns / mK for the gate block.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml
from jsonschema import Draft202012Validator

__all__ = [
    "ConfigError",
    "SCHEMA",
    "load_config",
    "require_block",
    "build_cavity",
    "build_trajectory",
    "build_squid",
    "build_otto",
    "build_gate",
]


class ConfigError(Exception):
    """Scenario file problem: syntax, schema violation, or missing block."""


class _ScenarioLoader(yaml.SafeLoader):
    """SafeLoader that also accepts YAML 1.2 float forms like 1.0e6.

    Stock pyyaml implements YAML 1.1, whose exponent requires a sign, so
    '1.0e6' silently becomes a string and trips the schema. Scientific
    notation is pervasive in these scenarios; accept the modern spelling.
    """


_ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"""^(?:
        [-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
        |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
        |[-+]?\.[0-9_]+(?:[eE][-+]?[0-9]+)?
        |[-+]?\.(?:inf|Inf|INF)
        |\.(?:nan|NaN|NAN)
        )$""", re.X),
    list("-+0123456789."))


_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_NUM = {"type": "number", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "cavity": {
            "type": "object",
            "additionalProperties": False,
            "required": ["length", "n_modes"],
            "properties": {"length": _POS_NUM, "n_modes": _POS_INT},
        },
        "trajectory": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["static", "harmonic", "quintic", "tabulated"]},
                "epsilon": {"type": "number"},
                "omega": _POS_NUM,
                "t_end": _POS_NUM,
                "tau": _POS_NUM,
                "times": {"type": "array", "minItems": 2,
                          "items": {"type": "number"}},
                "positions": {"type": "array", "minItems": 2,
                              "items": _POS_NUM},
            },
        },
        "bogoliubov": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rtol": {"type": "number", "exclusiveMinimum": 0, "maximum": 1e-3},
                "n_times": {"type": "integer", "minimum": 2},
                "beta_temp": _POS_NUM,
            },
        },
        "msa": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega"],
            "properties": {
                "omega": _POS_NUM,
                "epsilon": _POS_NUM,
                "tau_max": _POS_NUM,
                # accepted for older scenario files and ignored: the slow
                # flow is solved exactly, with no step size
                "n_steps": _POS_INT,
                "n_samples": {"type": "integer", "minimum": 2},
                "pairs": {"type": "array", "minItems": 1,
                          "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                    "items": _POS_INT}},
            },
        },
        "moore": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t_max"],
            "properties": {
                "t_max": _POS_NUM,
                "points_per_length": {"type": "integer", "minimum": 8},
                "temperature": _NONNEG_NUM,
                "n_z": {"type": "integer", "minimum": 2},
                "n_x": {"type": "integer", "minimum": 2},
                "n_t": {"type": "integer", "minimum": 2},
            },
        },
        "squid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["chi0", "b0L", "b0R", "n_max"],
            "properties": {
                "chi0": _NONNEG_NUM,
                "b0L": {"type": "number"},
                "b0R": {"type": "number"},
                "d": _POS_NUM,
                "n_max": _POS_INT,
            },
        },
        "otto": {
            "type": "object",
            "additionalProperties": False,
            "required": ["length", "epsilon", "beta_A", "beta_C"],
            "properties": {
                "length": _POS_NUM,
                "epsilon": {"type": "number", "exclusiveMinimum": 0,
                            "exclusiveMaximum": 1},
                "beta_A": _POS_NUM,
                "beta_C": _POS_NUM,
                "n_modes": _POS_INT,
                "include_casimir": {"type": "boolean"},
                "tau_min": _POS_NUM,
                "tau_max": _POS_NUM,
                "n_tau": {"type": "integer", "minimum": 1},
                "tau_spacing": {"enum": ["linear", "log"]},
                "tau_values": {"type": "array", "items": _POS_NUM},
            },
        },
        "gate": {
            "type": "object",
            "additionalProperties": False,
            "required": ["r", "p_z"],
            "properties": {
                "r": _POS_NUM,
                "theta": {"type": "number"},
                "p_z": {"type": "array",
                        "items": {"type": "number", "minimum": -1, "maximum": 1}},
                "n_max": {"type": "integer", "minimum": 2},
                "leak_tol": _POS_NUM,
                "g_d": _POS_NUM,
                "eps_d": _POS_NUM,
                "rates": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "tau_q": _POS_NUM,
                        "tau_r": _POS_NUM,
                        "tau_phi": _POS_NUM,
                        "temperature_mK": _NONNEG_NUM,
                    },
                },
            },
        },
        "crosscheck": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # ODE vs Moore: max elementwise |dbeta| <= beta_factor * eps^2
                "beta_factor": _POS_NUM,
                # ODE vs MSA: relative deviation of the dominant |beta_nk|
                "msa_rel_tol": _POS_NUM,
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv", "json"]},
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(SCHEMA)


def _json_path(error):
    parts = ["$"]
    for p in error.absolute_path:
        parts.append(f"[{p}]" if isinstance(p, int) else f".{p}")
    return "".join(parts)


def load_config(path):
    """Parse one scenario file and validate it against SCHEMA.

    Returns the raw mapping. Raises ConfigError with a line number for
    YAML syntax problems and with the JSON path of the offending field
    for schema violations.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ConfigError(f"{path}: YAML syntax error at {where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping of blocks")
    errors = sorted(_VALIDATOR.iter_errors(raw),
                    key=lambda e: [str(p) for p in e.absolute_path])
    if errors:
        first = errors[0]
        raise ConfigError(f"{path}: {_json_path(first)}: {first.message}")
    return raw


def require_block(cfg, name, subcommand):
    if name not in cfg:
        raise ConfigError(f"subcommand '{subcommand}' needs a '{name}' block")
    return cfg[name]


def _need(block, key, context):
    if key not in block:
        raise ConfigError(f"{context} needs the key '{key}'")
    return block[key]


def _given(block, **casts):
    """The keys of `block` named in `casts`, each cast (the schema accepts 20.0
    as an integer); absent keys are left to the receiving dataclass's default."""
    return {key: cast(block[key]) for key, cast in casts.items() if key in block}


def build_cavity(block):
    from .cavity import CavitySpec
    return CavitySpec(length=float(block["length"]), n_modes=int(block["n_modes"]))


def build_trajectory(block, length):
    """WallTrajectory from a trajectory block; `length` is the rest length."""
    from .trajectories import harmonic_wall, quintic_wall, static_wall, tabulated_wall
    kind = block["type"]
    ctx = f"trajectory type '{kind}'"
    if kind == "static":
        return static_wall(length)
    if kind == "harmonic":
        return harmonic_wall(length, float(_need(block, "epsilon", ctx)),
                             float(_need(block, "omega", ctx)),
                             t_end=float(_need(block, "t_end", ctx)))
    if kind == "quintic":
        return quintic_wall(length, float(_need(block, "epsilon", ctx)),
                            float(_need(block, "tau", ctx)))
    times = np.asarray(_need(block, "times", ctx), dtype=float)
    positions = np.asarray(_need(block, "positions", ctx), dtype=float)
    if times.shape != positions.shape:
        raise ConfigError("tabulated trajectory needs times and positions "
                          "of equal length")
    return tabulated_wall(times, positions)


def build_squid(block):
    from .squid import SquidCavityParams
    params = SquidCavityParams(chi0=float(block["chi0"]), b0L=float(block["b0L"]),
                               b0R=float(block["b0R"]), **_given(block, d=float))
    return params, int(block["n_max"])


def build_otto(block):
    """(CycleSpec template, stroke-duration grid) from an otto block.

    The grid comes either from an explicit tau_values list (which may be
    empty, producing a header-only table) or from a tau_min/tau_max/n_tau
    range with linear or log spacing.
    """
    from .otto import CycleSpec
    spec = CycleSpec(L0=float(block["length"]), eps=float(block["epsilon"]),
                     beta_A=float(block["beta_A"]), beta_C=float(block["beta_C"]),
                     tau=1.0, **_given(block, n_modes=int, include_casimir=bool))
    has_range = any(k in block for k in ("tau_min", "tau_max", "n_tau"))
    if "tau_values" in block:
        if has_range:
            raise ConfigError("otto block: give either tau_values or a "
                              "tau_min/tau_max/n_tau range, not both")
        tau = np.asarray(block["tau_values"], dtype=float)
    elif has_range:
        lo = float(_need(block, "tau_min", "otto tau range"))
        hi = float(_need(block, "tau_max", "otto tau range"))
        num = int(_need(block, "n_tau", "otto tau range"))
        if hi < lo:
            raise ConfigError("otto block: tau_max must be >= tau_min")
        space = np.geomspace if block.get("tau_spacing", "log") == "log" else np.linspace
        tau = space(lo, hi, num)
    else:
        raise ConfigError("otto block needs tau_values or tau_min/tau_max/n_tau")
    return spec, tau


def build_gate(block):
    """(GateParams, P_z grid, OpenRates or None) from a gate block.

    Absent keys take the defaults of default_cqed_params and GateParams; the
    target squeeze r fixes t_gate through r = g_d eps_d t_gate. A rates block
    switches on the Lindblad comparison, absent keys from OpenRates.typical().
    """
    from .gate import OpenRates, default_cqed_params
    params = default_cqed_params(**_given(block, theta=float, n_max=int, leak_tol=float,
                                          g_d=float, eps_d=float))
    params = replace(params, t_gate=float(block["r"]) / params.drive_rate)
    p_z = np.sort(np.asarray(block["p_z"], dtype=float))
    rates = None
    if "rates" in block:
        rates = replace(OpenRates.typical(),
                        **_given(block["rates"], tau_q=float, tau_r=float, tau_phi=float,
                                 temperature_mK=float))
    return params, p_z, rates
