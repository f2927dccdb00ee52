"""Scenario files: strict YAML documents driving the command-line runs.

A scenario is a mapping of named blocks; each subcommand consumes the
blocks it needs (cavity + trajectory for the coupled-mode solver, squid
for the transcendental spectrum, and so on). Validation is deliberately
unforgiving: unknown blocks and unknown keys inside a block are rejected
with the offending path, so a typo cannot silently fall back to a default,
and so is a key given twice in one mapping. Cheap numeric sanity lives in
SCHEMA, a Draft 2020-12 JSON Schema document that a small walker in this
module checks. The walker implements just the keywords SCHEMA uses, since
importing jsonschema would cost every run about 100 ms.
Everything physical (subluminal walls, 0 < eps < 1, truncation leakage) is
enforced by the solver constructors and surfaces as a physics error, not a
config error.

Units follow the solver modules: natural units (c = hbar = k_B = 1) for
the cavity blocks, nanoseconds / rad/ns / mK for the gate block.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

__all__ = [
    "ConfigError",
    "SCHEMA",
    "Scenario",
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


def _scenario_loader(base):
    """The scenario loader on `base`, yaml.SafeLoader or its libyaml twin
    yaml.CSafeLoader: it also accepts YAML 1.2 float forms like 1.0e6 and
    rejects duplicate keys.

    Stock pyyaml implements YAML 1.1, whose exponent requires a sign, so
    '1.0e6' silently becomes a string and trips the schema. Scientific
    notation is pervasive in these scenarios; accept the modern spelling.
    Stock pyyaml also keeps the last of two equal keys in a mapping, so
    `{n_modes: 4, n_modes: 8}` would run with 8 unnoticed.
    """
    class Loader(base):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # '<<' merge keys may be overridden, as YAML intends
                key = self.construct_object(key_node, deep=deep)
                try:
                    duplicate = key in seen
                except TypeError:
                    continue  # unhashable: SafeConstructor reports it
                if duplicate:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {key!r}", key_node.start_mark)
                seen.add(key)
            return super().construct_mapping(node, deep=deep)

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"""^(?:
            [-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+]?[0-9]+)?
            |[-+]?(?:[0-9][0-9_]*)(?:[eE][-+]?[0-9]+)
            |[-+]?\.[0-9_]+(?:[eE][-+]?[0-9]+)?
            |[-+]?\.(?:inf|Inf|INF)
            |\.(?:nan|NaN|NAN)
            )$""", re.X),
        list("-+0123456789."))
    return Loader


# libyaml parses a scenario about 4x faster where pyyaml was built with it
_ScenarioLoader = _scenario_loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


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
                # accepted for older scenario files and ignored: F is
                # descended exactly where it is evaluated, on no grid
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
                # accepted for older scenario files and ignored: the
                # spectrum is solved in kd, so the cavity length is no input
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


# The JSON Schema keywords SCHEMA uses, with their Draft 2020-12 meaning and
# jsonschema's messages. Each takes (instance, keyword value, the schema
# holding it, path) and yields (path, message) per violation; like
# jsonschema, a keyword ignores instances of a type it does not constrain.

def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    # 20.0 is an integer, True is not
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _type(instance, name, schema, path):
    if not _TYPES[name](instance):
        yield path, f"{instance!r} is not of type {name!r}"


def _properties(instance, properties, schema, path):
    if isinstance(instance, dict):
        for key, subschema in properties.items():
            if key in instance:
                yield from _schema_errors(instance[key], subschema, (*path, key))


def _no_additional_properties(instance, allowed, schema, path):
    # SCHEMA only ever says `additionalProperties: false`
    if isinstance(instance, dict):
        extras = sorted((k for k in instance if k not in schema.get("properties", {})),
                        key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield path, (f"Additional properties are not allowed "
                         f"({', '.join(map(repr, extras))} {verb} unexpected)")


def _required(instance, names, schema, path):
    if isinstance(instance, dict):
        for name in names:
            if name not in instance:
                yield path, f"{name!r} is a required property"


def _enum(instance, values, schema, path):
    # SCHEMA's enums list strings, for which == is JSON equality
    if instance not in values:
        yield path, f"{instance!r} is not one of {values!r}"


def _bound(fails, words):
    def check(instance, limit, schema, path):
        if _is_number(instance) and fails(instance, limit):
            yield path, f"{instance!r} is {words} of {limit!r}"
    return check


def _items(instance, subschema, schema, path):
    if isinstance(instance, list):
        for i, item in enumerate(instance):
            yield from _schema_errors(item, subschema, (*path, i))


def _min_items(instance, least, schema, path):
    if isinstance(instance, list) and len(instance) < least:
        yield path, f"{instance!r} " + ("should be non-empty" if least == 1 else "is too short")


def _max_items(instance, most, schema, path):
    if isinstance(instance, list) and len(instance) > most:
        yield path, f"{instance!r} is too long"


_KEYWORDS = {
    "$schema": lambda *_: (),  # names the dialect; constrains nothing
    "type": _type,
    "properties": _properties,
    "additionalProperties": _no_additional_properties,
    "required": _required,
    "enum": _enum,
    "minimum": _bound(lambda x, m: x < m, "less than the minimum"),
    "exclusiveMinimum": _bound(lambda x, m: x <= m, "less than or equal to the minimum"),
    "maximum": _bound(lambda x, m: x > m, "greater than the maximum"),
    "exclusiveMaximum": _bound(lambda x, m: x >= m, "greater than or equal to the maximum"),
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
}


def _schema_errors(instance, schema, path=()):
    """(path, message) of every violation of schema by instance, in jsonschema's
    order: depth first, keywords in the schema's own order."""
    for keyword, value in schema.items():
        yield from _KEYWORDS[keyword](instance, value, schema, path)


def _first_error(doc):
    """The (path, message) that load_config reports for doc, or None if doc is
    valid: errors sorted by path, ties in the order they were found."""
    errors = sorted(_schema_errors(doc, SCHEMA), key=lambda e: [str(p) for p in e[0]])
    return errors[0] if errors else None


# +inf is a lifetime that switches its channel off (gate.OpenRates)
_INF_ALLOWED = {("gate", "rates", key) for key in ("tau_q", "tau_r", "tau_phi")}


def _non_finite(doc, path=()):
    """(path, value) of the first number in doc, in document order, that is NaN
    or infinite, or None. +inf passes at the paths in _INF_ALLOWED. The schema
    cannot say this: NaN fails no comparison, and inf passes every bound
    without a maximum."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        bad = (isinstance(doc, float) and not np.isfinite(doc)
               and not (doc > 0.0 and path in _INF_ALLOWED))
        return (path, doc) if bad else None
    for key, value in items:
        found = _non_finite(value, (*path, key))
        if found is not None:
            return found
    return None


def _json_path(path):
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


class Scenario(dict):
    """The raw mapping of a validated scenario file, with sha256: the hex
    digest of the bytes it was parsed from, which the run manifest records."""

    def __init__(self, raw, sha256):
        super().__init__(raw)
        self.sha256 = sha256


def load_config(path):
    """Parse one scenario file and validate it against SCHEMA.

    The file is read once, as bytes, and the Scenario returned, the raw
    mapping, carries the digest of those bytes. Raises ConfigError with a line number for
    YAML syntax problems and with the JSON path of the offending field
    for schema violations and for a NaN or infinite number (.nan, .inf),
    except +inf for the gate's rates.tau_q, tau_r and tau_phi, where it
    switches the channel off.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = yaml.load(data, Loader=_ScenarioLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark is not None else "unknown line"
        raise ConfigError(f"{path}: YAML syntax error at {where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping of blocks")
    first = _first_error(raw)
    if first is not None:
        where, message = first
        raise ConfigError(f"{path}: {_json_path(where)}: {message}")
    bad = _non_finite(raw)
    if bad is not None:
        where, value = bad
        raise ConfigError(f"{path}: {_json_path(where)}: {value!r} is not a finite number")
    return Scenario(raw, hashlib.sha256(data).hexdigest())


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
                               b0R=float(block["b0R"]))
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
