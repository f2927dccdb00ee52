"""The scenario schema walker in dcelab.config, against jsonschema as a reference.

jsonschema is a test-only dependency (the `test` extra); the differential
tests skip without it. The keyword audit runs everywhere.
"""

import copy
import sys
from pathlib import Path

import pytest
import yaml

from dcelab import config
from dcelab.config import SCHEMA

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.yaml"))

# every block, each valid on its own
FULL_DOC = {
    "cavity": {"length": 1.0, "n_modes": 4},
    "trajectory": {"type": "tabulated", "epsilon": 0.01, "omega": 2.0, "t_end": 4.0,
                   "tau": 3.0, "times": [0.0, 1.0, 2.0], "positions": [1.0, 1.1, 1.0]},
    "bogoliubov": {"rtol": 1e-3, "n_times": 2, "beta_temp": 0.5},
    "msa": {"omega": 2.0, "epsilon": 0.01, "tau_max": 1.0, "n_steps": 1,
            "n_samples": 2, "pairs": [[1, 3], [2, 4]]},
    "moore": {"t_max": 4.0, "points_per_length": 8, "temperature": 0,
              "n_z": 2, "n_x": 2, "n_t": 2},
    "squid": {"chi0": 0, "b0L": -1.0e6, "b0R": 1e6, "d": 1.0, "n_max": 2},
    "otto": {"length": 1.0, "epsilon": 0.5, "beta_A": 6.0, "beta_C": 2.0, "n_modes": 1,
             "include_casimir": False, "tau_min": 1.0, "tau_max": 2.0, "n_tau": 1,
             "tau_spacing": "linear", "tau_values": []},
    "gate": {"r": 0.5, "theta": 0.0, "p_z": [-1, 0.0, 1], "n_max": 2, "leak_tol": 1e-9,
             "g_d": 0.1, "eps_d": 0.1,
             "rates": {"tau_q": 1.0, "tau_r": 1.0, "tau_phi": 1.0, "temperature_mK": 0.0}},
    "crosscheck": {"beta_factor": 5.0, "msa_rel_tol": 0.1},
    "output": {"path": "out", "format": "json"},
}


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _drop(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def mutated(*edits):
    """FULL_DOC after edits, each (path, value) to set or (path,) to delete."""
    doc = copy.deepcopy(FULL_DOC)
    for edit in edits:
        if len(edit) == 1:
            _drop(doc, edit[0])
        else:
            _set(doc, *edit)
    return doc


# (name, document); each name says which keyword the edit trips
MUTATIONS = [
    ("valid", FULL_DOC),
    ("empty", {}),
    ("required", mutated((("cavity", "n_modes"),))),
    ("required_nested_block", mutated((("gate", "p_z"),))),
    ("required_two_missing", mutated((("squid", "chi0"),), (("squid", "n_max"),))),
    ("additional_block", mutated((("cavities",), {"length": 1.0}))),
    ("additional_key", mutated((("cavity", "typo_key"), 1))),
    ("additional_two_keys", mutated((("output", "zz"), 1), (("output", "aa"), 2))),
    ("additional_non_string_key", mutated(((1,), 2))),
    ("additional_in_rates", mutated((("gate", "rates", "tau_x"), 1.0))),
    ("additional_and_required_same_object",
     mutated((("cavity", "n_modes"),), (("cavity", "extra"), 1))),
    ("type_string_for_number", mutated((("squid", "b0L"), "big"))),
    ("type_list_for_object", mutated((("cavity",), [1, 2]))),
    ("type_null_block", mutated((("moore",), None))),
    ("type_string_for_array", mutated((("trajectory", "times"), "0 1"))),
    ("type_number_for_string", mutated((("output", "path"), 3))),
    ("type_int_for_boolean", mutated((("otto", "include_casimir"), 1))),
    ("type_string_item", mutated((("gate", "p_z"), [0.0, "half"]))),
    ("bool_for_number", mutated((("cavity", "length"), True))),
    ("bool_for_integer", mutated((("cavity", "n_modes"), True))),
    ("bool_for_unbounded_number", mutated((("gate", "theta"), False))),
    ("integral_float_is_integer", mutated((("cavity", "n_modes"), 20.0))),
    ("fractional_float_for_integer", mutated((("cavity", "n_modes"), 20.5))),
    ("nan_for_integer", mutated((("squid", "n_max"), float("nan")))),
    ("inf_for_integer", mutated((("squid", "n_max"), float("inf")))),
    ("inf_for_number", mutated((("squid", "b0L"), float("inf")))),
    ("minimum", mutated((("cavity", "n_modes"), 0))),
    ("minimum_float", mutated((("squid", "chi0"), -1e-12))),
    ("minimum_at_bound", mutated((("moore", "temperature"), 0.0))),
    ("exclusive_minimum", mutated((("cavity", "length"), 0))),
    ("exclusive_minimum_negative", mutated((("otto", "beta_A"), -1.0))),
    ("maximum", mutated((("bogoliubov", "rtol"), 1.5e-3))),
    ("maximum_item", mutated((("gate", "p_z"), [0.0, 1.5]))),
    ("minimum_item", mutated((("gate", "p_z"), [-2]))),
    ("exclusive_maximum", mutated((("otto", "epsilon"), 1))),
    ("exclusive_bounds_both_sides", mutated((("otto", "epsilon"), 0.0))),
    ("min_items", mutated((("trajectory", "times"), [0.0]))),
    ("min_items_empty", mutated((("msa", "pairs"), []))),
    ("min_items_nested", mutated((("msa", "pairs"), [[1, 2], [1]]))),
    ("max_items_nested", mutated((("msa", "pairs"), [[1, 2, 3]]))),
    ("items_nested_bound", mutated((("msa", "pairs"), [[1, 2], [0, 2]]))),
    ("items_bound", mutated((("trajectory", "positions"), [1.0, -1.0]))),
    ("enum", mutated((("trajectory", "type"), "sawtooth"))),
    ("enum_case", mutated((("output", "format"), "CSV"))),
    ("enum_bool", mutated((("otto", "tau_spacing"), True))),
    ("enum_list", mutated((("trajectory", "type"), ["static"]))),
    # the first error is the first by path, compared as strings: [10] < [2]
    ("sort_by_path_as_strings",
     mutated((("gate", "p_z"), [0.0, 0.0, 7.0] + [0.0] * 7 + [-3.0]))),
    ("sort_across_blocks",
     mutated((("squid", "n_max"), 0), (("cavity", "length"), -1.0), (("zzz",), 1))),
    ("several_errors_one_value", mutated((("msa", "pairs"), [[0, 0, 0]]))),
]


def _reference_first(doc):
    """jsonschema's first error for doc, ordered as load_config orders them."""
    validator = pytest.importorskip("jsonschema").Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(doc),
                    key=lambda e: [str(p) for p in e.absolute_path])
    return (tuple(errors[0].absolute_path), errors[0].message) if errors else None


def _first_path(error):
    """The JSON path of a (path, message) first error, or "valid" for None."""
    return "valid" if error is None else error[0]


def _scenario(path):
    return yaml.load(path.read_text(), Loader=config._ScenarioLoader)


class TestAgainstJsonschema:
    def test_schema_is_a_valid_draft_2020_12_document(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft202012Validator.check_schema(SCHEMA)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_shipped_configs_are_valid_for_both(self, path):
        doc = _scenario(path)
        assert config._first_error(doc) is None
        assert _reference_first(doc) is None

    @pytest.mark.parametrize("name, doc", MUTATIONS, ids=[m[0] for m in MUTATIONS])
    def test_same_verdict_and_first_error_path(self, name, doc):
        # messages are not compared: jsonschema rewords them between releases
        assert _first_path(config._first_error(doc)) == _first_path(_reference_first(doc))

    def test_mutation_of_every_shipped_config_block_is_caught_alike(self):
        # an unknown key in every block of every shipped config
        for path in CONFIGS:
            doc = _scenario(path)
            for block in doc:
                bad = copy.deepcopy(doc)
                bad[block]["unexpected"] = 1
                assert _first_path(config._first_error(bad)) == (block,), (path.stem, block)
                assert _first_path(_reference_first(bad)) == (block,), (path.stem, block)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml is built without libyaml")
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_libyaml_and_pure_python_loaders_read_shipped_configs_alike(path):
    text = path.read_text()
    docs = [yaml.load(text, Loader=config._scenario_loader(base))
            for base in (yaml.SafeLoader, yaml.CSafeLoader)]
    assert repr(docs[0]) == repr(docs[1])


def _subschemas(schema, where="$"):
    """(where, schema) of SCHEMA and of every schema nested in it."""
    yield where, schema
    for key, sub in schema.get("properties", {}).items():
        yield from _subschemas(sub, f"{where}.properties.{key}")
    if "items" in schema:
        yield from _subschemas(schema["items"], f"{where}.items")


class TestWalker:
    def test_every_mutation_that_should_fail_does(self):
        valid = {"valid", "empty", "integral_float_is_integer", "minimum_at_bound",
                 "inf_for_number"}
        assert {name for name, doc in MUTATIONS if config._first_error(doc) is None} == valid

    def test_every_keyword_in_the_schema_is_implemented(self):
        unknown = [(where, keyword) for where, sub in _subschemas(SCHEMA)
                   for keyword in sub if keyword not in config._KEYWORDS]
        assert unknown == []

    def test_keyword_values_are_the_forms_the_walker_implements(self):
        for where, sub in _subschemas(SCHEMA):
            if "additionalProperties" in sub:
                assert sub["additionalProperties"] is False, where
            if "enum" in sub:
                assert all(isinstance(v, str) for v in sub["enum"]), where
            if "type" in sub:
                assert sub["type"] in config._TYPES, where
            if "$schema" in sub:
                assert where == "$", where


def _benchmark_scenarios():
    """(name, mapping) of every seeded scenario the benchmark generates, each
    workload full and tiny at one seed; perfbench is only read."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import WORKLOADS, generate
    finally:
        sys.path.remove(str(ROOT))
    return [(f"{workload}{'_tiny' if tiny else ''}/{task.name}", task.config)
            for workload in WORKLOADS for tiny in (False, True)
            for task in generate(workload, 1234, tiny)
            if getattr(task, "config", None) is not None]


def test_every_benchmark_scenario_loads(tmp_path):
    # the benchmark still sends keys the solvers ignore (msa.n_steps,
    # moore.points_per_length); a schema that dropped one would fail it
    scenarios = _benchmark_scenarios()
    assert len(scenarios) == 32
    for name, doc in scenarios:
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert config.load_config(path) == doc, name
