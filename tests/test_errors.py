"""The input door: every JSON document is read, parsed and shaped in
``errors``, and every failure there, or in a loader after it, or in a
user tolerance, ends as InputError."""

import ast
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from causaldeco.causal import (UnitaryChannel, causal_structure_report,
                               influences, load_unitary, unitary_from_json)
from causaldeco.circuits import (circuit_from_json, load_circuit,
                                 random_circuit_unitary)
from causaldeco.decompose import decompose, verify_decomposition
from causaldeco.errors import InputError, check_tol, document, read_text
from causaldeco.lattice import (build_concept_lattice, shape_from_json,
                                shape_to_json)
from causaldeco.relations import (chain2_relation, load_relation,
                                  overlapping_fans_relation, relation_from_json,
                                  relation_to_json)
from causaldeco.tensorspace import unitarity_residual
from test_cli import CHAIN2_CIRCUIT, U3_DOC, mutated

SRC = Path(__file__).resolve().parents[1] / "src" / "causaldeco"

FANS_REL = relation_to_json(overlapping_fans_relation())
FANS_SHAPE = shape_to_json(build_concept_lattice(overlapping_fans_relation()))
LOADERS = {"relation": (relation_from_json, FANS_REL),
           "shape": (shape_from_json, FANS_SHAPE),
           "unitary": (unitary_from_json, U3_DOC),
           "circuit": (circuit_from_json, CHAIN2_CIRCUIT)}
FILE_LOADERS = [load_relation, load_unitary, load_circuit]


def test_json_is_parsed_only_in_errors():
    offenders = [p.name for p in sorted(SRC.glob("*.py"))
                 if p.name != "errors.py" and "json.loads" in p.read_text()]
    assert offenders == []


def test_unchecked_objects_are_built_only_in_trusted():
    # the one way round a constructor's checks is UnitaryChannel._trusted
    sites = {p.name: p.read_text().count("object.__new__(")
             for p in sorted(SRC.glob("*.py"))}
    assert {k: n for k, n in sites.items() if n} == {"causal.py": 1}
    assert "object.__new__(" in inspect.getsource(UnitaryChannel._trusted)


def test_screening_modules_import_no_numpy():
    # the relation scan and the lattice build run on Python ints only
    offenders = []
    for name in ("lattice.py", "relations.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [(name, m) for m in modules
                          if m.split(".")[0] == "numpy"]
    assert offenders == []


def test_document_checks_object_keys_and_types():
    fields = {"xs": list, "m": dict}
    assert document('{"xs": [], "m": {}}', "test", fields) == \
        {"xs": [], "m": {}}
    parsed = {"xs": [1], "m": {"a": 2}, "extra": None}
    assert document(parsed, "test", fields) is parsed
    for text, needle in [("{oops", "invalid test JSON"),
                         ("[]", "must be an object"),
                         ('{"xs": []}', "missing key 'm'"),
                         ('{"xs": {}, "m": {}}', "'xs' must be an array"),
                         ('{"xs": [], "m": []}', "'m' must be an object"),
                         ("1" * 5000, "invalid test JSON")]:
        with pytest.raises(InputError, match=needle):
            document(text, "test", fields)


def test_read_text_failures_are_input_errors(tmp_path):
    with pytest.raises(InputError, match="cannot read"):
        read_text(tmp_path / "missing.json")
    with pytest.raises(InputError, match="cannot read"):
        read_text(tmp_path)
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe")
    for load in FILE_LOADERS:
        with pytest.raises(InputError, match="cannot read"):
            load(path)


def repeated_key_text(doc, path, key, first):
    """JSON text of ``doc`` whose object at ``path`` names ``key`` twice:
    ``first``, then its own value, which plain json would keep."""
    holder = {"doc": json.loads(json.dumps(doc))}
    parent, step = holder, "doc"
    for nxt in path:
        parent, step = parent[step], nxt
    parent[step] = {"\0repeat": first, **parent[step]}
    return json.dumps(holder["doc"]).replace(json.dumps("\0repeat"),
                                             json.dumps(key))


def test_document_refuses_a_repeated_key():
    fields = {"xs": list, "m": dict}
    for text, key in [('{"xs": [], "m": {}, "xs": []}', "xs"),
                      ('{"xs": [{"k": 1, "j": 0, "k": 1}], "m": {}}', "k")]:
        with pytest.raises(InputError, match=f"repeated key '{key}'"):
            document(text, "test", fields)
    # one key in two objects is no repeat
    assert document('{"xs": [{"k": 1}], "m": {"k": 2}}', "test",
                    fields) == {"xs": [{"k": 1}], "m": {"k": 2}}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_repeated_top_level_key_is_input_error(name):
    load, doc = LOADERS[name]
    key = next(iter(doc))
    text = repeated_key_text(doc, (), key, doc[key])
    load(json.loads(text))
    with pytest.raises(InputError, match=f"repeated key '{key}'"):
        load(text)


def test_repeated_leg_dim_and_gate_are_input_errors():
    # plain json keeps the last value, so a leg {"dim": 3, "dim": 2}
    # loaded as dim 2, and a circuit with two gates "1" kept the second
    cases = [(unitary_from_json, repeated_key_text(
                  U3_DOC, ("in", 0), "dim", 3), "dim"),
             (circuit_from_json, repeated_key_text(
                  CHAIN2_CIRCUIT, ("gates",), "1",
                  CHAIN2_CIRCUIT["gates"]["0"]), "1")]
    for load, text, key in cases:
        load(json.loads(text))
        with pytest.raises(InputError, match=f"repeated key '{key}'"):
            load(text)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_deeply_nested_document_is_input_error(name):
    # the parser raises RecursionError here, which used to escape the
    # CLI as a traceback with exit code 1
    load, _ = LOADERS[name]
    with pytest.raises(InputError, match="invalid"):
        load("[" * 100_000 + "]" * 100_000)


def _fuzz_loader(name, doc):
    load, _ = LOADERS[name]
    try:
        load(json.dumps(doc))
    except InputError:
        pass


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(doc=mutated(FANS_REL))
def test_fuzzed_relation_loads_or_raises_input_error(doc):
    _fuzz_loader("relation", doc)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(doc=mutated(FANS_SHAPE))
def test_fuzzed_shape_loads_or_raises_input_error(doc):
    _fuzz_loader("shape", doc)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(doc=mutated(U3_DOC))
def test_fuzzed_unitary_loads_or_raises_input_error(doc):
    _fuzz_loader("unitary", doc)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(doc=mutated(CHAIN2_CIRCUIT))
def test_fuzzed_circuit_loads_or_raises_input_error(doc):
    _fuzz_loader("circuit", doc)


def _with(doc, **changes):
    return {**json.loads(json.dumps(doc)), **changes}


@pytest.mark.parametrize("changes", [
    {"covers": [[0]]}, {"covers": [[0, 1, 2]]},
    {"lambda": ["a"]}, {"mu": [[]]}])
def test_malformed_shape_fields_are_input_errors(changes):
    # each of these used to escape as a bare ValueError
    with pytest.raises(InputError):
        shape_from_json(_with(FANS_SHAPE, **changes))
    with pytest.raises(InputError):
        circuit_from_json(_with(CHAIN2_CIRCUIT, **changes))


@pytest.mark.parametrize("field", ["lambda", "mu"])
@pytest.mark.parametrize("index", [0.5, 1.0, True])
def test_non_integer_node_index_is_input_error(field, index):
    # 0.5 used to load and place its label at no node, and true to read
    # as node 1
    for load, doc in ((shape_from_json, FANS_SHAPE),
                      (circuit_from_json, CHAIN2_CIRCUIT)):
        doc = _with(doc)
        doc[field][sorted(doc[field])[0]] = index
        with pytest.raises(InputError, match=f"{field} missing or invalid"):
            load(doc)


def test_bool_cover_index_is_input_error():
    # a cover (false, 1) used to load as (0, 1)
    for load, doc in ((shape_from_json, FANS_SHAPE),
                      (circuit_from_json, CHAIN2_CIRCUIT)):
        doc = _with(doc)
        assert doc["covers"][0] == [0, 1]
        doc["covers"][0][0] = False
        with pytest.raises(InputError, match="invalid cover"):
            load(doc)


def _both_shape_loaders(change, needle):
    """``change`` applied to a shape and to a circuit document makes each
    loader raise InputError matching ``needle``."""
    for load, doc in ((shape_from_json, FANS_SHAPE),
                      (circuit_from_json, CHAIN2_CIRCUIT)):
        doc = _with(doc)
        change(doc)
        with pytest.raises(InputError, match=needle):
            load(doc)


def test_repeated_cover_is_input_error():
    # a repeated cover was counted twice by the path counts, and a
    # circuit reported it as a gate of the wrong size
    _both_shape_loaders(lambda doc: doc["covers"].append(doc["covers"][0]),
                        r"repeated cover \(0, 1\)")


@pytest.mark.parametrize("side", ["input", "output"])
def test_repeated_label_is_input_error(side):
    def change(doc):
        doc[side + "s"].append(doc[side + "s"][0])
    _both_shape_loaders(change, f"repeated {side} label")


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_node_label_outside_the_shape_is_input_error(field):
    # a node alpha ["zz"] used to load, and verify to call it faithful
    def change(doc):
        doc["nodes"][-1][field] = ["zz"]
    _both_shape_loaders(change, f"node {field} label 'zz' is not one of")


@pytest.mark.parametrize("field", ["lambda", "mu"])
def test_attachment_key_outside_the_shape_is_input_error(field):
    # an extra "lambda": {"zz": 0} used to load unnoticed
    def change(doc):
        doc[field]["zz"] = 0
    _both_shape_loaders(change, f"{field} label 'zz' is not one of")


def test_non_unitary_matrix_is_input_error():
    doc = json.loads(json.dumps(U3_DOC))
    doc["matrix"][0][0] = [2.0, 0.0]
    with pytest.raises(InputError, match="not unitary"):
        unitary_from_json(json.dumps(doc))


def test_unitarity_residual():
    assert unitarity_residual(np.eye(4)) == 0.0
    assert unitarity_residual(2 * np.eye(4)) == pytest.approx(3.0)
    assert unitarity_residual(np.ones((2, 3))) == math.inf
    assert math.isnan(unitarity_residual(np.array([[1, 0], [0, np.nan]])))


BAD_TOLS = [math.inf, math.nan, -1.0, 1.0, -math.inf]
# a bool is a numbers.Real, so False used to pass as a tolerance of 0
BOOL_TOLS = [False, True]


@pytest.mark.parametrize("tol", BAD_TOLS + BOOL_TOLS)
def test_check_tol_refuses_out_of_range(tol):
    with pytest.raises(InputError, match=r"finite and in \[0, 1\)"):
        check_tol(tol)


def test_check_tol_accepts_the_range():
    for tol in (0, 0.0, 1e-9, 0.5, np.float64(1e-8), 1 - 1e-16):
        check_tol(tol)


@pytest.mark.parametrize("tol", BAD_TOLS + BOOL_TOLS)
def test_library_entry_points_refuse_out_of_range_tol(tol):
    G = chain2_relation()
    circuit, U = random_circuit_unitary(G, seed=3)
    a, b = U.in_space.labels[0], U.out_space.labels[0]
    calls = [lambda: decompose(U, G, tol=tol),
             lambda: verify_decomposition(U, circuit, G, tol=tol),
             lambda: influences(U, a, b, rel_tol=tol),
             lambda: causal_structure_report(U, rel_tol=tol)]
    for call in calls:
        with pytest.raises(InputError, match="tolerance"):
            call()

