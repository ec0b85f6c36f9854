"""Command line front end: subcommands, exit codes, output formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causaldeco.causal import (INFLUENCE_REL_TOL, UnitaryChannel,
                               causal_structure_report, load_unitary,
                               unitary_to_json)
from causaldeco.circuits import load_circuit, random_circuit_unitary
from causaldeco.cli import build_parser, main
from causaldeco.decompose import RECOMPOSE_TOL
from causaldeco.gallery import u3
from causaldeco.lattice import connectivity, shape_from_json
from causaldeco.relations import (Relation, c3_relation, chain2_relation,
                                  full_relation, overlapping_fans_relation,
                                  relation_to_json, swap_relation)
from causaldeco.tensorspace import TensorSpace

REPO_ROOT = Path(__file__).resolve().parents[1]


def source_env() -> dict:
    """Environment that imports causaldeco from this checkout's src."""
    pythonpath = filter(None, [str(REPO_ROOT / "src"),
                               os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}


def write_relation(path, G):
    path.write_text(json.dumps(relation_to_json(G)))
    return str(path)


def write_unitary(path, U):
    path.write_text(unitary_to_json(U))
    return str(path)


@pytest.fixture
def c3_file(tmp_path):
    return write_relation(tmp_path / "c3.json", c3_relation())


@pytest.fixture
def u3_file(tmp_path):
    return write_unitary(tmp_path / "u3.json", u3())


# -- lattice -------------------------------------------------------------


def test_lattice_dot_c3(tmp_path, capsys, c3_file):
    assert main(["lattice", c3_file, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    # 4-node diamond: two incomparable middle nodes over a bottom,
    # under a top
    assert out.startswith("digraph shape {")
    assert sum(1 for ln in out.splitlines()
               if ln.strip().startswith("n") and "label=" in ln) == 4
    for edge in ("n0 -> n1", "n0 -> n2", "n1 -> n3", "n2 -> n3"):
        assert edge in out


def test_lattice_json_fans(tmp_path, capsys):
    rel = write_relation(tmp_path / "g41.json", overlapping_fans_relation())
    assert main(["lattice", rel, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["nodes"]) == 7


def test_lattice_empty_relation_two_node_chain(tmp_path, capsys):
    rel = write_relation(tmp_path / "empty.json",
                         Relation(("a1", "a2"), ("b1",), frozenset()))
    assert main(["lattice", rel, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["nodes"]) == 2
    assert len(data["covers"]) == 1


# -- check ---------------------------------------------------------------


def test_check_c3_violated(capsys, c3_file):
    assert main(["check", c3_file]) == 1
    out = capsys.readouterr().out
    assert "Violated" in out
    assert "witness:" in out


def test_check_fans_satisfied(tmp_path, capsys):
    rel = write_relation(tmp_path / "g41.json", overlapping_fans_relation())
    assert main(["check", rel]) == 0
    assert "Satisfied" in capsys.readouterr().out


def test_check_full_satisfied_json(tmp_path, capsys):
    rel = write_relation(tmp_path / "full.json",
                         full_relation(["a1", "a2"], ["b1", "b2"]))
    assert main(["check", rel, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["satisfied"] is True
    assert data["witness"] is None


def test_check_runs_each_route_once(tmp_path, capsys, monkeypatch):
    import causaldeco.cli
    import causaldeco.lattice
    import causaldeco.relations
    calls = {"scan": 0, "lattice": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(causaldeco.relations, "_scan_for_pattern", counting(
        "scan", causaldeco.relations._scan_for_pattern))
    build = counting("lattice", causaldeco.lattice.build_concept_lattice)
    monkeypatch.setattr(causaldeco.lattice, "build_concept_lattice", build)
    monkeypatch.setattr(causaldeco.cli, "build_concept_lattice", build)
    rel = write_relation(tmp_path / "g41.json", overlapping_fans_relation())
    assert main(["check", rel, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["overlap_triples"] == 1
    assert calls == {"scan": 1, "lattice": 1}


def test_check_route_disagreement_exits_3(capsys, monkeypatch, c3_file):
    import causaldeco.relations
    right = causaldeco.relations._intersection_criterion_ok
    monkeypatch.setattr(causaldeco.relations, "_intersection_criterion_ok",
                        lambda G: not right(G))
    assert main(["check", c3_file]) == 3
    assert "routes disagree" in capsys.readouterr().err


def test_check_json_witness(capsys, c3_file):
    assert main(["check", c3_file, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["satisfied"] is False
    assert data["witness"] == {"a1": "a1", "a2": "a2", "a3": "a3",
                               "b1": "b1", "b2": "b2", "b3": "b3"}


def test_screening_at_64_labels(tmp_path):
    # A staircase a_i -> {b_0..b_i} satisfies the exclusion property.
    n = 64
    ins = tuple(f"a{i:02d}" for i in range(n))
    outs = tuple(f"b{j:02d}" for j in range(n))
    stair = Relation(ins, outs, frozenset(
        (ins[i], outs[j]) for i in range(n) for j in range(i + 1)))
    # Laminar: output j is reached by a dyadic block of the inputs.
    blocks = [ins[k * size:(k + 1) * size] for size in (64, 32, 16, 8, 4, 2)
              for k in range(n // size)]
    laminar = Relation(ins, outs, frozenset(
        (a, b) for j, b in enumerate(outs) for a in blocks[j % len(blocks)]))
    stair_file = write_relation(tmp_path / "stair.json", stair)
    laminar_file = write_relation(tmp_path / "laminar.json", laminar)
    # Each command runs in its own process under the wall budget, so a
    # return to testing every 3x3 restriction (hours at this size) fails
    # on the timeout instead of stalling the suite.
    budget = 30

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "causaldeco.cli", *argv],
                              capture_output=True, text=True,
                              env=source_env(), timeout=budget)
    t0 = time.monotonic()
    proc = run("check", stair_file, "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["satisfied"] is True
    proc = run("lattice", laminar_file, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    elapsed = time.monotonic() - t0
    assert connectivity(shape_from_json(proc.stdout)).same_pairs(laminar)
    assert elapsed < budget, f"64-label screening took {elapsed:.1f}s"


# -- analyze -------------------------------------------------------------


def test_residual_tolerance_defaults_are_the_library_one():
    # decompose --tol and verify --tol are the library's recomposition
    # tolerance, not a copy of its value
    parser = build_parser()
    assert parser.parse_args(["decompose", "u.json", "g.json"]).tol \
        == RECOMPOSE_TOL
    assert parser.parse_args(["verify", "u.json", "c.json", "g.json"]).tol \
        == RECOMPOSE_TOL


def test_analyze_u3_gives_c3_pairs(capsys, u3_file):
    assert main(["analyze", u3_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {tuple(p) for p in data["pairs"]} == set(c3_relation().pairs)
    assert data["borderline"] == []


def test_analyze_default_tolerance_is_the_library_one(tmp_path, capsys):
    # analyze and decompose decide influence at one tolerance, so they
    # cannot disagree on a pair near the cut
    _, U = random_circuit_unitary(chain2_relation(), seed=3)
    path = write_unitary(tmp_path / "chain2.json", U)
    assert build_parser().parse_args(["analyze", path]).tol == \
        INFLUENCE_REL_TOL
    assert main(["analyze", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rep = causal_structure_report(load_unitary(path))
    assert data["thresholds"] == {f"{a}->{b}": cut for (a, b), cut
                                  in rep.thresholds.items()}
    assert {tuple(p) for p in data["pairs"]} == rep.relation.pairs


def test_analyze_non_finite_unitary_exits_2(tmp_path, capsys):
    doc = json.loads(unitary_to_json(u3()))
    # json writes and reads a float NaN as the bare literal NaN
    doc["matrix"][0][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize("field, value", [
    ("cell", [None, 0]), ("cell", [{}, 0]), ("cell", [[1], 0]),
    ("dim", None)])
def test_analyze_malformed_unitary_exits_2(tmp_path, capsys, field, value):
    doc = json.loads(unitary_to_json(u3()))
    if field == "cell":
        doc["matrix"][0][0] = value
    else:
        doc["in"][0]["dim"] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("dim", [2.7, True, "2"])
def test_analyze_non_integer_dim_exits_2(tmp_path, capsys, dim):
    # a truncating int() would read 2.7 as 2 and "2" as 2
    doc = json.loads(unitary_to_json(u3()))
    doc["in"][0]["dim"] = dim
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err


def identity_cells(d, one=1.0, zero=0.0):
    return [[[one if i == j else zero, zero] for j in range(d)]
            for i in range(d)]


# bools and numeric strings used to convert to 0.0, 1.0 or their value,
# so a matrix of them loaded as the identity
NOT_NUMBERS = [{"one": True, "zero": False}, {"one": "1.0", "zero": "0"},
               {"one": 1.0, "zero": False}, {"one": 10 ** 400, "zero": 0}]


@pytest.mark.parametrize("cells", NOT_NUMBERS)
def test_analyze_non_number_cells_exit_2(tmp_path, capsys, cells):
    doc = json.loads(unitary_to_json(u3()))
    doc["matrix"] = identity_cells(len(doc["matrix"]), **cells)
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: matrix")


@pytest.mark.parametrize("cells", NOT_NUMBERS)
def test_verify_non_number_gate_cells_exit_2(tmp_path, capsys, cells):
    G = chain2_relation()
    rel = write_relation(tmp_path / "chain2.json", G)
    _, U = random_circuit_unitary(G, seed=3)
    uf = write_unitary(tmp_path / "u.json", U)
    cf = tmp_path / "circ.json"
    assert main(["decompose", uf, rel, "--out", str(cf)]) == 0
    doc = json.loads(cf.read_text())
    key = next(iter(doc["gates"]))
    doc["gates"][key] = identity_cells(len(doc["gates"][key]), **cells)
    cf.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", uf, str(cf), rel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: matrix")


def test_out_of_memory_exits_3(capsys, monkeypatch, u3_file):
    import causaldeco.cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")
    monkeypatch.setattr(causaldeco.cli, "causal_structure_report", exhausted)
    assert main(["analyze", u3_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "out of memory" in captured.err
    assert "Traceback" not in captured.err


def test_lapack_failure_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, which would read as malformed
    # input; an SVD that does not converge is a numerical failure
    G = chain2_relation()
    rel = write_relation(tmp_path / "chain2.json", G)
    _, U = random_circuit_unitary(G, seed=3)
    uf = write_unitary(tmp_path / "u.json", U)

    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", unconverged)
    assert main(["decompose", uf, rel]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: SVD did not converge\n"


def test_analyze_swap(tmp_path, capsys):
    sp = TensorSpace((("a1", 2), ("a2", 2)))
    op = TensorSpace((("b1", 2), ("b2", 2)))
    m = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            m[2 * j + i, 2 * i + j] = 1.0
    rel = write_unitary(tmp_path / "swap.json", UnitaryChannel(m, sp, op))
    assert main(["analyze", rel, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {tuple(p) for p in data["pairs"]} == {("a1", "b2"), ("a2", "b1")}


def test_analyze_cnot_full(tmp_path, capsys):
    # Oracle: Heisenberg conjugation by hand.  Control-Z pulls back to
    # itself but control-X pulls back to X tensor X, so the target leg
    # influences the control output and all four pairs are present.
    sp = TensorSpace((("c", 2), ("t", 2)))
    op = TensorSpace((("c'", 2), ("t'", 2)))
    m = np.zeros((4, 4))
    for c in range(2):
        for t in range(2):
            m[2 * c + (t ^ c), 2 * c + t] = 1.0
    rel = write_unitary(tmp_path / "cnot.json", UnitaryChannel(m, sp, op))
    assert main(["analyze", rel, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert {tuple(p) for p in data["pairs"]} == {
        ("c", "c'"), ("c", "t'"), ("t", "c'"), ("t", "t'")}


# -- decompose / verify --------------------------------------------------


def test_decompose_u3_over_c3_refused(capsys, u3_file, c3_file):
    assert main(["decompose", u3_file, c3_file]) == 1
    out = capsys.readouterr().out
    assert "RefusedC3EP" in out
    assert "witness:" in out


def test_decompose_identity_over_full_trivial(tmp_path, capsys):
    rel = write_relation(tmp_path / "full.json",
                         full_relation(["a1"], ["b1"]))
    uf = write_unitary(tmp_path / "id.json",
                       UnitaryChannel(np.eye(3),
                                      TensorSpace((("a1", 3),)),
                                      TensorSpace((("b1", 3),))))
    assert main(["decompose", uf, rel, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "Success"
    assert data["residual"] < 1e-12


def test_decompose_writes_circuit_and_verify_accepts(tmp_path, capsys):
    G = chain2_relation()
    rel = write_relation(tmp_path / "chain2.json", G)
    _, U = random_circuit_unitary(G, seed=3)
    uf = write_unitary(tmp_path / "u.json", U)
    cf = str(tmp_path / "circ.json")
    assert main(["decompose", uf, rel, "--out", cf]) == 0
    out = capsys.readouterr().out
    assert "status: Success" in out
    assert f"circuit written to {cf}" in out
    circ = load_circuit(cf)
    assert circ.wire_dims == {(0, 1): 2}
    assert main(["verify", uf, cf, rel]) == 0
    assert "status: Success" in capsys.readouterr().out


def test_verify_rejects_wrong_unitary(tmp_path, capsys):
    G = chain2_relation()
    rel = write_relation(tmp_path / "chain2.json", G)
    _, U = random_circuit_unitary(G, seed=3)
    uf = write_unitary(tmp_path / "u.json", U)
    cf = str(tmp_path / "circ.json")
    assert main(["decompose", uf, rel, "--out", cf]) == 0
    _, other = random_circuit_unitary(G, seed=4)
    of = write_unitary(tmp_path / "other.json", other)
    capsys.readouterr()
    assert main(["verify", of, cf, rel]) == 1
    out = capsys.readouterr().out
    assert "status: Failed" in out
    assert "gates unitary: yes" in out


def test_verify_non_finite_gate_exits_2(tmp_path, capsys):
    G = chain2_relation()
    rel = write_relation(tmp_path / "chain2.json", G)
    _, U = random_circuit_unitary(G, seed=3)
    uf = write_unitary(tmp_path / "u.json", U)
    cf = tmp_path / "circ.json"
    assert main(["decompose", uf, rel, "--out", str(cf)]) == 0
    doc = json.loads(cf.read_text())
    next(iter(doc["gates"].values()))[0][0][0] = float("nan")
    cf.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", uf, str(cf), rel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


@pytest.mark.parametrize("key, value", [("wire_dims", 2.5),
                                        ("in_dims", True),
                                        ("out_dims", "2")])
def test_verify_non_integer_dim_exits_2(tmp_path, capsys, key, value):
    G = chain2_relation()
    rel = write_relation(tmp_path / "chain2.json", G)
    _, U = random_circuit_unitary(G, seed=3)
    uf = write_unitary(tmp_path / "u.json", U)
    cf = tmp_path / "circ.json"
    assert main(["decompose", uf, rel, "--out", str(cf)]) == 0
    doc = json.loads(cf.read_text())
    doc[key][next(iter(doc[key]))] = value
    cf.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", uf, str(cf), rel]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be a positive integer" in captured.err


def test_decompose_pad_connectivity(tmp_path, capsys, u3_file, c3_file):
    cf = str(tmp_path / "circ.json")
    code = main(["decompose", u3_file, c3_file, "--pad-connectivity",
                 "--json", "--out", cf])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "Success"
    # the first forbidden restriction is the relation itself in scan
    # order, and padding adds its missing upper corner
    assert data["padded_pairs"] == [["a1", "b3"]]
    # the padded relation is strictly larger than the causal structure,
    # so the decomposition cannot be faithful
    assert data["faithful"] is False
    assert load_circuit(cf).gates_unitary()


def test_decompose_refused_causal(tmp_path, capsys):
    # swap has the crossed structure, which the straight identity
    # relation {a1->b1, a2->b2} does not contain
    sp = TensorSpace((("a1", 2), ("a2", 2)))
    op = TensorSpace((("b1", 2), ("b2", 2)))
    m = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            m[2 * j + i, 2 * i + j] = 1.0
    uf = write_unitary(tmp_path / "swap.json", UnitaryChannel(m, sp, op))
    rel = write_relation(
        tmp_path / "straight.json",
        Relation(("a1", "a2"), ("b1", "b2"),
                 frozenset({("a1", "b1"), ("a2", "b2")})))
    assert main(["decompose", uf, rel, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "RefusedCausal"
    assert data["extra_pair"] == ["a1", "b2"]


# -- roundtrip -----------------------------------------------------------


def test_roundtrip_chain2_passes(tmp_path, capsys):
    rel = write_relation(tmp_path / "chain2.json", chain2_relation())
    assert main(["roundtrip", rel, "--trials", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passes"] == 3
    assert all(r["residual"] < 1e-8 for r in data["rows"])


def test_roundtrip_seeds_advance(tmp_path, capsys):
    rel = write_relation(tmp_path / "swap.json", swap_relation())
    assert main(["roundtrip", rel, "--trials", "2", "--seed", "7",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["seed"] for r in data["rows"]] == [7, 8]


def test_roundtrip_other_base_dim(tmp_path, capsys):
    rel = write_relation(tmp_path / "chain2.json", chain2_relation())
    assert main(["roundtrip", rel, "--trials", "1", "--dims", "3"]) == 0
    assert "1/1 pass" in capsys.readouterr().out


@pytest.mark.parametrize("json_out", [False, True])
def test_roundtrip_reports_circuitless_trial(tmp_path, capsys, monkeypatch,
                                             json_out):
    # an obstruction returns no circuit, so the trial has no residual;
    # it fails as a row, and the run exits 3, not with a traceback
    from causaldeco.algebra import SectorObstruction

    def forced(a_labels, x_legs, bs, seed=0):
        return SectorObstruction(None, "forced")
    monkeypatch.setattr(sys.modules["causaldeco.decompose"],
                        "algebraic_lemma", forced)
    rel = write_relation(tmp_path / "chain2.json", chain2_relation())
    argv = ["roundtrip", rel, "--trials", "1"] + (["--json"] if json_out
                                                  else [])
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if json_out:
        data = json.loads(captured.out)
        assert data["passes"] == 0
        assert data["rows"] == [{"trial": 0, "seed": 0,
                                 "status": "Obstruction", "residual": None,
                                 "pass": False}]
    else:
        assert captured.out.splitlines() == [
            "trial 0: fail (Obstruction)", "0/1 pass"]


def test_roundtrip_c3_refused(capsys, c3_file):
    assert main(["roundtrip", c3_file, "--trials", "2"]) == 1
    assert "refused" in capsys.readouterr().out


# -- gallery -------------------------------------------------------------


def test_gallery_u3_file(tmp_path, capsys):
    out = str(tmp_path / "u3.json")
    assert main(["gallery", "u3", "--out", out]) == 0
    U = load_unitary(out)
    assert U.dim == 8
    assert np.allclose(U.matrix, u3().matrix)


def test_gallery_loose_wires_permutation(tmp_path):
    out = str(tmp_path / "lw.json")
    assert main(["gallery", "loose-wires", "--out", out]) == 0
    U = load_unitary(out)
    assert U.dim == 128
    m = U.matrix
    assert np.array_equal(np.abs(m), np.abs(m).astype(int))
    assert (np.abs(m).sum(axis=0) == 1).all()
    assert (np.abs(m).sum(axis=1) == 1).all()


def test_gallery_counterexample(tmp_path, capsys, c3_file):
    out = str(tmp_path / "cex.json")
    assert main(["gallery", f"counterexample:{c3_file}", "--out", out]) == 0
    U = load_unitary(out)
    assert set(U.in_space.labels) == {"a1", "a2", "a3"}


def test_gallery_unknown_name(capsys):
    assert main(["gallery", "nope"]) == 2
    assert "unknown gallery name" in capsys.readouterr().err


# -- exit codes and determinism ------------------------------------------


def test_missing_file_exits_2(capsys):
    assert main(["check", "no-such-file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert main(["check", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_output_deterministic(tmp_path, capsys, u3_file):
    assert main(["analyze", u3_file, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", u3_file, "--json"]) == 0
    assert capsys.readouterr().out == first


# The wrapper pip writes for a ``[project.scripts]`` entry
# ``name = "module:func"`` (distlib's SCRIPT_TEMPLATE).
CONSOLE_SCRIPT_TEMPLATE = """\
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def test_console_script_installed(tmp_path, c3_file):
    # Runs the declared console script from source, as its own process,
    # so no install is needed: the entry point must resolve and its
    # return value must become the process exit code.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["causaldeco"]
    module, func = entry.split(":")
    script = tmp_path / "causaldeco"
    script.write_text(CONSOLE_SCRIPT_TEMPLATE.format(
        module=module, import_name=func.split(".")[0], func=func))
    proc = subprocess.run([sys.executable, str(script), "check", c3_file],
                          capture_output=True, text=True, env=source_env(),
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Violated" in proc.stdout


# -- fuzzed input files ------------------------------------------------------

JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 10 ** 400)
                | st.floats() | st.sampled_from(["a1", "b2", "1", "0.5", ""])
                | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["label", "dim", "in", "x"])
                      | st.text(max_size=2), kids, max_size=3),
    max_leaves=6)


def paths(doc, prefix=()):
    """Every key path into a JSON document, the root included."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with up to three values, at any depth, replaced by fuzz."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        value = draw(JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return doc


def run_cli_on(docs, argv) -> None:
    """Write each doc to a file named by its key, run the CLI on argv
    with those names replaced by the file paths, and check that it
    exits with a documented code and without a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        names = {}
        for name, doc in docs.items():
            names[name] = os.path.join(tmp, f"{name}.json")
            with open(names[name], "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([names.get(a, a) for a in argv])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


U3_DOC = json.loads(unitary_to_json(u3()))
FULL_3X3 = relation_to_json(full_relation(("a1", "a2", "a3"),
                                          ("b1", "b2", "b3")))


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(doc=mutated(relation_to_json(overlapping_fans_relation())))
def test_fuzzed_relation_never_crashes_the_cli(doc):
    for argv in (["check", "rel", "--json"],
                 ["lattice", "rel", "--format", "json"]):
        run_cli_on({"rel": doc}, argv)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(doc=mutated(U3_DOC))
def test_fuzzed_unitary_never_crashes_the_cli(doc):
    run_cli_on({"u": doc}, ["analyze", "u", "--json"])
    run_cli_on({"u": doc, "rel": FULL_3X3}, ["decompose", "u", "rel"])


def chain2_circuit_docs():
    """A chain2 unitary, its relation and the circuit decompose writes
    for them, as JSON documents."""
    from causaldeco.circuits import circuit_to_json
    from causaldeco.decompose import decompose
    G = chain2_relation()
    _, U = random_circuit_unitary(G, seed=3)
    circuit, _ = decompose(U, G)
    return (json.loads(unitary_to_json(U)), relation_to_json(G),
            json.loads(circuit_to_json(circuit)))


CHAIN2_U, CHAIN2_REL, CHAIN2_CIRCUIT = chain2_circuit_docs()


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(doc=mutated(CHAIN2_CIRCUIT))
def test_fuzzed_circuit_never_crashes_the_cli(doc):
    run_cli_on({"u": CHAIN2_U, "circ": doc, "rel": CHAIN2_REL},
               ["verify", "u", "circ", "rel"])
