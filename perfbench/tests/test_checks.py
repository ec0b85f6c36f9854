"""Each checker passes the program's real output and rejects a corrupted copy.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import workloads  # noqa: E402
from checks import (CheckError, Rel, c3_violated, check_analysis,  # noqa: E402
                    check_c3_verdict, check_c3_witness, check_circuit,
                    check_sectors, check_shape, check_structure,
                    influence_pairs)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


def test_circuit_check_rejects_a_perturbed_gate(work):
    rel = workloads.rel_chain2()
    op = workloads._synthesis_op("chain2", rel, 2, None, False, 7, work)
    assert op.judge(op.call()) == "ok"
    circuit = json.loads((work / "chain2.circuit.json").read_text())
    unitary = json.loads((work / "chain2.unitary.json").read_text())
    mat = np.asarray(unitary["matrix"])[..., 0] + 1j * np.asarray(unitary["matrix"])[..., 1]
    in_legs = [(l["label"], l["dim"]) for l in unitary["in"]]
    out_legs = [(l["label"], l["dim"]) for l in unitary["out"]]
    check_circuit(rel, circuit, mat, in_legs, out_legs)
    bad = copy.deepcopy(circuit)
    bad["gates"]["0"][0][0][0] += 1e-6
    with pytest.raises(CheckError):
        check_circuit(rel, bad, mat, in_legs, out_legs)


def test_circuit_check_rejects_a_relabelled_shape(work):
    rel = workloads.rel_chain2()
    op = workloads._synthesis_op("chain2s", rel, 2, None, False, 3, work)
    assert op.judge(op.call()) == "ok"
    circuit = json.loads((work / "chain2s.circuit.json").read_text())
    bad = copy.deepcopy(circuit)
    bad["mu"] = {b: 0 for b in bad["mu"]}
    with pytest.raises(CheckError):
        check_shape(rel, bad)


def test_analysis_check_rejects_one_flipped_pair(work):
    rng = np.random.default_rng(5)
    mat = workloads.brickwork(4, 2, rng)
    legs_in = [("a1", 2), ("a2", 2), ("a3", 4)]
    legs_out = [("b1", 4), ("b2", 2), ("b3", 2)]
    op = workloads._analysis_op("flip", mat, legs_in, legs_out, None, work)
    code, out, err = op.call()
    assert op.judge((code, out, err)) == "ok"
    doc = json.loads(out)
    expected = influence_pairs(mat, legs_in, legs_out)
    assert 0 < len(expected) < len(legs_in) * len(legs_out)
    missing = sorted({(a, b) for a, _ in legs_in for b, _ in legs_out} - expected)[0]
    for bad_pairs in (doc["pairs"][1:], doc["pairs"] + [list(missing)]):
        with pytest.raises(CheckError):
            check_analysis(expected, {**doc, "pairs": bad_pairs})


def test_structure_check_rejects_one_flipped_pair():
    rel = workloads.rel_c3()
    chan = workloads.build_counterexample(workloads._program_relation(rel), seed=0)
    legs_in = list(chan.in_space.factors)
    legs_out = list(chan.out_space.factors)
    check_structure(rel.pairs, chan.matrix, legs_in, legs_out)
    with pytest.raises(CheckError):
        check_structure(rel.pairs - {("a2", "b2")}, chan.matrix, legs_in, legs_out)
    with pytest.raises(CheckError):
        check_structure(rel.pairs | {("a1", "b3")}, chan.matrix, legs_in, legs_out)


@pytest.fixture(scope="module")
def certificate():
    ops = workloads.certificate(0, None)
    chan = ops[0].call()
    assert ops[0].judge(chan) == "ok"
    return ops[1].call()


def test_sector_check_rejects_a_missing_projector(certificate):
    deco = certificate
    dim = deco.a_space.total_dim
    check_sectors(deco.projectors, deco.sectors, dim)
    with pytest.raises(CheckError):
        check_sectors(deco.projectors[1:], deco.sectors, dim)
    with pytest.raises(CheckError):
        check_sectors(deco.projectors[1:], deco.sectors[1:], dim)


def test_sector_check_rejects_a_non_projector(certificate):
    deco = certificate
    dim = deco.a_space.total_dim
    bad = list(deco.projectors)
    bad[0] = bad[0] * 1.01
    with pytest.raises(CheckError):
        check_sectors(bad, deco.sectors, dim)


def test_witness_check_rejects_two_swapped_roles(work):
    rng = np.random.default_rng(11)
    rel = workloads.violating(6, rng)
    op = workloads._check_op("swap-roles", rel, None, work)
    code, out, err = op.call()
    assert op.judge((code, out, err)) == "ok"
    doc = json.loads(out)
    for x, y in (("a1", "a3"), ("b1", "b3"), ("a1", "a2")):
        w = dict(doc["witness"])
        w[x], w[y] = w[y], w[x]
        with pytest.raises(CheckError):
            check_c3_verdict(rel, {**doc, "witness": w})
    with pytest.raises(CheckError):
        check_c3_verdict(rel, {**doc, "satisfied": True, "witness": None})


def test_refusal_witness_is_checked():
    op = workloads._refusal_op()
    circuit, report = op.call()
    assert op.judge((circuit, report)) == "ok"
    w = report.witness
    swapped = dict(w.as_dict(), a1=w.a3, a3=w.a1)
    with pytest.raises(CheckError):
        check_c3_witness(workloads.rel_c3(), swapped)


def test_lattice_check_rejects_a_missing_cover(work):
    rng = np.random.default_rng(2)
    rel = workloads.contranominal(5, rng)
    op = workloads._lattice_op("drop-cover", rel, None, work)
    code, out, err = op.call()
    assert op.judge((code, out, err)) == "ok"
    doc = json.loads(out)
    assert len(doc["nodes"]) == 32
    with pytest.raises(CheckError):
        check_shape(rel, {**doc, "covers": doc["covers"][1:]})
    with pytest.raises(CheckError):
        check_shape(rel, {**doc, "nodes": doc["nodes"][1:]})


def test_bitmask_c3_test_agrees_on_reference_relations():
    assert c3_violated(workloads.rel_c3())
    assert not c3_violated(workloads.rel_fans())
    assert not c3_violated(workloads.staircase(8, np.random.default_rng(0)))
    assert not c3_violated(workloads.laminar(9, 9, np.random.default_rng(0)))
    assert c3_violated(Rel(["p", "q", "r", "s"], ["u", "v", "w"],
                           [("q", "u"), ("q", "v"), ("p", "u"), ("p", "v"),
                            ("p", "w"), ("s", "v"), ("s", "w")]))
