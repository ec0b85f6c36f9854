"""The four workloads: seeded inputs, the operations of one round, and
how each operation's output is judged.

A workload's ``setup`` makes every input from the seed, writes the
input files and returns the round as a list of ``Op``.  ``Op.call`` is
the timed part: a CLI command run in-process through
``causaldeco.cli.main``, or a library call.  Timed calls look their
function up on its module at call time, so that a traced round reaches
the wrapper put there.  ``Op.judge`` runs after the
clock stops and returns "ok", returns "fault" for the known centre fault
on an operation marked ``fault``, or raises CheckError.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import causaldeco.cli
import causaldeco.gallery
from causaldeco.circuits import random_circuit_unitary, uniform_dims
from causaldeco.gallery import build_counterexample, loose_wires_c3, u3
from causaldeco.lattice import build_concept_lattice
from causaldeco.relations import Relation

from checks import (CheckError, Rel, c3_violated, check_analysis,
                    check_c3_verdict, check_c3_witness, check_circuit,
                    check_sectors, check_shape, check_structure,
                    influence_pairs, lattice_expectation, unitary_doc)

# message of the centre fault: a dimension-1 output leg's scalar image
# loses its centre to rank noise and is declared not a factor
CENTRE_FAULT = "is not a factor"


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    judge: Callable[[Any], str]
    klass: str | None = None   # "primary" or "secondary" latency class
    fault: bool = False        # expected to hit the centre fault


def cli(argv):
    """Run one CLI command in-process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = causaldeco.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _program_relation(rel: Rel) -> Relation:
    return Relation(tuple(rel.inputs), tuple(rel.outputs), frozenset(rel.pairs))


def _legs(space):
    return [(l, d) for l, d in space.factors]


def _json_out(code, out, err, want_code):
    if code != want_code:
        raise CheckError(f"exit code {code}, expected {want_code}: "
                         f"{err.strip()[:200]}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def _cached(fn):
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


# -- reference relations, written by the benchmark itself ------------------

def rel_swap():
    return Rel(["a1", "a2"], ["b1", "b2"], [("a1", "b2"), ("a2", "b1")])


def rel_chain2():
    return Rel(["a1", "a2"], ["b1", "b2"],
               [("a1", "b1"), ("a2", "b1"), ("a2", "b2")])


def rel_fan_in():
    return Rel(["a1", "a2", "a3"], ["b1"], [(a, "b1") for a in ("a1", "a2", "a3")])


def rel_fan_out():
    return Rel(["a1"], ["b1", "b2", "b3"], [("a1", b) for b in ("b1", "b2", "b3")])


def rel_fans():
    pairs = [("1", "a"), ("1", "b"), ("2", "a"), ("2", "b"), ("2", "c"),
             ("3", "c"), ("3", "d"), ("4", "c"), ("4", "d"), ("4", "e")]
    return Rel(["1", "2", "3", "4"], ["a", "b", "c", "d", "e"], pairs)


def rel_c3():
    return Rel(["a1", "a2", "a3"], ["b1", "b2", "b3"],
               [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"),
                ("a2", "b3"), ("a3", "b2"), ("a3", "b3")])


def rel_c3_spectator():
    base = rel_c3()
    return Rel(base.inputs + ["a4"], base.outputs + ["b4"],
               base.pairs | {("a4", "b4")})


# -- synthesis --------------------------------------------------------------

# (label, relation, dims, latency class, fault).  dims is a base for
# uniform dimensions, or explicit (wire dims, leg dims).  Inputs marked
# fault have a dimension-1 output leg and a fixed generation seed.
SYNTHESIS = [
    ("fans-b2-a", rel_fans, 2, "primary", False),
    ("fans-b2-b", rel_fans, 2, "primary", False),
    ("chain2-b3", rel_chain2, 3, "secondary", False),
    ("swap-b2", rel_swap, 2, None, False),
    ("swap-b3", rel_swap, 3, None, False),
    ("swap-2x3", rel_swap, ({(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1},
                            {"a1": 2, "a2": 3, "b1": 3, "b2": 2}), None, False),
    ("chain2-b2", rel_chain2, 2, None, False),
    ("chain2-2x6", rel_chain2, ({(0, 1): 3},
                                {"a1": 2, "a2": 6, "b1": 6, "b2": 2}), None, False),
    ("fan_in-b2", rel_fan_in, 2, None, False),
    ("fan_out-b2", rel_fan_out, 2, None, False),
    ("fan_out-3:1,3,1", rel_fan_out, ({}, {"a1": 3, "b1": 1, "b2": 3, "b3": 1}),
     None, True),
    ("fan_out-2:2,1,1", rel_fan_out, ({}, {"a1": 2, "b1": 2, "b2": 1, "b3": 1}),
     None, True),
]
FAULT_INPUT_SEED = 0


def _synthesis_op(label, rel, dims, klass, fault, seed, work: Path):
    shape = build_concept_lattice(_program_relation(rel))
    if isinstance(dims, int):
        ind, outd, wires = uniform_dims(shape, dims)
        legs = {**ind, **outd}
    else:
        wires, legs = dims
    if fault:
        seed = FAULT_INPUT_SEED
    _, chan = random_circuit_unitary(shape, wire_dims=wires, leg_dims=legs,
                                     seed=seed)
    in_legs, out_legs = _legs(chan.in_space), _legs(chan.out_space)
    mat = chan.matrix
    tag = label.replace(":", "_").replace(",", "")
    upath = _write(work / f"{tag}.unitary.json",
                   unitary_doc(mat, in_legs, out_legs))
    gpath = _write(work / f"{tag}.relation.json", rel.to_json())
    cpath = work / f"{tag}.circuit.json"
    expected = _cached(lambda: lattice_expectation(rel))

    def call():
        if cpath.exists():
            cpath.unlink()
        return cli(["decompose", upath, gpath, "--json", "--out", str(cpath),
                    "--seed", str(seed)])

    def judge(res):
        code, out, err = res
        if fault and code == 3 and CENTRE_FAULT in err:
            return "fault"
        doc = _json_out(code, out, err, 0)
        if doc.get("status") != "Success":
            raise CheckError(f"status {doc.get('status')!r}")
        circuit = json.loads(cpath.read_text())
        check_circuit(rel, circuit, mat, in_legs, out_legs, expected())
        return "ok"
    return Op(f"decompose {label} D={mat.shape[0]}", call, judge, klass, fault)


def synthesis(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([1, seed])
    ops = []
    for label, relf, dims, klass, fault in SYNTHESIS:
        s = int(rng.integers(0, 2**31))
        ops.append(_synthesis_op(label, relf(), dims, klass, fault, s, work))
    return ops


def synthesis_warmup(seed: int, work: Path) -> list[Op]:
    return [_synthesis_op("warm", rel_chain2(), 2, None, False, seed, work)]


# -- certificate ------------------------------------------------------------

def _counterexample_op(rel: Rel, seed: int, klass, box: dict):
    G = _program_relation(rel)

    def call():
        box["chan"] = causaldeco.gallery.build_counterexample(G, seed=seed)
        return box["chan"]

    def judge(chan):
        check_structure(rel.pairs, chan.matrix, _legs(chan.in_space),
                        _legs(chan.out_space))
        return "ok"
    return Op(f"build_counterexample {len(rel.inputs)}x{len(rel.outputs)}",
              call, judge, klass)


def _obstruction_op(rel: Rel, seed: int, klass, box: dict):
    G = _program_relation(rel)

    def call():
        return causaldeco.gallery.obstruction_witness(box["chan"], G, seed=seed)

    def judge(deco):
        check_sectors(deco.projectors, deco.sectors, deco.a_space.total_dim)
        return "ok"
    return Op(f"obstruction_witness {len(rel.inputs)}x{len(rel.outputs)}",
              call, judge, klass)


def _refusal_op():
    rel = rel_c3()
    G = _program_relation(rel)
    chan = u3()

    def call():
        return sys.modules["causaldeco.decompose"].decompose(chan, G)

    def judge(res):
        circuit, report = res
        if circuit is not None or report.status != "RefusedC3EP":
            raise CheckError(f"decompose(u3, C3) gave {report.status!r}")
        check_c3_witness(rel, report.witness.as_dict())
        return "ok"
    return Op("decompose u3 refusal", call, judge)


def certificate(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([2, seed])
    s1, s2, s3 = (int(x) for x in rng.integers(0, 2**31, size=3))
    c3 = {}
    spectator = {}
    return [
        _counterexample_op(rel_c3(), s1, None, c3),
        _obstruction_op(rel_c3(), s2, "primary", c3),
        _counterexample_op(rel_c3_spectator(), s3, "secondary", spectator),
        _refusal_op(),
    ]


def certificate_warmup(seed: int, work: Path) -> list[Op]:
    return [_refusal_op(), _counterexample_op(rel_c3(), seed, None, {})]


# -- analysis ---------------------------------------------------------------

def _haar(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def brickwork(n_qubits, depth, rng) -> np.ndarray:
    """Composite of Haar two-qubit gates on alternating neighbour pairs."""
    D = 2 ** n_qubits
    t = np.eye(D, dtype=complex).reshape([2] * n_qubits + [D])
    for layer in range(depth):
        for q in range(layer % 2, n_qubits - 1, 2):
            g = _haar(4, rng).reshape(2, 2, 2, 2)
            t = np.tensordot(g, t, axes=([2, 3], [q, q + 1]))
            t = np.moveaxis(t, [0, 1], [q, q + 1])
    return t.reshape(D, D)


# (label, qubits, depth, input leg dims, output leg dims, latency class)
COMPOSITES = [
    ("brick-8x2", 8, 2, [2] * 8, [2] * 8, "primary"),
    ("brick-4x4", 8, 3, [4, 4, 4, 4], [4, 4, 4, 4], "primary"),
    ("brick-6x2:3x4", 6, 2, [2] * 6, [4, 4, 4], None),
    ("brick-3x4:6x2", 6, 3, [4, 4, 4], [2] * 6, None),
]


def _analysis_op(label, mat, in_legs, out_legs, klass, work: Path):
    path = _write(work / f"{label.replace(':', '_')}.unitary.json",
                  unitary_doc(mat, in_legs, out_legs))
    expected = _cached(lambda: influence_pairs(mat, in_legs, out_legs))

    def call():
        return cli(["analyze", path, "--json"])

    def judge(res):
        check_analysis(expected(), _json_out(*res, 0))
        return "ok"
    return Op(f"analyze {label} D={mat.shape[0]}", call, judge, klass)


def analysis(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([3, seed])
    ops = []
    for label, nq, depth, ind, outd, klass in COMPOSITES:
        mat = brickwork(nq, depth, rng)
        in_legs = [(f"a{k + 1}", d) for k, d in enumerate(ind)]
        out_legs = [(f"b{k + 1}", d) for k, d in enumerate(outd)]
        ops.append(_analysis_op(label, mat, in_legs, out_legs, klass, work))
    cex = build_counterexample(_program_relation(rel_c3()),
                               seed=int(rng.integers(0, 2**31)))
    _, loose = loose_wires_c3()
    for label, chan in (("counterexample-c3", cex), ("loose-wires-c3", loose)):
        ops.append(_analysis_op(label, chan.matrix, _legs(chan.in_space),
                                _legs(chan.out_space), "secondary", work))
    return ops


def analysis_warmup(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([3, seed, 1])
    mat = brickwork(4, 2, rng)
    legs = [("a1", 4), ("a2", 4)]
    return [_analysis_op("warm", mat, legs, [("b1", 4), ("b2", 4)], None, work)]


# -- screening --------------------------------------------------------------

def staircase(n, rng) -> Rel:
    """Nested children sets a_i -> {b_0..b_i}, labels shuffled."""
    ins = [f"x{k:02d}" for k in rng.permutation(n)]
    outs = [f"y{k:02d}" for k in rng.permutation(n)]
    pairs = [(ins[i], outs[j]) for i in range(n) for j in range(i + 1)]
    return Rel(sorted(ins), sorted(outs), pairs)


def laminar(n_in, n_out, rng) -> Rel:
    """Parent sets drawn from a random laminar family (disjoint or nested)."""
    ins = [f"x{k:02d}" for k in range(n_in)]
    family = [list(ins)]
    todo = [list(ins)]
    while todo:
        s = todo.pop()
        if len(s) < 2:
            continue
        k = int(rng.integers(2, min(3, len(s)) + 1))
        perm = [s[i] for i in rng.permutation(len(s))]
        cuts = sorted(rng.choice(np.arange(1, len(s)), size=k - 1, replace=False))
        parts = [perm[a:b] for a, b in zip([0, *cuts], [*cuts, len(s)])]
        family += parts
        todo += parts
    outs = [f"y{k:02d}" for k in range(n_out)]
    pairs = []
    for b in outs:
        for a in family[int(rng.integers(0, len(family)))]:
            pairs.append((a, b))
    return Rel(ins, outs, pairs)


def contranominal(n, rng, extra=None) -> Rel:
    """a_i -> b_j for i != j (2^n concepts), labels shuffled; ``extra``
    adds an input reaching every output or an output reached by every
    input, which keeps the concept count."""
    ins = [f"x{k:02d}" for k in rng.permutation(n)]
    outs = [f"y{k:02d}" for k in rng.permutation(n)]
    pairs = [(ins[i], outs[j]) for i in range(n) for j in range(n) if i != j]
    if extra == "input":
        ins.append("xall")
        pairs += [("xall", b) for b in outs]
    elif extra == "output":
        outs.append("yall")
        pairs += [(a, "yall") for a in ins]
    return Rel(sorted(ins), sorted(outs), pairs)


def violating(n, rng) -> Rel:
    """Random relation at a random density that contains the C3 pattern."""
    ins = [f"x{k:02d}" for k in range(n)]
    outs = [f"y{k:02d}" for k in range(n)]
    while True:
        p = rng.uniform(0.35, 0.65)
        mask = rng.random((n, n)) < p
        rel = Rel(ins, outs, [(ins[i], outs[j]) for i in range(n)
                              for j in range(n) if mask[i, j]])
        if c3_violated(rel):
            return rel


def _check_op(label, rel: Rel, klass, work: Path):
    path = _write(work / f"{label}.relation.json", rel.to_json())
    want = 1 if c3_violated(rel) else 0

    def call():
        return cli(["check", path, "--json"])

    def judge(res):
        check_c3_verdict(rel, _json_out(*res, want))
        return "ok"
    return Op(f"check {label}", call, judge, klass)


def _lattice_op(label, rel: Rel, klass, work: Path):
    path = _write(work / f"{label}.relation.json", rel.to_json())
    expected = _cached(lambda: lattice_expectation(rel))

    def call():
        return cli(["lattice", path, "--format", "json"])

    def judge(res):
        check_shape(rel, _json_out(*res, 0), expected())
        return "ok"
    return Op(f"lattice {label}", call, judge, klass)


def screening(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([4, seed])
    ops = [_check_op(f"staircase12-{k}", staircase(12, rng), "primary", work)
           for k in range(3)]
    ops += [_check_op("laminar10", laminar(10, 10, rng), None, work),
            _check_op("laminar11x12", laminar(11, 12, rng), None, work)]
    for k in range(3):
        rel = violating(7, rng)
        ops += [_check_op(f"violating7-{k}", rel, None, work),
                _lattice_op(f"violating7-{k}", rel, None, work)]
    for k, extra in enumerate((None, "input", "output")):
        ops.append(_lattice_op(f"contranominal9-{k}",
                               contranominal(9, rng, extra), "secondary", work))
    ops.append(_lattice_op("contranominal10", contranominal(10, rng), None, work))
    return ops


def screening_warmup(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([4, seed, 1])
    rel = staircase(6, rng)
    return [_check_op("warm", rel, None, work), _lattice_op("warm", rel, None, work)]


WORKLOADS = {
    "synthesis": (synthesis, synthesis_warmup),
    "certificate": (certificate, certificate_warmup),
    "analysis": (analysis, analysis_warmup),
    "screening": (screening, screening_warmup),
}
