"""Synthesis round trips, refusals, and the verification report."""

import numpy as np
import pytest
from hypothesis import given, settings

from causaldeco.causal import UnitaryChannel, causal_structure
from causaldeco.circuits import (Circuit, compose_matrix,
                                 random_circuit_unitary, uniform_dims)
from causaldeco.decompose import INCLUSION_TOL, RECOMPOSE_TOL, \
    DecompositionReport, _phase_residual, decompose, verify_decomposition
from causaldeco.errors import InputError, NumericsError
from causaldeco.gallery import build_counterexample, obstruction_witness, u3
from causaldeco.lattice import build_concept_lattice
from causaldeco.policy import CHANNEL_UNITARITY_TOL
from causaldeco.relations import Relation, c3_relation, fan_in_relation, \
    fan_out_relation, full_relation
from causaldeco.tensorspace import TensorSpace, unitarity_residual

from test_causal import reference_channel, relation_circuits
from test_cli import SPLIT_MESSAGE, force_sector_split
from test_circuits import classical_copy_c3_circuit, u3_matrix


def chain2_relation():
    return Relation(("a1", "a2"), ("b1", "b2"),
                    {("a1", "b1"), ("a2", "b1"), ("a2", "b2")})


def swap_relation():
    return Relation(("a1", "a2"), ("b1", "b2"),
                    {("a1", "b2"), ("a2", "b1")})


def fans_relation():
    return Relation(("1", "2", "3", "4"), ("a", "b", "c", "d", "e"),
                    {("1", "a"), ("1", "b"), ("2", "a"), ("2", "b"),
                     ("2", "c"), ("3", "c"), ("3", "d"), ("4", "c"),
                     ("4", "d"), ("4", "e")})


def swap_channel():
    m = np.zeros((4, 4))
    for i in (0, 1):
        for j in (0, 1):
            m[2 * j + i, 2 * i + j] = 1.0
    return UnitaryChannel(m, TensorSpace((("a1", 2), ("a2", 2))),
                          TensorSpace((("b1", 2), ("b2", 2))))


def equal_up_to_global_phase(P, Q, tol=None) -> bool:
    """Whether min over phases of ||P - exp(i t) Q||_F is within tol.

    The minimizing phase is the argument of tr(Q^dag P); tol defaults
    to 1e-8 sqrt(dim).
    """
    P = np.asarray(P, dtype=complex)
    Q = np.asarray(Q, dtype=complex)
    if P.shape != Q.shape:
        raise InputError(f"shape mismatch {P.shape} vs {Q.shape}")
    return _phase_residual(P, Q) <= \
        (RECOMPOSE_TOL * np.sqrt(P.shape[0]) if tol is None else tol)


def test_phase_equality_accepts_global_phase():
    rng = np.random.default_rng(0)
    p = np.linalg.qr(rng.normal(size=(6, 6))
                     + 1j * rng.normal(size=(6, 6)))[0]
    assert equal_up_to_global_phase(p, np.exp(1j * np.pi / 7) * p)
    assert equal_up_to_global_phase(p, p)


def test_phase_equality_rejects_perturbation():
    rng = np.random.default_rng(1)
    p = np.linalg.qr(rng.normal(size=(6, 6))
                     + 1j * rng.normal(size=(6, 6)))[0]
    q = p.copy()
    q[0, 0] += 1e-3
    assert not equal_up_to_global_phase(p, q)
    assert equal_up_to_global_phase(p, q, tol=1.0)


def test_phase_equality_shape_mismatch():
    with pytest.raises(InputError):
        equal_up_to_global_phase(np.eye(2), np.eye(3))


def test_verify_copy_circuit_against_controlled_sums():
    # composes exactly to the controlled-sum permutation, but the copy
    # and match gates are rectangular, so verification must fail on
    # unitarity while reporting a zero residual and valid connectivity
    circuit = classical_copy_c3_circuit()
    report = verify_decomposition(u3(), circuit, c3_relation())
    assert report.status == "Failed"
    assert not report.gates_unitary
    assert report.recomposition_residual < 1e-12
    assert report.connectivity_ok
    assert report.faithful


def test_verify_identity_single_node():
    G = full_relation(["a1"], ["b1"])
    shape = build_concept_lattice(G)
    circuit = Circuit(shape, {}, {"a1": 2}, {"b1": 2}, {0: np.eye(2)})
    ch = UnitaryChannel(np.eye(2), TensorSpace((("a1", 2),)),
                        TensorSpace((("b1", 2),)))
    report = verify_decomposition(ch, circuit, G)
    assert report.status == "Success"
    assert report.recomposition_residual < 1e-12
    assert report.faithful


def test_verify_detects_gate_tampering():
    G = chain2_relation()
    _, ch = random_circuit_unitary(G, seed=3)
    circuit, report = decompose(ch, G, seed=1)
    assert report.status == "Success"
    gates = dict(circuit.gates)
    gates[1] = np.eye(*circuit.gate_shape(1))
    tampered = Circuit(circuit.shape, circuit.wire_dims, circuit.in_dims,
                       circuit.out_dims, gates)
    report = verify_decomposition(ch, tampered, G)
    assert report.status == "Failed"
    assert report.gates_unitary
    assert report.connectivity_ok
    assert report.recomposition_residual > 0.5


# wire dims of the generators: the builders use the default dimension
# assignment, and for these seeds the synthesis must recover exactly the
# generating wire, whose algebra is the realized intersection
ROUND_TRIPS = [
    ("chain2", chain2_relation, {(0, 1): 2}),
    ("swap", swap_relation,
     {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): 1}),
    ("fan_in",
     lambda: Relation(("a1", "a2", "a3"), ("b1",),
                      {("a1", "b1"), ("a2", "b1"), ("a3", "b1")}), {}),
    ("fan_out",
     lambda: Relation(("a1",), ("b1", "b2", "b3"),
                      {("a1", "b1"), ("a1", "b2"), ("a1", "b3")}), {}),
    ("fans", fans_relation,
     {(0, 1): 1, (0, 2): 1, (1, 3): 2, (1, 5): 2, (2, 4): 2,
      (3, 6): 1, (4, 5): 2, (5, 6): 1}),
]


@pytest.mark.parametrize("name,rel,wires",
                         ROUND_TRIPS, ids=[r[0] for r in ROUND_TRIPS])
def test_round_trip(name, rel, wires):
    G = rel()
    _, ch = random_circuit_unitary(G, seed=7)
    circuit, report = decompose(ch, G, seed=2)
    assert report.status == "Success"
    assert report.recomposition_residual <= 1e-8 * np.sqrt(ch.dim)
    assert report.connectivity_ok
    assert report.faithful
    assert circuit.gates_unitary()
    assert circuit.wire_dims == wires
    want = build_concept_lattice(G)
    assert [(n.alpha, n.beta) for n in circuit.shape.nodes] \
        == [(n.alpha, n.beta) for n in want.nodes]
    assert len(report.per_node_diagnostics) == len(want.nodes)
    assert max(d.inclusion_residual
               for d in report.per_node_diagnostics) < 1e-6


@pytest.mark.parametrize("seed", [0, 1])
def test_gates_and_witness_iso_are_unitary_to_roundoff(seed):
    # no iso is checked for unitarity where it is made: each is a polar
    # part, a product of polar parts or the identity, so each gate, and
    # the witness's sector iso, sits at roundoff, far inside every gate
    for _, rel, _ in ROUND_TRIPS:
        G = rel()
        _, ch = random_circuit_unitary(G, seed=seed)
        circuit, report = decompose(ch, G, seed=seed)
        assert report.status == "Success"
        for gate in circuit.gates.values():
            assert unitarity_residual(gate) <= 1e-12
    G = c3_relation()
    deco = obstruction_witness(build_counterexample(G, seed=seed), G,
                               seed=seed)
    assert unitarity_residual(deco.iso.matrix) <= 1e-12


def test_round_trip_other_seed_and_dims():
    G = chain2_relation()
    _, ch = random_circuit_unitary(
        G, wire_dims={(0, 1): 3}, leg_dims={"a1": 2, "a2": 6, "b1": 6,
                                            "b2": 2}, seed=11)
    circuit, report = decompose(ch, G, seed=5)
    assert report.status == "Success"
    assert report.recomposition_residual <= 1e-8 * np.sqrt(ch.dim)
    assert circuit.wire_dims == {(0, 1): 3}


def test_refuses_exclusion_violating_relation():
    circuit, report = decompose(u3(), c3_relation())
    assert circuit is None
    assert report.status == "RefusedC3EP"
    assert report.witness.as_dict() == {
        "a1": "a1", "a2": "a2", "a3": "a3",
        "b1": "b1", "b2": "b2", "b3": "b3"}


def test_refuses_channel_outside_relation():
    circuit, report = decompose(swap_channel(), chain2_relation())
    assert circuit is None
    assert report.status == "RefusedCausal"
    assert report.extra_pair == ("a1", "b2")


def test_swap_on_its_own_relation():
    circuit, report = decompose(swap_channel(), swap_relation())
    assert report.status == "Success"
    nodes = [(n.alpha, n.beta) for n in circuit.shape.nodes]
    assert nodes == [((), ("b1", "b2")), (("a1",), ("b2",)),
                     (("a2",), ("b1",)), (("a1", "a2"), ())]
    assert set(circuit.wire_dims.values()) == {1}
    assert circuit.in_dims == {"a1": 2, "a2": 2}


def test_causal_structure_computed_once(monkeypatch):
    import causaldeco.causal
    leg_norms = causaldeco.causal._output_leg_norms
    leg_plans = causaldeco.causal._leg_plans
    calls, plans = [], []

    def counting(U, b, kernel, *rest):
        calls.append((b, tuple(kernel[-1])))
        return leg_norms(U, b, kernel, *rest)

    def planning(U, alphas):
        plans.append(tuple(alphas))
        return leg_plans(U, alphas)
    monkeypatch.setattr(causaldeco.causal, "_output_leg_norms", counting)
    monkeypatch.setattr(causaldeco.causal, "_leg_plans", planning)
    _, report = decompose(swap_channel(), swap_relation())
    assert report.status == "Success" and report.faithful
    # one pass per output leg, each testing every input leg, over the
    # input-leg plans built once
    assert sorted(calls) == [("b1", ("a1", "a2")), ("b2", ("a1", "a2"))]
    assert plans == [("a1", "a2")]


def test_no_commutant_solve_on_the_pipeline(monkeypatch):
    # reductions onto the local legs are closures, so neither synthesis
    # nor the obstruction certificate solves for a commutant
    import causaldeco.algebra
    solve = causaldeco.algebra.commutant_of
    calls = []

    def counting(mats, ambient):
        calls.append(ambient.total_dim)
        return solve(mats, ambient)
    monkeypatch.setattr(causaldeco.algebra, "commutant_of", counting)
    for G in (fans_relation(), chain2_relation()):
        _, ch = random_circuit_unitary(G, seed=7)
        _, report = decompose(ch, G, seed=2)
        assert report.status == "Success"
    C3 = c3_relation()
    deco = obstruction_witness(build_counterexample(C3, seed=0), C3)
    assert deco.sectors == ((2, 2), (2, 2))
    assert calls == []


def test_no_schmidt_svd_on_the_pipeline(monkeypatch):
    # reductions onto the local legs orthonormalise the blocks of the
    # whole basis at once, with no operator-Schmidt SVD per element
    schmidt = TensorSpace.schmidt_right_factors
    calls = []

    def counting(self, mat, left_labels, rel=1e-9):
        calls.append(tuple(left_labels))
        return schmidt(self, mat, left_labels, rel)
    monkeypatch.setattr(TensorSpace, "schmidt_right_factors", counting)
    G = fans_relation()
    _, ch = random_circuit_unitary(G, seed=7)
    _, report = decompose(ch, G, seed=2)
    assert report.status == "Success"
    assert calls == []


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(case=relation_circuits())
def test_roundtrip_on_random_shapes_and_dims(case):
    # every C3EP relation synthesizes a random circuit of its own shape
    # back, with the output dims the circuit was drawn with
    G, out_dims, U = case
    circuit, report = decompose(U, G)
    assert report.status == "Success"
    assert report.recomposition_residual <= RECOMPOSE_TOL * np.sqrt(U.dim)
    assert all(d.inclusion_residual <= INCLUSION_TOL
               for d in report.per_node_diagnostics)
    assert circuit.out_dims == out_dims


def test_each_lemma_hypothesis_tested_once(monkeypatch):
    # the gate split is one path: no factor test (the lemma's inputs are
    # images of a unitary that UnitaryChannel has checked), and
    # the only closures are the reductions onto the local legs (no joint
    # closure of the reductions): each reduction either closes its
    # blocks once or finds they span M_{d_t} and returns
    # MatrixSubalgebra.full with no closure.  A spanning split has scalar
    # centres, so the algebra J they generate is read from integers; the
    # certificate's sectors take one closure of J on top.  Each gate is
    # finished at its node, so the only images are the lemma's inputs and
    # the circuit is composed once, by the final verification.  Neither
    # decompose nor obstruction_witness runs a factor test.
    import sys
    import causaldeco.algebra as algebra
    module = sys.modules["causaldeco.decompose"]
    calls = {"inputs": 0, "is_factor": 0, "algebra_closure": 0,
             "reduce_onto_legs": 0, "full_reductions": 0,
             "heisenberg_image": 0, "compose_matrix": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(algebra, "algebra_closure", counting(
        "algebra_closure", algebra.algebra_closure))
    reduce = algebra.reduce_onto_legs

    def counting_reduce(B, target_labels):
        calls["reduce_onto_legs"] += 1
        closures = calls["algebra_closure"]
        out = reduce(B, target_labels)
        units = algebra.matrix_units(out.ambient.total_dim)
        if calls["algebra_closure"] == closures and np.array_equal(
                out.basis, units):
            calls["full_reductions"] += 1
        return out
    monkeypatch.setattr(algebra, "reduce_onto_legs", counting_reduce)
    for key in ("heisenberg_image", "compose_matrix"):
        monkeypatch.setattr(module, key, counting(key, getattr(module, key)))
    monkeypatch.setattr(algebra, "is_factor", counting(
        "is_factor", algebra.is_factor))
    lemma = module.algebraic_lemma

    def counting_inputs(a_labels, x_legs, bs, seed=0):
        calls["inputs"] += len(bs)
        return lemma(a_labels, x_legs, bs, seed=seed)
    monkeypatch.setattr(module, "algebraic_lemma", counting_inputs)
    G = fans_relation()
    chain2 = chain2_relation()
    in_dims, out_dims, wire_dims = uniform_dims(
        build_concept_lattice(chain2), 3)
    runs = [(G, random_circuit_unitary(G, seed=seed)[1], seed)
            for seed in (1, 2)]
    runs.append((chain2, random_circuit_unitary(
        chain2, wire_dims=wire_dims, leg_dims={**in_dims, **out_dims},
        seed=0)[1], 0))
    # fan_in at its default dims makes one reduction, which spans M_{d_t}
    fan_in = fan_in_relation()
    runs.append((fan_in, random_circuit_unitary(fan_in, seed=0)[1], 0))
    full_reductions = 0
    for rel, ch, seed in runs:
        for key in calls:
            calls[key] = 0
        _, report = decompose(ch, rel, seed=seed)
        assert report.status == "Success"
        assert calls["inputs"] > 0
        assert calls["is_factor"] == 0
        assert (calls["algebra_closure"] + calls["full_reductions"]
                == calls["reduce_onto_legs"] > 0)
        full_reductions += calls["full_reductions"]
        assert calls["heisenberg_image"] == calls["inputs"]
        assert calls["compose_matrix"] == 1
    assert full_reductions > 0
    C3 = c3_relation()
    U3 = build_counterexample(C3, seed=0)
    for key in calls:
        calls[key] = 0
    obstruction_witness(U3, C3)
    assert calls["is_factor"] == 0
    assert calls["algebra_closure"] == (
        calls["reduce_onto_legs"] - calls["full_reductions"] + 1)


def _near_the_unitarity_gate(U, seed):
    """U(1 + delta H) for a random Hermitian H, delta set so that the
    unitarity residual, 2 delta ||H||_F / sqrt(D) to first order, sits
    just under CHANNEL_UNITARITY_TOL: the worst channel whose images the
    lemma takes to be factors without testing them."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((U.dim,) * 2) + 1j * rng.standard_normal(
        (U.dim,) * 2)
    h = (g + g.conj().T) / 2
    delta = 0.95 * CHANNEL_UNITARITY_TOL * np.sqrt(U.dim) / (
        2 * np.linalg.norm(h))
    m = U.matrix @ (np.eye(U.dim) + delta * h)
    assert 0.9 * CHANNEL_UNITARITY_TOL <= unitarity_residual(m) \
        <= CHANNEL_UNITARITY_TOL
    return UnitaryChannel(m, U.in_space, U.out_space)


@pytest.mark.parametrize("seed", [0, 1])
def test_lemma_at_the_edge_of_the_unitarity_gate(monkeypatch, seed):
    # the unitarity check owns the factor hypothesis, so a channel just
    # inside it succeeds as the exact one does, or is refused, or raises;
    # never a success with other leg dims.  The perturbation reads as an
    # influence outside G, so a second run takes the exact channel's
    # causal structure to reach the gate-splitting lemma.
    import sys
    module = sys.modules["causaldeco.decompose"]
    G = fans_relation()
    _, U = random_circuit_unitary(G, seed=seed)
    _, exact = decompose(U, G, seed=seed)
    near = _near_the_unitarity_gate(U, seed)
    for structure in (None, causal_structure(U)):
        if structure is not None:
            monkeypatch.setattr(module, "causal_structure",
                                lambda u: structure)
        try:
            _, report = decompose(near, G, seed=seed)
        except NumericsError:
            continue
        assert report.status in ("Failed", "Success") or (
            structure is None and report.status == "RefusedCausal")
        if report.status == "Success":
            assert [d.leg_dims for d in report.per_node_diagnostics] == \
                [d.leg_dims for d in exact.per_node_diagnostics]
    C3 = c3_relation()
    try:
        deco = obstruction_witness(_near_the_unitarity_gate(
            build_counterexample(C3, seed=seed), seed), C3, seed=seed)
    except NumericsError:
        return
    assert deco.sectors == ((2, 2), (2, 2))


@pytest.mark.parametrize("pair_too", [False, True])
def test_degenerate_generic_draw_never_succeeds(monkeypatch, pair_too):
    # a draw that does not generate the algebra can only shrink the
    # reductions onto the shared legs, so decompose refuses or raises;
    # the identity is the most degenerate draw.  Without pair_too the
    # hypothesis checks keep their generic pair and only the reductions
    # see the identity.
    import causaldeco.algebra as algebra
    draw = algebra._generic_elements
    if not pair_too:
        monkeypatch.setattr(algebra.MatrixSubalgebra, "test_elements",
                            lambda self: draw(self, 2))
    calls = []

    def identity(S, count):
        calls.append(type(S))
        return np.stack([np.eye(S.ambient.total_dim, dtype=complex)] * count)
    monkeypatch.setattr(algebra, "_generic_elements", identity)
    G = fans_relation()
    _, ch = random_circuit_unitary(G, seed=0)
    try:
        _, report = decompose(ch, G, seed=0)
    except NumericsError:
        report = None
    assert algebra.RowImage in calls  # the images draw through the seam
    assert report is None or report.status != "Success"


def test_images_taken_from_the_node_channel(monkeypatch):
    # every image the synthesis forms is of U seen from a node's frame,
    # through the gates already synthesized, never of U on its own legs;
    # a frame holds inputs, wires and the outputs emitted below
    import sys
    module = sys.modules["causaldeco.decompose"]
    image = module.heisenberg_image
    legs = []

    def recording(U, betas):
        legs.extend(U.in_space.labels)
        return image(U, betas)
    monkeypatch.setattr(module, "heisenberg_image", recording)
    G = fans_relation()
    _, ch = random_circuit_unitary(G, seed=1)
    _, report = decompose(ch, G, seed=1)
    assert report.status == "Success"
    assert legs and all(l[:2] in ("A:", "B:", "Z:") for l in legs)
    assert any(l.startswith("Z:") for l in legs)


def test_nan_inclusion_residual_refuses(monkeypatch):
    # a NaN among the wire residuals must refuse, wherever it sits
    import sys
    module = sys.modules["causaldeco.decompose"]
    residuals = module._inclusion_residuals
    monkeypatch.setattr(module, "_inclusion_residuals",
                        lambda *args: np.append(residuals(*args), np.nan))
    G = chain2_relation()
    _, ch = random_circuit_unitary(G, seed=3)
    with pytest.raises(NumericsError, match="leaks outside its image"):
        decompose(ch, G)


@pytest.mark.parametrize("legs", [{"a1": 3, "b1": 1, "b2": 3, "b3": 1},
                                  {"a1": 2, "b1": 2, "b2": 1, "b3": 1}])
def test_fan_out_with_dimension_one_outputs(legs):
    # the image of a dimension-1 output leg is the scalar algebra, a
    # factor however much rounding noise its commutators carry
    G = fan_out_relation(3)
    _, U = random_circuit_unitary(build_concept_lattice(G), wire_dims={},
                                  leg_dims=legs, seed=0)
    circuit, report = decompose(U, G)
    assert report.status == "Success"
    assert [d.leg_dims for d in report.per_node_diagnostics] == [
        (legs["b1"], legs["b2"], legs["b3"])]


def test_single_gate_when_relation_is_full():
    G = full_relation(["a1", "a2", "a3"], ["b1", "b2", "b3"])
    circuit, report = decompose(u3(), G)
    assert report.status == "Success"
    assert len(circuit.shape.nodes) == 1
    assert report.connectivity_ok
    # the relation is strictly larger than the causal structure
    assert not report.faithful
    assert equal_up_to_global_phase(circuit.gates[0], u3_matrix())


def test_label_mismatch_is_input_error():
    with pytest.raises(InputError):
        decompose(u3(), chain2_relation())


def test_sector_split_is_a_numerical_failure(monkeypatch):
    # under C3EP and a structure inside G the theory rules out a
    # non-spanning split, so it is an internal fault, not a refusal
    force_sector_split(monkeypatch)
    G = chain2_relation()
    _, ch = random_circuit_unitary(G, seed=3)
    with pytest.raises(NumericsError) as exc:
        decompose(ch, G)
    assert str(exc.value) == SPLIT_MESSAGE.removeprefix(
        "numerical failure: ")


def _reference_input(relation, base):
    from causaldeco import relations
    G = getattr(relations, f"{relation}_relation")()
    return G, reference_channel(relation, base, 0)


@pytest.mark.parametrize("relation, base, leg_dims", [
    ("chain2", 3, [(3, 3), (9,)]),
    ("chain2", 4, [(4, 4), (16,)]),
    ("fan_in", 3, [(27,)]),
    ("fan_out", 3, [(3, 3, 3)]),
])
def test_reference_runs_succeed(relation, base, leg_dims):
    # the reference runs at base 3 and chain2 at base 4 (D=27 and D=64),
    # as `causaldeco roundtrip <relation>.json --dims <base> --trials 1`
    # runs them; the per-node leg dims pin every rank decision, sketched
    # or exact
    G, U = _reference_input(relation, base)
    circuit, report = decompose(U, G, seed=0)
    assert report.status == "Success"
    assert report.recomposition_residual <= RECOMPOSE_TOL * np.sqrt(U.dim)
    assert circuit.gates_unitary()
    assert [d.leg_dims for d in report.per_node_diagnostics] == leg_dims


def test_fan_in_top_node_takes_no_full_rank_solve(monkeypatch):
    # at base 3 the top node's image is all of M_27 on the local legs
    # alone (no rest legs), so its reduction is read from integers: no
    # rank solve on the 729 matrix-entry columns
    import causaldeco.algebra as algebra
    row_space = algebra._row_space
    columns = []

    def recording(m):
        columns.append(m.shape[1])
        return row_space(m)
    monkeypatch.setattr(algebra, "_row_space", recording)
    G, U = _reference_input("fan_in", 3)
    _, report = decompose(U, G, seed=0)
    assert report.status == "Success"
    assert columns.count(729) == 0


def test_chain2_closure_at_base_4_stops_at_irreducibility(monkeypatch):
    # the top node's reduction onto its 16-dim legs is irreducible from
    # its 33-element seed's generic pair, so no closure round solves for
    # the rank of a product stack on the 256 matrix-entry columns
    import causaldeco.algebra as algebra
    row_space = algebra._row_space
    shapes = []

    def recording(m):
        shapes.append(m.shape)
        return row_space(m)
    monkeypatch.setattr(algebra, "_row_space", recording)
    G, U = _reference_input("chain2", 4)
    _, report = decompose(U, G, seed=0)
    assert report.status == "Success"
    assert max(rows for rows, cols in shapes if cols == 256) == 33
