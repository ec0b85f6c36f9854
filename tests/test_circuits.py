"""Circuit container, composition, uniform dims, serialization."""

import numpy as np
import pytest

from causaldeco.causal import causal_structure
from causaldeco.circuits import (FRAME_DIM_CAP, Circuit, circuit_from_json,
                                 circuit_to_json, compose, compose_matrix,
                                 fix_gate_phase, node_input_legs,
                                 node_output_legs,
                                 random_circuit_unitary, uniform_dims)
from causaldeco.errors import InputError
from causaldeco.lattice import ConceptLattice, ConceptNode, \
    build_concept_lattice, connectivity
from causaldeco.relations import (c3_relation, chain2_relation,
                                  fan_in_relation, fan_out_relation,
                                  overlapping_fans_relation, swap_relation)


def c3_shape():
    return build_concept_lattice(c3_relation())


def test_leg_order_convention():
    # Nodes of the C3 lattice sorted by (|alpha|, alpha):
    # 0:({a2}, b*), 1:({a1,a2},{b1,b2}), 2:({a2,a3},{b2,b3}), 3:(all,{b2}).
    shape = c3_shape()
    assert node_input_legs(shape, 0) == [("in", "a2")]
    assert node_output_legs(shape, 0) == [("wire", (0, 1)), ("wire", (0, 2))]
    assert node_input_legs(shape, 1) == [("in", "a1"), ("wire", (0, 1))]
    assert node_output_legs(shape, 1) == [("wire", (1, 3)), ("out", "b1")]
    assert node_input_legs(shape, 3) == [("wire", (1, 3)), ("wire", (2, 3))]
    assert node_output_legs(shape, 3) == [("out", "b2")]


# -- uniform dims against hand-balanced exponent tables ------------------


def test_uniform_dims_c3():
    # Hand balance: node 0 has one input and two usable out-wires, so a2
    # gets exponent 2; symmetrically b2 at the top.  All wires usable.
    in_dims, out_dims, wire_dims = uniform_dims(c3_shape())
    assert in_dims == {"a1": 2, "a2": 4, "a3": 2}
    assert out_dims == {"b1": 2, "b2": 4, "b3": 2}
    assert wire_dims == {(0, 1): 2, (0, 2): 2, (1, 3): 2, (2, 3): 2}


def test_uniform_dims_fans():
    # Hand computation over the seven-node lattice: wires into the bottom
    # or out of the top carry nothing (no input below / output above), so
    # only (1,3),(1,5),(2,4),(4,5) are usable.  Balancing exponents per
    # node gives input dims (2,4,2,4) and output dims (2,2,4,2,2).
    shape = build_concept_lattice(overlapping_fans_relation())
    in_dims, out_dims, wire_dims = uniform_dims(shape)
    assert in_dims == {"1": 2, "2": 4, "3": 2, "4": 4}
    assert out_dims == {"a": 2, "b": 2, "c": 4, "d": 2, "e": 2}
    usable = {edge for edge, d in wire_dims.items() if d == 2}
    assert usable == {(1, 3), (1, 5), (2, 4), (4, 5)}
    assert all(d in (1, 2) for d in wire_dims.values())


def test_uniform_dims_small_shapes():
    # chain2: a1 reaches b1 only, a2 both.  Two nodes; the bottom node
    # holds a2 and b2, the top holds a1 and b1; one usable wire.
    in_dims, out_dims, wire_dims = uniform_dims(
        build_concept_lattice(chain2_relation()))
    assert (in_dims, out_dims) == ({"a1": 2, "a2": 4}, {"b1": 4, "b2": 2})
    assert wire_dims == {(0, 1): 2}

    # swap: both crossings sit on the antichain nodes; every wire touches
    # the empty bottom or the outputless top, hence dimension 1.
    in_dims, out_dims, wire_dims = uniform_dims(
        build_concept_lattice(swap_relation()))
    assert (in_dims, out_dims) == ({"a1": 2, "a2": 2}, {"b1": 2, "b2": 2})
    assert set(wire_dims.values()) == {1}

    # fan-in / fan-out collapse to a single node; the lone leg on the
    # short side absorbs the whole exponent budget.
    in_dims, out_dims, wire_dims = uniform_dims(
        build_concept_lattice(fan_in_relation()))
    assert (in_dims, out_dims, wire_dims) == (
        {"a1": 2, "a2": 2, "a3": 2}, {"b1": 8}, {})
    in_dims, out_dims, wire_dims = uniform_dims(
        build_concept_lattice(fan_out_relation()))
    assert (in_dims, out_dims, wire_dims) == (
        {"a1": 8}, {"b1": 2, "b2": 2, "b3": 2}, {})


def test_uniform_dims_every_gate_square():
    for rel in (c3_relation(), chain2_relation(), swap_relation(),
                fan_in_relation(), fan_out_relation(),
                overlapping_fans_relation()):
        shape = build_concept_lattice(rel)
        in_dims, out_dims, wire_dims = uniform_dims(shape)

        def dim(leg):
            kind, key = leg
            if kind == "in":
                return in_dims[key]
            if kind == "out":
                return out_dims[key]
            return wire_dims[key]

        for v in range(len(shape)):
            din = int(np.prod([dim(l) for l in node_input_legs(shape, v)]))
            dout = int(np.prod([dim(l) for l in node_output_legs(shape, v)]))
            assert din == dout, (rel, v)


# -- composition ---------------------------------------------------------


def test_compose_chain_of_identities():
    # chain2 shape with a dim-1 wire and identity gates routes each input
    # straight to the same-node output: the composite is the identity.
    shape = build_concept_lattice(chain2_relation())
    circuit = Circuit(shape, {(0, 1): 1},
                      {"a1": 2, "a2": 2}, {"b1": 2, "b2": 2},
                      {0: np.eye(2), 1: np.eye(2)})
    U = compose(circuit)
    assert np.allclose(U.matrix, np.eye(4))
    assert U.in_space.labels == ("a1", "a2")
    assert U.out_space.labels == ("b1", "b2")


def test_compose_c3_identity_gates_dim1_wires():
    # With all wires dim 1 the bottom and top legs (a2, b2) must have
    # dimension 1 for square gates; the composite is 1 on a1 (x) a3.
    shape = c3_shape()
    wire_dims = {edge: 1 for edge in shape.covers}
    circuit = Circuit(shape, wire_dims,
                      {"a1": 2, "a2": 1, "a3": 2},
                      {"b1": 2, "b2": 1, "b3": 2},
                      {0: np.eye(1), 1: np.eye(2), 2: np.eye(2),
                       3: np.eye(1)})
    U = compose(circuit)
    assert np.allclose(U.matrix, np.eye(4))


def cnot_matrix():
    # control first leg, target second
    m = np.zeros((4, 4))
    for x1 in (0, 1):
        for x2 in (0, 1):
            m[2 * x1 + (x1 ^ x2), 2 * x1 + x2] = 1.0
    return m


def classical_copy_c3_circuit():
    """Connectivity-C3 diamond composing exactly to the controlled-sum
    permutation: copy isometry at the bottom, CNOTs at the middle nodes,
    match co-isometry at the top.  The copy and match gates are
    rectangular, so the circuit is not a unitary circuit.
    """
    shape = c3_shape()
    copy = np.zeros((4, 2))
    copy[0, 0] = copy[3, 1] = 1.0          # |x> -> |x,x>
    match = copy.T.copy()                  # |x,x> -> |x>
    # node 1: legs (a1, z01) -> (z13, b1): (x1, x2) -> (x2, x1+x2)
    g1 = np.zeros((4, 4))
    for x1 in (0, 1):
        for x2 in (0, 1):
            g1[2 * x2 + (x1 ^ x2), 2 * x1 + x2] = 1.0
    # node 2: legs (a3, z02) -> (z23, b3): (x3, x2) -> (x2, x2+x3);
    # attached inputs precede incoming wires
    g2 = np.zeros((4, 4))
    for x2 in (0, 1):
        for x3 in (0, 1):
            g2[2 * x2 + (x2 ^ x3), 2 * x3 + x2] = 1.0
    wire_dims = {(0, 1): 2, (0, 2): 2, (1, 3): 2, (2, 3): 2}
    dims = {"a1": 2, "a2": 2, "a3": 2}
    odims = {"b1": 2, "b2": 2, "b3": 2}
    return Circuit(shape, wire_dims, dims, odims,
                   {0: copy, 1: g1, 2: g2, 3: match})


def u3_matrix():
    # (x1, x2, x3) -> (x1+x2, x2, x2+x3), bits most significant first
    m = np.zeros((8, 8))
    for x1 in (0, 1):
        for x2 in (0, 1):
            for x3 in (0, 1):
                m[4 * (x1 ^ x2) + 2 * x2 + (x2 ^ x3),
                  4 * x1 + 2 * x2 + x3] = 1.0
    return m


def test_compose_classical_copy_circuit_is_u3():
    circuit = classical_copy_c3_circuit()
    assert not circuit.gates_unitary()
    U = compose(circuit)
    assert np.array_equal(U.matrix, u3_matrix())
    assert connectivity(circuit.shape).same_pairs(c3_relation())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_circuit_rejects_non_finite_gates(bad):
    circuit, _ = random_circuit_unitary(chain2_relation(), seed=0)
    gates = {v: g.copy() for v, g in circuit.gates.items()}
    gates[0][0, 0] = bad
    with pytest.raises(InputError, match="non-finite"):
        Circuit(circuit.shape, circuit.wire_dims, circuit.in_dims,
                circuit.out_dims, gates)


def test_overflowing_gate_is_not_unitary():
    # finite entries whose g^dag g holds inf - inf: the NaN residual must
    # survive the max over gates and fail the unitarity test
    circuit, _ = random_circuit_unitary(chain2_relation(), seed=0)
    g = np.full(circuit.gates[0].shape, 1e200, dtype=complex)
    g[0, 1] = -1e200
    circuit.gates[0] = g
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(circuit.gate_unitarity_residual())
        assert not circuit.gates_unitary()


def test_compose_two_cnot_chain_is_u3():
    # Hand-built two-box chain: box 0 takes (a1, a2) and emits b1 plus
    # the middle qubit on a wire; box 1 takes (wire, a3) and emits
    # (b2, b3).  Composite must be the same permutation.
    shape = ConceptLattice(
        ("a1", "a2", "a3"), ("b1", "b2", "b3"),
        [ConceptNode(("p",), ("x",)), ConceptNode(("p", "q"), ("y",))],
        [(0, 1)],
        {"a1": 0, "a2": 0, "a3": 1},
        {"b1": 0, "b2": 1, "b3": 1})
    # box 0 legs: (a1, a2) -> (z, b1) = (x2, x1+x2)
    g0 = np.zeros((4, 4))
    for x1 in (0, 1):
        for x2 in (0, 1):
            g0[2 * x2 + (x1 ^ x2), 2 * x1 + x2] = 1.0
    # box 1 legs: (a3, z) -> (b2, b3) = (z, z+x3); attached inputs come
    # before incoming wires, so a3 is the first input leg
    g1 = np.zeros((4, 4))
    for x3 in (0, 1):
        for z in (0, 1):
            g1[2 * z + (z ^ x3), 2 * x3 + z] = 1.0
    circuit = Circuit(shape, {(0, 1): 2},
                      {"a1": 2, "a2": 2, "a3": 2},
                      {"b1": 2, "b2": 2, "b3": 2},
                      {0: g0, 1: g1})
    assert circuit.gates_unitary()
    U = compose(circuit)
    assert np.array_equal(U.matrix, u3_matrix())
    # the chain shape shows no path from a3 to b1 but does have one from
    # a1 to b3, so its connectivity strictly contains C3
    G = connectivity(shape)
    assert ("a3", "b1") not in G
    assert ("a1", "b3") in G


def test_compose_wire_reassociation():
    # SWAP gate at a single node exercises leg ordering inside one gate:
    # legs (a1, a2) -> (b1, b2) with the qubits crossed.
    shape = ConceptLattice(("a1", "a2"), ("b1", "b2"),
                           [ConceptNode(("p",), ("x",))], [],
                           {"a1": 0, "a2": 0}, {"b1": 0, "b2": 0})
    swap = np.zeros((4, 4))
    for x in (0, 1):
        for y in (0, 1):
            swap[2 * y + x, 2 * x + y] = 1.0
    circuit = Circuit(shape, {}, {"a1": 2, "a2": 2}, {"b1": 2, "b2": 2},
                      {0: swap})
    U = compose(circuit)
    psi = np.kron([1.0, 0.0], [0.0, 1.0])        # |0>|1>
    out = U.matrix @ psi
    assert np.allclose(out, np.kron([0.0, 1.0], [1.0, 0.0]))


def test_compose_validates_gate_shapes():
    shape = build_concept_lattice(chain2_relation())
    with pytest.raises(InputError):
        Circuit(shape, {(0, 1): 2}, {"a1": 2, "a2": 4}, {"b1": 4, "b2": 2},
                {0: np.eye(3), 1: np.eye(8)})
    with pytest.raises(InputError):
        Circuit(shape, {}, {"a1": 2, "a2": 4}, {"b1": 4, "b2": 2},
                {0: np.eye(8), 1: np.eye(8)})
    with pytest.raises(InputError):
        Circuit(shape, {(0, 1): 2, (1, 0): 2}, {"a1": 2, "a2": 4},
                {"b1": 4, "b2": 2}, {0: np.eye(8), 1: np.eye(8)})


def test_compose_refuses_a_frame_over_the_cap():
    # a wide wire between two rectangular gates: the frame after node 0
    # holds the wire, and it is refused before its matrix is formed
    shape = build_concept_lattice(chain2_relation())
    wide = FRAME_DIM_CAP + 1
    circuit = Circuit(shape, {(0, 1): wide}, {"a1": 1, "a2": 2},
                      {"b1": 1, "b2": 1},
                      {0: np.ones((wide, 2)), 1: np.ones((1, wide))})
    with pytest.raises(InputError, match=f"intermediate dimension {wide}"):
        compose_matrix(circuit)


# -- random circuits -----------------------------------------------------


def test_random_circuit_unitary_soundness_spot():
    for seed in range(3):
        circuit, U = random_circuit_unitary(c3_relation(), seed=seed)
        assert circuit.gates_unitary()
        G = causal_structure(U)
        assert G.pairs <= c3_relation().pairs, seed


def test_random_circuit_unitary_wire_dims_one():
    # all wires dim 1 forces a tensor product of local gates; influence
    # can only join legs attached to the same node
    shape = build_concept_lattice(swap_relation())
    wire_dims = {edge: 1 for edge in shape.covers}
    leg_dims = {"a1": 2, "a2": 2, "b1": 2, "b2": 2}
    circuit, U = random_circuit_unitary(swap_relation(), wire_dims=wire_dims,
                                        leg_dims=leg_dims, seed=5)
    G = causal_structure(U)
    for a, b in G.pairs:
        assert shape.lam[a] == shape.mu[b]


def test_random_circuit_unitary_full_1x1():
    from causaldeco.relations import full_relation
    circuit, U = random_circuit_unitary(full_relation(("a1",), ("b1",)),
                                        wire_dims={}, leg_dims={"a1": 2,
                                                                "b1": 2},
                                        seed=3)
    assert U.matrix.shape == (2, 2)
    resid = np.linalg.norm(U.matrix.conj().T @ U.matrix - np.eye(2))
    assert resid < 1e-12


def test_random_circuit_unitary_deterministic():
    c1, u1 = random_circuit_unitary(chain2_relation(), seed=11)
    c2, u2 = random_circuit_unitary(chain2_relation(), seed=11)
    assert np.array_equal(u1.matrix, u2.matrix)
    c3, u3 = random_circuit_unitary(chain2_relation(), seed=12)
    assert not np.allclose(u1.matrix, u3.matrix)


def test_random_circuit_unitary_rejects_partial_dims():
    with pytest.raises(InputError):
        random_circuit_unitary(chain2_relation(), wire_dims={(0, 1): 2})
    with pytest.raises(InputError):
        random_circuit_unitary(chain2_relation(),
                               wire_dims={(0, 1): 3},
                               leg_dims={"a1": 2, "a2": 2, "b1": 2, "b2": 2})


def test_fix_gate_phase():
    rng = np.random.default_rng(0)
    g = np.exp(1j * 0.7) * np.eye(3)
    fixed = fix_gate_phase(g)
    assert np.allclose(fixed, np.eye(3))
    from causaldeco.tensorspace import haar_unitary
    u = haar_unitary(4, rng)
    fixed = fix_gate_phase(u)
    k = np.argmax(np.abs(fixed))
    assert fixed.flat[k].imag == pytest.approx(0.0, abs=1e-14)
    assert fixed.flat[k].real > 0
    # idempotent
    assert np.allclose(fix_gate_phase(fixed), fixed)


# -- serialization -------------------------------------------------------


def test_circuit_json_round_trip():
    circuit, U = random_circuit_unitary(c3_relation(), seed=7)
    text = circuit_to_json(circuit)
    back = circuit_from_json(text)
    assert back.wire_dims == circuit.wire_dims
    assert back.in_dims == circuit.in_dims
    assert back.out_dims == circuit.out_dims
    for v in circuit.gates:
        assert np.allclose(back.gates[v], circuit.gates[v])
    U2 = compose(back)
    assert np.allclose(U2.matrix, U.matrix)


def test_circuit_json_round_trip_rectangular():
    circuit = classical_copy_c3_circuit()
    back = circuit_from_json(circuit_to_json(circuit))
    assert np.array_equal(compose_matrix(back), u3_matrix())


def test_circuit_json_header_and_errors():
    import json as _json
    circuit = classical_copy_c3_circuit()
    doc = _json.loads(circuit_to_json(circuit))
    assert "leg_order" in doc
    assert next(iter(doc)) == "leg_order"
    assert doc["wire_dims"]["0->1"] == 2
    del doc["gates"]["0"]
    with pytest.raises(InputError):
        circuit_from_json(_json.dumps(doc))
    with pytest.raises(InputError):
        circuit_from_json("{not json")
    with pytest.raises(InputError):
        circuit_from_json('{"inputs": []}')
