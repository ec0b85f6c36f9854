"""Reference channels and the sector certificate for non-decomposability."""

import itertools

import numpy as np
import pytest

from causaldeco.causal import UnitaryChannel, causal_structure
from causaldeco.circuits import random_circuit_unitary
from causaldeco.errors import InputError, NumericsError
from causaldeco.gallery import (build_counterexample, group_legs,
                                loose_wires_c3, obstruction_witness, u3)
from causaldeco.relations import Relation, c3_relation, chain2_relation, \
    full_relation
from causaldeco.tensorspace import TensorSpace, haar_unitary

C3 = c3_relation()


def u3_hand_matrix():
    # oracle: CNOT truth tables worked by hand,
    # (x1, x2, x3) -> (x1 xor x2, x2, x2 xor x3)
    m = np.zeros((8, 8))
    for x1, x2, x3 in itertools.product((0, 1), repeat=3):
        m[4 * (x1 ^ x2) + 2 * x2 + (x2 ^ x3), 4 * x1 + 2 * x2 + x3] = 1.0
    return m


def test_u3_matches_hand_truth_table():
    assert np.array_equal(u3().matrix.real, u3_hand_matrix())
    assert np.array_equal(u3().matrix.imag, np.zeros((8, 8)))


def test_u3_self_inverse():
    m = u3().matrix
    assert np.allclose(m @ m, np.eye(8))


def test_u3_leg_labels_and_dims():
    ch = u3()
    assert ch.in_space.factors == (("a1", 2), ("a2", 2), ("a3", 2))
    assert ch.out_space.factors == (("b1", 2), ("b2", 2), ("b3", 2))


def test_u3_causal_structure_is_c3():
    got = causal_structure(u3())
    assert got.same_pairs(C3)
    # the only missing influences are the two outer-diagonal ones
    assert ("a1", "b3") not in got.pairs
    assert ("a3", "b1") not in got.pairs
    assert len(got.pairs) == 7


def loose_wires_hand_matrix():
    # oracle: the seven-qubit routing written down directly, by hand.
    # in packing  (a1, a2, a3) = ((p1, p2), (q1, q2, q3), (r2, r3)),
    # out packing (b1, b2, b3) = ((p1, q1), (p2, q2, r2), (q3, r3))
    m = np.zeros((128, 128))
    for p1, p2, q1, q2, q3, r2, r3 in itertools.product((0, 1), repeat=7):
        src = 64 * p1 + 32 * p2 + 16 * q1 + 8 * q2 + 4 * q3 + 2 * r2 + r3
        dst = 64 * p1 + 32 * q1 + 16 * p2 + 8 * q2 + 4 * r2 + 2 * q3 + r3
        m[dst, src] = 1.0
    return m


def test_loose_wires_matches_hand_routing():
    _, ch = loose_wires_c3()
    assert ch.in_space.factors == (("a1", 4), ("a2", 8), ("a3", 4))
    assert ch.out_space.factors == (("b1", 4), ("b2", 8), ("b3", 4))
    assert np.array_equal(ch.matrix.real, loose_wires_hand_matrix())
    assert np.array_equal(ch.matrix.imag, np.zeros((128, 128)))


def test_loose_wires_causal_structure_is_c3():
    _, ch = loose_wires_c3()
    assert causal_structure(ch).same_pairs(C3)


def test_loose_wires_circuit_is_canonical_and_unitary():
    circ, _ = loose_wires_c3()
    assert [n.alpha for n in circ.shape.nodes] == [
        ("a2",), ("a1", "a2"), ("a2", "a3"), ("a1", "a2", "a3")]
    assert circ.gates_unitary()
    for g in circ.gates.values():
        # every gate is a 0/1 permutation matrix
        assert np.array_equal(np.unique(g), np.array([0.0, 1.0]))
        assert np.array_equal(g.sum(axis=0), np.ones(g.shape[1]))
        assert np.array_equal(g.sum(axis=1), np.ones(g.shape[0]))


def test_group_legs_identity_grouping_keeps_matrix():
    ch = u3()
    got = group_legs(ch,
                     [("a1", ["a1"]), ("a2", ["a2"]), ("a3", ["a3"])],
                     [("b1", ["b1"]), ("b2", ["b2"]), ("b3", ["b3"])])
    assert np.array_equal(got.matrix, ch.matrix)
    assert got.in_space.factors == ch.in_space.factors


def test_group_legs_fuses_dims_in_member_order():
    ch = u3()
    got = group_legs(ch, [("L", ["a2", "a1"]), ("R", ["a3"])],
                     [("M", ["b1", "b2", "b3"])])
    assert got.in_space.factors == (("L", 4), ("R", 2))
    assert got.out_space.factors == (("M", 8),)
    expected = ch.with_leg_order(["a2", "a1", "a3"], ["b1", "b2", "b3"])
    assert np.array_equal(got.matrix, expected.matrix)


def test_group_legs_validation():
    ch = u3()
    outs = [("B", ["b1", "b2", "b3"])]
    with pytest.raises(InputError):
        group_legs(ch, [("L", []), ("R", ["a1", "a2", "a3"])], outs)
    with pytest.raises(InputError):
        group_legs(ch, [("L", ["a1", "a2"]), ("R", ["a2", "a3"])], outs)
    with pytest.raises(InputError):
        group_legs(ch, [("L", ["a1", "a2"])], outs)
    with pytest.raises(InputError):
        group_legs(ch, [("L", ["a1", "a2"]), ("R", ["a3", "a9"])], outs)


@pytest.fixture(scope="module")
def counterexample_c3():
    return build_counterexample(C3, seed=0)


def test_build_counterexample_c3(counterexample_c3):
    # the structure is decided from the factors; pin it at the full D
    for U in (counterexample_c3, build_counterexample(C3, seed=1)):
        assert U.in_space.factors == (("a1", 4), ("a2", 8), ("a3", 4))
        assert U.out_space.factors == (("b1", 4), ("b2", 8), ("b3", 4))
        assert causal_structure(U).same_pairs(C3)


def test_build_counterexample_uses_supplied_companion():
    _, V = random_circuit_unitary(C3, seed=123)
    assert causal_structure(V).same_pairs(C3)
    got = build_counterexample(C3, seed=999, companion=V)
    # oracle: fuse V with the hand-written two-CNOT permutation directly
    pin = TensorSpace((("a1", 2), ("a2", 4), ("a3", 2), ("x1", 2),
                       ("x2", 2), ("x3", 2)))
    pout = TensorSpace((("b1", 2), ("b2", 4), ("b3", 2), ("y1", 2),
                        ("y2", 2), ("y3", 2)))
    expected = pout.permutation_to(["b1", "y1", "b2", "y2", "b3", "y3"]) \
        @ np.kron(V.matrix, u3_hand_matrix()) \
        @ pin.permutation_to(["a1", "x1", "a2", "x2", "a3", "x3"]).T
    assert np.array_equal(got.matrix, expected)


def test_build_counterexample_refuses_a_drifted_union(monkeypatch):
    # an extra channel influencing beyond C3 lifts pairs outside G
    import causaldeco.gallery

    def haar_u3():
        ch = u3()
        return UnitaryChannel(haar_unitary(8, np.random.default_rng(0)),
                              ch.in_space, ch.out_space)
    monkeypatch.setattr(causaldeco.gallery, "u3", haar_u3)
    with pytest.raises(NumericsError, match="drifted off the relation"):
        build_counterexample(C3)


def test_build_counterexample_degenerate_companion_falls_back():
    space = TensorSpace((("a1", 2), ("a2", 4), ("a3", 2)))
    outs = TensorSpace((("b1", 2), ("b2", 4), ("b3", 2)))
    ident = UnitaryChannel(np.eye(16), space, outs)
    # identity influences only matching legs, so it fails the companion
    # structure check and the seeded search must take over
    got = build_counterexample(C3, seed=0, companion=ident)
    assert causal_structure(got).same_pairs(C3)
    pin = TensorSpace((("a1", 2), ("a2", 4), ("a3", 2), ("x1", 2),
                       ("x2", 2), ("x3", 2)))
    pout = TensorSpace((("b1", 2), ("b2", 4), ("b3", 2), ("y1", 2),
                        ("y2", 2), ("y3", 2)))
    from_identity = pout.permutation_to(["b1", "y1", "b2", "y2", "b3",
                                         "y3"]) \
        @ np.kron(np.eye(16), u3_hand_matrix()) \
        @ pin.permutation_to(["a1", "x1", "a2", "x2", "a3", "x3"]).T
    assert not np.allclose(got.matrix, from_identity)


def test_build_counterexample_rejects_satisfying_relation():
    with pytest.raises(InputError):
        build_counterexample(chain2_relation())


def test_build_counterexample_companion_label_mismatch():
    space = TensorSpace((("x1", 2), ("x2", 4), ("x3", 2)))
    outs = TensorSpace((("y1", 2), ("y2", 4), ("y3", 2)))
    with pytest.raises(InputError):
        build_counterexample(C3, companion=UnitaryChannel(
            np.eye(16), space, outs))


def test_obstruction_witness_u3_two_sectors():
    deco = obstruction_witness(u3(), C3)
    # hand derivation: both cover algebras reduce to the diagonal algebra
    # on the middle qubit, so the certificate is its two basis sectors
    assert deco.n_sectors == 2
    assert deco.a_space.factors == (("P2", 2),)
    assert deco.sectors == ((1, 1), (1, 1))
    total = sum(deco.projectors)
    assert np.allclose(total, np.eye(2))
    for p in deco.projectors:
        assert np.allclose(p @ p, p)
        assert np.isclose(np.trace(p).real, 1.0)


def test_obstruction_witness_counterexample(counterexample_c3, monkeypatch):
    import causaldeco.algebra
    reduce = causaldeco.algebra.reduce_onto_legs
    calls = []

    def counting(B, target_labels):
        calls.append(list(target_labels))
        return reduce(B, target_labels)
    monkeypatch.setattr(causaldeco.algebra, "reduce_onto_legs", counting)
    deco = obstruction_witness(counterexample_c3, C3)
    # the lemma hands its reductions on to the sector split: one per
    # cover algebra
    assert calls == [["P2"], ["P2"]]
    # hand derivation: the companion contributes a 2x2 factor per cover
    # and the extra qubit's diagonal still cuts two sectors
    assert deco.n_sectors == 2
    assert deco.sectors == ((2, 2), (2, 2))
    assert np.allclose(sum(deco.projectors), np.eye(8))


def test_obstruction_witness_reduces_from_generic_elements(
        counterexample_c3, monkeypatch):
    # the reductions onto P2 (d_t = 8, d_rest = 16) close the blocks of
    # two generic elements, 2 x 256 of them, not of the 16-element basis
    # (4096 blocks)
    import causaldeco.algebra
    row_space = causaldeco.algebra._row_space
    reduce = causaldeco.algebra.reduce_onto_legs
    rows, inside = [], []

    def recording(m):
        if inside:
            rows.append(m.shape[0])
        return row_space(m)

    def reducing(B, target_labels):
        inside.append(True)
        try:
            return reduce(B, target_labels)
        finally:
            inside.pop()
    monkeypatch.setattr(causaldeco.algebra, "_row_space", recording)
    monkeypatch.setattr(causaldeco.algebra, "reduce_onto_legs", reducing)
    deco = obstruction_witness(counterexample_c3, C3)
    assert deco.sectors == ((2, 2), (2, 2))
    assert rows and max(rows) <= 512, rows


def test_obstruction_witness_forms_no_image_basis(counterexample_c3,
                                                 monkeypatch):
    # the lemma reads both images from their rows: no d_beta^2 x D x D
    # basis is formed at D = 128
    import causaldeco.algebra

    def refusing(self):
        raise AssertionError("an image basis was formed")
    monkeypatch.setattr(causaldeco.algebra.RowImage, "basis",
                        property(refusing))
    deco = obstruction_witness(counterexample_c3, C3)
    assert deco.sectors == ((2, 2), (2, 2))


def test_obstruction_witness_draws_each_algebra_once(counterexample_c3,
                                                     monkeypatch):
    # the commutation and support checks and the reductions read one
    # cached sequence of generic elements per algebra, bit for bit the
    # sequence a fresh draw gives, and each algebra's pair is read once
    import causaldeco.algebra
    algebra = causaldeco.algebra
    fresh = algebra._generic_elements
    test_elements = algebra.MatrixSubalgebra.test_elements
    drawn, pairs = [], []

    def drawing(S, count):
        drawn.append(S)
        return fresh(S, count)

    def reading(self):
        pairs.append((self, test_elements(self)))
        return pairs[-1][1]
    monkeypatch.setattr(algebra, "_generic_elements", drawing)
    monkeypatch.setattr(algebra.MatrixSubalgebra, "test_elements", reading)
    deco = obstruction_witness(counterexample_c3, C3)
    assert deco.sectors == ((2, 2), (2, 2))
    assert drawn and len(pairs) == len(drawn)
    assert all(sum(s is S for s in drawn) == 1 for S in drawn)
    for S, pair in pairs:
        assert np.array_equal(pair, fresh(S, 2))
        assert not pair.flags.writeable


@pytest.fixture(scope="module")
def spectator_pair():
    G4 = Relation(("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4"),
                  C3.pairs | {("a4", "b4")})
    return G4, build_counterexample(G4, seed=0)


def test_build_counterexample_spectator_pair(spectator_pair):
    # the D=256 route must agree with the structure read off the factors
    G4, U4 = spectator_pair
    for U in (U4, build_counterexample(G4, seed=1)):
        assert U.in_space.factors == (("a1", 4), ("a2", 8), ("a3", 4),
                                      ("a4", 2))
        assert U.dim == 256
        assert causal_structure(U).same_pairs(G4)


def test_obstruction_witness_with_spectators(spectator_pair):
    G4, U4 = spectator_pair
    deco = obstruction_witness(U4, G4)
    assert deco.n_sectors >= 2
    assert deco.a_space.factors == (("P2", 8), ("P4", 2))
    assert np.allclose(sum(deco.projectors), np.eye(16))


def test_obstruction_witness_rejects_satisfying_relation():
    with pytest.raises(InputError):
        obstruction_witness(u3(), full_relation(("a1", "a2", "a3"),
                                                ("b1", "b2", "b3")))


def test_obstruction_witness_rejects_label_mismatch():
    other = Relation(("x1", "x2", "x3"), ("y1", "y2", "y3"),
                     frozenset((a.replace("a", "x"), b.replace("b", "y"))
                               for a, b in C3.pairs))
    with pytest.raises(InputError):
        obstruction_witness(u3(), other)


def test_obstruction_witness_needs_the_no_influence_pairs():
    # a generic unitary influences every pair, so the support checks of
    # the bottom-node step must abort
    rng = np.random.default_rng(5)
    space = TensorSpace((("a1", 2), ("a2", 2), ("a3", 2)))
    outs = TensorSpace((("b1", 2), ("b2", 2), ("b3", 2)))
    full = UnitaryChannel(haar_unitary(8, rng), space, outs)
    with pytest.raises(NumericsError):
        obstruction_witness(full, C3)
