"""Concept lattice construction, order operations, shape serialization.

Frozen node/cover tables below were derived by hand: list the parent
sets, close them under intersection, and read off covers and the
attachment maps.
"""

import pytest

from causaldeco.errors import InputError
from causaldeco.lattice import (build_concept_lattice, check_c3ep_lattice,
                                connectivity, count_paths,
                                enumerate_closed_input_sets,
                                overlap_lemma_check, shape_from_json,
                                shape_to_json, to_dot)
from causaldeco.relations import (Relation, c3_relation, chain2_relation,
                                  fan_in_relation, fan_out_relation,
                                  overlapping_fans_relation, swap_relation)


# Hand-derived closure of {1234, 12, 12, 234, 34, 4} under intersection.
FANS_ALPHAS = [(), ("2",), ("4",), ("1", "2"), ("3", "4"),
               ("2", "3", "4"), ("1", "2", "3", "4")]
FANS_BETAS = [("a", "b", "c", "d", "e"), ("a", "b", "c"), ("c", "d", "e"),
              ("a", "b"), ("c", "d"), ("c",), ()]
FANS_COVERS = [(0, 1), (0, 2), (1, 3), (1, 5), (2, 4), (3, 6), (4, 5), (5, 6)]
FANS_LAM = {"1": 3, "2": 1, "3": 4, "4": 2}
FANS_MU = {"a": 3, "b": 3, "c": 5, "d": 4, "e": 2}


def test_closed_sets_reference():
    G = overlapping_fans_relation()
    closed = enumerate_closed_input_sets(G)
    assert [tuple(sorted(s)) for s in closed] == FANS_ALPHAS


def test_reference_lattice_nodes_covers_attachments():
    shape = build_concept_lattice(overlapping_fans_relation())
    assert [nd.alpha for nd in shape.nodes] == FANS_ALPHAS
    assert [nd.beta for nd in shape.nodes] == FANS_BETAS
    assert sorted(shape.covers) == FANS_COVERS
    assert shape.lam == FANS_LAM
    assert shape.mu == FANS_MU
    assert shape.bottom() == 0
    assert shape.top() == 6
    # Input 3 attaches at the node pairing {3,4} with {c,d}.
    nd = shape.nodes[shape.lam["3"]]
    assert nd.alpha == ("3", "4") and nd.beta == ("c", "d")


def test_connectivity_reproduces_the_relation():
    for G in (overlapping_fans_relation(), c3_relation(), swap_relation(),
              chain2_relation(), fan_in_relation(3), fan_out_relation(3)):
        shape = build_concept_lattice(G)
        assert connectivity(shape).same_pairs(G)


# Hand-derived diamond for the forbidden pattern: bottom {a2}, middle
# {a1,a2} and {a2,a3}, top {a1,a2,a3}.
C3_ALPHAS = [("a2",), ("a1", "a2"), ("a2", "a3"), ("a1", "a2", "a3")]
C3_BETAS = [("b1", "b2", "b3"), ("b1", "b2"), ("b2", "b3"), ("b2",)]


def test_pattern_lattice_is_a_diamond():
    shape = build_concept_lattice(c3_relation())
    assert [nd.alpha for nd in shape.nodes] == C3_ALPHAS
    assert [nd.beta for nd in shape.nodes] == C3_BETAS
    assert sorted(shape.covers) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert shape.lam == {"a1": 1, "a2": 0, "a3": 2}
    assert shape.mu == {"b1": 1, "b2": 3, "b3": 2}
    assert not shape.leq(1, 2) and not shape.leq(2, 1)


def test_path_counts():
    shape = build_concept_lattice(c3_relation())
    # Two cover chains from bottom to top of the diamond.
    assert count_paths(shape, "a2", "b2") == 2
    assert count_paths(shape, "a1", "b1") == 1
    assert count_paths(shape, "a1", "b3") == 0
    fans = build_concept_lattice(overlapping_fans_relation())
    for a in "1234":
        for b in "abcde":
            assert count_paths(fans, a, b) <= 1


def test_lattice_c3_check_agreement_and_evidence():
    fans = build_concept_lattice(overlapping_fans_relation())
    res = check_c3ep_lattice(fans)
    assert res.satisfied and res.evidence is None
    res = check_c3ep_lattice(build_concept_lattice(c3_relation()))
    assert not res.satisfied
    # First doubly connected pair in sorted scan order.
    assert res.evidence == ("a2", "b2", 2)


def test_overlap_lemma_check():
    # One branching node with nonempty alpha in the reference lattice.
    def check(G):
        return overlap_lemma_check(build_concept_lattice(G))
    assert check(overlapping_fans_relation()) == 1
    assert check(chain2_relation()) == 0
    with pytest.raises(InputError):
        check(c3_relation())


def test_small_shapes():
    shape = build_concept_lattice(swap_relation())
    assert [nd.alpha for nd in shape.nodes] == [
        (), ("a1",), ("a2",), ("a1", "a2")]
    assert sorted(shape.covers) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert shape.lam == {"a1": 1, "a2": 2}
    assert shape.mu == {"b1": 2, "b2": 1}

    shape = build_concept_lattice(chain2_relation())
    assert [nd.alpha for nd in shape.nodes] == [("a2",), ("a1", "a2")]
    assert sorted(shape.covers) == [(0, 1)]

    shape = build_concept_lattice(fan_in_relation(3))
    assert len(shape.nodes) == 1 and shape.covers == ()
    shape = build_concept_lattice(fan_out_relation(3))
    assert len(shape.nodes) == 1 and shape.covers == ()


def test_to_dot_deterministic_and_complete():
    shape = build_concept_lattice(overlapping_fans_relation())
    dot = to_dot(shape)
    assert dot == to_dot(shape)
    assert "n0 -> n1;" in dot
    assert 'in_1 [shape=plaintext, label="1"];' in dot
    assert "n2 -> out_e [style=dashed];" in dot
    assert "rank=same" in dot


def test_shape_json_round_trip():
    shape = build_concept_lattice(overlapping_fans_relation())
    data = shape_to_json(shape)
    again = shape_from_json(data)
    assert [nd.alpha for nd in again.nodes] == FANS_ALPHAS
    assert sorted(again.covers) == FANS_COVERS
    assert again.lam == FANS_LAM and again.mu == FANS_MU
    assert connectivity(again).same_pairs(overlapping_fans_relation())
    with pytest.raises(InputError):
        shape_from_json({"inputs": []})
    bad = shape_to_json(shape)
    bad["covers"] = [[0, 0]]
    with pytest.raises(InputError):
        shape_from_json(bad)


def test_closed_set_guard():
    big = Relation(tuple(f"a{i}" for i in range(13)), ("b",), frozenset())
    with pytest.raises(InputError):
        enumerate_closed_input_sets(big)
