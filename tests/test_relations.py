"""Relation layer: Galois maps, restriction, C3 exclusion, JSON."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from causaldeco.errors import InputError
from causaldeco.relations import (C3Witness, Relation, c3_relation, chain2_relation,
                                  check_c3ep, children, closure_inputs,
                                  closure_outputs, common_children,
                                  common_parents, fan_in_relation,
                                  fan_out_relation, full_relation,
                                  overlapping_fans_relation, parents,
                                  relation_from_json, relation_to_json,
                                  restrict, swap_relation)


def test_children_parents_reference_relation():
    # Oracle: read directly off the pair list of the overlapping-fans
    # relation (1:{a,b}, 2:{a,b,c}, 3:{c,d}, 4:{c,d,e}).
    G = overlapping_fans_relation()
    assert children(G, "1") == {"a", "b"}
    assert children(G, "2") == {"a", "b", "c"}
    assert children(G, "3") == {"c", "d"}
    assert children(G, "4") == {"c", "d", "e"}
    assert parents(G, "a") == {"1", "2"}
    assert parents(G, "b") == {"1", "2"}
    assert parents(G, "c") == {"2", "3", "4"}
    assert parents(G, "d") == {"3", "4"}
    assert parents(G, "e") == {"4"}


def test_common_maps_and_empty_sets():
    G = overlapping_fans_relation()
    assert common_children(G, set()) == {"a", "b", "c", "d", "e"}
    assert common_parents(G, set()) == {"1", "2", "3", "4"}
    assert common_children(G, {"1", "2"}) == {"a", "b"}
    assert common_children(G, {"2", "3"}) == {"c"}
    assert common_parents(G, {"c", "d"}) == {"3", "4"}
    assert common_parents(G, {"a", "c"}) == {"2"}
    C3 = c3_relation()
    assert common_children(C3, {"a1", "a3"}) == {"b2"}
    assert common_parents(C3, {"b1", "b3"}) == {"a2"}


def test_galois_laws_exhaustively_on_reference():
    # Antitone maps, extensive and idempotent closures, checked over all
    # subsets of a fixed 4x5 relation.
    G = overlapping_fans_relation()
    ins = list(G.inputs)
    subsets = [set(c) for r in range(len(ins) + 1)
               for c in itertools.combinations(ins, r)]
    for s in subsets:
        assert s <= closure_inputs(G, s)
        assert closure_inputs(G, closure_inputs(G, s)) == closure_inputs(G, s)
        for t in subsets:
            if s <= t:
                assert common_children(G, t) <= common_children(G, s)
    outs = list(G.outputs)
    for r in range(len(outs) + 1):
        for c in itertools.combinations(outs, r):
            s = set(c)
            assert s <= closure_outputs(G, s)
            assert (closure_outputs(G, closure_outputs(G, s))
                    == closure_outputs(G, s))


def test_restrict():
    G = overlapping_fans_relation()
    R = restrict(G, {"2", "3"}, {"c", "d"})
    assert R.inputs == ("2", "3")
    assert R.outputs == ("c", "d")
    assert R.pairs == {("2", "c"), ("3", "c"), ("3", "d")}
    with pytest.raises(InputError):
        restrict(G, {"nope"}, {"c"})


def test_c3_pattern_detected_with_exact_roles():
    res = check_c3ep(c3_relation())
    assert res.violated
    assert res.witness == C3Witness("a1", "a2", "a3", "b1", "b2", "b3")


def test_c3_first_witness_in_lexicographic_scan_order():
    # Oracle: hand scan.  Adding a full row a0 to the pattern, the first
    # ordered triple matching the roles is (a1, a0, a3) with the original
    # output triple, because every earlier triple fails some role.
    C3 = c3_relation()
    G = Relation(("a0",) + C3.inputs, C3.outputs,
                 C3.pairs | {("a0", "b1"), ("a0", "b2"), ("a0", "b3")})
    res = check_c3ep(G)
    assert res.violated
    assert res.witness == C3Witness("a1", "a0", "a3", "b1", "b2", "b3")


def test_c3_exclusion_holds_on_reference_relations():
    for G in (overlapping_fans_relation(), swap_relation(), chain2_relation(),
              fan_in_relation(3), fan_out_relation(3),
              full_relation(["x", "y"], ["u", "v"]),
              Relation(("a",), ("b",), frozenset())):
        assert check_c3ep(G).satisfied


def test_full_relations_never_contain_the_pattern():
    # The pattern requires two absent pairs, so full relations satisfy
    # the exclusion property at any size.
    for n, m in [(3, 3), (4, 3), (3, 4)]:
        G = full_relation([f"a{i}" for i in range(n)],
                          [f"b{j}" for j in range(m)])
        assert check_c3ep(G).satisfied


def test_pattern_inside_larger_relation():
    G = overlapping_fans_relation()
    # Splice the forbidden pattern onto fresh outputs.
    extra = {("1", "x"), ("1", "y"),
             ("2", "x"), ("2", "y"), ("2", "z"),
             ("3", "y"), ("3", "z")}
    H = Relation(G.inputs, G.outputs + ("x", "y", "z"), G.pairs | extra)
    res = check_c3ep(H)
    assert res.violated
    w = res.witness
    assert (w.a1, w.a2, w.a3) == ("1", "2", "3")


def _pattern_scan(G):
    """Reference oracle: every ordered 3x3 restriction in lexicographic
    order over sorted labels, tested role by role."""
    p = G.pairs
    for a1, a2, a3 in itertools.permutations(sorted(G.inputs), 3):
        for b1, b2, b3 in itertools.permutations(sorted(G.outputs), 3):
            if ((a1, b1) in p and (a1, b2) in p and (a1, b3) not in p
                    and (a2, b1) in p and (a2, b2) in p and (a2, b3) in p
                    and (a3, b1) not in p and (a3, b2) in p
                    and (a3, b3) in p):
                return C3Witness(a1, a2, a3, b1, b2, b3)
    return None


@st.composite
def small_relations(draw, max_side=6):
    """Relations up to max_side labels a side, labels in shuffled order."""
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    ins = draw(st.permutations([f"a{i}" for i in range(n)]))
    outs = draw(st.permutations([f"b{j}" for j in range(m)]))
    cells = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    pairs = [(a, b) for (a, b), on in
             zip(itertools.product(ins, outs), cells) if on]
    return Relation(tuple(ins), tuple(outs), frozenset(pairs))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(G=small_relations())
def test_witness_equals_restriction_scan(G):
    res = check_c3ep(G)
    assert res.witness == _pattern_scan(G)
    assert res.satisfied == (res.witness is None)


def test_relation_validation():
    with pytest.raises(InputError):
        Relation(("a", "a"), ("b",), frozenset())
    with pytest.raises(InputError):
        Relation(("a",), ("b",), frozenset({("a", "zzz")}))
    with pytest.raises(InputError):
        children(overlapping_fans_relation(), "zzz")


def test_json_round_trip_and_validation():
    G = overlapping_fans_relation()
    data = relation_to_json(G)
    assert data["inputs"] == ["1", "2", "3", "4"]
    assert data["pairs"] == sorted(data["pairs"])
    G2 = relation_from_json(data)
    assert G2 == G
    with pytest.raises(InputError):
        relation_from_json("{not json")
    with pytest.raises(InputError):
        relation_from_json({"inputs": ["a"], "outputs": ["b"]})
    with pytest.raises(InputError):
        relation_from_json({"inputs": ["a"], "outputs": ["b"],
                            "pairs": [["a"]]})


def test_empty_sides_permitted():
    G = Relation((), ("b",), frozenset())
    assert common_parents(G, {"b"}) == frozenset()
    assert common_children(G, set()) == {"b"}
    H = Relation(("a",), (), frozenset())
    assert common_children(H, {"a"}) == frozenset()
    assert check_c3ep(G).satisfied and check_c3ep(H).satisfied
