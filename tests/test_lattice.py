"""Concept lattice construction, order operations, shape serialization.

Frozen node/cover tables below were derived by hand: list the parent
sets, close them under intersection, and read off covers and the
attachment maps.
"""

import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from causaldeco.cli import main
from causaldeco.errors import InputError
from causaldeco.lattice import (MAX_CONCEPTS, ConceptLattice, ConceptNode,
                                build_concept_lattice, check_c3ep_lattice,
                                connectivity, count_paths,
                                enumerate_closed_input_sets,
                                overlap_lemma_check, shape_from_json,
                                shape_to_json, to_dot)
from causaldeco.relations import (Relation, c3_relation, chain2_relation,
                                  check_c3ep, children, closure_inputs,
                                  fan_in_relation, fan_out_relation,
                                  overlapping_fans_relation, parents,
                                  relation_to_json, swap_relation)


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


# a DOT ID is a plain identifier or a quoted string with escapes
DOT_ID = r'(?:[A-Za-z_][A-Za-z0-9_]*|"(?:[^"\\]|\\.)*")'
DOT_ATTRS = rf'\[{DOT_ID}={DOT_ID}(?:, {DOT_ID}={DOT_ID})*\]'
DOT_STMT = re.compile(
    rf"  (?:(?:{DOT_ID}(?: -> {DOT_ID})?(?: {DOT_ATTRS})?|rankdir=BT);"
    rf"|\{{ rank=same;(?: {DOT_ID};)+ \}})")


def test_to_dot_quotes_labels_that_are_not_identifiers():
    # "x y", 'a"b' and "out-1" used to land unquoted in IDs and strings
    G = Relation(("x y", 'a"b', "c\\d"), ("out-1", "e"),
                 frozenset({("x y", "out-1"), ('a"b', "out-1"),
                            ("c\\d", "e")}))
    lines = to_dot(build_concept_lattice(G)).splitlines()
    assert lines[0] == "digraph shape {" and lines[-1] == "}"
    for line in lines[1:-1]:
        if not line.startswith("  node ["):
            assert DOT_STMT.fullmatch(line), line
    for expected in ['  "in_x y" [shape=plaintext, label="x y"];',
                     '  "in_a\\"b" [shape=plaintext, label="a\\"b"];',
                     '  "in_c\\\\d" [shape=plaintext, label="c\\\\d"];',
                     '  "out_out-1" [shape=plaintext, label="out-1"];',
                     '  out_e [shape=plaintext, label="e"];']:
        assert expected in lines
    assert any(l.startswith('  n') and '{a\\"b,c\\\\d,x y}' in l
               for l in lines)


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


def _contranominal(n):
    """a_i reaches every b_j with j != i: every input set is closed, so
    the lattice has 2^n concepts."""
    ins = tuple(f"a{i:02d}" for i in range(n))
    outs = tuple(f"b{i:02d}" for i in range(n))
    return Relation(ins, outs, frozenset(
        (ins[i], outs[j]) for i in range(n) for j in range(n) if i != j))


def test_concept_cap(tmp_path, capsys):
    # 2^12 = MAX_CONCEPTS closed sets fit, 2^13 are refused
    assert MAX_CONCEPTS == 4096
    assert len(enumerate_closed_input_sets(_contranominal(12))) == 4096
    big = _contranominal(13)
    with pytest.raises(InputError):
        build_concept_lattice(big)
    path = tmp_path / "contranominal13.json"
    path.write_text(json.dumps(relation_to_json(big)))
    assert main(["lattice", str(path)]) == 2
    assert "more than 4096 concepts" in capsys.readouterr().err


def test_check_above_concept_cap(tmp_path, capsys, monkeypatch):
    # the relational routes decide a violation the lattice cannot hold
    path = tmp_path / "contranominal13.json"
    path.write_text(json.dumps(relation_to_json(_contranominal(13))))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Violated"
    assert out[1].startswith("witness: a1=a00 ")
    assert out[2] == ("lattice routes skipped: relation 13x13 has more "
                      "than 4096 concepts")
    assert main(["check", str(path), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["path_evidence"] is None
    assert set(data["witness"]) == {"a1", "a2", "a3", "b1", "b2", "b3"}
    # a satisfied verdict needs the lattice routes, so it is refused
    import causaldeco.lattice
    monkeypatch.setattr(causaldeco.lattice, "MAX_CONCEPTS", 1)
    sat = tmp_path / "chain2.json"
    sat.write_text(json.dumps(relation_to_json(chain2_relation())))
    assert main(["check", str(sat)]) == 2
    assert "more than 1 concepts" in capsys.readouterr().err


# -- properties on small relations ----------------------------------------

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


PROPERTY = settings(max_examples=150, derandomize=True, deadline=None,
                    database=None)


@PROPERTY
@given(G=small_relations())
def test_closed_sets_are_all_closures(G):
    every = {closure_inputs(G, S) for k in range(len(G.inputs) + 1)
             for S in itertools.combinations(G.inputs, k)}
    closed = enumerate_closed_input_sets(G)
    assert len(closed) == len(set(closed))
    assert set(closed) == every


@PROPERTY
@given(G=small_relations())
def test_covers_are_the_hasse_diagram(G):
    shape = build_concept_lattice(G)
    sets = [frozenset(nd.alpha) for nd in shape.nodes]
    hasse = {(i, j) for i, s in enumerate(sets) for j, t in enumerate(sets)
             if s < t and not any(s < u < t for u in sets)}
    assert set(shape.covers) == hasse
    assert len(shape.covers) == len(hasse)


@PROPERTY
@given(G=small_relations())
def test_connectivity_property(G):
    assert connectivity(build_concept_lattice(G)).same_pairs(G)


def _warshall(shape):
    """Oracle order matrix: Warshall's transitive closure of the covers."""
    n = len(shape)
    leq = [[i == j or (i, j) in shape.covers for j in range(n)]
           for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    return leq


def _assert_order_matches_warshall(shape):
    n = len(shape)
    leq = _warshall(shape)
    assert [[shape.leq(i, j) for j in range(n)] for i in range(n)] == leq
    # the oracle's unique least and greatest nodes, or the refusal
    for pick, extreme in ((shape.bottom, lambda i: all(leq[i])),
                          (shape.top, lambda j: all(r[j] for r in leq))):
        found = [i for i in range(n) if extreme(i)]
        if len(found) == 1:
            assert pick() == found[0]
        else:
            with pytest.raises(InputError, match="no unique"):
                pick()


@PROPERTY
@given(G=small_relations())
def test_order_matrix_equals_warshall(G):
    _assert_order_matches_warshall(build_concept_lattice(G))


@PROPERTY
@given(G=small_relations(), data=st.data())
def test_loaded_order_equals_warshall(G, data):
    # a loaded shape may list its nodes in any order and need not be a
    # lattice: here the nodes are permuted and some covers dropped
    doc = shape_to_json(build_concept_lattice(G))
    n = len(doc["nodes"])
    perm = data.draw(st.permutations(range(n)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(doc["covers"]),
                              max_size=len(doc["covers"])))
    doc["nodes"] = [doc["nodes"][perm.index(k)] for k in range(n)]
    doc["covers"] = [[perm[i], perm[j]] for (i, j), on
                     in zip(doc["covers"], keep) if on]
    for key in ("lambda", "mu"):
        doc[key] = {x: perm[v] for x, v in doc[key].items()}
    _assert_order_matches_warshall(shape_from_json(json.dumps(doc)))


@PROPERTY
@given(G=small_relations())
def test_lattice_c3_routes_agree_with_the_relational_ones(G):
    # check_c3ep already compares the scan with the intersection
    # criterion; here the lattice verdict, its path evidence and the
    # overlap lemma are held against it
    shape = build_concept_lattice(G)
    res = check_c3ep_lattice(shape)
    assert res.satisfied == check_c3ep(G).satisfied
    multiple = [(a, b) for a in sorted(G.inputs) for b in sorted(G.outputs)
                if count_paths(shape, a, b) > 1]
    if res.satisfied:
        assert res.evidence is None and multiple == []
        assert overlap_lemma_check(shape) == sum(
            math.comb(len(shape.up_covers(v)), 2)
            for v, nd in enumerate(shape.nodes) if nd.alpha)
    else:
        a, b, paths = res.evidence
        assert (a, b) == multiple[0]
        assert paths == count_paths(shape, a, b) > 1
        with pytest.raises(InputError):
            overlap_lemma_check(shape)


# -- the mask build against the frozenset build it replaced ---------------

def _frozenset_lattice(G):
    """Reference build on frozensets of labels: closed sets as the
    intersections of parent sets, one pass per output, and the upper
    covers as the minimal closures of alpha plus one input."""
    closed = {frozenset(G.inputs)}
    for b in G.outputs:
        closed |= {s & parents(G, b) for s in closed}
    closed = sorted(closed, key=lambda s: (len(s), tuple(sorted(s))))
    index = {alpha: k for k, alpha in enumerate(closed)}
    ch = {a: children(G, a) for a in G.inputs}
    par = {b: parents(G, b) for b in G.outputs}
    all_in, all_out = frozenset(G.inputs), frozenset(G.outputs)

    def extent(beta):
        return all_in.intersection(*(par[b] for b in beta))

    nodes, covers = [], []
    for k, alpha in enumerate(closed):
        beta = all_out.intersection(*(ch[a] for a in alpha))
        nodes.append(ConceptNode(tuple(sorted(alpha)), tuple(sorted(beta))))
        ups = {extent(beta & ch[a]) for a in G.inputs if a not in alpha}
        covers += [(k, index[u]) for u in ups if not any(v < u for v in ups)]
    lam = {a: index[extent(ch[a])] for a in G.inputs}
    mu = {b: index[par[b]] for b in G.outputs}
    return closed, ConceptLattice(G.inputs, G.outputs, nodes, sorted(covers),
                                  lam, mu)


def _assert_same_as_frozenset_build(G):
    closed, reference = _frozenset_lattice(G)
    assert enumerate_closed_input_sets(G) == closed
    shape = build_concept_lattice(G)
    assert shape_to_json(shape) == shape_to_json(reference)
    assert to_dot(shape) == to_dot(reference)


@PROPERTY
@given(G=small_relations())
def test_mask_build_equals_frozenset_build(G):
    _assert_same_as_frozenset_build(G)


def _shuffled(rng, n_in, n_out, pairs):
    """The relation on index pairs (i, j), with the labels of both sides
    shuffled, so that their sorted order is not the index order."""
    ins = rng.sample([f"x{k:02d}" for k in range(n_in)], n_in)
    outs = rng.sample([f"y{k:02d}" for k in range(n_out)], n_out)
    return Relation(tuple(ins), tuple(outs),
                    frozenset((ins[i], outs[j]) for i, j in pairs))


@pytest.mark.parametrize("seed", range(3))
def test_mask_build_equals_frozenset_build_on_screening_shapes(seed):
    # the benchmark's screening shapes: 12x12 staircases, and
    # contranominal-9 (512 concepts) with an extra input reaching every
    # output or an extra output reached by every input
    rng = random.Random(seed)
    stair = [(i, j) for i in range(12) for j in range(i + 1)]
    contra = [(i, j) for i in range(9) for j in range(9) if i != j]
    for n_in, n_out, pairs in ((12, 12, stair),
                               (10, 9, contra + [(9, j) for j in range(9)]),
                               (9, 10, contra + [(i, 9) for i in range(9)])):
        _assert_same_as_frozenset_build(_shuffled(rng, n_in, n_out, pairs))


@pytest.mark.parametrize("n_in, n_out, pairs", [
    # x00..x02 share one child set and x03, x04 another, so each of
    # their covers is the closure of several inputs
    (5, 3, [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (4, 0), (4, 1)]),
    # x03 has no children and y02 no parents
    (4, 3, [(0, 0), (0, 1), (1, 1), (2, 0)]),
    # contranominal-6 with every input doubled: each of the 64 concepts'
    # covers is reached from two inputs
    (12, 6, [(i + k, j) for i in range(6) for j in range(6) if i != j
             for k in (0, 6)]),
])
def test_mask_build_equals_frozenset_build_where_inputs_share_covers(
        n_in, n_out, pairs):
    # the neighbour test drops an input when its closure holds another
    # input still free, which these relations exercise on every node
    for seed in range(3):
        _assert_same_as_frozenset_build(
            _shuffled(random.Random(seed), n_in, n_out, pairs))


def test_mask_build_equals_frozenset_build_on_contranominal_12():
    _assert_same_as_frozenset_build(_contranominal(12))
