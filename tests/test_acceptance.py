"""Acceptance gate: ten criteria, one pass line each (run with -s).

Each criterion states its own tolerance and wall-clock bound; the bound
is asserted, so a regression in speed fails the gate as loudly as a
regression in correctness.
"""

import itertools
import time

import numpy as np

from causaldeco.algebra import (MatrixSubalgebra, algebra_closure, commutant,
                                factorize_factor, is_factor, sectorize)
from causaldeco.causal import (causal_structure, causal_structure_report,
                               composite_influences, influences,
                               no_influence_choi_oracle, atomicity_check)
from causaldeco.circuits import random_circuit_unitary
from causaldeco.decompose import (REFUSED_C3EP, SUCCESS, decompose,
                                  verify_decomposition)
from causaldeco.gallery import loose_wires_c3, obstruction_witness, u3
from causaldeco.lattice import (build_concept_lattice, check_c3ep_lattice,
                                connectivity)
from causaldeco.relations import (Relation, c3_relation, chain2_relation,
                                  check_c3ep, common_children, common_parents,
                                  fan_in_relation, fan_out_relation,
                                  overlapping_fans_relation, swap_relation)
from causaldeco.tensorspace import TensorSpace


def _finish(k, t0, bound):
    elapsed = time.monotonic() - t0
    assert elapsed < bound, f"criterion {k} took {elapsed:.1f}s >= {bound}s"
    print(f"criterion {k}: pass ({elapsed:.2f}s, bound {bound}s)")


def _all_relations(ins, outs):
    cells = [(a, b) for a in ins for b in outs]
    for mask in range(1 << len(cells)):
        pairs = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
        yield Relation(tuple(ins), tuple(outs), pairs)


def test_criterion_01_worked_example_lattice():
    t0 = time.monotonic()
    G = overlapping_fans_relation()
    shape = build_concept_lattice(G)
    assert len(shape.nodes) == 7
    # Oracle: hand Galois enumeration of the closed input sets of the
    # two-overlapping-fans relation (frozen in tests/test_lattice.py).
    want = {
        frozenset(): frozenset("abcde"),
        frozenset({"2"}): frozenset("abc"),
        frozenset({"1", "2"}): frozenset("ab"),
        frozenset({"4"}): frozenset("cde"),
        frozenset({"3", "4"}): frozenset("cd"),
        frozenset({"2", "3", "4"}): frozenset("c"),
        frozenset({"1", "2", "3", "4"}): frozenset(),
    }
    got = {frozenset(nd.alpha): frozenset(nd.beta) for nd in shape.nodes}
    assert got == want
    nd3 = shape.nodes[shape.lam["3"]]
    assert frozenset(nd3.alpha) == frozenset({"3", "4"})
    assert frozenset(nd3.beta) == frozenset({"c", "d"})
    assert connectivity(shape).pairs == G.pairs
    _finish(1, t0, 1)


def test_criterion_02_c3_lattice():
    t0 = time.monotonic()
    shape = build_concept_lattice(c3_relation())
    assert len(shape.nodes) == 4
    idx = {frozenset(nd.alpha): i for i, nd in enumerate(shape.nodes)}
    p = idx[frozenset({"a2"})]
    q = idx[frozenset({"a1", "a2"})]
    r = idx[frozenset({"a2", "a3"})]
    s = idx[frozenset({"a1", "a2", "a3"})]
    assert shape.leq(p, q) and shape.leq(q, s)
    assert shape.leq(p, r) and shape.leq(r, s)
    assert not shape.leq(q, r) and not shape.leq(r, q)
    assert shape.lam == {"a1": q, "a2": p, "a3": r}
    assert shape.mu == {"b1": q, "b2": s, "b3": r}
    _finish(2, t0, 1)


def test_criterion_03_c3ep_three_way_agreement():
    t0 = time.monotonic()
    # exhaustive over 3x3 (512 relations, plus the smaller squares)
    for n in (1, 2, 3):
        ins = [f"a{i}" for i in range(1, n + 1)]
        outs = [f"b{i}" for i in range(1, n + 1)]
        for G in _all_relations(ins, outs):
            rel = check_c3ep(G)  # scan vs intersection criterion
            # path count vs cover disjointness
            lat = check_c3ep_lattice(build_concept_lattice(G))
            assert rel.satisfied == lat.satisfied
    # 200 seeded random relations up to 5x5
    rng = np.random.default_rng(303)
    for _ in range(200):
        na, nb = rng.integers(1, 6), rng.integers(1, 6)
        ins = tuple(f"a{i}" for i in range(na))
        outs = tuple(f"b{j}" for j in range(nb))
        density = rng.uniform(0.2, 0.8)
        pairs = frozenset((a, b) for a in ins for b in outs
                          if rng.random() < density)
        G = Relation(ins, outs, pairs)
        assert check_c3ep(G).satisfied \
            == check_c3ep_lattice(build_concept_lattice(G)).satisfied
    _finish(3, t0, 60)


def test_criterion_04_galois_laws():
    t0 = time.monotonic()
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            ins = [f"a{i}" for i in range(m)]
            outs = [f"b{j}" for j in range(n)]
            subsets_a = [frozenset(c) for k in range(m + 1)
                         for c in itertools.combinations(ins, k)]
            subsets_b = [frozenset(c) for k in range(n + 1)
                         for c in itertools.combinations(outs, k)]
            for G in _all_relations(ins, outs):
                p = {S: common_children(G, S) for S in subsets_a}
                c = {T: common_parents(G, T) for T in subsets_b}
                for S in subsets_a:
                    # extensivity and p c p = p
                    assert S <= c[p[S]]
                    assert common_children(G, c[p[S]]) == p[S]
                for T in subsets_b:
                    assert T <= common_children(G, c[T])
                    assert common_parents(G, common_children(G, c[T])) \
                        == c[T]
                for S in subsets_a:
                    for S2 in subsets_a:
                        if S <= S2:
                            assert p[S2] <= p[S]
    _finish(4, t0, 30)


def test_criterion_05_u3_causal_structure():
    t0 = time.monotonic()
    U = u3()
    rep = causal_structure_report(U)
    assert rep.relation.pairs == c3_relation().pairs
    for raw in rep.raw_norms.values():
        assert raw < 1e-12 or raw > 0.5
    # independent Choi-factorization oracle, singletons and composites
    ins, outs = U.in_space.labels, U.out_space.labels
    singles = 0
    for k in range(1, 1 << len(ins)):
        alphas = [ins[i] for i in range(len(ins)) if k >> i & 1]
        for kk in range(1, 1 << len(outs)):
            betas = [outs[j] for j in range(len(outs)) if kk >> j & 1]
            commutator_route = composite_influences(U, alphas, betas)
            choi_route = not no_influence_choi_oracle(U, alphas, betas)
            assert commutator_route == choi_route
            if len(alphas) == 1 and len(betas) == 1:
                singles += 1
                assert commutator_route == influences(
                    U, alphas[0], betas[0], warn=False)
    assert singles == 9
    assert atomicity_check(U)
    _finish(5, t0, 5)


def _thread_dims(shape, rng, cap=64):
    """Random square-gate dimension assignment with per-leg dims <= 3.

    Routes each input as an unsplittable thread along a cover path to
    one reachable output (at most one thread per output); wire dims are
    the products of the threads crossing them, so every gate is square.
    """
    in_dims = {a: 1 for a in shape.inputs}
    out_dims = {b: 1 for b in shape.outputs}
    wire_dims = {e: 1 for e in shape.covers}
    free = list(shape.outputs)
    order = list(shape.inputs)
    rng.shuffle(order)
    total = 1
    for a in order:
        reach = [b for b in free if shape.leq(shape.lam[a], shape.mu[b])]
        if not reach:
            continue
        d = int(rng.choice((2, 3)))
        if total * d > cap:
            if total * 2 > cap:
                continue
            d = 2
        b = reach[rng.integers(len(reach))]
        free.remove(b)
        v, tgt = shape.lam[a], shape.mu[b]
        while v != tgt:
            ups = [w for w in shape.up_covers(v) if shape.leq(w, tgt)]
            w = ups[rng.integers(len(ups))]
            wire_dims[(v, w)] *= d
            v = w
        in_dims[a] = d
        out_dims[b] = d
        total *= d
    return in_dims, out_dims, wire_dims


def test_criterion_06_soundness_random_circuits():
    t0 = time.monotonic()
    shapes = [build_concept_lattice(G) for G in
              (c3_relation(), overlapping_fans_relation(), chain2_relation(),
               swap_relation(), fan_in_relation(), fan_out_relation())]
    violations = 0
    for trial in range(100):
        shape = shapes[trial % len(shapes)]
        rng = np.random.default_rng(1000 + trial)
        in_dims, out_dims, wire_dims = _thread_dims(shape, rng)
        assert max(in_dims.values()) <= 3 and max(out_dims.values()) <= 3
        _, U = random_circuit_unitary(
            shape, wire_dims=wire_dims,
            leg_dims={**in_dims, **out_dims}, seed=1000 + trial)
        assert U.dim <= 64
        if not causal_structure(U).pairs <= connectivity(shape).pairs:
            violations += 1
    assert violations == 0
    _finish(6, t0, 300)


def test_criterion_07_roundtrip_synthesis():
    t0 = time.monotonic()
    relations = (overlapping_fans_relation(), swap_relation(),
                 chain2_relation(), fan_in_relation(), fan_out_relation())
    for G in relations:
        nodes = len(build_concept_lattice(G).nodes)
        for trial in range(10):
            _, U = random_circuit_unitary(G, seed=trial)
            circuit, report = decompose(U, G, seed=trial)
            assert report.status == SUCCESS
            assert report.recomposition_residual < 1e-8
            assert report.connectivity_ok
            assert circuit.gate_unitarity_residual() <= 1e-9
            diags = report.per_node_diagnostics
            assert len(diags) == nodes
            assert max(d.inclusion_residual for d in diags) < 1e-6
    _finish(7, t0, 600)


def test_criterion_08_refusal_and_obstruction():
    t0 = time.monotonic()
    circuit, report = decompose(u3(), c3_relation())
    assert circuit is None
    assert report.status == REFUSED_C3EP
    assert report.witness.as_dict() == {
        "a1": "a1", "a2": "a2", "a3": "a3",
        "b1": "b1", "b2": "b2", "b3": "b3"}
    deco = obstruction_witness(u3(), c3_relation())
    assert deco.n_sectors >= 2
    total = sum(deco.projectors)
    assert np.linalg.norm(total - np.eye(deco.a_space.total_dim)) <= 1e-9
    _finish(8, t0, 30)


def test_criterion_09_loose_wires_positive_instance():
    t0 = time.monotonic()
    circ, chan = loose_wires_c3()
    report = verify_decomposition(chan, circ, c3_relation())
    assert report.status == SUCCESS
    # permutation gates compose exactly, no rounding at all
    assert report.recomposition_residual == 0.0
    assert connectivity(circ.shape).pairs == c3_relation().pairs
    assert report.faithful
    _finish(9, t0, 10)


def test_criterion_10_operator_algebra_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(10)

    # double commutant equality on structured subalgebras
    amb = TensorSpace((("x", 2), ("y", 3)))
    for S in (MatrixSubalgebra.on_legs(amb, ["x"]),
              MatrixSubalgebra.on_legs(amb, ["y"]),
              MatrixSubalgebra.scalars(amb),
              MatrixSubalgebra.full(amb)):
        assert commutant(commutant(S)).same_span(S)

    # commutant of M2 x 1 is 1 x M3
    C = commutant(MatrixSubalgebra.on_legs(amb, ["x"]))
    assert C.same_span(MatrixSubalgebra.on_legs(amb, ["y"]))

    # Wedderburn round-trips on seeded conjugated factors, dims 4 to 16
    for p, m in ((2, 2), (3, 2), (2, 4), (3, 3), (4, 4)):
        D = p * m
        space = TensorSpace((("a", D),))
        z = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        Q = np.linalg.qr(z)[0]
        gens = [Q @ np.kron(e, np.eye(m)) @ Q.conj().T
                for e in np.eye(p * p).reshape(p * p, p, p)]
        S = algebra_closure(space, np.stack(gens))
        assert is_factor(S)
        iso, d, mult = factorize_factor(S, seed=3)
        assert (d, mult) == (p, m)
        # the form is unique only up to a basis change on the factor
        # leg, so check tensor shape and the matrix-unit relations of
        # the recovered first-factor parts instead of exact alignment
        V = iso.matrix
        ys = []
        for g in gens:
            back = (V @ g @ V.conj().T).reshape(p, m, p, m)
            y = np.einsum("aibi->ab", back) / m
            assert np.linalg.norm(
                back - np.einsum("ab,ij->aibj", y, np.eye(m))) < 1e-8
            ys.append(y)
        for k1, y1 in enumerate(ys):
            i, j = divmod(k1, p)
            for k2, y2 in enumerate(ys):
                kk, ll = divmod(k2, p)
                want = ys[i * p + ll] if j == kk else 0.0
                assert np.linalg.norm(y1 @ y2 - want) < 1e-8

    # sector structure of a conjugated M2 + M3 block embedding
    space5 = TensorSpace((("a", 5),))
    z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    Q = np.linalg.qr(z)[0]
    gens = []
    for e in np.eye(4).reshape(4, 2, 2):
        blk = np.zeros((5, 5), complex)
        blk[:2, :2] = e
        gens.append(Q @ blk @ Q.conj().T)
    for e in np.eye(9).reshape(9, 3, 3):
        blk = np.zeros((5, 5), complex)
        blk[2:, 2:] = e
        gens.append(Q @ blk @ Q.conj().T)
    B = algebra_closure(space5, np.stack(gens))
    sec = sectorize(["a"], [[]], [B], seed=0)
    ranks = sorted(int(round(np.trace(P).real)) for P in sec.projectors)
    assert ranks == [2, 3]
    # one leg per input algebra; multiplicity 1 is absorbed into it
    assert sorted(sec.sectors) == [(2,), (3,)]
    _finish(10, t0, 60)
