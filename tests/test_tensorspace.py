"""Leg moves: one reshape-and-transpose primitive, checked against index
arithmetic and against the permutation-matrix formulas it replaced, and
kept off every pipeline.  Leg and span operations take stacks of
matrices and equal the loop over the stack."""

import ast
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from causaldeco import cli
from causaldeco.algebra import MatrixSubalgebra, orthonormalize
from causaldeco.causal import UnitaryChannel, unitary_to_json
from causaldeco.circuits import advance_frame, random_circuit_unitary
from causaldeco.decompose import decompose
from causaldeco.gallery import build_counterexample, obstruction_witness
from causaldeco.relations import (c3_relation, chain2_relation,
                                  overlapping_fans_relation)
from causaldeco.tensorspace import TensorSpace, haar_unitary

SRC = Path(__file__).resolve().parents[1] / "src" / "causaldeco"
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None,
                    database=None)


@st.composite
def spaces(draw, prefix="l", min_legs=1, max_legs=4):
    dims = draw(st.lists(st.integers(1, 3), min_size=min_legs,
                         max_size=max_legs))
    return TensorSpace(tuple((f"{prefix}{i}", d) for i, d in enumerate(dims)))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def reorder_oracle(space, arr, new_labels):
    """Leading axis re-indexed by index arithmetic: the entry at a
    multi-index in ``new_labels`` order comes from the same leg values
    in the space's own order."""
    new_dims = [space.dim(l) for l in new_labels]
    out = np.empty_like(arr)
    for idx in np.ndindex(*new_dims):
        old = [0] * len(space.dims)
        for label, i in zip(new_labels, idx):
            old[space.index(label)] = i
        out[np.ravel_multi_index(idx, new_dims)] = \
            arr[np.ravel_multi_index(old, space.dims)]
    return out


@PROPERTY
@given(space=spaces(), data=st.data())
def test_reorder_matches_index_arithmetic(space, data):
    new_labels = data.draw(st.permutations(space.labels))
    trailing = data.draw(st.lists(st.integers(1, 3), max_size=2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    arr = random_complex(rng, (space.total_dim, *trailing))
    moved = space.reorder(arr, new_labels)
    assert moved.shape == arr.shape
    assert np.array_equal(moved, reorder_oracle(space, arr, new_labels))
    perm = space.permutation_to(new_labels)
    assert np.array_equal(perm, reorder_oracle(
        space, np.eye(space.total_dim), new_labels))
    back = space.subspace(new_labels).reorder(moved, space.labels)
    assert np.array_equal(back, arr)


def advance_frame_oracle(frame, mat, gate, gin, gout):
    """The permutation-matrix formula advance_frame replaced: bring the
    gate's legs to the front, then apply gate (x) 1_rest."""
    order = tuple(gin) + frame.complement(gin)
    perm = frame.permutation_to(order)
    rest = frame.subspace(order).factors[len(gin):]
    d_rest = math.prod((d for _, d in rest), start=1)
    return (TensorSpace(tuple(gout) + rest),
            np.kron(gate, np.eye(d_rest)) @ (perm @ mat))


@PROPERTY
@given(frame=spaces(max_legs=4), gout=spaces(prefix="o", min_legs=0,
                                              max_legs=2),
       data=st.data())
def test_advance_frame_matches_the_kron_formula(frame, gout, data):
    gin = data.draw(st.lists(st.sampled_from(frame.labels), unique=True))
    square = data.draw(st.booleans())
    d_in = frame.subspace(gin).total_dim
    if square:
        gout = TensorSpace((("o", d_in),))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    gate = random_complex(rng, (gout.total_dim, d_in))
    mat = random_complex(rng, (frame.total_dim, data.draw(st.integers(1, 4))))
    new, got = advance_frame(frame, mat, gate, gin, gout.factors)
    want_frame, want = advance_frame_oracle(frame, mat, gate, gin,
                                            gout.factors)
    assert new == want_frame
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0, atol=1e-12)


@PROPERTY
@given(legs=spaces(max_legs=3), data=st.data())
def test_with_leg_order_matches_the_permutation_formula(legs, data):
    in_space = TensorSpace(tuple(("a" + l, d) for l, d in legs.factors))
    out_space = TensorSpace(tuple(("b" + l, d) for l, d in
                                  data.draw(st.permutations(legs.factors))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    U = UnitaryChannel(haar_unitary(legs.total_dim, rng), in_space,
                       out_space)
    in_labels = data.draw(st.permutations(in_space.labels))
    out_labels = data.draw(st.permutations(out_space.labels))
    p_in = in_space.permutation_to(in_labels)
    p_out = out_space.permutation_to(out_labels)
    moved = U.with_leg_order(in_labels, out_labels)
    assert np.array_equal(moved.matrix, p_out @ U.matrix @ p_in.T)
    assert moved.in_space.labels == tuple(in_labels)
    assert moved.out_space.labels == tuple(out_labels)


def test_no_pipeline_builds_a_permutation_matrix(monkeypatch, tmp_path,
                                                 capsys):
    permutation_to = TensorSpace.permutation_to
    calls = []

    def counting(self, new_labels):
        calls.append(tuple(new_labels))
        return permutation_to(self, new_labels)
    monkeypatch.setattr(TensorSpace, "permutation_to", counting)
    for G in (overlapping_fans_relation(), chain2_relation()):
        _, ch = random_circuit_unitary(G, seed=7)
        _, report = decompose(ch, G, seed=2)
        assert report.status == "Success"
    C3 = c3_relation()
    U = build_counterexample(C3, seed=0)
    assert obstruction_witness(U, C3).sectors == ((2, 2), (2, 2))
    path = tmp_path / "counterexample.json"
    path.write_text(unitary_to_json(U))
    assert cli.main(["analyze", str(path), "--json"]) == 0
    capsys.readouterr()
    assert calls == []


def _is_call_to(node, name):
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def test_legs_move_only_by_reshape_and_transpose():
    # no source calls permutation_to, and no kron takes an identity:
    # UnitaryChannel.tensor's kron of two unitaries is the one kron left
    assert not hasattr(TensorSpace, "front_permutation")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _is_call_to(node, "permutation_to"):
                offenders.append((path.name, node.lineno, "permutation_to"))
            if _is_call_to(node, "kron") and any(
                    _is_call_to(sub, "eye") or _is_call_to(sub, "identity")
                    for arg in node.args for sub in ast.walk(arg)):
                offenders.append((path.name, node.lineno, "kron"))
    assert offenders == []


def _assert_loop_equal(stacked, loop):
    loop = np.asarray(loop)
    assert stacked.shape == loop.shape
    scale = 1.0 + np.max(np.abs(loop), initial=0.0)
    assert np.max(np.abs(stacked - loop), initial=0.0) <= 1e-14 * scale


@PROPERTY
@given(space=spaces(max_legs=3), data=st.data())
def test_stacked_calls_equal_the_per_matrix_loop(space, data):
    # an operator argument may be a stack (n, D, D): each operation acts
    # on every matrix, a zero matrix reads residual 0, and a NaN stays in
    # its own slot
    labels = data.draw(st.permutations(space.labels))
    labels = labels[:data.draw(st.integers(0, len(labels)))]
    n = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    D, dk = space.total_dim, space.subspace(labels).total_dim
    k = data.draw(st.integers(1, D * D))
    span = MatrixSubalgebra(space, orthonormalize(random_complex(
        rng, (k, D, D))))
    stack = random_complex(rng, (n, D, D))
    if data.draw(st.booleans()):
        stack[data.draw(st.integers(0, n - 1))] = 0.0
    small = random_complex(rng, (n, dk, dk))
    _assert_loop_equal(space.embed(small, labels),
                       [space.embed(m, labels) for m in small])
    _assert_loop_equal(space.partial_trace(stack, labels),
                       [space.partial_trace(m, labels) for m in stack])
    reduced, resid = space.restrict(stack, labels)
    _assert_loop_equal(reduced, [space.restrict(m, labels)[0] for m in stack])
    _assert_loop_equal(resid, [space.restrict(m, labels)[1] for m in stack])
    for op in (span.coefficients, span.project, span.residual):
        _assert_loop_equal(op(stack), [op(m) for m in stack])
    # the span holds k of the D^2 directions, so a random matrix is
    # inside it exactly when k = D^2
    members = span.project(stack)
    assert span.contains(members) == all(span.contains(m) for m in members)
    assert span.contains(stack) == all(span.contains(m) for m in stack)
    zero = ~np.any(stack, axis=(1, 2))
    assert np.all(resid[zero] == 0.0)
    assert np.all(span.residual(stack)[zero] == 0.0)
    bad = data.draw(st.integers(0, n - 1))
    stack[bad, 0, 0] = np.nan
    for got in (space.restrict(stack, labels)[1], span.residual(stack)):
        assert np.isnan(got).tolist() == [i == bad for i in range(n)]
    assert not span.contains(stack)


def test_bases_and_matrix_units_are_not_looped_over():
    # span and leg operations take stacks, so a check over a basis or
    # over matrix units is one call, not a Python loop
    offenders = []
    for name in ("algebra.py", "decompose.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if not isinstance(node, (ast.For, ast.comprehension)):
                continue
            for sub in ast.walk(node.iter):
                if _is_call_to(sub, "matrix_units") or getattr(
                        sub, "attr", None) == "basis":
                    offenders.append((name, sub.lineno))
    assert offenders == []
