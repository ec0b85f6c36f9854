"""Causal structure tests.

The three-qubit reference unitary is built inline as a basis-state
permutation (x1,x2,x3) -> (x1+x2, x2, x2+x3) mod 2, independently of
the gallery module.  Its Heisenberg images are hand computations: for
the diagonal operators the phase exponent pulls back through the
permutation, for the flips one solves which input flip produces the
output flip.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from causaldeco.algebra import MatrixSubalgebra, is_factor
from causaldeco.causal import (
    UnitaryChannel,
    _rows_by_beta,
    atomicity_check,
    causal_structure,
    causal_structure_report,
    choi_factorization_residual,
    composite_influences,
    heisenberg_image,
    influences,
    load_unitary,
    matrix_to_cells,
    no_influence_choi_oracle,
    pair_commutator_norm,
    unitary_from_json,
    unitary_to_json,
)
from causaldeco.errors import (
    BorderlineToleranceWarning,
    InputError,
    NumericsError,
)
from causaldeco.circuits import random_circuit_unitary
from causaldeco.gallery import group_legs
from causaldeco.lattice import build_concept_lattice
from causaldeco.relations import (Relation, c3_relation, chain2_relation,
                                  check_c3ep, fan_in_relation,
                                  fan_out_relation,
                                  overlapping_fans_relation, swap_relation)
from causaldeco.tensorspace import TensorSpace, dagger, haar_unitary
from test_acceptance import _thread_dims

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def qubit_space(prefix, n):
    return TensorSpace(tuple((f"{prefix}{i + 1}", 2) for i in range(n)))


def u3_channel():
    mat = np.zeros((8, 8), dtype=complex)
    for x1 in range(2):
        for x2 in range(2):
            for x3 in range(2):
                src = 4 * x1 + 2 * x2 + x3
                dst = 4 * (x1 ^ x2) + 2 * x2 + (x2 ^ x3)
                mat[dst, src] = 1.0
    return UnitaryChannel(mat, qubit_space("a", 3), qubit_space("b", 3))


def cnot_channel():
    mat = np.zeros((4, 4), dtype=complex)
    for x1 in range(2):
        for x2 in range(2):
            mat[2 * x1 + (x2 ^ x1), 2 * x1 + x2] = 1.0
    return UnitaryChannel(mat, qubit_space("a", 2), qubit_space("b", 2))


def swap_channel():
    mat = np.zeros((4, 4), dtype=complex)
    for x1 in range(2):
        for x2 in range(2):
            mat[2 * x2 + x1, 2 * x1 + x2] = 1.0
    return UnitaryChannel(mat, qubit_space("a", 2), qubit_space("b", 2))


def kron(*ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def test_channel_validation():
    with pytest.raises(InputError):
        UnitaryChannel(np.eye(4), qubit_space("a", 2), qubit_space("b", 1))
    with pytest.raises(NumericsError):
        UnitaryChannel(np.eye(2) * 2.0, qubit_space("a", 1),
                       qubit_space("b", 1))
    with pytest.raises(InputError):
        UnitaryChannel(np.eye(8), TensorSpace((("a", 512),)),
                       TensorSpace((("b", 512),)))


def test_u3_heisenberg_images_hand_oracle():
    u = u3_channel()
    cases = [
        (SZ, "b1", kron(SZ, SZ, I2)),
        (SX, "b1", kron(SX, I2, I2)),
        (SZ, "b2", kron(I2, SZ, I2)),
        (SX, "b2", kron(SX, SX, SX)),
        (SZ, "b3", kron(I2, SZ, SZ)),
        (SX, "b3", kron(I2, I2, SX)),
    ]
    for op, leg, expected in cases:
        img = u.heisenberg(u.out_space.embed(op, [leg]))
        assert np.allclose(img, expected, atol=1e-12), leg


@pytest.mark.parametrize("betas", [["b1"], ["b2"], ["b1", "b2"]])
def test_heisenberg_image_matrix_unit_layout(betas):
    # the basis is in matrix-unit layout: element i d_beta + j is
    # sqrt(d_beta / D) U^dag (E_ij (x) 1) U, E_ij on the beta legs in
    # output order
    u = UnitaryChannel(haar_unitary(6, np.random.default_rng(7)),
                       TensorSpace((("a1", 2), ("a2", 3))),
                       TensorSpace((("b1", 3), ("b2", 2))))
    img = heisenberg_image(u, betas)
    d_beta = u.out_space.subspace(betas).total_dim
    assert img.dim == d_beta ** 2
    for i, j in itertools.product(range(d_beta), repeat=2):
        e = np.zeros((d_beta, d_beta))
        e[i, j] = 1.0
        want = np.sqrt(d_beta / 6) * dagger(u.matrix) \
            @ u.out_space.embed(e, betas) @ u.matrix
        assert np.abs(img.basis[i * d_beta + j] - want).max() <= 1e-13


@st.composite
def row_images(draw):
    """A Haar channel on output legs (b, r), the image of b or of both
    (d_beta^2 below, at or above D), and matrices: a random stack and an
    element of the image."""
    d_b, d_r = draw(st.sampled_from(
        [(1, 3), (2, 4), (2, 3), (2, 2), (3, 3), (3, 2), (4, 2), (3, 1)]))
    betas = draw(st.sampled_from([["b"], ["b", "r"]]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    D = d_b * d_r
    outs = TensorSpace((("b", d_b), ("r", d_r)))
    U = UnitaryChannel(haar_unitary(D, rng), TensorSpace((("a", D),)), outs)
    k = draw(st.integers(1, 3))
    mats = rng.standard_normal((k, D, D)) + 1j * rng.standard_normal((k, D, D))
    d_beta = outs.subspace(betas).total_dim
    inside = U.heisenberg(outs.embed(rng.standard_normal((d_beta, d_beta)),
                                     betas))
    return U, betas, np.concatenate([mats, inside[None]])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=row_images())
def test_row_image_matches_its_explicit_basis(case):
    # the image held as rows answers as MatrixSubalgebra on its basis,
    # and that basis, formed on first read, is the batched product
    # sqrt(d_beta/D) W_i^dag W_j bit for bit
    U, betas, mats = case
    img = heisenberg_image(U, betas)
    w = _rows_by_beta(U, betas)
    d = w.shape[0]
    w_dag = w.conj().transpose(0, 2, 1) * np.sqrt(d / U.dim)
    basis = (w_dag[:, None] @ w[None]).reshape(d * d, U.dim, U.dim)
    ref = MatrixSubalgebra(U.in_space, basis)
    # coefficients and projections to 1e-12 of the matrices' scale;
    # residuals are relative already
    scale = np.linalg.norm(mats)
    for got, want, tol in [
            (img.coefficients(mats), ref.coefficients(mats), scale),
            (img.project(mats), ref.project(mats), scale),
            (img.residual(mats), ref.residual(mats), 1.0),
            (img.generic_elements(3), ref.generic_elements(3), 1.0)]:
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * tol
    assert img.residual(mats[-1]) <= 1e-12
    assert "basis" not in vars(img)
    assert is_factor(img) and is_factor(ref)
    assert np.array_equal(img.basis, basis)


def test_heisenberg_image_algebra():
    u = u3_channel()
    alg = heisenberg_image(u, ["b1"])
    assert alg.dim == 4
    assert alg.contains(kron(SX, I2, I2))
    assert alg.contains(kron(SZ, SZ, I2))
    # Composite legs give the product algebra.
    assert heisenberg_image(u, ["b1", "b2"]).dim == 16
    # SWAP pulls the first output back to the second input.
    s = swap_channel()
    img = heisenberg_image(s, ["b1"])
    for mat in img.basis:
        assert s.in_space.restrict(mat, ["a2"])[1] <= 1e-8
    # CNOT pulls X on the control output to X(x)X.
    c = cnot_channel()
    assert heisenberg_image(c, ["b1"]).contains(kron(SX, SX))
    with pytest.raises(InputError):
        heisenberg_image(u, ["nope"])


def test_influences_reference_cases():
    u = u3_channel()
    assert not influences(u, "a3", "b1")
    assert not influences(u, "a1", "b3")
    assert influences(u, "a2", "b2")
    c = cnot_channel()
    assert influences(c, "a2", "b1")
    ident = UnitaryChannel(np.eye(4), qubit_space("a", 2),
                           qubit_space("b", 2))
    assert not influences(ident, "a1", "b2")
    assert influences(ident, "a1", "b1")


def test_causal_structure_reference_cases():
    u3_rel = causal_structure(u3_channel())
    assert u3_rel.same_pairs(c3_relation())
    assert causal_structure(swap_channel()).pairs == frozenset(
        {("a1", "b2"), ("a2", "b1")})
    assert causal_structure(cnot_channel()).pairs == frozenset(
        {("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")})


@pytest.mark.parametrize("outs", [(), (("b1", 1),)])
def test_channel_without_input_legs_has_no_pairs(outs):
    # no input leg means no one-hot digit columns to stack
    U = UnitaryChannel(np.eye(1), TensorSpace(()), TensorSpace(outs))
    rep = causal_structure_report(U)
    assert rep.relation.inputs == () and rep.relation.pairs == frozenset()
    assert rep.raw_norms == {} and rep.borderline == []


def test_u3_raw_norm_dichotomy():
    # Permutation conjugations give commutator norms that are exactly
    # zero or of order one: nothing near the decision threshold.
    rep = causal_structure_report(u3_channel())
    for pair, raw in rep.raw_norms.items():
        assert raw < 1e-12 or raw > 0.5, (pair, raw)
    assert rep.borderline == []


def direct_commutator_norm(u, a, b):
    """Independent route: naive matmul over all unit pairs."""
    ins, outs = u.in_space, u.out_space
    db, da = outs.dim(b), ins.dim(a)
    best = 0.0
    for k in range(db):
        for l in range(db):
            e = np.zeros((db, db), complex)
            e[k, l] = 1.0
            g = u.heisenberg(outs.embed(e, [b]))
            for p in range(da):
                for q in range(da):
                    f = np.zeros((da, da), complex)
                    f[p, q] = 1.0
                    femb = ins.embed(f, [a])
                    best = max(best, float(np.linalg.norm(
                        g @ femb - femb @ g)))
    return best


def test_slice_formula_matches_direct_commutators():
    rng = np.random.default_rng(23)
    ins = TensorSpace((("a1", 2), ("a2", 3)))
    outs = TensorSpace((("b1", 3), ("b2", 2)))
    u = UnitaryChannel(haar_unitary(6, rng), ins, outs)
    for a in ins.labels:
        for b in outs.labels:
            fast = pair_commutator_norm(u, a, b)
            best = direct_commutator_norm(u, a, b)
            assert abs(fast - best) < 1e-10 * max(best, 1.0)


@st.composite
def leg_splits(draw):
    """Input and output leg lists over one total dimension D <= 24: the
    factors of D dealt at random to 1-4 legs a side, so legs of
    dimension 1 and unequal leg counts both occur."""
    atoms = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3).filter(
        lambda xs: int(np.prod(xs)) <= 24))

    def deal(tag):
        dims = [1] * draw(st.integers(1, 4))
        for x in atoms:
            dims[draw(st.integers(0, len(dims) - 1))] *= x
        # keeps the naive oracle's da^2 * db^2 commutators small
        assume(max(dims) <= 8)
        return TensorSpace(tuple((f"{tag}{k + 1}", d)
                                 for k, d in enumerate(dims)))
    return deal("a"), deal("b")


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(legs=leg_splits(), seed=st.integers(0, 2**32 - 1))
def test_causal_structure_matches_direct_commutators(legs, seed):
    # The one-pass report, the one-pair norm and the naive oracle agree
    # on Haar unitaries; tolerance scaled by |E (x) 1| |F (x) 1|.
    ins, outs = legs
    D = ins.total_dim
    u = UnitaryChannel(haar_unitary(D, np.random.default_rng(seed)),
                       ins, outs)
    rep = causal_structure_report(u)
    assert set(rep.raw_norms) == {(a, b) for a in ins.labels
                                  for b in outs.labels}
    for (a, b), raw in rep.raw_norms.items():
        assert raw == pair_commutator_norm(u, a, b)
        scale = np.sqrt(D / ins.dim(a)) * np.sqrt(D / outs.dim(b))
        assert abs(raw - direct_commutator_norm(u, a, b)) <= 1e-12 * scale
    assert causal_structure(u).pairs == rep.relation.pairs


REFERENCE_RELATIONS = (overlapping_fans_relation(), chain2_relation(),
                       swap_relation(), fan_in_relation(), fan_out_relation())


@st.composite
def relation_circuits(draw):
    """(G, out_dims, U): a random-circuit unitary U on a reference shape
    or on a random C3EP relation G up to 3x3, leg dims 1-3 threaded
    along cover paths: pairs off the relation, and pairs whose path
    carries a dim-1 wire, have no influence exactly."""
    if draw(st.booleans()):
        G = draw(st.sampled_from(REFERENCE_RELATIONS))
    else:
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        ins = tuple(f"a{i + 1}" for i in range(n))
        outs = tuple(f"b{j + 1}" for j in range(m))
        cells = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
        G = Relation(ins, outs, frozenset(
            p for p, on in zip(itertools.product(ins, outs), cells) if on))
        assume(check_c3ep(G).satisfied)
    seed = draw(st.integers(0, 2**32 - 1))
    shape = build_concept_lattice(G)
    in_dims, out_dims, wire_dims = _thread_dims(
        shape, np.random.default_rng(seed))
    _, u = random_circuit_unitary(shape, wire_dims=wire_dims,
                                  leg_dims={**in_dims, **out_dims}, seed=seed)
    return G, out_dims, u


circuit_channels = relation_circuits().map(lambda case: case[-1])


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(u=circuit_channels)
def test_no_influence_norms_at_roundoff(u):
    # A kernel that cancels O(1) terms (a Gram form of the diagonal-block
    # differences) leaves about 1e-8 where these must read roundoff.
    rep = causal_structure_report(u)
    D = u.dim
    for (a, b), raw in rep.raw_norms.items():
        bound = 1e-12 * np.sqrt(D / u.in_space.dim(a)) \
            * np.sqrt(D / u.out_space.dim(b))
        no_influence = no_influence_choi_oracle(u, [a], [b])
        assert ((a, b) not in rep.relation.pairs) == no_influence, (a, b)
        if no_influence:
            assert raw <= bound, (a, b, raw)
        assert abs(raw - direct_commutator_norm(u, a, b)) <= bound, (a, b)


def explicit_commutator_norm(u, a, b):
    """The direct route with the a side taken all at once: each image
    U^dag(E (x) 1)U as ``direct_commutator_norm`` forms it, then with a's
    digit first on rows and columns (a permutation, which keeps the
    norm) every commutator [g, F_pq (x) 1] written out entry by entry,
    F_pq (x) 1 moving block column p to q and block row q to p.  The
    direct route takes seconds a pair once both legs have dim 16."""
    ins, outs = u.in_space, u.out_space
    db, da, n = outs.dim(b), ins.dim(a), u.dim // ins.dim(a)
    order = ins.reorder(np.arange(u.dim), (a,) + ins.complement([a]))
    p = np.arange(da)[:, None]
    q = np.arange(da)[None, :]
    best = 0.0
    for k, l in itertools.product(range(db), repeat=2):
        e = np.zeros((db, db), complex)
        e[k, l] = 1.0
        g = u.heisenberg(outs.embed(e, [b]))[np.ix_(order, order)]
        g = g.reshape(da, n, da, n)
        comm = np.zeros((da, da) + g.shape, complex)
        comm[p, q, :, :, q, :] = g.transpose(2, 0, 1, 3)[:, None]
        comm[p, q, p] -= g[None]
        best = max(best, float(np.linalg.norm(
            comm.reshape(da * da, -1), axis=1).max()))
    return best


def test_explicit_commutator_norm_matches_direct():
    u = UnitaryChannel(haar_unitary(16, np.random.default_rng(4)),
                       TensorSpace((("a1", 2), ("a2", 8))),
                       TensorSpace((("b1", 8), ("b2", 2))))
    for a, b in itertools.product(u.in_space.labels, u.out_space.labels):
        assert abs(explicit_commutator_norm(u, a, b)
                   - direct_commutator_norm(u, a, b)) <= 1e-13


@st.composite
def large_leg_splits(draw):
    """Input and output leg lists over one D <= 64 with a leg of dim
    8-16 on each side, placed among up to two smaller legs that split
    the rest of D (dims of 1 included).  The oracle writes out
    d_a^2 d_b^2 commutators of D^2 entries, so the two large legs and D
    multiply to at most 4096."""
    D = draw(st.sampled_from([D for D in range(8, 65)
                              if any(D % k == 0 for k in range(8, 17))]))
    bigs = [k for k in range(8, 17) if D % k == 0]
    big_a, big_b = draw(st.sampled_from(bigs)), draw(st.sampled_from(bigs))
    assume(big_a * big_b * D <= 4096)

    def side(tag, big):
        rest = D // big
        q = draw(st.sampled_from([q for q in range(1, rest + 1)
                                  if rest % q == 0]))
        dims = draw(st.sampled_from([[rest], [q, rest // q]]))
        dims.insert(draw(st.integers(0, len(dims))), big)
        return TensorSpace(tuple((f"{tag}{k + 1}", d)
                                 for k, d in enumerate(dims)))
    return side("a", big_a), side("b", big_b)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(legs=large_leg_splits(), seed=st.integers(0, 2**32 - 1))
@example(legs=(TensorSpace((("a1", 16),)), TensorSpace((("b1", 16),))),
         seed=1)
@example(legs=(TensorSpace((("a1", 2), ("a2", 8), ("a3", 4))),
               TensorSpace((("b1", 8), ("b2", 8)))), seed=2)
def test_large_legs_match_the_commutator_oracle(legs, seed):
    # many pairs k < l per input leg and many images per output leg,
    # on Haar unitaries; tolerance scaled by |E (x) 1| |F (x) 1|
    ins, outs = legs
    D = ins.total_dim
    u = UnitaryChannel(haar_unitary(D, np.random.default_rng(seed)),
                       ins, outs)
    rep = causal_structure_report(u)
    for (a, b), raw in rep.raw_norms.items():
        assert raw == pair_commutator_norm(u, a, b)
        scale = np.sqrt(D / ins.dim(a)) * np.sqrt(D / outs.dim(b))
        assert abs(raw - explicit_commutator_norm(u, a, b)) <= 1e-12 * scale


@st.composite
def large_leg_circuits(draw):
    """(pairs, U): a random-circuit unitary V on a relation G up to
    2 x 2, tensored with a Haar unitary from x to y, with x fused into
    an input a of V so that the fused leg has dim 8-16, and y into an
    output b; D <= 64.  Exactly V's pairs and (a, b) influence."""
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    ins = tuple(f"a{i + 1}" for i in range(n))
    outs = tuple(f"b{j + 1}" for j in range(m))
    cells = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    G = Relation(ins, outs, frozenset(
        p for p, on in zip(itertools.product(ins, outs), cells) if on))
    seed = draw(st.integers(0, 2**32 - 1))
    _, v = random_circuit_unitary(G, seed=seed)
    a, b = draw(st.sampled_from(ins)), draw(st.sampled_from(outs))
    da = v.in_space.dim(a)
    assume(da <= 8)
    dx = draw(st.integers(-(-8 // da), 16 // da))
    assume(dx >= 2 and v.dim * dx <= 64)
    w = UnitaryChannel(haar_unitary(dx, np.random.default_rng(seed)),
                       TensorSpace((("x", dx),)), TensorSpace((("y", dx),)))
    u = group_legs(v.tensor(w),
                   [(l, [l, "x"] if l == a else [l]) for l in ins],
                   [(l, [l, "y"] if l == b else [l]) for l in outs])
    return causal_structure(v).pairs | {(a, b)}, u


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(case=large_leg_circuits())
def test_no_influence_norms_at_roundoff_with_a_large_leg(case):
    pairs, u = case
    rep = causal_structure_report(u)
    D = u.dim
    assert rep.relation.pairs == pairs
    for (a, b), raw in rep.raw_norms.items():
        if (a, b) not in pairs:
            assert raw <= 1e-12 * np.sqrt(D / u.in_space.dim(a)) \
                * np.sqrt(D / u.out_space.dim(b)), (a, b, raw)


@pytest.mark.slow
def test_product_of_a_qubit_and_a_64_level_unitary():
    # U = H_2 (x) H_64: each side carries legs (2, 64) at D=128, and
    # the (a2, b2) pair alone forms 2,080 images
    rng = np.random.default_rng(0)
    u = UnitaryChannel(np.kron(haar_unitary(2, rng), haar_unitary(64, rng)),
                       TensorSpace((("a1", 2), ("a2", 64))),
                       TensorSpace((("b1", 2), ("b2", 64))))
    rep = causal_structure_report(u)
    assert rep.relation.pairs == {("a1", "b1"), ("a2", "b2")}
    for a, b in (("a1", "b2"), ("a2", "b1")):
        assert rep.raw_norms[(a, b)] <= 1e-12 * np.sqrt(
            128 / u.in_space.dim(a)) * np.sqrt(128 / u.out_space.dim(b))


def test_nan_after_construction_reads_as_influence():
    # the channel checks its matrix once; a NaN written later must not
    # come out as a norm of 0, which would read as no influence
    u = UnitaryChannel(haar_unitary(8, np.random.default_rng(5)),
                       TensorSpace((("a1", 2), ("a2", 4))),
                       TensorSpace((("b1", 4), ("b2", 2))))
    u.matrix[3, 5] = np.nan
    rep = causal_structure_report(u)
    assert all(np.isnan(raw) for raw in rep.raw_norms.values())
    assert rep.relation.pairs == frozenset(rep.raw_norms)
    assert np.isnan(pair_commutator_norm(u, "a2", "b1"))
    assert influences(u, "a2", "b1", warn=False)


def test_nan_after_construction_reads_as_composite_influence():
    # the embedded-commutator route must not read a NaN norm as a
    # commuting pair either
    u = UnitaryChannel(np.eye(4), qubit_space("a", 2), qubit_space("b", 2))
    assert not composite_influences(u, ["a1"], ["b2"])
    u.matrix[0, 0] = np.nan
    assert np.isnan(pair_commutator_norm(u, "a1", "b2"))
    assert composite_influences(u, ["a1"], ["b2"])


@st.composite
def framed_channels(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    out_dims = draw(st.permutations(dims))
    frame_dims = draw(st.permutations(dims))
    n_out = len(out_dims)
    betas = draw(st.lists(st.integers(0, n_out - 1), min_size=1,
                          max_size=n_out, unique=True))
    return dims, out_dims, frame_dims, betas, draw(st.integers(0, 2**16))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=framed_channels())
def test_image_from_a_frame_is_the_conjugated_image(case):
    # the image of U V^dag, read on a relabeled frame, is the image of U
    # conjugated by V, element for element and in the same order
    dims, out_dims, frame_dims, betas, seed = case
    rng = np.random.default_rng(seed)
    D = int(np.prod(dims))
    in_space = TensorSpace(tuple((f"a{i}", d) for i, d in enumerate(dims)))
    out = TensorSpace(tuple((f"b{i}", d) for i, d in enumerate(out_dims)))
    frame = TensorSpace(tuple((f"Z:{i}", d)
                              for i, d in enumerate(frame_dims)))
    U = UnitaryChannel(haar_unitary(D, rng), in_space, out)
    V = haar_unitary(D, rng)
    beta = [f"b{i}" for i in betas]
    seen = heisenberg_image(UnitaryChannel(U.matrix @ dagger(V), frame, out),
                            beta)
    assert seen.ambient == frame
    assert np.abs(seen.basis - V @ heisenberg_image(U, beta).basis
                  @ dagger(V)).max() <= 1e-12


def test_influence_path_forms_images_in_closed_form(monkeypatch):
    # the influence path neither embeds nor conjugates; the composite
    # route still does both, so it stays an independent check
    u = u3_channel()
    calls = []

    def embed(self, op, labels):
        calls.append("embed")
        return embed_orig(self, op, labels)

    def heisenberg(self, op):
        calls.append("heisenberg")
        return heisenberg_orig(self, op)
    embed_orig, heisenberg_orig = TensorSpace.embed, UnitaryChannel.heisenberg
    monkeypatch.setattr(TensorSpace, "embed", embed)
    monkeypatch.setattr(UnitaryChannel, "heisenberg", heisenberg)
    assert causal_structure_report(u).relation.same_pairs(c3_relation())
    assert causal_structure(u).same_pairs(c3_relation())
    assert pair_commutator_norm(u, "a2", "b2") > 0.5
    assert influences(u, "a2", "b2")
    assert calls == []
    assert composite_influences(u, ["a2"], ["b2"])
    assert {"embed", "heisenberg"} <= set(calls)


def test_choi_oracle_agrees_with_commutator_route():
    u = u3_channel()
    for a in u.in_space.labels:
        for b in u.out_space.labels:
            no_infl = not influences(u, a, b)
            assert no_influence_choi_oracle(u, [a], [b]) == no_infl, (a, b)
    # Composite pairs.
    assert no_influence_choi_oracle(u, ["a1"], ["b3"])
    assert not no_influence_choi_oracle(u, ["a1", "a3"], ["b1"])
    assert not no_influence_choi_oracle(u, ["a1"], ["b1", "b3"])
    assert not no_influence_choi_oracle(u, ["a2"], ["b1", "b2", "b3"])
    assert no_influence_choi_oracle(swap_channel(), ["a1"], ["b1"])
    assert not no_influence_choi_oracle(cnot_channel(), ["a2"], ["b1"])
    # Residuals are decisive, not marginal.
    assert choi_factorization_residual(u, ["a1"], ["b3"]) < 1e-12
    assert choi_factorization_residual(u, ["a1"], ["b1"]) > 0.1


def test_choi_oracle_random_channel_agreement():
    rng = np.random.default_rng(5)
    ins = qubit_space("a", 3)
    outs = qubit_space("b", 3)
    u = UnitaryChannel(haar_unitary(8, rng), ins, outs)
    for a in ins.labels:
        for b in outs.labels:
            assert no_influence_choi_oracle(u, [a], [b]) == \
                (not influences(u, a, b))


def test_atomicity():
    assert atomicity_check(u3_channel())
    ident = UnitaryChannel(np.eye(4), qubit_space("a", 2),
                           qubit_space("b", 2))
    assert atomicity_check(ident)
    rng = np.random.default_rng(31)
    u = UnitaryChannel(haar_unitary(8, rng), qubit_space("a", 3),
                       qubit_space("b", 3))
    assert atomicity_check(u)


def test_composite_influences_empty_sets():
    u = u3_channel()
    assert not composite_influences(u, [], ["b1"])
    assert not composite_influences(u, ["a1"], [])


def test_tensor_union_and_relabel():
    rng = np.random.default_rng(9)
    u = UnitaryChannel(haar_unitary(4, rng), qubit_space("a", 2),
                       qubit_space("b", 2))
    v = UnitaryChannel(haar_unitary(2, rng),
                       TensorSpace((("c1", 2),)), TensorSpace((("d1", 2),)))
    uv = u.tensor(v)
    rel = causal_structure(uv)
    rel_u = causal_structure(u)
    rel_v = causal_structure(v)
    assert rel.pairs == rel_u.pairs | rel_v.pairs
    # No cross influence between the blocks.
    for a in ("a1", "a2"):
        assert ("d1" not in [b for (x, b) in rel.pairs if x == a])
    # Relabeling permutes the structure.
    ren = u.relabeled(in_map={"a1": "p", "a2": "q"},
                      out_map={"b1": "r", "b2": "s"})
    rel_ren = causal_structure(ren)
    mapped = {( {"a1": "p", "a2": "q"}[a], {"b1": "r", "b2": "s"}[b])
              for (a, b) in rel_u.pairs}
    assert rel_ren.pairs == frozenset(mapped)
    with pytest.raises(InputError):
        u.tensor(u)


def test_with_leg_order():
    u = u3_channel()
    flipped = u.with_leg_order(["a3", "a2", "a1"], ["b2", "b1", "b3"])
    assert flipped.in_space.labels == ("a3", "a2", "a1")
    assert causal_structure(flipped).same_pairs(c3_relation())
    # Identity reorder keeps the matrix.
    same = u.with_leg_order()
    assert np.allclose(same.matrix, u.matrix)


def test_leg_permutations_are_not_checked_again(monkeypatch):
    # with_leg_order and group_legs permute a checked channel exactly, so
    # they run no unitarity check; the public constructor, fed the same
    # permuted matrix, checks it and gives the same channel bit for bit
    import causaldeco.causal as causal_module
    ins = TensorSpace((("a1", 2), ("a2", 3), ("a3", 2)))
    outs = TensorSpace((("b1", 3), ("b2", 2), ("b3", 2)))
    u = UnitaryChannel(haar_unitary(12, np.random.default_rng(7)), ins, outs)
    checked = []
    residual = causal_module.unitarity_residual
    monkeypatch.setattr(causal_module, "unitarity_residual",
                        lambda m: checked.append(m.shape) or residual(m))
    moved = u.with_leg_order(["a3", "a1", "a2"], ["b2", "b3", "b1"])
    grouped = group_legs(u, [("L", ["a2", "a1"]), ("R", ["a3"])],
                         [("M", ["b3", "b1"]), ("N", ["b2"])])
    assert checked == []
    assert moved.in_space == ins.subspace(["a3", "a1", "a2"])
    assert moved.out_space == outs.subspace(["b2", "b3", "b1"])
    assert grouped.in_space.factors == (("L", 6), ("R", 2))
    assert grouped.out_space.factors == (("M", 6), ("N", 2))
    for got, in_order, out_order in (
            (moved, ["a3", "a1", "a2"], ["b2", "b3", "b1"]),
            (grouped, ["a2", "a1", "a3"], ["b3", "b1", "b2"])):
        rows = outs.reorder(u.matrix, out_order)
        public = UnitaryChannel(ins.reorder(rows.T, in_order).T,
                                got.in_space, got.out_space)
        assert got.matrix.dtype == public.matrix.dtype
        assert got.matrix.shape == public.matrix.shape
        assert got.matrix.tobytes() == public.matrix.tobytes()
    assert checked == [(12, 12)] * 2


def test_unitary_json_roundtrip(tmp_path):
    u = u3_channel()
    text = unitary_to_json(u)
    back = unitary_from_json(text)
    assert np.allclose(back.matrix, u.matrix)
    assert back.in_space == u.in_space
    assert back.out_space == u.out_space
    p = tmp_path / "u.json"
    p.write_text(text)
    assert np.allclose(load_unitary(p).matrix, u.matrix)
    # Deterministic serialization.
    assert unitary_to_json(u) == text
    with pytest.raises(InputError):
        unitary_from_json("{\"in\": []}")
    with pytest.raises(InputError):
        unitary_from_json("not json")
    import json as json_mod
    doc = json_mod.loads(text)
    doc["matrix"][0][0] = [1.0]
    with pytest.raises(InputError):
        unitary_from_json(json_mod.dumps(doc))
    doc = json_mod.loads(text)
    doc["matrix"] = doc["matrix"][:3]
    with pytest.raises(InputError):
        unitary_from_json(json_mod.dumps(doc))


def test_matrix_cells_are_floats_for_any_input_dtype():
    # integer and real matrices write 1.0, not 1; signed zeros survive
    import json
    assert json.dumps(matrix_to_cells(np.eye(2, dtype=int))) == \
        "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]"
    assert json.dumps(matrix_to_cells(np.array([[-0.0, 2.5]]))) == \
        "[[[-0.0, 0.0], [2.5, 0.0]]]"
    signed = np.array([[complex(1, -0.0), complex(-0.0, -2)]])
    assert json.dumps(matrix_to_cells(signed)) == \
        "[[[1.0, -0.0], [-0.0, -2.0]]]"
    cells = matrix_to_cells(np.arange(6).reshape(2, 3))
    assert all(type(x) is float for row in cells for cell in row
               for x in cell)


def test_borderline_warning():
    theta = 1e-9
    phases = np.exp(-0.5j * theta * np.array([1.0, -1.0, -1.0, 1.0]))
    u = UnitaryChannel(np.diag(phases), qubit_space("a", 2),
                       qubit_space("b", 2))
    with pytest.warns(BorderlineToleranceWarning):
        influences(u, "a1", "b2")


def test_choi_dimension_cap():
    ins = TensorSpace((("a1", 8), ("a2", 8)))
    outs = TensorSpace((("b1", 8), ("b2", 8)))
    u = UnitaryChannel(np.eye(64), ins, outs)
    with pytest.raises(InputError):
        no_influence_choi_oracle(u, ["a1"], ["b1", "b2"])
