"""Operator-algebra toolkit tests.

Expected dimensions and projector ranks come from hand computation
(classical Wedderburn / double-commutant facts for small block
algebras); solver outputs are cross-checked against the defining
property (commutation, conjugation residuals) rather than against the
solver itself.
"""

import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import causaldeco.algebra as algebra_module
from causaldeco.algebra import (
    LemmaSplit,
    MatrixSubalgebra,
    SectorObstruction,
    UnitaryIso,
    _factor_at,
    _sectors_of_reductions,
    algebra_closure,
    _row_space,
    algebraic_lemma,
    centre,
    commutant,
    commutant_of,
    factorize_factor,
    is_factor,
    matrix_units,
    minimal_central_projectors,
    orthonormalize,
    reduce_onto_legs,
    sectorize,
    split_commuting_factors,
)
from causaldeco.causal import UnitaryChannel, heisenberg_image
from causaldeco.errors import InputError, NumericsError
from causaldeco.tensorspace import TensorSpace, dagger, haar_unitary
from test_cli import source_env

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def space(*factors):
    return TensorSpace(tuple(factors))


def test_orthonormalize_and_units():
    units = matrix_units(3)
    basis = orthonormalize(np.stack(units))
    assert basis.shape == (9, 3, 3)
    g = basis.reshape(9, 9)
    assert np.allclose(g @ g.conj().T, np.eye(9), atol=1e-12)
    # Dependent family collapses to its true rank.
    fam = [SX, 2 * SX, SZ]
    assert orthonormalize(np.stack(fam)).shape[0] == 2


def test_algebra_closure_small_cases():
    amb = space(("q", 2))
    # Closure of a single Pauli: span{1, X}, hand computation.
    alg = algebra_closure(amb, [SX])
    assert alg.dim == 2
    assert alg.contains(np.eye(2))
    assert alg.contains(SX)
    assert not alg.contains(SZ)
    # Two anticommuting Paulis generate all of M2.
    assert algebra_closure(amb, [SX, SZ]).dim == 4
    # A generic diagonal matrix generates the diagonal algebra.
    diag = algebra_closure(amb, [np.diag([1.0, 2.0])])
    assert diag.dim == 2
    assert diag.contains(np.diag([3.0, -1.0]))
    assert not diag.contains(SX)


def test_algebra_closure_needs_words():
    # Z(x)X squares to the identity but its closure on one leg is only
    # two dimensional; with Z(x)X and X(x)1 the products generate more.
    amb = space(("a", 2), ("x", 2))
    zx = np.kron(SZ, SX)
    alg = algebra_closure(amb, [zx])
    assert alg.dim == 2
    bigger = algebra_closure(amb, [zx, np.kron(SX, np.eye(2))])
    # Hand computation: products close on span{1(x)1, X(x)1, Z(x)X,
    # Y(x)X}, e.g. (Z(x)X)(X(x)1) = iY(x)X, (Y(x)X)(Z(x)X) = -iX(x)1.
    assert bigger.dim == 4
    assert bigger.contains(np.kron(SX, np.eye(2)))
    sy = np.array([[0, -1j], [1j, 0]])
    assert bigger.contains(np.kron(sy, SX))
    assert not bigger.contains(np.kron(SZ, np.eye(2)))


def test_commutant_known_cases():
    # Commutant of M2 (x) 1 inside M4 is 1 (x) M2, hand computation.
    amb = space(("a", 2), ("b", 2))
    gens = [np.kron(e, np.eye(2)) for e in matrix_units(2)]
    comm = commutant_of(gens, amb)
    assert comm.dim == 4
    for e in matrix_units(2):
        assert comm.contains(np.kron(np.eye(2), e))
    # Commutant of the full algebra is the scalars.
    full = MatrixSubalgebra.full(space(("q", 3)))
    assert commutant(full).dim == 1
    # Commutant of the scalars is everything.
    scal = MatrixSubalgebra.scalars(space(("q", 3)))
    assert commutant(scal).dim == 9


def test_commutant_against_definition():
    # Independent route: every claimed commutant element must commute
    # with every algebra element, and the dimension must match the
    # block-structure count sum(m_i^2) for a known block algebra.
    rng = np.random.default_rng(7)
    amb = space(("q", 5))
    # Block algebra M2 (+) M3 embedded block-diagonally.
    gens = []
    for e in matrix_units(2):
        g = np.zeros((5, 5), dtype=complex)
        g[:2, :2] = e
        gens.append(g)
    for e in matrix_units(3):
        g = np.zeros((5, 5), dtype=complex)
        g[2:, 2:] = e
        gens.append(g)
    alg = algebra_closure(amb, gens)
    assert alg.dim == 13
    comm = commutant(alg)
    # Hand computation: commutant of M2 (+) M3 is C (+) C, dimension 2.
    assert comm.dim == 2
    for c in comm.basis:
        for a in alg.basis:
            assert np.linalg.norm(c @ a - a @ c) < 1e-9
    # Double commutant returns the original span.
    back = commutant(comm)
    assert back.same_span(alg)
    # And for a randomly generated algebra as well.
    w = haar_unitary(5, rng)
    rand = algebra_closure(amb, [w @ g @ dagger(w) for g in gens[:4]])
    assert commutant(commutant(rand)).same_span(rand)


def test_centre_and_is_factor():
    amb = space(("q", 5))
    gens = []
    for e in matrix_units(2):
        g = np.zeros((5, 5), dtype=complex)
        g[:2, :2] = e
        gens.append(g)
    for e in matrix_units(3):
        g = np.zeros((5, 5), dtype=complex)
        g[2:, 2:] = e
        gens.append(g)
    blocks = algebra_closure(amb, gens)
    z = centre(blocks)
    # Hand computation: centre of M2 (+) M3 is spanned by the two block
    # identities.
    assert z.dim == 2
    p2 = np.diag([1.0, 1, 0, 0, 0]).astype(complex)
    p3 = np.diag([0.0, 0, 1, 1, 1]).astype(complex)
    assert z.contains(p2)
    assert z.contains(p3)
    assert not is_factor(blocks)
    assert is_factor(MatrixSubalgebra.full(space(("q", 4))))
    assert is_factor(MatrixSubalgebra.scalars(space(("q", 3))))
    diag = algebra_closure(space(("q", 2)), [SZ])
    assert not is_factor(diag)


@pytest.mark.parametrize("D", [2, 4, 8])
def test_conjugated_scalars_are_a_factor(D):
    # Every commutator of a scalar algebra is rounding noise, which must
    # not count as rank and empty the centre.
    w = haar_unitary(D, np.random.default_rng(D))
    one = w @ np.eye(D) @ dagger(w)
    alg = algebra_closure(space(("q", D)), [one])
    assert alg.dim == 1
    assert is_factor(alg)
    assert centre(alg).dim == 1


def test_minimal_central_projectors_blocks():
    # M2 (+) M3 sectorization: two central projectors of ranks 2 and 3.
    amb = space(("q", 5))
    gens = []
    for e in matrix_units(2):
        g = np.zeros((5, 5), dtype=complex)
        g[:2, :2] = e
        gens.append(g)
    for e in matrix_units(3):
        g = np.zeros((5, 5), dtype=complex)
        g[2:, 2:] = e
        gens.append(g)
    blocks = algebra_closure(amb, gens)
    projs = minimal_central_projectors(blocks, seed=3)
    assert len(projs) == 2
    ranks = sorted(int(round(np.real(np.trace(p)))) for p in projs)
    assert ranks == [2, 3]
    total = sum(projs)
    assert np.allclose(total, np.eye(5), atol=1e-9)
    for p in projs:
        assert np.linalg.norm(p @ p - p) < 1e-9
    # Same structure survives a change of basis.
    w = haar_unitary(5, np.random.default_rng(11))
    moved = algebra_closure(amb, [w @ g @ dagger(w) for g in gens])
    projs2 = minimal_central_projectors(moved, seed=3)
    ranks2 = sorted(int(round(np.real(np.trace(p)))) for p in projs2)
    assert ranks2 == [2, 3]


def test_factorize_factor_trivial_and_full():
    amb = space(("q", 4))
    scal = MatrixSubalgebra.scalars(amb)
    iso, d, m = factorize_factor(scal, seed=0)
    assert (d, m) == (1, 4)
    assert np.allclose(iso.matrix, np.eye(4))
    full = MatrixSubalgebra.full(amb)
    iso2, d2, m2 = factorize_factor(full, seed=0)
    assert (d2, m2) == (4, 1)
    for e in matrix_units(4):
        assert np.linalg.norm(iso2.conj(e)) > 0.9


def test_factorize_factor_rejects_square_dimensional_non_factor():
    # the diagonal algebra on D=4 has dimension 4 = 2^2 but is commutative
    diag = algebra_closure(space(("q", 4)),
                           [np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)])
    assert diag.dim == 4
    with pytest.raises(NumericsError):
        factorize_factor(diag, seed=0)


@pytest.mark.parametrize("d,m,seed", [(2, 2, 0), (2, 3, 1), (3, 2, 2),
                                      (2, 4, 3), (4, 2, 4), (3, 3, 5),
                                      (4, 4, 6)])
def test_factorize_factor_roundtrip(d, m, seed):
    # Wedderburn round trip on hidden M_d (x) 1_m, dims 4 through 16.
    rng = np.random.default_rng(seed)
    D = d * m
    amb = space(("q", D))
    w = haar_unitary(D, rng)
    gens = [w @ np.kron(e, np.eye(m)) @ dagger(w) for e in matrix_units(d)]
    alg = algebra_closure(amb, gens)
    assert alg.dim == d * d
    assert is_factor(alg)
    iso, dd, mm = factorize_factor(alg, seed=seed)
    assert (dd, mm) == (d, m)
    pair = TensorSpace((("f", d), ("c", m)))
    for g in gens:
        small, resid = pair.restrict(iso.conj(g), ["f"])
        assert resid < 1e-8
    # Reverse direction lands back inside the algebra.
    for e in matrix_units(d):
        assert alg.residual(iso.inv_conj(np.kron(e, np.eye(m)))) < 1e-8


def test_split_single_factor_is_identity():
    amb = space(("q", 3))
    full = MatrixSubalgebra.full(amb)
    iso, dims = split_commuting_factors([full], amb, seed=0)
    assert dims == [3]
    assert np.allclose(iso.matrix, np.eye(3))


def test_split_two_factors_in_m4():
    amb = space(("a", 2), ("b", 2))
    b1 = algebra_closure(amb, [np.kron(e, np.eye(2))
                               for e in matrix_units(2)])
    b2 = algebra_closure(amb, [np.kron(np.eye(2), e)
                               for e in matrix_units(2)])
    iso, dims = split_commuting_factors([b1, b2], amb, seed=0)
    assert dims == [2, 2]
    cod = iso.codomain
    for g in b1.basis:
        _, resid = cod.restrict(iso.conj(g), [cod.labels[0]])
        assert resid < 1e-8
    for g in b2.basis:
        _, resid = cod.restrict(iso.conj(g), [cod.labels[1]])
        assert resid < 1e-8


def test_split_hidden_three_factors():
    rng = np.random.default_rng(21)
    amb = space(("q", 8))
    w = haar_unitary(8, rng)
    layouts = [
        [np.kron(np.kron(e, np.eye(2)), np.eye(2)) for e in matrix_units(2)],
        [np.kron(np.kron(np.eye(2), e), np.eye(2)) for e in matrix_units(2)],
        [np.kron(np.kron(np.eye(2), np.eye(2)), e) for e in matrix_units(2)],
    ]
    bs = [algebra_closure(amb, [w @ g @ dagger(w) for g in gens])
          for gens in layouts]
    iso, dims = split_commuting_factors(bs, amb, seed=5)
    assert dims == [2, 2, 2]
    cod = iso.codomain
    for k, b in enumerate(bs):
        for g in b.basis:
            _, resid = cod.restrict(iso.conj(g), [cod.labels[k]])
            assert resid < 1e-8
    # Non-commuting inputs are rejected.
    with pytest.raises(NumericsError):
        split_commuting_factors([bs[0], bs[0]], amb, seed=0)


def test_split_last_leg_absorbs_multiplicity():
    # Two commuting M2's inside dim 12 = 2*2*3: the last leg keeps the
    # extra multiplicity 3, so dims come out [2, 6].
    amb = space(("q", 12))
    rng = np.random.default_rng(4)
    w = haar_unitary(12, rng)
    g1 = [w @ np.kron(e, np.eye(6)) @ dagger(w) for e in matrix_units(2)]
    g2 = [w @ np.kron(np.eye(2), np.kron(e, np.eye(3))) @ dagger(w)
          for e in matrix_units(2)]
    b1 = algebra_closure(amb, g1)
    b2 = algebra_closure(amb, g2)
    iso, dims = split_commuting_factors([b1, b2], amb, seed=2)
    assert dims == [2, 6]
    cod = iso.codomain
    for g in b2.basis:
        _, resid = cod.restrict(iso.conj(g), [cod.labels[1]])
        assert resid < 1e-8


def closure_of_all_blocks(B, target):
    """The reduction by the former route: the closure of the blocks,
    over the rest legs, of every basis element of B."""
    amb = B.ambient
    p = amb.permutation_to(list(amb.complement(target)) + list(target))
    d_t = amb.subspace(target).total_dim
    d_r = amb.total_dim // d_t
    blocks = [(p @ b @ p.T).reshape(d_r, d_t, d_r, d_t)[i, :, j, :]
              for b in B.basis for i in range(d_r) for j in range(d_r)]
    return algebra_closure(amb.subspace(target),
                           orthonormalize(np.stack(blocks)))


def test_reduce_onto_legs():
    amb = space(("a", 2), ("x", 2))
    full_a = algebra_closure(amb, [np.kron(e, np.eye(2))
                                   for e in matrix_units(2)])
    red = reduce_onto_legs(full_a, ["a"])
    assert red.dim == 4
    assert red.same_span(closure_of_all_blocks(full_a, ["a"]))
    # Correlated generator Z(x)X reduces to the diagonal algebra on a:
    # hand computation via its Schmidt factors {1, Z}.
    corr = algebra_closure(amb, [np.kron(SZ, SX)])
    red2 = reduce_onto_legs(corr, ["a"])
    assert red2.dim == 2
    assert red2.contains(np.diag([1.0, -1.0]))
    assert not red2.contains(SX)
    assert red2.same_span(closure_of_all_blocks(corr, ["a"]))
    # |0><0| x Z + |1><1| x X: the Schmidt factors span {1, Z, X} only,
    # and their products complete it to all of M2 on x
    p0 = np.diag([1.0, 0.0])
    sectors = algebra_closure(amb, [np.kron(p0, SZ),
                                    np.kron(np.eye(2) - p0, SX)])
    assert sectors.dim == 4
    red3 = reduce_onto_legs(sectors, ["x"])
    assert red3.dim == 4
    assert red3.same_span(closure_of_all_blocks(sectors, ["x"]))
    # a large algebra on small target legs takes the generic route:
    # M_2 x 1 x M_2 on (a, y, x) reduced onto x, n = 2 < dim 16
    amb3 = space(("a", 2), ("y", 2), ("x", 2))
    big = algebra_closure(amb3, [amb3.embed(m, ["a", "x"])
                                 for m in matrix_units(4)])
    assert big.dim == 16
    with mock.patch.object(algebra_module, "_generic_elements",
                           wraps=algebra_module._generic_elements) as draw:
        red4 = reduce_onto_legs(big, ["x"])
    assert [c.args[1] for c in draw.call_args_list] == [2]
    assert red4.dim == 4
    assert red4.same_span(closure_of_all_blocks(big, ["x"]))


def _diagonal_pair_setup():
    # Two commuting algebras sharing qubit a, each correlating the
    # diagonal of a with a private X leg.  Their reductions onto a are
    # both the diagonal algebra, so they cannot span M2: the joint
    # sector structure has two one-dimensional sectors.
    amb = space(("a", 2), ("x1", 2), ("x2", 2))
    z_a = amb.embed(SZ, ["a"])
    x1 = amb.embed(SX, ["x1"])
    x2 = amb.embed(SX, ["x2"])
    b1 = algebra_closure(amb, [z_a @ x1])
    b2 = algebra_closure(amb, [z_a @ x2])
    return amb, b1, b2


def test_sectorize_diagonal_pair():
    amb, b1, b2 = _diagonal_pair_setup()
    sec = sectorize(["a"], [["x1"], ["x2"]], [b1, b2], seed=0)
    assert sec.n_sectors == 2
    assert sec.sectors == ((1, 1), (1, 1))
    ranks = sorted(int(round(np.real(np.trace(p)))) for p in sec.projectors)
    assert ranks == [1, 1]
    total = sum(sec.projectors)
    assert np.allclose(total, np.eye(2), atol=1e-9)


def test_algebraic_lemma_success():
    # Spanning case: M2 (x) 1 and 1 (x) M2 on a dim-4 shared leg, hidden
    # behind a random unitary on that leg.
    rng = np.random.default_rng(13)
    amb = space(("a", 4), ("x1", 2))
    w = haar_unitary(4, rng)
    g1 = [amb.embed(w @ np.kron(e, np.eye(2)) @ dagger(w), ["a"])
          for e in matrix_units(2)]
    g2 = [amb.embed(w @ np.kron(np.eye(2), e) @ dagger(w), ["a"])
          for e in matrix_units(2)]
    b1 = algebra_closure(amb, g1)
    b2 = algebra_closure(amb, g2)
    out = algebraic_lemma(["a"], [["x1"], []], [b1, b2], seed=0)
    assert isinstance(out, LemmaSplit)
    assert out.leg_dims == (2, 2)
    cod = out.iso.codomain
    for g in g1:
        small, _ = amb.restrict(g, ["a"])
        _, resid = cod.restrict(out.iso.conj(small), [cod.labels[0]])
        assert resid < 1e-8


def test_algebraic_lemma_obstruction():
    # Factors M2 on (a, x_k), generated by X on x_k and Z on a times Z on
    # x_k.  Both reduce onto a to the diagonal algebra, which cannot
    # span M2, so the lemma reports two sectors.
    amb = space(("a", 2), ("x1", 2), ("x2", 2))
    z_a = amb.embed(SZ, ["a"])
    bs = [algebra_closure(amb, [amb.embed(SX, [x]),
                                z_a @ amb.embed(SZ, [x])])
          for x in ("x1", "x2")]
    assert all(b.dim == 4 and is_factor(b) for b in bs)
    out = algebraic_lemma(["a"], [["x1"], ["x2"]], bs, seed=0)
    assert isinstance(out, SectorObstruction)
    assert out.decomposition.n_sectors == 2
    assert "sector" in out.message
    # the commutative pair span{1, Z_a X_xk} breaks the factor hypothesis
    _, b1, b2 = _diagonal_pair_setup()
    with pytest.raises(NumericsError, match="not a factor"):
        algebraic_lemma(["a"], [["x1"], ["x2"]], [b1, b2], seed=0)


def test_algebraic_lemma_rejects_bad_layout():
    amb, b1, b2 = _diagonal_pair_setup()
    with pytest.raises(InputError):
        algebraic_lemma(["a"], [["x1"]], [b1, b2], seed=0)
    with pytest.raises(InputError):
        algebraic_lemma(["a"], [["x1"], ["x1"]], [b1, b2], seed=0)
    with pytest.raises(InputError):
        algebraic_lemma(["a"], [["x1"], ["a"]], [b1, b2], seed=0)
    # Support violation: an algebra touching the other side's X leg.
    amb2 = amb
    bad = algebra_closure(amb2, [amb2.embed(SX, ["x2"])])
    with pytest.raises(NumericsError, match="not supported"):
        algebraic_lemma(["a"], [["x1"], ["x2"]], [bad, b2], seed=0)


def test_algebraic_lemma_rejects_broken_hypotheses():
    # Factors on (a, x1, x2) that break exactly one hypothesis each.
    amb = space(("a", 2), ("x1", 2), ("x2", 2))

    def m2(*gens):
        alg = algebra_closure(amb, [amb.embed(g, legs) for g, legs in gens])
        assert alg.dim == 4 and is_factor(alg)
        return alg

    on_a = m2((SX, ["a"]), (SZ, ["a"]))
    on_a_x2 = m2((SX, ["x2"]), (np.kron(SZ, SZ), ["a", "x2"]))
    # Z_a and X_a X_x2 commute with X_x2 and Z_a Z_x2
    partner = m2((SZ, ["a"]), (np.kron(SX, SX), ["a", "x2"]))
    with pytest.raises(NumericsError, match="do not commute"):
        algebraic_lemma(["a"], [["x1"], ["x2"]], [on_a, on_a_x2], seed=0)
    # on_a_x2 leaks onto x2, the X leg of its partner
    with pytest.raises(NumericsError, match="algebra 0 is not supported"):
        algebraic_lemma(["a"], [["x1"], ["x2"]], [on_a_x2, partner], seed=0)


def test_algebraic_lemma_one_sector_short_of_spanning():
    # M2 (x) 1 (x) 1 and 1 (x) M2 (x) 1 in dim 8: trivial centres give
    # one sector, but the reductions multiply to 16 < 64, so the shared
    # leg does not split into their two legs
    amb = space(("a", 8))
    w = haar_unitary(8, np.random.default_rng(3))
    b1 = algebra_closure(amb, [w @ np.kron(e, np.eye(4)) @ dagger(w)
                               for e in matrix_units(2)])
    b2 = algebra_closure(amb, [w @ np.kron(np.kron(np.eye(2), e),
                                           np.eye(2)) @ dagger(w)
                               for e in matrix_units(2)])
    out = algebraic_lemma(["a"], [[], []], [b1, b2], seed=0)
    assert isinstance(out, SectorObstruction)
    assert out.decomposition.n_sectors == 1
    assert out.decomposition.sectors == ((2, 4),)


@st.composite
def hidden_commuting_factors(draw):
    """Shared leg a = C^d1 (x) C^d2 (x) C^m behind a Haar unitary, with
    private qubits x1, x2.  B_k is M_{d_k} on its tensor factor of a; if
    it carries the sign S = P - (1 - P) of a rank-r projector P on C^m,
    it also holds the M2 generated by S (x) X_xk and Z_xk, so it stays a
    factor while its reduction onto a is the block sum M_{d_k} (x) span{P,
    1 - P}."""
    m = draw(st.integers(1, 3))
    d1, d2 = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(
        lambda t: t[0] * t[1] * m <= 8))
    signs = draw(st.tuples(st.booleans(), st.booleans())) if m > 1 \
        else (False, False)
    r = draw(st.integers(1, m - 1)) if m > 1 else 0
    return d1, d2, m, signs, r, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=hidden_commuting_factors())
def test_algebraic_lemma_splits_exactly_when_reductions_span(case):
    d1, d2, m, signs, r, seed = case
    d_a = d1 * d2 * m
    amb = space(("a", d_a), ("x1", 2), ("x2", 2))
    w = haar_unitary(d_a, np.random.default_rng(seed))

    def on_a(mat):
        return amb.embed(w @ mat @ dagger(w), ["a"])
    sign = on_a(np.kron(np.eye(d1 * d2),
                        np.diag([1.0] * r + [-1.0] * (m - r))))
    bs = []
    for k, units in enumerate(
            ([np.kron(e, np.eye(d2 * m)) for e in matrix_units(d1)],
             [np.kron(np.kron(np.eye(d1), e), np.eye(m))
              for e in matrix_units(d2)])):
        gens = [on_a(e) for e in units]
        if signs[k]:
            x = f"x{k + 1}"
            gens += [sign @ amb.embed(SX, [x]), amb.embed(SZ, [x])]
        bs.append(algebra_closure(amb, gens))
    a_space = amb.subspace(["a"])
    reduced = [reduce_onto_legs(b, ["a"]) for b in bs]
    spans = algebra_closure(
        a_space, [g for red in reduced for g in red.basis]).dim == d_a ** 2
    out = algebraic_lemma(["a"], [["x1"], ["x2"]], bs, seed=seed % 97)
    assert isinstance(out, LemmaSplit) == spans
    if spans:
        assert out.leg_dims == (d1, d2)
        cod = out.iso.codomain
        for k, red in enumerate(reduced):
            for g in red.basis:
                _, resid = cod.restrict(out.iso.conj(g), [cod.labels[k]])
                assert resid < 1e-8
    else:
        assert out.decomposition.n_sectors == (2 if any(signs) else 1)



def block_algebra(blocks, w):
    """w (+_i M_{d_i} (x) 1_{m_i}) w^dag, with an orthonormal basis."""
    D = w.shape[0]
    basis = []
    start = 0
    for d, m in blocks:
        for e in matrix_units(d):
            g = np.zeros((D, D), dtype=complex)
            g[start:start + d * m, start:start + d * m] = \
                np.kron(e, np.eye(m)) / np.sqrt(m)
            basis.append(w @ g @ dagger(w))
        start += d * m
    return MatrixSubalgebra(space(("q", D)), np.stack(basis))


BLOCKS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  min_size=1, max_size=3).filter(
    lambda bl: sum(d * m for d, m in bl) <= 12)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(blocks=BLOCKS,
       out_dims=st.tuples(st.integers(1, 4), st.integers(1, 3)),
       betas=st.sampled_from([["b1"], ["b2"], ["b1", "b2"]]),
       seed=st.integers(0, 2**32 - 1))
def test_block_algebra_properties(blocks, out_dims, betas, seed):
    # Wedderburn facts of a hidden block algebra, and the closed-form
    # Heisenberg image basis against the conjugated matrix units.
    rng = np.random.default_rng(seed)
    S = block_algebra(blocks, haar_unitary(sum(d * m for d, m in blocks),
                                           rng))
    assert centre(S).dim == len(blocks)
    assert is_factor(S) == (len(blocks) == 1)
    assert commutant(commutant(S)).same_span(S)
    outs = space(("b1", out_dims[0]), ("b2", out_dims[1]))
    D = outs.total_dim
    U = UnitaryChannel(haar_unitary(D, rng), space(("a", D)), outs)
    img = heisenberg_image(U, betas)
    d_beta = outs.subspace(betas).total_dim
    assert img.dim == d_beta ** 2
    v = img.basis.reshape(img.dim, -1)
    assert np.abs(v.conj() @ v.T - np.eye(img.dim)).max() <= 1e-12
    for e in matrix_units(d_beta):
        assert img.contains(U.heisenberg(outs.embed(e, betas)))


def oracle_centre_dim(S):
    """The former centre solve: the null space of the stacked commutator
    map on all D^2 matrix entries, by a plain SVD, with the same cut."""
    test = S.test_elements()
    m = np.concatenate([np.stack([b @ g - g @ b for b in S.basis])
                        .reshape(S.dim, -1).T for g in test])
    s = np.linalg.svd(m, compute_uv=False)
    floor = 1e-9 * max(np.linalg.norm(g) for g in test)
    cut = max(1e-9 * s[0], floor) * np.sqrt(max(m.shape))
    return S.dim - int(np.sum(s > cut))


@st.composite
def block_and_image_algebras(draw):
    """A hidden block algebra, or the Heisenberg image of a Haar channel
    on an output leg of dim d_b beside a leg of dim d_r: d_b^2 sits
    below, at or above D = d_b d_r as d_b < d_r, = d_r or > d_r."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        blocks = draw(BLOCKS)
        D = sum(d * m for d, m in blocks)
        return block_algebra(blocks, haar_unitary(D, rng))
    d_b, d_r = draw(st.sampled_from(
        [(1, 3), (2, 4), (2, 3), (2, 2), (3, 3), (3, 2), (4, 2), (3, 1)]))
    outs = space(("b", d_b), ("r", d_r))
    D = outs.total_dim
    return heisenberg_image(
        UnitaryChannel(haar_unitary(D, rng), space(("a", D)), outs), ["b"])


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(S=block_and_image_algebras())
def test_centre_and_factor_match_entry_solve(S):
    # the centre in the algebra's own coordinates, and the factor test
    # on the cyclic subspace of a generic vector, against the solve on
    # all D^2 matrix entries
    expected = oracle_centre_dim(S)
    assert centre(S).dim == expected
    assert is_factor(S) == (expected == 1)


def centre_ambients(S, call):
    """call(S), and the ambient dims of the algebras centre was run on."""
    dims = []

    def spy(alg):
        dims.append(alg.ambient.total_dim)
        return centre(alg)
    with mock.patch.object(algebra_module, "centre", spy):
        return call(S), dims


def test_factor_test_runs_on_the_cyclic_subspace():
    # M_2 x 1_4 compresses to M_2 x 1_2 on the 4-dim span of b_i v; a
    # block algebra M_1 x 1_3 + M_2 x 1_3 to M_1 + M_2 x 1_2 on 5 dims
    rng = np.random.default_rng(5)
    outs = space(("b", 2), ("r", 4))
    img = heisenberg_image(
        UnitaryChannel(haar_unitary(8, rng), space(("a", 8)), outs), ["b"])
    assert centre_ambients(img, is_factor) == (True, [4])
    S = block_algebra([(1, 3), (2, 3)], haar_unitary(9, rng))
    assert centre_ambients(S, is_factor) == (False, [5])


def test_factor_test_falls_back_on_a_degenerate_vector():
    # v on the first block of M_2 + M_2 spans a 2-dim subspace where the
    # compression is M_2, a factor of dim 4 < 8: the dimension check
    # refuses it and the test runs on S itself
    S = block_algebra([(2, 1), (2, 1)], np.eye(4))
    v = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
    assert centre_ambients(S, lambda S: _factor_at(S, v)) == (False, [4])
    # an empty basis spans nothing either, and its centre is refused
    with pytest.raises(InputError, match="empty"):
        is_factor(MatrixSubalgebra(space(("q", 2)), np.zeros((0, 2, 2))))


def test_factor_test_never_forms_a_d_squared_map(monkeypatch):
    # the image of a 4-dim output leg at D=128 is tested on 16 dims: no
    # rank decision sees a matrix with D^2 rows or columns
    rng = np.random.default_rng(0)
    outs = space(("b", 4), ("r", 32))
    img = heisenberg_image(
        UnitaryChannel(haar_unitary(128, rng), space(("a", 128)), outs), ["b"])
    shapes = []

    def recording(m):
        shapes.append(np.shape(m))
        return _row_space(m)
    monkeypatch.setattr(algebra_module, "_row_space", recording)
    assert is_factor(img)
    assert shapes
    assert all(128 ** 2 not in shape for shape in shapes), shapes


@st.composite
def leg_algebras(draw):
    """Ambient legs of dims 2-3 and maybe one of dim 1, a target in any
    order, and generators that are tensor products of per-leg factors:
    the identity, a fixed projector of the leg or its complement, a
    generic element of a freshly rotated diagonal algebra, or a generic
    matrix.  Half the cases are P x A1 + (1 - P) x A2 with P on the rest
    legs: the Schmidt factors span A1 + A2, which only the closure
    completes."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=2,
                         max_size=3).filter(lambda ds: np.prod(ds) <= 16))
    if draw(st.booleans()):
        dims.insert(draw(st.integers(0, len(dims))), 1)
    labels = [f"l{i}" for i in range(len(dims))]
    order = draw(st.permutations(labels))
    target = order[:draw(st.integers(1, len(labels)))]
    if draw(st.booleans()):
        kinds = [["diag" if l in target else side for l in labels]
                 for side in ("proj", "co")]
    else:
        kinds = draw(st.lists(
            st.lists(st.sampled_from(["diag", "proj", "co", "full", "one"]),
                     min_size=len(dims), max_size=len(dims)),
            min_size=1, max_size=3))
    return dims, labels, target, kinds, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(case=leg_algebras())
def test_reduction_is_double_commutant_of_schmidt_factors(case):
    dims, labels, target, kinds, seed = case
    amb = space(*zip(labels, dims))
    target_space = amb.subspace(target)
    assume(target_space.total_dim <= 8)
    rng = np.random.default_rng(seed)
    projs = [np.diag(np.arange(d) < max(1, d // 2)) for d in dims]
    gens = []
    for per_leg in kinds:
        g = np.eye(1)
        for d, proj, kind in zip(dims, projs, per_leg):
            if kind == "one":
                f = np.eye(d)
            elif kind == "proj":
                f = proj
            elif kind == "co":
                f = np.eye(d) - proj
            elif kind == "diag":
                u = haar_unitary(d, rng)
                f = u @ np.diag(rng.standard_normal(d)) @ dagger(u)
            else:
                f = rng.standard_normal((d, d)) \
                    + 1j * rng.standard_normal((d, d))
            g = np.kron(g, f)
        gens.append(g)
    B = algebra_closure(amb, gens)
    # an older route: the commutant of the Schmidt factors, twice
    rest = [l for l in labels if l not in target]
    ys = [y for b in B.basis for y in amb.schmidt_right_factors(b, rest)]
    p = amb.subspace([l for l in labels if l in target]) \
        .permutation_to(target)
    oracle = commutant(commutant_of([p @ y @ p.T for y in ys],
                                    target_space))
    # before closing, the orthonormalised blocks of the seed elements
    # lie in the span of the (reordered) Schmidt factors; the seed is a
    # few generic elements, so that span may be larger
    seeds = []

    def capture(ambient, mats):
        seeds.append(np.asarray(mats))
        return algebra_closure(ambient, mats)
    with mock.patch("causaldeco.algebra.algebra_closure", capture):
        reduced = reduce_onto_legs(B, target)
    factors = MatrixSubalgebra(target_space,
                               orthonormalize([p @ y @ p.T for y in ys]))
    assert len(seeds) == 1
    assert MatrixSubalgebra(target_space, seeds[0]).spans_subspace_of(factors)
    assert reduced.same_span(oracle)
    assert reduced.same_span(closure_of_all_blocks(B, target))


@pytest.mark.parametrize("shape", [(96, 8), (40, 20), (9, 9), (6, 15)])
def test_row_space_matches_svd(shape):
    # tall inputs (at least twice as many rows as columns) go through R,
    # the others straight to the SVD; both give numpy's s and row space
    rng = np.random.default_rng(shape[0])
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # a rank-deficient variant too, so the projector is not the identity
    for mat in (m, m[:, :1] @ m[:1, :] + m[:, 1:2] @ m[1:2, :]):
        s, vh = _row_space(mat)
        _, s_ref, vh_ref = np.linalg.svd(mat, full_matrices=False)
        assert np.abs(s - s_ref).max() <= 1e-12 * s_ref[0]
        r = int(np.sum(s_ref > 1e-9 * s_ref[0]))
        proj = dagger(vh[:r]) @ vh[:r]
        proj_ref = dagger(vh_ref[:r]) @ vh_ref[:r]
        assert np.abs(proj - proj_ref).max() <= 1e-12


def test_non_finite_rank_input_raises():
    # LAPACK's SVD can hang on an inf entry, so the check runs in a
    # child process: a regression fails on the timeout instead of hanging
    script = textwrap.dedent("""
        import numpy as np
        from causaldeco.algebra import (MatrixSubalgebra, algebra_closure,
                                        centre, is_factor, matrix_units,
                                        orthonormalize)
        from causaldeco.errors import NumericsError
        from causaldeco.tensorspace import TensorSpace
        amb = TensorSpace((("a", 2),))
        for bad in (np.inf, np.nan):
            m = np.array([[bad, 0], [0, 1]], dtype=complex)
            # a full basis of M_2 takes the centre's integer shortcut
            units = np.stack(matrix_units(2))
            units[3, 1, 1] = bad
            calls = (lambda: orthonormalize(m),
                     lambda: algebra_closure(amb, [m]),
                     lambda: centre(MatrixSubalgebra(amb, m[None])),
                     lambda: is_factor(MatrixSubalgebra(amb, m[None])),
                     lambda: centre(MatrixSubalgebra(amb, units)))
            for call in calls:
                try:
                    call()
                except NumericsError:
                    print("refused")
                else:
                    print("accepted")
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60,
                         env=source_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["refused"] * 10


def test_non_finite_svd_input_raises():
    # the SVDs outside _row_space get the same finite check; each site
    # is fed inf and NaN in a child process, for the same reason
    script = textwrap.dedent("""
        import numpy as np
        from causaldeco import algebra
        from causaldeco.decompose import _output_rotation
        from causaldeco.errors import NumericsError
        from causaldeco.tensorspace import TensorSpace
        pair = TensorSpace((("x", 2), ("y", 2)))
        amb = TensorSpace((("a", 2),))
        # finite projectors, so the partial-isometry SVD is reached
        algebra._spectral_projectors = lambda S, rng, count: [
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex)]
        for bad in (np.inf, np.nan):
            m4 = np.eye(4, dtype=complex)
            m4[1, 0] = bad
            m2 = np.eye(2, dtype=complex)
            m2[1, 0] = bad
            units = np.stack(algebra.matrix_units(2))
            units[2] = m2  # E_10 with a non-finite entry
            calls = (
                lambda: pair.schmidt_right_factors(m4, ["x"]),
                lambda: algebra.factorize_factor(
                    algebra.MatrixSubalgebra(amb, units)),
                lambda: algebra._projected_unitary(m2),
                lambda: _output_rotation(
                    algebra.MatrixSubalgebra(pair, np.stack([m4] * 4)), pair,
                    ["x", "y"], algebra.UnitaryIso(np.eye(4), pair, pair),
                    "x"))
            for call in calls:
                try:
                    call()
                except NumericsError:
                    print("refused")
                else:
                    print("accepted")
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60,
                         env=source_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["refused"] * 8


def _with_nan(mat):
    mat = np.array(mat, dtype=complex)
    mat.flat[0] = np.nan
    return mat


def test_nan_eigenvectors_refused_by_projector_checks(monkeypatch):
    # np.linalg.eigh returns on a NaN, so the containment test of the
    # spectral projectors is what refuses them
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda h: (eigh(h)[0], _with_nan(eigh(h)[1])))
    diagonal = MatrixSubalgebra(
        TensorSpace((("a", 2),)),
        np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
    with pytest.raises(NumericsError, match="central projectors"):
        minimal_central_projectors(diagonal)
    factor = MatrixSubalgebra.on_legs(TensorSpace((("f", 2), ("c", 2))), ["f"])
    with pytest.raises(NumericsError, match="clusters"):
        factorize_factor(factor)


@pytest.mark.parametrize("side", ["conj", "inv_conj"])
def test_nan_refused_by_factorization_verification(monkeypatch, side):
    # one direction of the two-way check at a time sees a NaN
    factor = MatrixSubalgebra.on_legs(TensorSpace((("f", 2), ("c", 2))), ["f"])
    orig = getattr(UnitaryIso, side)
    monkeypatch.setattr(UnitaryIso, side,
                        lambda self, mat: _with_nan(orig(self, mat)))
    with pytest.raises(NumericsError, match="verification failed"):
        factorize_factor(factor)


def test_nan_refused_by_commuting_and_leak_checks(monkeypatch):
    amb = TensorSpace((("x", 2), ("y", 2)))
    bs = [MatrixSubalgebra.on_legs(amb, ["x"]),
          MatrixSubalgebra.on_legs(amb, ["y"])]
    bs[1].basis[1] = _with_nan(bs[1].basis[1])
    with pytest.raises(NumericsError, match="do not commute"):
        split_commuting_factors(bs)
    # past the commuting check, the NaN reaches the leak residual
    monkeypatch.setattr(algebra_module, "_check_pairwise_commuting",
                        lambda bs: None)
    with pytest.raises(NumericsError, match="leaks onto the split leg"):
        split_commuting_factors(bs)


def test_nan_refused_by_sector_checks(monkeypatch):
    # a NaN in one minimal central projector is refused before the
    # joint product reaches eigh, not as a ValueError from rounding its
    # trace to an integer
    a_space = TensorSpace((("a", 4),))
    x_space = TensorSpace((("x", 2), ("y", 2)))
    reduced = [MatrixSubalgebra(a_space, MatrixSubalgebra.on_legs(
        x_space, [leg]).basis) for leg in ("x", "y")]
    projs = minimal_central_projectors
    monkeypatch.setattr(
        algebra_module, "minimal_central_projectors",
        lambda S, seed=0: [_with_nan(p) for p in projs(S, seed)])
    with pytest.raises(NumericsError, match="joint central product"):
        _sectors_of_reductions(a_space, reduced, seed=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_unitary_iso_refused(bad):
    space = TensorSpace((("a", 2),))
    mat = np.eye(2, dtype=complex)
    mat[0, 1] = bad
    with pytest.raises(NumericsError, match="not unitary"):
        UnitaryIso(mat, space, space)
