"""Finite-dimensional operator algebra toolkit.

Everything here works with unital *-subalgebras of matrices on a labeled
tensor space, represented by orthonormal bases under the Hilbert-Schmidt
inner product tr(X^dag Y).  The toolkit covers generated subalgebras,
commutants, centres, Wedderburn factorization of factors, simultaneous
splitting of commuting factors, reduction of an algebra onto one tensor
leg, and the joint sector decomposition of several commuting algebras
sharing a leg.  These are the numerical primitives the decomposer calls
at every lattice node.

Two solvers carry the rest: algebra_closure, which generates an algebra
from matrices, and one null-space routine, which finds the elements of a
span that commute with given test matrices.  Centres solve it in the
algebra's own coordinates, a 2k x k map for k basis elements (all of
M_D has the scalars as centre, read from k = D^2); commutants solve it
on all D^2 matrix units, so they stay off the synthesis path: a
reduction onto local legs is the closure of the blocks, over the rest
legs, of a few generic elements (of the basis when it is no larger),
with no Schmidt SVD and no double commutant.  The
factor test runs on an isomorphic compression of the algebra to the
cyclic subspace of a generic vector, n min(n, m) dimensions for an
image of M_n x 1_m.  Minimal central projectors and the Wedderburn
form of a factor both read one spectral decomposition of a generic
element.

The gate-splitting step has one path.  algebraic_lemma and sectorize
share the layout, commutation and support checks and the reductions
onto the shared legs; the lemma adds the factor test and always runs
the sector split.  Its success is the one-sector case whose reduction
dimensions multiply to d_a^2, the spanning condition read from
integers, so no joint closure is formed.

Determinism: every routine that draws random elements takes a seed and
uses its own generator, so repeated runs give identical results.  The
hypothesis checks (centre, commutant, pairwise commutation, support)
test two generic Hermitian elements of each algebra, drawn from the
fixed seed _GENERIC_SEED; a reduction's generic elements continue the
same sequence.  A generic pair generates the whole algebra
with probability 1 (their commutant is the algebra's commutant), and
commutation and support are bilinear or linear conditions, so a pair
that passes them makes them hold on the whole span.  A degenerate draw
can only make a centre or commutant too large, which refuses a factor
or fails a later verification; it never produces a wrong success.  The
factor test's vector comes from the same seed; a degenerate one fails
the compression's checks, and the test runs on the algebra itself.

Numerical policy: rank decisions read singular values and right vectors
only (a tall matrix goes through its QR factor R first, so no left
factor is formed), cut at a relative threshold scaled by sqrt(dimension),
and refuse non-finite input; residuals that the mathematics says must
vanish are checked against relative tolerances and raise NumericsError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericsError
from .tensorspace import TensorSpace, dagger, require_finite

SVD_RANK_REL = 1e-9
COMM_REL_TOL = 1e-9
CLUSTER_REL = 1e-7
RESIDUAL_TOL = 1e-8
# residuals of what a generic element yields (its spectral projectors,
# its support) carry the eigensolver's roundoff on top
GENERIC_RESIDUAL_TOL = RESIDUAL_TOL * 10
# UnitaryIso accepts ||V^dag V - 1|| up to this times sqrt(dim)
ISO_UNITARITY_TOL = 1e-7
# a connecting partial isometry needs rank m: sv[m-1] above this * sv[0]
ISOMETRY_RANK_REL = 1e-8
# a joint central product may sit this far (times sqrt(d_a)) from the
# projector it is cleaned to
PROJECTOR_CLEANUP_TOL = 1e-6
# commutant_of solves over all D^2 matrix units, an SVD of a
# (2n D^2) x D^2 commutator map for n test matrices; no pipeline step
# calls it, and commutant stays within this cap.
COMMUTANT_DIM_CAP = 32
_GENERIC_SEED = 0


def matrix_units(d: int) -> list[np.ndarray]:
    """The d^2 standard matrix units E_ij in row-major (i, j) order."""
    return list(np.eye(d * d, dtype=complex).reshape(d * d, d, d))


def _row_space(m) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors of m, without U.

    With at least twice as many rows as columns the SVD runs on the
    square R of m = QR, which has m's s and vh (LAPACK's own path on
    tall input, minus the tall U).  Non-finite input raises
    NumericsError: LAPACK's SVD can hang on it."""
    require_finite(m, "a rank decision")
    if m.shape[0] >= 2 * m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    return s, vh


def orthonormalize(mats, floor=0.0) -> np.ndarray:
    """Orthonormal basis (stacked, shape (r, D, D)) for the span.

    Keeps singular directions with s > max(SVD_RANK_REL * s_max, floor)
    * sqrt(n), n the larger dimension of the stacked coefficient matrix.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim == 2:
        mats = mats[None]
    if mats.shape[0] == 0:
        return mats.reshape(0, *mats.shape[1:])
    d = mats.shape[1]
    m = mats.reshape(len(mats), -1)
    s, vh = _row_space(m)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, d, d), dtype=complex)
    cut = max(SVD_RANK_REL * s[0], floor) * np.sqrt(max(m.shape))
    r = int(np.sum(~(s <= cut)))
    return vh[:r].reshape(r, d, d)


@dataclass
class MatrixSubalgebra:
    """Unital *-subalgebra given by an orthonormal basis of its span."""

    ambient: TensorSpace
    basis: np.ndarray

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
        d = self.ambient.total_dim
        if self.basis.ndim != 3 or self.basis.shape[1:] != (d, d):
            raise InputError(
                f"basis shape {self.basis.shape} does not match ambient "
                f"dimension {d}")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coefficients(self, mat) -> np.ndarray:
        return self.basis.reshape(self.dim, -1).conj() @ \
            np.asarray(mat, complex).reshape(-1)

    def project(self, mat) -> np.ndarray:
        coeff = self.coefficients(mat)
        return np.tensordot(coeff, self.basis, axes=(0, 0))

    def residual(self, mat) -> float:
        mat = np.asarray(mat, dtype=complex)
        norm = np.linalg.norm(mat)
        if norm == 0.0:
            return 0.0
        return float(np.linalg.norm(mat - self.project(mat)) / norm)

    def contains(self, mat, rel_tol=RESIDUAL_TOL) -> bool:
        return self.residual(mat) <= rel_tol

    def spans_subspace_of(self, other: "MatrixSubalgebra") -> bool:
        return all(other.contains(b) for b in self.basis)

    def same_span(self, other: "MatrixSubalgebra") -> bool:
        return self.dim == other.dim and self.spans_subspace_of(other)

    def test_elements(self) -> np.ndarray:
        """Two generic Hermitian elements of the span, drawn from
        _GENERIC_SEED; they generate the algebra with probability 1."""
        return _generic_elements(self.basis, 2)

    @classmethod
    def full(cls, ambient: TensorSpace) -> "MatrixSubalgebra":
        d = ambient.total_dim
        basis = np.stack(matrix_units(d))
        return cls(ambient, basis)

    @classmethod
    def scalars(cls, ambient: TensorSpace) -> "MatrixSubalgebra":
        d = ambient.total_dim
        return cls(ambient, (np.eye(d) / np.sqrt(d))[None])

    @classmethod
    def on_legs(cls, ambient: TensorSpace, labels) -> "MatrixSubalgebra":
        """Full algebra of the named legs tensored with identity."""
        sub = ambient.subspace(labels)
        gens = [ambient.embed(e, labels) for e in matrix_units(sub.total_dim)]
        return cls(ambient, orthonormalize(np.stack(gens)))


def algebra_closure(ambient: TensorSpace, mats) -> MatrixSubalgebra:
    """Smallest unital *-subalgebra containing the matrices ``mats``.

    Orthonormalises the identity, the matrices and their adjoints once;
    that seed both starts the span and multiplies it from the left.
    Once the span is stable under left multiplication by the seed it
    contains all words in the matrices, hence the algebra.
    """
    d = ambient.total_dim
    gens = [np.asarray(g, dtype=complex) for g in mats]
    for g in gens:
        if g.shape != (d, d):
            raise InputError(f"generator shape {g.shape}, ambient {d}")
    mult = orthonormalize(np.stack([np.eye(d)] + gens
                                   + [dagger(g) for g in gens]))
    basis = mult
    while basis.shape[0] < d * d:
        prods = (mult[:, None] @ basis[None]).reshape(-1, d, d)
        vb = basis.reshape(len(basis), -1)
        vp = prods.reshape(len(prods), -1)
        resid = vp - (vp @ vb.conj().T) @ vb
        floor = SVD_RANK_REL * np.linalg.norm(vp, axis=1).max()
        new = orthonormalize(resid.reshape(-1, d, d), floor=floor)
        if new.shape[0] == 0:
            break
        basis = orthonormalize(np.concatenate([basis, new]))
    return MatrixSubalgebra(ambient, basis)


def _commuting_part(basis, test) -> np.ndarray:
    """Orthonormal basis of the elements of span(basis) that commute
    with every matrix in ``test``, as the null space of the stacked
    commutator map in basis coordinates; the span must be an algebra
    holding the test matrices (see centre).  A basis of all D^2 matrices
    takes the matrix entries as its coordinates."""
    (k, d), t = basis.shape[:2], len(test)
    test = np.asarray(test)
    comm = (basis[None] @ test[:, None] - test[:, None] @ basis[None]
            ).reshape(t, k, d * d)
    if k < d * d:
        comm = comm @ basis.reshape(k, -1).conj().T
    s, vh = _row_space(comm.transpose(0, 2, 1).reshape(-1, k))
    # the floor at the test elements' scale keeps rounding-noise
    # commutators (a conjugated scalar algebra) from counting as rank
    floor = SVD_RANK_REL * max(np.linalg.norm(g) for g in test)
    cut = max(SVD_RANK_REL * s[0], floor) * np.sqrt(max(t * d * d, k))
    rank = int(np.sum(~(s <= cut)))
    return np.tensordot(vh[rank:].conj(), basis, axes=(1, 0))


def commutant_of(mats, ambient: TensorSpace) -> MatrixSubalgebra:
    """Commutant of a set of matrices (adjoints are added automatically)."""
    d = ambient.total_dim
    if d > COMMUTANT_DIM_CAP:
        raise InputError(
            f"commutant solve needs ambient dim <= {COMMUTANT_DIM_CAP}, "
            f"got {d}")
    mats = [np.asarray(m, dtype=complex) for m in mats]
    mats = [m for m in mats if np.linalg.norm(m) > 0]
    mats = [m / np.linalg.norm(m) for m in mats]
    test = mats + [dagger(m) for m in mats]
    if not test:
        return MatrixSubalgebra.full(ambient)
    units = np.stack(matrix_units(d))
    return MatrixSubalgebra(ambient, _commuting_part(units, test))


def commutant(S: MatrixSubalgebra) -> MatrixSubalgebra:
    return commutant_of(S.test_elements(), S.ambient)


def centre(S: MatrixSubalgebra) -> MatrixSubalgebra:
    """Elements of S commuting with all of S, solved in S coordinates.

    The commutators of S with its test elements lie in S, where the
    orthonormal basis keeps their norms: the 2k x k map has the singular
    values and null space of the 2D^2 x k map on matrix entries.  An
    algebra with D^2 basis elements is all of M_D, centre the scalars."""
    if S.dim == 0:
        raise InputError("centre of an empty algebra")
    if S.dim == S.ambient.total_dim ** 2:
        require_finite(S.basis, "a centre")
        return MatrixSubalgebra.scalars(S.ambient)
    return MatrixSubalgebra(S.ambient,
                            _commuting_part(S.basis, S.test_elements()))


def is_factor(S: MatrixSubalgebra) -> bool:
    """Whether S has a trivial centre, read on the span K of b_i v for a
    generic v drawn from _GENERIC_SEED.  K is S-invariant and S is
    *-closed, so x -> q^dag x q (q an orthonormal basis of K) is a
    *-homomorphism, and an isomorphism with the same centre when the
    compressed span keeps dimension S.dim.  Both facts are checked
    (invariance to RESIDUAL_TOL); if either fails, or K is C^D, the test
    runs on S itself.  M_n x 1_m compresses to n min(n, m) dimensions."""
    rng = np.random.default_rng(_GENERIC_SEED)
    d = S.ambient.total_dim
    return _factor_at(S, rng.standard_normal(d) + 1j * rng.standard_normal(d))


def _factor_at(S: MatrixSubalgebra, v) -> bool:
    """is_factor on the cyclic subspace of the vector v."""
    w = S.basis @ v
    s, vh = _row_space(w)
    r = int(np.sum(s > SVD_RANK_REL * s.max(initial=0.0)
                   * np.sqrt(max(w.shape))))
    if 0 < r < S.ambient.total_dim:
        q = vh[:r].T
        bq = S.basis @ q
        small = dagger(q) @ bq
        leak = np.linalg.norm(bq - q @ small) / np.linalg.norm(bq)
        basis = orthonormalize(small)
        if leak <= RESIDUAL_TOL and basis.shape[0] == S.dim:
            S = MatrixSubalgebra(TensorSpace((("v", r),)), basis)
    return centre(S).dim == 1


def _cluster_sorted(vals) -> list[list[int]]:
    spread = float(vals[-1] - vals[0]) if len(vals) else 0.0
    clusters = [[0]]
    for k in range(1, len(vals)):
        if spread > 0 and vals[k] - vals[k - 1] >= CLUSTER_REL * spread:
            clusters.append([k])
        else:
            clusters[-1].append(k)
    return clusters


def _random_hermitian(basis, rng) -> np.ndarray:
    k = basis.shape[0]
    c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    h = np.tensordot(c, basis, axes=(0, 0))
    return (h + dagger(h)) / 2.0


def _generic_elements(basis, count) -> np.ndarray:
    """``count`` generic Hermitian elements of span(basis), drawn from
    _GENERIC_SEED in one sequence, so the first two are always the pair
    test_elements draws."""
    rng = np.random.default_rng(_GENERIC_SEED)
    return np.stack([_random_hermitian(basis, rng) for _ in range(count)])


def _spectral_projectors(S: MatrixSubalgebra, rng, count):
    """Spectral projectors of a generic Hermitian element of S.

    Takes the first of up to four draws whose clustered spectrum has
    ``count`` clusters, each with its spectral projector inside S;
    returns None when no draw does.
    """
    for _ in range(4):
        vals, vecs = np.linalg.eigh(_random_hermitian(S.basis, rng))
        clusters = _cluster_sorted(vals)
        if len(clusters) != count:
            continue
        projs = [vecs[:, c] @ dagger(vecs[:, c]) for c in clusters]
        if all(S.contains(p, GENERIC_RESIDUAL_TOL) for p in projs):
            return projs
    return None


def minimal_central_projectors(S: MatrixSubalgebra, seed=0):
    """Minimal projectors of the centre, via a generic central Hermitian.

    The spectral projectors of a generic central element are the minimal
    central ones once there are as many as the centre's dimension.  Up
    to three redraws; failure past that raises.
    """
    Z = centre(S)
    if Z.dim == 1:
        return [np.eye(S.ambient.total_dim)]
    projs = _spectral_projectors(Z, np.random.default_rng(seed), Z.dim)
    if projs is None:
        raise NumericsError(
            "could not isolate minimal central projectors after 3 redraws")
    return projs


@dataclass
class UnitaryIso:
    """Unitary matrix carrying a domain and codomain leg structure."""

    matrix: np.ndarray
    domain: TensorSpace
    codomain: TensorSpace

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = self.domain.total_dim
        if self.codomain.total_dim != d:
            raise InputError(
                f"domain dim {d} != codomain dim {self.codomain.total_dim}")
        if self.matrix.shape != (d, d):
            raise InputError(f"matrix shape {self.matrix.shape}, expected "
                             f"({d}, {d})")
        resid = np.linalg.norm(dagger(self.matrix) @ self.matrix - np.eye(d))
        if not resid <= ISO_UNITARITY_TOL * np.sqrt(d):
            raise NumericsError(f"matrix is not unitary (residual {resid:.2e})")

    def conj(self, mat) -> np.ndarray:
        return self.matrix @ np.asarray(mat, complex) @ dagger(self.matrix)

    def inv_conj(self, mat) -> np.ndarray:
        return dagger(self.matrix) @ np.asarray(mat, complex) @ self.matrix


def _projected_unitary(m) -> np.ndarray:
    require_finite(m, "a polar projection")
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def factorize_factor(B: MatrixSubalgebra, seed=0):
    """Wedderburn form of a factor: unitary V with V B V^dag = M_d x 1_m.

    Returns (iso, d, m) where d^2 is the dimension of B and m the
    multiplicity; the codomain legs are f (dim d) and c (dim m).
    Construction: spectral projectors of a generic Hermitian element
    give the d minimal projectors; polar parts of p_i s p_1 for a
    generic s in B give connecting partial isometries; rows of V are the
    vectors u_i f_mu over an orthonormal basis f of the first
    projector's range.  Verified by conjugating bases both
    ways, which also proves B is a factor; a non-factor raises
    NumericsError.
    """
    ambient = B.ambient
    D = ambient.total_dim
    k = B.dim
    d = int(round(np.sqrt(k)))
    if d * d != k:
        raise NumericsError(f"algebra dimension {k} is not a square")
    if D % d != 0:
        raise NumericsError(f"dim {d} factor cannot sit in ambient {D}")
    m = D // d
    codomain = TensorSpace((("f", d), ("c", m)))
    if d == 1:
        return UnitaryIso(np.eye(D), ambient, codomain), 1, D
    rng = np.random.default_rng(seed)
    # projectors in M_d x 1_m have ranks divisible by m, so d of them
    # that resolve the identity have rank m each
    projs = _spectral_projectors(B, rng, d)
    if projs is None:
        raise NumericsError(
            "could not split a generic spectral decomposition into "
            f"{d} clusters of multiplicity {m}")

    isometries = None
    for _ in range(4):
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        s = np.tensordot(c, B.basis, axes=(0, 0))
        cand = [projs[0]]
        ok = True
        for i in range(1, d):
            q = projs[i] @ s @ projs[0]
            require_finite(q, "a connecting partial isometry")
            uu, sv, vv = np.linalg.svd(q)
            if sv.size < m or not sv[m - 1] > ISOMETRY_RANK_REL * sv[0]:
                ok = False
                break
            cand.append(uu[:, :m] @ vv[:m, :])
        if ok:
            isometries = cand
            break
    if isometries is None:
        raise NumericsError("connecting partial isometries degenerate "
                            "after 3 redraws")

    pvals, pvecs = np.linalg.eigh(projs[0])
    f = pvecs[:, -m:]
    rows = []
    for i in range(d):
        block = isometries[i] @ f
        for mu in range(m):
            rows.append(dagger(block[:, mu]))
    v = np.stack(rows)
    v = _projected_unitary(v)
    iso = UnitaryIso(v, ambient, codomain)

    # Verify both directions of the claimed form.
    for b in B.basis:
        _, resid = codomain.restrict(iso.conj(b), ["f"])
        if not resid <= RESIDUAL_TOL:
            raise NumericsError(
                f"factorization verification failed (residual {resid:.2e})")
    for e in matrix_units(d):
        back = iso.inv_conj(codomain.embed(e, ["f"]))
        if not B.residual(back) <= RESIDUAL_TOL:
            raise NumericsError("factorization verification failed on the "
                                "reverse direction")
    return iso, d, m


def _check_pairwise_commuting(tests):
    """Raise unless the algebras whose test_elements pairs are ``tests``
    commute pairwise."""
    # every algebra draws from the same seed, so x_k and y_k may share
    # coefficients; the cross pairs (x_1, y_2) and (x_2, y_1) are
    # independent draws, which is what the bilinear argument needs
    for i in range(len(tests)):
        for j in range(i + 1, len(tests)):
            for x in tests[i]:
                nx = np.linalg.norm(x)
                for y in tests[j]:
                    ny = np.linalg.norm(y)
                    if nx == 0 or ny == 0:
                        continue
                    c = np.linalg.norm(x @ y - y @ x) / (nx * ny)
                    if not c <= COMM_REL_TOL:
                        raise NumericsError(
                            f"algebras {i} and {j} do not commute "
                            f"(relative commutator {c:.2e})")


def split_commuting_factors(bs, ambient: TensorSpace | None = None, seed=0):
    """Simultaneous tensor split of pairwise commuting factors.

    Produces a unitary iso V from the common ambient onto a product of
    legs z1 x ... x zn such that V B_k V^dag acts on leg k alone.  The
    first n-1 legs have the dimensions of their factors; the last leg
    absorbs whatever multiplicity remains, so it contains (and under a
    spanning hypothesis equals) the image of B_n.

    Factor-ness is not tested separately: factorize_factor's two-way
    check proves each of B_1..B_{n-1} is a factor, and B_n only has to
    sit on the last leg, which the leak checks verify.
    """
    bs = list(bs)
    if not bs:
        raise InputError("need at least one algebra to split")
    if ambient is None:
        ambient = bs[0].ambient
    for b in bs:
        if b.ambient.total_dim != ambient.total_dim:
            raise InputError("algebras live on different ambient dimensions")
    _check_pairwise_commuting([b.test_elements() for b in bs])
    n = len(bs)
    D = ambient.total_dim
    v_tot = np.eye(D, dtype=complex)
    prefix = 1
    cur_dim = D
    cur = [MatrixSubalgebra(TensorSpace((("t", cur_dim),)), b.basis)
           for b in bs]
    dims = []
    rng = np.random.default_rng(seed)
    for k in range(n - 1):
        iso, d, mult = factorize_factor(
            cur[k], seed=int(rng.integers(0, 2**31)))
        w = np.kron(np.eye(prefix), iso.matrix)
        v_tot = w @ v_tot
        dims.append(d)
        pair = TensorSpace((("f", d), ("c", mult)))
        for j in range(k + 1, n):
            reduced = []
            for mat in cur[j].basis:
                moved = iso.conj(mat)
                small, resid = pair.restrict(moved, ["c"])
                if not resid <= RESIDUAL_TOL:
                    raise NumericsError(
                        f"algebra {j} leaks onto the split leg "
                        f"(residual {resid:.2e})")
                reduced.append(small)
            cur[j] = MatrixSubalgebra(TensorSpace((("t", mult),)),
                                      orthonormalize(np.stack(reduced)))
        prefix *= d
        cur_dim = mult
    dims.append(cur_dim)
    codomain = TensorSpace(tuple((f"z{i + 1}", d) for i, d in enumerate(dims)))
    iso = UnitaryIso(v_tot, ambient, codomain)
    return iso, dims


def reduce_onto_legs(B: MatrixSubalgebra, target_labels) -> MatrixSubalgebra:
    """Smallest algebra C on the target legs with B inside L(rest) x C.

    With a matrix written as sum_ij |i><j| x X_ij over the rest legs, B
    lies in L(rest) x C exactly when the blocks X_ij of its elements do.
    The closure is seeded from the blocks of n = max(2, ceil(d_t^2 /
    d_rest^2)) generic Hermitian elements of B (the first two are the
    pair test_elements draws), enough blocks to span all of M_{d_t};
    when n >= B.dim it takes the blocks of B's basis instead.  Why the
    closure C' of those blocks is C:
    - the blocks of x and y lie in C', so x, y are in L(rest) x C', an
      algebra; hence alg(x, y) is inside it too;
    - a generic pair generates B with probability 1 (the assumption the
      hypothesis checks make), so B is inside L(rest) x C' and C' = C;
    - a degenerate draw can only shrink C'; the lemma's integer spanning
      test and the 1e-8 sqrt(D) recomposition gate then refuse, so it
      never passes a wrong split.
    The blocks of a *-algebra's elements generate it as an algebra, and
    in finite dimensions that is its double commutant (von Neumann), so
    no commutant solve is needed.
    """
    ambient = B.ambient
    target_labels = list(target_labels)
    target_space = ambient.subspace(target_labels)
    d_t = target_space.total_dim
    d_rest = ambient.total_dim // d_t
    n = max(2, -(-d_t * d_t // (d_rest * d_rest)))
    mats = B.basis if n >= B.dim else _generic_elements(B.basis, n)
    k = len(ambient.labels)
    legs = [[1 + ambient.index(l) for l in ls]
            for ls in (ambient.complement(target_labels), target_labels)]
    axes = [0] + [a + shift for ls in legs for shift in (0, k) for a in ls]
    blocks = mats.reshape((len(mats),) + ambient.dims * 2).transpose(axes)
    return algebra_closure(target_space,
                           orthonormalize(blocks.reshape(-1, d_t, d_t)))


@dataclass
class SectorDecomposition:
    """Joint sector structure of commuting algebras on a shared leg.

    ``projectors`` resolve the identity of the shared leg; within sector
    i the compressed algebras split as a tensor product with per-sector
    leg dimensions ``sectors[i]`` (one entry per input algebra, the last
    absorbing leftover multiplicity).  ``iso`` maps the shared leg onto the
    direct sum of those products.
    """

    a_space: TensorSpace
    sectors: tuple[tuple[int, ...], ...]
    projectors: tuple[np.ndarray, ...]
    iso: UnitaryIso

    def __post_init__(self):
        d = self.a_space.total_dim
        if sum(math.prod(legs) for legs in self.sectors) != d:
            raise NumericsError(
                f"sector dimensions {self.sectors} do not resolve the "
                f"shared leg dimension {d}")

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)


@dataclass
class SectorObstruction:
    """Returned when the spanning condition of the algebraic lemma fails:
    the joint sector structure is incompatible with a single unitary gate."""

    decomposition: SectorDecomposition
    message: str


@dataclass
class LemmaSplit:
    """Successful outcome of the algebraic lemma: a gate and leg dims."""

    iso: UnitaryIso
    leg_dims: tuple[int, ...]


def _shared_leg_reductions(a_labels, x_legs, bs):
    """The hypothesis checks sectorize and algebraic_lemma share, then
    the reductions of the B_k onto the shared legs.

    The B_k must live on one ambient whose labels include the shared
    legs and the X legs, each X leg belonging to one algebra only; they
    must commute pairwise, and each must be supported on the shared legs
    plus its own X legs.  Returns the shared space and the reductions.
    """
    if not bs:
        raise InputError("need at least one algebra")
    ambient = bs[0].ambient
    for b in bs:
        if b.ambient.labels != ambient.labels or b.ambient.dims != ambient.dims:
            raise InputError("algebras must share one ambient space")
    if len(x_legs) != len(bs):
        raise InputError("x_legs must align with the algebra list")
    a_labels = list(a_labels)
    aset = set(a_labels)
    for l in a_labels:
        ambient.index(l)
    seen = set()
    for xs in x_legs:
        for l in xs:
            ambient.index(l)
            if l in aset:
                raise InputError(f"leg {l!r} cannot be both shared and X leg")
            if l in seen:
                raise InputError(f"X leg {l!r} assigned to two algebras")
            seen.add(l)
    pairs = [b.test_elements() for b in bs]
    _check_pairwise_commuting(pairs)
    for k, pair in enumerate(pairs):
        allowed = a_labels + list(x_legs[k])
        for mat in pair:
            _, resid = ambient.restrict(mat, allowed)
            if not resid <= GENERIC_RESIDUAL_TOL:
                raise NumericsError(
                    f"algebra {k} is not supported on its shared+X legs "
                    f"(residual {resid:.2e})")
    return (ambient.subspace(a_labels),
            [reduce_onto_legs(b, a_labels) for b in bs])


def sectorize(a_labels, x_legs, bs, seed=0) -> SectorDecomposition:
    """Joint sector decomposition of commuting algebras over a shared leg.

    Each B_k must commute with the others and be supported on the shared
    legs plus its private X legs.  The reductions of the B_k onto the
    shared legs commute; products of their minimal central projectors cut
    the shared leg into sectors, and inside every sector the compressed
    reductions are factors that split simultaneously.
    """
    return _sectors_of_reductions(
        *_shared_leg_reductions(a_labels, x_legs, bs), seed)


def _sectors_of_reductions(a_space, reduced, seed) -> SectorDecomposition:
    """The sector split of the reductions onto the shared legs of
    algebras that passed _shared_leg_reductions' checks."""
    d_a = a_space.total_dim
    _check_pairwise_commuting([r.test_elements() for r in reduced])
    rng = np.random.default_rng(seed)
    per_alg = [minimal_central_projectors(r, seed=int(rng.integers(0, 2**31)))
               for r in reduced]

    index_tuples = [()]
    for projs in per_alg:
        index_tuples = [t + (i,) for t in index_tuples
                        for i in range(len(projs))]
    clean = []
    for tup in sorted(index_tuples):
        p = np.eye(d_a, dtype=complex)
        for k, i in enumerate(tup):
            p = p @ per_alg[k][i]
        p = (p + dagger(p)) / 2.0
        if np.linalg.norm(p) <= RESIDUAL_TOL * np.sqrt(d_a):
            continue
        # eigh raises LinAlgError on some NaN inputs and returns on others
        require_finite(p, "a joint central product")
        vals, vecs = np.linalg.eigh(p)
        keep = vals > 0.5
        r = int(np.sum(keep))
        if r == 0:
            continue
        q = vecs[:, keep]
        p_clean = q @ dagger(q)
        if not (np.linalg.norm(p_clean - p)
                <= PROJECTOR_CLEANUP_TOL * np.sqrt(d_a)):
            raise NumericsError("joint central product is far from a "
                                "projector")
        clean.append((tup, p_clean, q))

    total = sum(p for _, p, _ in clean)
    if not np.linalg.norm(total - np.eye(d_a)) <= RESIDUAL_TOL * np.sqrt(d_a):
        raise NumericsError("sector projectors do not resolve the identity")
    for x in range(len(clean)):
        for y in range(x + 1, len(clean)):
            if not (np.linalg.norm(clean[x][1] @ clean[y][1])
                    <= RESIDUAL_TOL * d_a):
                raise NumericsError("sector projectors are not orthogonal")

    rows = []
    sector_dims = []
    projectors = []
    for tup, p, q in clean:
        r = q.shape[1]
        sec_space = TensorSpace((("s", r),))
        comp = []
        for alg in reduced:
            mats = [dagger(q) @ m @ q for m in alg.basis]
            cb = orthonormalize(np.stack(mats))
            comp.append(MatrixSubalgebra(sec_space, cb))
        iso_i, dims_i = split_commuting_factors(
            comp, seed=int(rng.integers(0, 2**31)))
        rows.append(iso_i.matrix @ dagger(q))
        sector_dims.append(tuple(dims_i))
        projectors.append(p)
    v = np.concatenate(rows, axis=0)
    v = _projected_unitary(v)
    iso = UnitaryIso(v, a_space, TensorSpace((("sectors", d_a),)))
    return SectorDecomposition(a_space, tuple(sector_dims),
                               tuple(projectors), iso)


def algebraic_lemma(a_labels, x_legs, bs, seed=0):
    """Split a shared leg along commuting factor algebras, or report why not.

    Hypotheses checked: the B_k commute pairwise, each is a factor, and
    each is supported on the shared legs plus its own X legs.  The
    reductions of the B_k onto the shared legs always go through the
    sector split.  They span the shared leg's full matrix algebra
    exactly when there is one sector (every reduction has a trivial
    centre) and their dimensions multiply to d_a^2 (commuting factors
    generate their tensor product).  Then the result is a LemmaSplit:
    the sector unitary, under which the k-th reduction becomes the
    algebra of leg z_k (the last leg absorbing remaining multiplicity).
    Otherwise it is a SectorObstruction carrying the sector split.
    """
    a_space, reduced = _shared_leg_reductions(a_labels, x_legs, bs)
    for k, b in enumerate(bs):
        if not is_factor(b):
            raise NumericsError(f"algebra {k} is not a factor")
    sec = _sectors_of_reductions(a_space, reduced, seed)
    d_a = a_space.total_dim
    span = math.prod(r.dim for r in reduced)
    if sec.n_sectors == 1 and span == d_a * d_a:
        dims = sec.sectors[0]
        legs = TensorSpace(tuple((f"z{k + 1}", d) for k, d in enumerate(dims)))
        return LemmaSplit(UnitaryIso(sec.iso.matrix, a_space, legs), dims)
    return SectorObstruction(
        sec,
        f"{sec.n_sectors} joint sector(s) with reduction dimensions "
        f"multiplying to {span}; spanning needs one sector and {d_a * d_a}")
