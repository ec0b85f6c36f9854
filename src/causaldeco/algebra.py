"""Finite-dimensional operator algebra toolkit.

Everything here works with unital *-subalgebras of matrices on a labeled
tensor space, represented by orthonormal bases under the Hilbert-Schmidt
inner product tr(X^dag Y).  The toolkit covers generated subalgebras,
commutants, centres, Wedderburn factorization of factors, simultaneous
splitting of commuting factors, reduction of an algebra onto one tensor
leg, and the joint sector decomposition of several commuting algebras
sharing a leg.  These are the numerical primitives the decomposer calls
at every lattice node.  Matrix arguments follow tensorspace's stack
convention: coefficients, project and residual act on each matrix of a
(..., D, D) stack, contains answers for all of them, and matrix_units(d)
is one (d^2, d, d) stack, so a check over a basis is one call.

Two solvers carry the rest: algebra_closure, which generates an algebra
from matrices, and one null-space routine, which finds the elements of a
span that commute with given test matrices.  Centres solve it in the
algebra's own coordinates, a 2k x k map for k basis elements (all of
M_D has the scalars as centre, read from k = D^2); commutants solve it
on all D^2 matrix units, so they stay off the synthesis path: a
reduction onto local legs is the closure of the blocks, over the rest
legs, of a few generic elements (of the basis when it is no larger),
with no Schmidt SVD and no double commutant.  heisenberg_image's
RowImage holds W^dag(M_d x 1)W as the rows W of a unitary and forms its
matrix-unit basis only when read.  One spectral split, the eigenvector
blocks of a generic element clustered by eigenvalue, is the only
eigendecomposition: it gives minimal central projectors, the sectors,
and the Wedderburn form of a factor, whose blocks are its rows.

The gate-splitting step has one path and one outcome, algebraic_lemma,
also named sectorize.  It checks the layout, the commutation of the
algebras and their support, once each; that they are factors is the
caller's hypothesis, which a Heisenberg image of a checked unitary
meets by construction.  The sectors are the blocks of the commutative
algebra J that the reductions' centres generate; when every centre is
the scalars, J is too, read from integers.  The lemma returns the
sector split with its spanning verdict: one sector whose reduction
dimensions multiply to d_a^2, read from integers, so no joint closure
is formed.  The decomposer needs a spanning split to build a gate; the
obstruction certificate needs at least two sectors.

Determinism: every routine that draws random elements takes a seed and
uses its own generator, so repeated runs give identical results.  The
hypothesis checks (centre, commutant, pairwise commutation, support)
test two generic Hermitian elements of each algebra, drawn from the
fixed seed _GENERIC_SEED; a reduction's generic elements continue the
same sequence, drawn once per algebra and cached read-only.  A generic
pair generates the whole algebra with probability 1 (their commutant is
the algebra's commutant), and commutation and support are bilinear or
linear conditions, so a pair that passes them makes them hold on the
whole span.  A degenerate draw can only make a centre or commutant too
large, which refuses a factor or fails a later verification; it never
produces a wrong success.

Numerical policy: rank decisions read singular values and right vectors
only (a tall matrix goes through its QR factor R first, so no left
factor is formed), cut at a relative threshold scaled by sqrt(dimension),
and refuse non-finite input; residuals that the mathematics says must
vanish are checked against relative tolerances and raise NumericsError.
A rank decision costs what its answer costs.  Some are settled from
integers: a closure round whose Frobenius norm is at most its floor
times sqrt(n) adds nothing (s_max <= ||m||_F), a span of d^2 elements
is all of M_d, kept as its matrix units, and so is the reduction of a
d_t^2-element algebra onto legs that are its whole ambient.  A stack
whose sides both reach 4 _SKETCH_ROWS is first sketched by a seeded
Gaussian of _SKETCH_ROWS rows, accepted only when what it misses is
under the relative rank cut, so a low rank is read from a k-column SVD
with the exact one's rank and span; otherwise, and on smaller stacks,
the exact SVD decides.  The commuting-part solve keeps the exact SVD,
since it reads the null space.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericsError
from .policy import (CLUSTER_REL, COMM_REL_TOL, COMMUTANT_DIM_CAP,
                     GENERIC_RESIDUAL_TOL, ISO_UNITARITY_TOL,
                     ISOMETRY_RANK_REL, RESIDUAL_TOL, SVD_RANK_REL)
from .tensorspace import (TensorSpace, _relative_norm, dagger,
                          require_finite, unitarity_residual)

_GENERIC_SEED = 0
# rows of the sketch a rank solve with both sides >= 4 * this tries first
_SKETCH_ROWS = 16


def matrix_units(d: int) -> np.ndarray:
    """The d^2 standard matrix units E_ij, stacked in row-major order."""
    return np.eye(d * d, dtype=complex).reshape(d * d, d, d)


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


def _sketched_row_space(m, floor) -> np.ndarray | None:
    """Orthonormal rows spanning m's row space above the rank cut, from
    one Gaussian sketch of _SKETCH_ROWS rows (Halko, Martinsson & Tropp,
    SIAM Review 53 (2011), Alg. 4.2), or None when the sketch misses.

    Q holds the orthonormal rows of Omega m, Omega drawn from
    _GENERIC_SEED, and B = m Q^dag.  The sketch is accepted when ||m -
    B Q||_F is at most the relative part of the cut, SVD_RANK_REL s_max
    sqrt(n), read from B's singular values.  Every singular value of m
    past the k-th is then at most that residual, hence dropped, and by
    Weyl each of the others is within it of B's, so rank and span are
    the exact SVD's up to values next to the cut.  The floor only raises
    the cut on B's values: a tail above the relative cut, which a floor
    would drop but which tilts the kept span, goes to the exact SVD.
    """
    omega = np.random.default_rng(_GENERIC_SEED).standard_normal(
        (_SKETCH_ROWS, m.shape[0]))
    q = np.linalg.qr((omega @ m).T)[0].T
    b = m @ q.conj().T
    s, vh = _row_space(b)
    rel = SVD_RANK_REL * s[0] * np.sqrt(max(m.shape))
    miss = b @ q
    miss -= m  # in place: the check holds one m-sized temporary
    if not np.linalg.norm(miss) <= rel:
        return None
    cut = max(rel, floor * np.sqrt(max(m.shape)))
    return vh[:int(np.sum(~(s <= cut)))] @ q


def orthonormalize(mats, floor=0.0) -> np.ndarray:
    """Orthonormal basis (stacked, shape (r, D, D)) for the span.

    Keeps singular directions with s > max(SVD_RANK_REL * s_max, floor)
    * sqrt(n), n the larger dimension of the stacked coefficient matrix.
    A stack whose sides both reach 4 _SKETCH_ROWS tries a seeded sketch
    first (_sketched_row_space), which settles a rank up to _SKETCH_ROWS
    from products with that many rows; when it misses, the exact SVD
    decides.
    """
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim == 2:
        mats = mats[None]
    if mats.shape[0] == 0:
        return mats.reshape(0, *mats.shape[1:])
    d = mats.shape[1]
    m = mats.reshape(len(mats), -1)
    # s_max <= ||m||_F: a zero stack, or one under the floor, has rank 0
    if np.linalg.norm(m) <= floor * np.sqrt(max(m.shape)):
        return np.zeros((0, d, d), dtype=complex)
    rows = None
    if min(m.shape) >= 4 * _SKETCH_ROWS:
        require_finite(m, "a rank decision")
        rows = _sketched_row_space(m, floor)
    if rows is None:
        s, vh = _row_space(m)
        cut = max(SVD_RANK_REL * s[0], floor) * np.sqrt(max(m.shape))
        rows = vh[:int(np.sum(~(s <= cut)))]
    return rows.reshape(len(rows), d, d)


@dataclass
class MatrixSubalgebra:
    """Unital *-subalgebra given by an orthonormal basis of its span."""

    ambient: TensorSpace
    basis: np.ndarray
    _draws: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
        d = self.ambient.total_dim
        if self.basis.ndim != 3 or self.basis.shape[1:] != (d, d):
            raise InputError(
                f"basis shape {self.basis.shape} does not match ambient "
                f"dimension {d}")
        self.dim = self.basis.shape[0]

    def coefficients(self, mat) -> np.ndarray:
        mat = np.asarray(mat, complex)
        flat = mat.reshape(mat.shape[:-2] + (-1,))
        return (flat.conj() @ self.basis.reshape(self.dim, -1).T).conj()

    def combine(self, coeffs) -> np.ndarray:
        """sum_k c_k b_k for each coefficient vector of a (..., dim) stack."""
        coeffs = np.asarray(coeffs)
        return (coeffs @ self.basis.reshape(self.dim, -1)).reshape(
            coeffs.shape[:-1] + self.basis.shape[1:])

    def project(self, mat) -> np.ndarray:
        return self.combine(self.coefficients(mat))

    def residual(self, mat):
        mat = np.asarray(mat, dtype=complex)
        return _relative_norm(mat - self.project(mat), mat)

    def contains(self, mat, rel_tol=RESIDUAL_TOL) -> bool:
        return bool(np.all(self.residual(mat) <= rel_tol))

    def spans_subspace_of(self, other: "MatrixSubalgebra") -> bool:
        return other.contains(self.basis)

    def same_span(self, other: "MatrixSubalgebra") -> bool:
        return self.dim == other.dim and self.spans_subspace_of(other)

    def generic_elements(self, count) -> np.ndarray:
        """The first ``count`` generic Hermitian elements of the span,
        drawn once per algebra (again for a longer run), read-only."""
        if self._draws is None or len(self._draws) < count:
            self._draws = _generic_elements(self, count)
            self._draws.flags.writeable = False
        return self._draws[:count]

    def test_elements(self) -> np.ndarray:
        """Two generic Hermitian elements of the span, drawn from
        _GENERIC_SEED; they generate the algebra with probability 1."""
        return self.generic_elements(2)

    @classmethod
    def full(cls, ambient: TensorSpace) -> "MatrixSubalgebra":
        return cls(ambient, matrix_units(ambient.total_dim))

    @classmethod
    def scalars(cls, ambient: TensorSpace) -> "MatrixSubalgebra":
        d = ambient.total_dim
        return cls(ambient, (np.eye(d) / np.sqrt(d))[None])

    @classmethod
    def on_legs(cls, ambient: TensorSpace, labels) -> "MatrixSubalgebra":
        """Full algebra of the named legs tensored with identity."""
        sub = ambient.subspace(labels)
        return cls(ambient, orthonormalize(
            ambient.embed(matrix_units(sub.total_dim), labels)))


class RowImage(MatrixSubalgebra):
    """W^dag(M_d x 1)W for a unitary W held as its d row blocks W_i,
    shape (d, D/d, D).  Its basis s W_i^dag W_j, s = sqrt(d/D), in
    matrix-unit layout, is formed only when read.  Coefficients of m are
    s Tr_rest(W m W^dag) and a combination with d x d coefficients C is
    s W^dag(C x 1)W: one D x D product per matrix."""

    def __init__(self, ambient: TensorSpace, rows):
        self.ambient, self.rows, self._draws = ambient, rows, None
        self.dim, self.scale = rows.shape[0] ** 2, math.sqrt(
            rows.shape[0] / ambient.total_dim)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        w_dag = dagger(self.rows) * self.scale
        return (w_dag[:, None] @ self.rows[None]).reshape(
            (self.dim,) + self.rows.shape[2:] * 2)

    def coefficients(self, mat) -> np.ndarray:
        (d, m, D), lead = self.rows.shape, np.shape(mat)[:-2]
        wm = self.rows.reshape(D, D) @ np.asarray(mat, complex)
        t = wm.reshape(lead + (d, m * D)) @ dagger(self.rows.reshape(d, -1))
        return self.scale * t.reshape(lead + (d * d,))

    def combine(self, coeffs) -> np.ndarray:
        d, m, D = self.rows.shape
        c = self.scale * np.reshape(coeffs, np.shape(coeffs)[:-1] + (d, d))
        wc = (c @ self.rows.reshape(d, m * D)).reshape(c.shape[:-2] + (D, D))
        return dagger(self.rows.reshape(D, D)) @ wc


def algebra_closure(ambient: TensorSpace, mats) -> MatrixSubalgebra:
    """Smallest unital *-subalgebra containing the matrices ``mats``.

    Orthonormalises the identity, the matrices and their adjoints once;
    that seed both starts the span and multiplies it from the left.
    Once the span is stable under left multiplication by the seed it
    contains all words in the matrices, hence the algebra.  A span of
    d^2 elements is all of M_d, returned as its matrix units.
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
            return MatrixSubalgebra(ambient, basis)
        if len(basis) + len(new) >= d * d:
            break
        basis = orthonormalize(np.concatenate([basis, new]))
    return MatrixSubalgebra.full(ambient)


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
    floor = SVD_RANK_REL * np.linalg.norm(test, axis=(1, 2)).max()
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
    mats = np.asarray(mats, dtype=complex).reshape(-1, d, d)
    norms = np.linalg.norm(mats, axis=(1, 2))
    mats = mats[norms > 0] / norms[norms > 0, None, None]
    if not len(mats):
        return MatrixSubalgebra.full(ambient)
    return MatrixSubalgebra(ambient, _commuting_part(
        matrix_units(d), np.concatenate([mats, dagger(mats)])))


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
    """Whether S has a trivial centre."""
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


def _random_hermitians(S: MatrixSubalgebra, rng, count) -> np.ndarray:
    """``count`` random Hermitian elements of S, basis or RowImage, from
    one draw of each element's real, then imaginary, coefficients."""
    z = rng.standard_normal((count, 2, 1, S.dim))
    # one combination per element, as when each was drawn alone
    h = S.combine(z[:, 0] + 1j * z[:, 1])[:, 0]
    return (h + dagger(h)) / 2.0


def _generic_elements(S: MatrixSubalgebra, count) -> np.ndarray:
    """``count`` generic Hermitian elements of S, drawn from
    _GENERIC_SEED in one sequence, so the first two are always the pair
    test_elements draws."""
    return _random_hermitians(S, np.random.default_rng(_GENERIC_SEED), count)


def _spectral_blocks(S: MatrixSubalgebra, rng, count, what):
    """Eigenvector blocks q of a generic Hermitian element of S, one per
    cluster of its spectrum, and their spectral projectors q q^dag.

    Takes the first of up to four draws whose clustered spectrum has
    ``count`` clusters, each with its spectral projector inside S, and
    raises NumericsError naming ``what`` when no draw does.  The scalars
    are decided by S.dim alone, their one block the identity: clusters
    cut relative to the spread, so a scalar spectrum splits at roundoff.
    """
    if S.dim == 1:
        eye = np.eye(S.ambient.total_dim, dtype=complex)[None]
        return eye, eye
    for _ in range(4):
        h = _random_hermitians(S, rng, 1)[0]
        require_finite(h, "a spectral split")
        vals, vecs = np.linalg.eigh(h)
        clusters = _cluster_sorted(vals)
        if len(clusters) != count:
            continue
        blocks = [vecs[:, c] for c in clusters]
        projs = np.stack([q @ dagger(q) for q in blocks])
        if S.contains(projs, GENERIC_RESIDUAL_TOL):
            return blocks, projs
    raise NumericsError(f"could not isolate {what} after 3 redraws")


def minimal_central_projectors(S: MatrixSubalgebra, seed=0):
    """Minimal projectors of the centre, via a generic central Hermitian.

    The spectral projectors of a generic central element are the minimal
    central ones once there are as many as the centre's dimension.  Up
    to three redraws; failure past that raises.
    """
    Z = centre(S)
    return _spectral_blocks(Z, np.random.default_rng(seed), Z.dim,
                            "minimal central projectors")[1]


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
        resid = unitarity_residual(self.matrix)
        if not resid <= ISO_UNITARITY_TOL:
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
    Construction: the spectrum of a generic Hermitian element of B has
    d clusters whose eigenvector blocks q_i (D x m) span the ranges of
    the d minimal projectors.  For a generic s in B the polar part w_i
    of the m x m matrix q_i^dag s q_1 connects block 1 to block i, so
    row i m + mu of V is (q_i w_i)_mu^dag, with w_1 = 1: f = q_1 is the
    first range's basis.  Verified by conjugating bases both ways,
    which also proves B is a factor; a non-factor raises NumericsError.
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
    # that resolve the identity are blocks of m columns each
    blocks, _ = _spectral_blocks(B, rng, d, f"{d} spectral clusters")
    f, qs = blocks[0], np.stack(blocks[1:])
    for _ in range(4):
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        s = np.tensordot(c, B.basis, axes=(0, 0))
        t = dagger(qs) @ (s @ f)
        require_finite(t, "a connecting partial isometry")
        uu, sv, vv = np.linalg.svd(t)
        if np.all(sv[:, m - 1] > ISOMETRY_RANK_REL * sv[:, 0]):
            break
    else:
        raise NumericsError("connecting partial isometries degenerate "
                            "after 3 redraws")
    v = _projected_unitary(dagger(np.concatenate(
        [f[None], qs @ uu @ vv])).reshape(D, D))
    iso = UnitaryIso(v, ambient, codomain)

    # Verify both directions of the claimed form.
    _, resid = codomain.restrict(iso.conj(B.basis), ["f"])
    worst = np.max(resid)
    if not worst <= RESIDUAL_TOL:
        raise NumericsError(
            f"factorization verification failed (residual {worst:.2e})")
    back = iso.inv_conj(codomain.embed(matrix_units(d), ["f"]))
    if not np.max(B.residual(back)) <= RESIDUAL_TOL:
        raise NumericsError("factorization verification failed on the "
                            "reverse direction")
    return iso, d, m


def _check_pairwise_commuting(tests):
    """Raise unless the algebras whose test_elements pairs are ``tests``
    commute pairwise."""
    # every algebra draws from the same seed, so x_k and y_k may share
    # coefficients; the cross pairs (x_1, y_2) and (x_2, y_1) are
    # independent draws, which is what the bilinear argument needs
    for (i, x), (j, y) in itertools.combinations(enumerate(tests), 2):
        x, y = x[:, None], y[None]
        c = x @ y
        c -= y @ x
        c = np.max(_relative_norm(c, x, y))
        if not c <= COMM_REL_TOL:
            raise NumericsError(f"algebras {i} and {j} do not commute "
                                f"(relative commutator {c:.2e})")


def split_commuting_factors(bs, seed=0):
    """Simultaneous tensor split of pairwise commuting factors.

    Produces a unitary iso V from the first one's ambient onto a product
    of legs z1 x ... x zn such that V B_k V^dag acts on leg k alone.  The
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
        # the iso acts on the trailing leg, batched over the split prefix
        v_tot = (iso.matrix @ v_tot.reshape(prefix, cur_dim, D)).reshape(D, D)
        dims.append(d)
        pair = TensorSpace((("f", d), ("c", mult)))
        for j in range(k + 1, n):
            small, resid = pair.restrict(iso.conj(cur[j].basis), ["c"])
            worst = np.max(resid, initial=0.0)
            if not worst <= RESIDUAL_TOL:
                raise NumericsError(
                    f"algebra {j} leaks onto the split leg "
                    f"(residual {worst:.2e})")
            cur[j] = MatrixSubalgebra(TensorSpace((("t", mult),)),
                                      orthonormalize(small))
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
    no commutant solve is needed.  With no rest legs (d_rest = 1) and
    B.dim = d_t^2, B is all of M_{d_t}, read from integers: no block
    stack and no rank solve, after a finite check of B's generic pair.
    """
    ambient = B.ambient
    target_labels = list(target_labels)
    target_space = ambient.subspace(target_labels)
    d_t = target_space.total_dim
    d_rest = ambient.total_dim // d_t
    if d_rest == 1 and B.dim == d_t * d_t:
        require_finite(B.test_elements(), "a reduction")
        return MatrixSubalgebra.full(target_space)
    n = max(2, -(-d_t * d_t // (d_rest * d_rest)))
    mats = B.basis if n >= B.dim else B.generic_elements(n)
    k = len(ambient.labels)
    legs = [[1 + ambient.index(l) for l in ls]
            for ls in (ambient.complement(target_labels), target_labels)]
    axes = [0] + [a + shift for ls in legs for shift in (0, k) for a in ls]
    blocks = mats.reshape((len(mats),) + ambient.dims * 2).transpose(axes)
    blocks = orthonormalize(blocks.reshape(-1, d_t, d_t))
    if len(blocks) == d_t * d_t:
        return MatrixSubalgebra.full(target_space)
    return algebra_closure(target_space, blocks)


@dataclass
class SectorDecomposition:
    """Joint sector structure of commuting algebras on a shared leg.

    ``projectors``, spectral projectors of one Hermitian element, resolve
    the identity of the shared leg; within sector i the compressed
    algebras split as a tensor product with per-sector leg dimensions
    ``sectors[i]`` (one entry per input algebra, the last absorbing
    leftover multiplicity).  ``iso`` maps the shared leg onto the direct
    sum of those products.  ``spans`` says whether the reductions
    generate the shared leg's full matrix algebra: one sector (every
    reduction has a trivial centre) and reduction dimensions multiplying
    to d_a^2 (commuting factors generate their tensor product).
    """

    a_space: TensorSpace
    sectors: tuple[tuple[int, ...], ...]
    projectors: tuple[np.ndarray, ...]
    iso: UnitaryIso
    spans: bool

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)


def algebraic_lemma(a_labels, x_legs, bs, seed=0) -> SectorDecomposition:
    """Split a shared leg along commuting factor algebras.

    The B_k must live on one ambient whose labels include the shared
    legs and the X legs, each X leg belonging to one algebra only.
    Hypotheses checked: the B_k commute pairwise, and each is supported
    on the shared legs plus its own X legs.  That each B_k is a factor
    is the caller's hypothesis, not checked here: heisenberg_image meets
    it, since U^dag(M_d x 1)U is a copy of M_d for the unitary that
    UnitaryChannel has checked.

    The reductions of the B_k onto the shared legs commute, with no
    second check: their blocks are the coefficients of linearly
    independent |i><j| x |k><l| on disjoint X legs, so the B_k commuting
    makes the blocks commute.  Their centres generate a commutative
    algebra J whose minimal projectors, the nonzero products of minimal
    central ones, are the sectors.  A generic element of J shows J.dim
    clusters; their eigenvector blocks q, orthonormal and resolving the
    identity by construction, are the sector isometries.  With scalar
    centres J is the scalars, read from integers: one sector, q = 1.
    The reductions compressed by q are factors, split jointly.  When the
    split spans, its iso carries the shared leg onto one sector whose
    k-th leg (the last absorbing remaining multiplicity) holds the k-th
    reduction; otherwise its sectors are the obstruction.
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
        _, resid = ambient.restrict(pair, a_labels + list(x_legs[k]))
        worst = np.max(resid)
        if not worst <= GENERIC_RESIDUAL_TOL:
            raise NumericsError(
                f"algebra {k} is not supported on its shared+X legs "
                f"(residual {worst:.2e})")
    a_space = ambient.subspace(a_labels)
    reduced = [reduce_onto_legs(b, a_labels) for b in bs]
    d_a = a_space.total_dim
    gens = [z.basis for z in map(centre, reduced) if z.dim > 1]
    J = (algebra_closure(a_space, np.concatenate(gens)) if gens
         else MatrixSubalgebra.scalars(a_space))
    rng = np.random.default_rng(seed)
    blocks, projectors = _spectral_blocks(J, rng, J.dim,
                                          f"{J.dim} sectors")
    rows, sector_dims = [], []
    for q in blocks:
        sec_space = TensorSpace((("s", q.shape[1]),))
        # the one sector of a scalar J is the identity, compressing nothing
        comp = [alg.basis if q.shape[1] == d_a else
                orthonormalize(dagger(q) @ alg.basis @ q) for alg in reduced]
        iso_i, dims_i = split_commuting_factors(
            [MatrixSubalgebra(sec_space, b) for b in comp],
            seed=int(rng.integers(0, 2**31)))
        rows.append(iso_i.matrix @ dagger(q))
        sector_dims.append(tuple(dims_i))
    v = _projected_unitary(np.concatenate(rows))
    iso = UnitaryIso(v, a_space, TensorSpace((("sectors", d_a),)))
    spans = (len(sector_dims) == 1
             and math.prod(r.dim for r in reduced) == d_a * d_a)
    return SectorDecomposition(a_space, tuple(sector_dims),
                               tuple(projectors), iso, spans)


# the joint sector decomposition of commuting algebras over a shared leg
# is the lemma itself, under its own name (and its own trace span)
sectorize = algebraic_lemma
