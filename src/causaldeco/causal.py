"""Causal structure of unitary channels.

A unitary channel carries labeled input and output leg structure; input
a influences output b when the Heisenberg image of the b-leg algebra
fails to commute with the a-leg algebra.  Collecting the influencing
pairs gives the channel's causal structure as a labeled relation.

Two independent routes decide no-influence: the algebraic commutator
test (fast, relative tolerance on Frobenius norms) and a Choi-operator
factorization test (trace-norm tolerance).  They are kept separate so
each can serve as an oracle for the other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .algebra import RowImage, matrix_units
from .errors import (BorderlineToleranceWarning, InputError, NumericsError,
                     check_tol, document, dump_json, read_text)
from .policy import (CHANNEL_UNITARITY_TOL, CHOI_TRACE_TOL, DIM_CAP,
                     INFLUENCE_REL_TOL)
from .relations import Relation
from .tensorspace import TensorSpace, dagger, unitarity_residual


@dataclass
class UnitaryChannel:
    """Unitary matrix with labeled input and output tensor legs.

    The matrix maps in-space coordinates to out-space coordinates in the
    row-major product basis of each ordered factor list.
    """

    matrix: np.ndarray
    in_space: TensorSpace
    out_space: TensorSpace

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        din = self.in_space.total_dim
        dout = self.out_space.total_dim
        if din != dout:
            raise InputError(f"input dim {din} != output dim {dout}")
        if din > DIM_CAP:
            raise InputError(f"total dimension {din} exceeds cap {DIM_CAP}")
        if self.matrix.shape != (dout, din):
            raise InputError(f"matrix shape {self.matrix.shape}, expected "
                             f"({dout}, {din})")
        if not np.all(np.isfinite(self.matrix)):
            raise InputError("matrix has non-finite entries")
        resid = unitarity_residual(self.matrix)
        if not resid <= CHANNEL_UNITARITY_TOL:
            raise NumericsError(f"matrix is not unitary "
                                f"(residual {resid:.2e})")

    @property
    def dim(self) -> int:
        return self.in_space.total_dim

    def heisenberg(self, out_op) -> np.ndarray:
        """U^dag (op) U: pull an output-frame operator back to inputs."""
        return dagger(self.matrix) @ np.asarray(out_op, complex) @ self.matrix

    def tensor(self, other: "UnitaryChannel") -> "UnitaryChannel":
        for l in other.in_space.labels:
            if l in self.in_space.labels:
                raise InputError(f"duplicate input label {l!r} in tensor")
        for l in other.out_space.labels:
            if l in self.out_space.labels:
                raise InputError(f"duplicate output label {l!r} in tensor")
        return UnitaryChannel(
            np.kron(self.matrix, other.matrix),
            TensorSpace(self.in_space.factors + other.in_space.factors),
            TensorSpace(self.out_space.factors + other.out_space.factors))

    def relabeled(self, in_map=None, out_map=None) -> "UnitaryChannel":
        in_map = in_map or {}
        out_map = out_map or {}
        new_in = TensorSpace(tuple((in_map.get(l, l), d)
                                   for l, d in self.in_space.factors))
        new_out = TensorSpace(tuple((out_map.get(l, l), d)
                                    for l, d in self.out_space.factors))
        return UnitaryChannel(self.matrix, new_in, new_out)

    def with_leg_order(self, in_labels=None, out_labels=None):
        """Same channel with reordered leg lists (matrix permuted to match)."""
        in_labels = list(in_labels) if in_labels is not None \
            else list(self.in_space.labels)
        out_labels = list(out_labels) if out_labels is not None \
            else list(self.out_space.labels)
        return self._permuted(in_labels, out_labels,
                              self.in_space.subspace(in_labels),
                              self.out_space.subspace(out_labels))

    def _permuted(self, in_order, out_order, in_space, out_space):
        """The channel with columns in ``in_order`` and rows in
        ``out_order`` (reorderings of all legs, which reorder checks), on
        spaces of the same total dimension.  An exact permutation keeps
        the checked matrix's entries and unitarity residual, so the
        result skips __post_init__'s checks; the public constructor keeps
        them all."""
        rows = self.out_space.reorder(self.matrix, out_order)
        chan = object.__new__(UnitaryChannel)
        chan.matrix = self.in_space.reorder(rows.T, in_order).T
        chan.in_space, chan.out_space = in_space, out_space
        return chan


def _space_to_json(space: TensorSpace) -> list:
    return [{"label": l, "dim": d} for l, d in space.factors]


def _space_from_json(items, side) -> TensorSpace:
    try:
        factors = tuple((it["label"], it["dim"]) for it in items)
    except (KeyError, TypeError) as exc:
        raise InputError(f"each {side} leg needs a 'label' and an integer "
                         f"'dim' ({exc!r})") from exc
    # labels are JSON strings, as relation labels are; str() would read
    # [] or true as a label
    for label, _ in factors:
        if not isinstance(label, str):
            raise InputError(f"{side} leg labels must be strings, got "
                             f"{label!r}")
    return TensorSpace(factors)


def matrix_to_cells(mat) -> list:
    """Complex matrix as nested lists of [re, im] pairs."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def _numbers_only(types) -> bool:
    # bool is an int subclass and would read as 0 or 1
    return types <= {int, float} or all(
        issubclass(t, (int, float, np.integer, np.floating))
        and not issubclass(t, bool) for t in types)


def matrix_from_cells(rows, dout, din) -> np.ndarray:
    """A dout x din complex matrix from rows of [re, im] number pairs.

    Bools and numeric strings raise InputError instead of reading as 0,
    1 or the number they spell.
    """
    if not isinstance(rows, list) or len(rows) != dout or not all(
            isinstance(row, list) and len(row) == din for row in rows):
        raise InputError(f"matrix must have {dout} rows of {din} cells")
    mat = np.empty((dout, din * 2))
    # row by row: one length check on the cells and one type check on
    # their entries, then one conversion of the row's flat entries
    for i, row in enumerate(rows):
        try:
            pairs = set(map(len, row)) <= {2}
        except TypeError:
            pairs = False
        flat = list(chain.from_iterable(row)) if pairs else []
        if not (pairs and _numbers_only(set(map(type, flat)))):
            raise InputError(f"matrix row {i}: entries must be [re, im] "
                             f"number pairs")
        try:
            mat[i] = np.fromiter(flat, dtype=float, count=2 * din)
        except OverflowError as exc:
            raise InputError(f"matrix row {i}: entry out of float range "
                             f"({exc})") from exc
    return mat.view(complex)


def unitary_to_json(U: UnitaryChannel) -> str:
    doc = {"in": _space_to_json(U.in_space),
           "out": _space_to_json(U.out_space),
           "matrix": matrix_to_cells(U.matrix)}
    return dump_json(doc, sort_keys=False) + "\n"


def unitary_from_json(text: str) -> UnitaryChannel:
    doc = document(text, "unitary", {"in": list, "out": list, "matrix": list})
    in_space = _space_from_json(doc["in"], "in")
    out_space = _space_from_json(doc["out"], "out")
    mat = matrix_from_cells(doc["matrix"], out_space.total_dim,
                            in_space.total_dim)
    # a file's non-unitary matrix is malformed input, not a numerical fault
    try:
        return UnitaryChannel(mat, in_space, out_space)
    except NumericsError as exc:
        raise InputError(str(exc)) from exc


def load_unitary(path) -> UnitaryChannel:
    return unitary_from_json(read_text(path))


def heisenberg_image(U: UnitaryChannel, betas) -> RowImage:
    """The subalgebra U^dag(L(H_beta) (x) 1)U on the input space.

    Closed form: group the rows of U by their beta index, W_i = the
    (D/d_beta) x D block of rows with beta index i.  Then
    U^dag(E_ij (x) 1)U = W_i^dag W_j, and since conjugation preserves the
    Hilbert-Schmidt inner product, sqrt(d_beta/D) W_i^dag W_j over the
    matrix units E_ij (row-major, beta legs in output order) is an
    orthonormal basis, which the RowImage of the rows W forms when read.
    """
    betas = _ordered_subset(U.out_space, betas, "output")
    if not betas:
        raise InputError("heisenberg_image needs at least one output leg")
    return RowImage(U.in_space, _rows_by_beta(U, betas))


def _rows_by_beta(U: UnitaryChannel, betas) -> np.ndarray:
    """Rows of U grouped by the index of the (ordered) beta output legs:
    shape (d_beta, D / d_beta, D)."""
    space = U.out_space
    d_beta = space.subspace(betas).total_dim
    rows = space.reorder(U.matrix, tuple(betas) + space.complement(betas))
    return rows.reshape(d_beta, U.dim // d_beta, U.dim)


def _ordered_subset(space: TensorSpace, labels, side) -> list[str]:
    labels = list(labels)
    for l in labels:
        if l not in space.labels:
            raise InputError(f"unknown {side} leg {l!r}")
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate {side} legs in {labels}")
    return [l for l in space.labels if l in set(labels)]


def _leg_plans(U: UnitaryChannel, alphas) -> tuple:
    """Built once per channel for every output leg: _output_leg_norms'
    buffer g, all one-hot digit matrices side by side (row-doubled for
    g's real view), and per leg a: a's columns there, a view of g's
    diagonal blocks, memory all legs share for rows and differences,
    pairs k < l, a NaN-keeping off-diagonal mask, room for |g_kk-g_ll|^2."""
    space, D, dims = U.in_space, U.dim, U.in_space.dims
    inner = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    onehot = np.hstack([np.zeros((D, 0), bool)] + [
        (np.arange(D) // s % d)[:, None] == np.arange(d)
        for s, d in zip(inner, dims)]).astype(float)
    g, mem, plans = np.empty((D, D), complex), np.empty(D * D, complex), {}
    for a in alphas:
        k = space.index(a)
        d, n, s = dims[k], (D // dims[k]) ** 2, inner[k]
        ku, lu = np.triu_indices(d, 1)
        plans[a] = (
            slice(sum(dims[:k]), sum(dims[:k + 1])),
            np.einsum("ikjlkm->kijlm", g.reshape((D // (d * s), d, s) * 2)),
            mem[:d * n].reshape(d, n),
            mem[d * n:(d + ku.size) * n].reshape(ku.size, n),
            ku, lu, 1.0 - np.eye(d), np.zeros((d, d)))
    return g, onehot, np.repeat(onehot, 2, axis=0), plans


def _output_leg_norms(U: UnitaryChannel, b: str, kernel) -> dict:
    """Max raw Frobenius norm of [U^dag(E (x) 1)U, F (x) 1] over matrix
    units E of output leg b and F of input leg a, for each a in ``kernel``
    (_leg_plans, which every output leg shares).

    With g = U^dag(E_ij (x) 1)U in a-leg blocks g_kl, the squared norm
    for F_kl is the off-diagonal block mass in block column k and in
    block row l plus |g_kk - g_ll|^2.  The images W_i^dag W_j (rows of U
    grouped by b index) are formed one at a time into one buffer, only
    for i <= j: the (j, i) image is the adjoint, with the same max over
    (k, l).  Per leg, the diagonal blocks are copied out as rows and
    subtracted pairwise before squaring; then the image is squared in
    place, and two products with one-hot digit matrices give the block
    masses.  All terms are sums of squares, so a commuting pair reads at
    roundoff, where a Gram form |g_kk|^2 + |g_ll|^2 - 2 Re<g_kk, g_ll>
    would cancel O(1) terms.  No leg's arithmetic depends on the other
    legs planned, and a NaN stays a NaN."""
    g, onehot, onehot2, plans = kernel
    w = _rows_by_beta(U, [b])
    best = dict.fromkeys(plans, 0.0)
    for i in range(w.shape[0]):
        wi_dag = dagger(w[i])
        for j in range(i, w.shape[0]):
            np.matmul(wi_dag, w[j], out=g)
            for _, diag, rows, diffs, ku, lu, _, d1 in plans.values():
                if ku.size:
                    np.copyto(rows.reshape(diag.shape), diag)
                    # mode="clip" writes straight into out; "raise" buffers
                    np.take(rows, ku, axis=0, out=diffs, mode="clip")
                    diffs -= rows[lu]
                    d1[ku, lu] = d1[lu, ku] = np.einsum(
                        "pi,pi->p", diffs.view(float), diffs.view(float))
            np.square(g.view(float), out=g.view(float))
            mass = onehot.T @ (g.view(float) @ onehot2)
            for a, (cols, *_, mask, d1) in plans.items():
                off = mass[cols, cols] * mask
                n2 = off.sum(axis=0)[:, None] + off.sum(axis=1)[None, :] + d1
                best[a] = np.maximum(best[a], n2.max())
    return {a: float(np.sqrt(s)) for a, s in best.items()}


def pair_commutator_norm(U: UnitaryChannel, a: str, b: str) -> float:
    """Max raw Frobenius norm of [U^dag(E (x) 1)U, F (x) 1] over matrix
    units E of the b output leg and F of the a input leg: the one-leg case
    of ``_output_leg_norms``, with each image W_i^dag W_j in closed form."""
    return _output_leg_norms(U, b, _leg_plans(U, [a]))[a]


def _pair_decision(U: UnitaryChannel, a: str, b: str, raw, rel_tol):
    """(threshold, influences, borderline) for a pair's raw norm.

    The threshold is rel_tol times |E (x) 1| on each side, sqrt(D/da) *
    sqrt(D/db); a norm within a factor of ten of it is borderline.
    """
    D = U.dim
    cut = rel_tol * float(np.sqrt(D / U.in_space.dim(a))
                          * np.sqrt(D / U.out_space.dim(b)))
    return cut, not (raw <= cut), cut / 10 < raw < cut * 10


def influences(U: UnitaryChannel, a: str, b: str,
               rel_tol=INFLUENCE_REL_TOL, warn=True) -> bool:
    """Whether input leg a causally influences output leg b."""
    check_tol(rel_tol)
    if a not in U.in_space.labels:
        raise InputError(f"unknown input leg {a!r}")
    if b not in U.out_space.labels:
        raise InputError(f"unknown output leg {b!r}")
    raw = pair_commutator_norm(U, a, b)
    cut, hit, borderline = _pair_decision(U, a, b, raw, rel_tol)
    if warn and borderline:
        warnings.warn(
            f"influence test for ({a}, {b}) is borderline: commutator "
            f"norm {raw:.3e} vs threshold {cut:.3e}",
            BorderlineToleranceWarning, stacklevel=2)
    return hit


def causal_structure(U: UnitaryChannel,
                     rel_tol=INFLUENCE_REL_TOL) -> Relation:
    """The relation of influencing (input, output) pairs."""
    return causal_structure_report(U, rel_tol).relation


@dataclass
class CausalReport:
    """Causal structure plus the raw evidence behind each decision."""

    relation: Relation
    raw_norms: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    borderline: list = field(default_factory=list)


def causal_structure_report(U: UnitaryChannel,
                            rel_tol=INFLUENCE_REL_TOL) -> CausalReport:
    """Causal structure from one ``_output_leg_norms`` pass per output
    leg over plans built once, with the raw norm, threshold and
    borderline flag of each pair."""
    check_tol(rel_tol)
    kernel = _leg_plans(U, U.in_space.labels)
    by_b = {b: _output_leg_norms(U, b, kernel) for b in U.out_space.labels}
    pairs, raw_norms, thresholds, borderline = set(), {}, {}, []
    for a in U.in_space.labels:
        for b in U.out_space.labels:
            raw = raw_norms[(a, b)] = by_b[b][a]
            cut, hit, border = _pair_decision(U, a, b, raw, rel_tol)
            thresholds[(a, b)] = cut
            if border:
                borderline.append((a, b))
            if hit:
                pairs.add((a, b))
    rel = Relation(U.in_space.labels, U.out_space.labels, frozenset(pairs))
    return CausalReport(rel, raw_norms, thresholds, borderline)


def composite_influences(U: UnitaryChannel, alphas, betas,
                         rel_tol=INFLUENCE_REL_TOL) -> bool:
    """Whether the input subset influences the output subset jointly.

    Tests commutation of per-leg generators of the Heisenberg image of
    the beta legs against per-leg matrix units on the alpha legs; this
    decides commutation of the full generated algebras.
    """
    alphas = _ordered_subset(U.in_space, alphas, "input")
    betas = _ordered_subset(U.out_space, betas, "output")
    if not alphas or not betas:
        return False
    for b in betas:
        db = U.out_space.dim(b)
        for e in matrix_units(db):
            g = U.heisenberg(U.out_space.embed(e, [b]))
            ng = np.linalg.norm(g)
            for a in alphas:
                for f in matrix_units(U.in_space.dim(a)):
                    femb = U.in_space.embed(f, [a])
                    c = np.linalg.norm(g @ femb - femb @ g)
                    # a NaN norm reads as influence
                    if not c <= rel_tol * ng * np.linalg.norm(femb):
                        return True
    return False


def _choi_operator(U: UnitaryChannel, betas):
    """Trace-normalized Choi operator of Tr_{out minus betas} after U.

    Lives on (all input legs) tensor (the beta legs), with the beta
    factors relabeled 'choi:<label>'.  Row-major index order: inputs
    first, then betas in output order.
    """
    D = U.dim
    w = _rows_by_beta(U, betas)
    d_beta = w.shape[0]
    if D * d_beta > DIM_CAP:
        raise InputError(
            f"Choi operator dimension {D * d_beta} exceeds cap {DIM_CAP}")
    rho = np.einsum("bri,crj->ibjc", w, w.conj()) / D
    rho = rho.reshape(D * d_beta, D * d_beta)
    factors = U.in_space.factors + tuple(
        (f"choi:{b}", U.out_space.dim(b)) for b in betas)
    return rho, TensorSpace(factors)


def choi_factorization_residual(U: UnitaryChannel, alphas, betas) -> float:
    """Trace-norm distance of the reduced Choi operator from the
    no-influence form (maximally mixed on alphas) tensor (rest)."""
    alphas = _ordered_subset(U.in_space, alphas, "input")
    betas = _ordered_subset(U.out_space, betas, "output")
    if not alphas or not betas:
        return 0.0
    rho, rho_space = _choi_operator(U, betas)
    keep = [l for l in rho_space.labels if l not in set(alphas)]
    d_alpha = 1
    for a in alphas:
        d_alpha *= U.in_space.dim(a)
    sigma = rho_space.partial_trace(rho, keep)
    candidate = rho_space.embed(sigma, keep) / d_alpha
    return float(np.linalg.norm(rho - candidate, ord="nuc"))


def no_influence_choi_oracle(U: UnitaryChannel, alphas, betas) -> bool:
    """Independent no-influence test: the marginal output on the beta
    legs, as a channel, ignores the alpha inputs."""
    return choi_factorization_residual(U, alphas, betas) <= CHOI_TRACE_TOL


def atomicity_check(U: UnitaryChannel, rel_tol=INFLUENCE_REL_TOL) -> bool:
    """Composite influence reduces to singleton influence, over the full
    powerset of both sides (desk scale only)."""
    na = len(U.in_space.labels)
    nb = len(U.out_space.labels)
    if na + nb > 12:
        raise InputError(
            f"powerset check over {na}+{nb} legs is too large")
    singles = causal_structure(U, rel_tol).pairs
    for mask_a in range(1, 1 << na):
        alphas = [U.in_space.labels[i] for i in range(na)
                  if mask_a >> i & 1]
        for mask_b in range(1, 1 << nb):
            betas = [U.out_space.labels[j] for j in range(nb)
                     if mask_b >> j & 1]
            composite = composite_influences(U, alphas, betas, rel_tol)
            pointwise = any((a, b) in singles for a in alphas for b in betas)
            if composite != pointwise:
                return False
    return True
