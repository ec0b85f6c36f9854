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

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .algebra import MatrixSubalgebra, matrix_units
from .errors import BorderlineToleranceWarning, InputError, NumericsError
from .relations import Relation
from .tensorspace import DIM_CAP, TensorSpace, dagger

INFLUENCE_REL_TOL = 1e-9
CHOI_TRACE_TOL = 1e-8
UNITARITY_TOL = 1e-10


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
        resid = np.linalg.norm(dagger(self.matrix) @ self.matrix
                               - np.eye(din))
        if not (resid <= UNITARITY_TOL * np.sqrt(din) * 100):
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
        pin = self.in_space.permutation_to(in_labels)
        pout = self.out_space.permutation_to(out_labels)
        return UnitaryChannel(pout @ self.matrix @ pin.T,
                              self.in_space.subspace(in_labels),
                              self.out_space.subspace(out_labels))


def _space_to_json(space: TensorSpace) -> list:
    return [{"label": l, "dim": d} for l, d in space.factors]


def _space_from_json(items, side) -> TensorSpace:
    if not isinstance(items, list):
        raise InputError(f"{side} legs must be a list")
    try:
        factors = tuple((str(it["label"]), it["dim"]) for it in items)
    except (KeyError, TypeError) as exc:
        raise InputError(f"each {side} leg needs a 'label' and an integer "
                         f"'dim' ({exc!r})") from exc
    return TensorSpace(factors)


def matrix_to_cells(mat) -> list:
    """Complex matrix as nested lists of [re, im] pairs."""
    return [[[float(np.real(x)), float(np.imag(x))] for x in row]
            for row in np.asarray(mat)]


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
    return json.dumps(doc, indent=2) + "\n"


def unitary_from_json(text: str) -> UnitaryChannel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid unitary JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("unitary JSON must be an object")
    for key in ("in", "out", "matrix"):
        if key not in doc:
            raise InputError(f"unitary JSON missing {key!r}")
    in_space = _space_from_json(doc["in"], "in")
    out_space = _space_from_json(doc["out"], "out")
    mat = matrix_from_cells(doc["matrix"], out_space.total_dim,
                            in_space.total_dim)
    return UnitaryChannel(mat, in_space, out_space)


def load_unitary(path) -> UnitaryChannel:
    with open(path, "r", encoding="utf-8") as fh:
        return unitary_from_json(fh.read())


def heisenberg_image(U: UnitaryChannel, betas) -> MatrixSubalgebra:
    """The subalgebra U^dag(L(H_beta) (x) 1)U on the input space.

    Closed form: group the rows of U by their beta index, W_i = the
    (D/d_beta) x D block of rows with beta index i.  Then
    U^dag(E_ij (x) 1)U = W_i^dag W_j, and since conjugation preserves the
    Hilbert-Schmidt inner product, sqrt(d_beta/D) W_i^dag W_j over the
    matrix units E_ij (row-major, beta legs in output order) is an
    orthonormal basis.
    """
    betas = _ordered_subset(U.out_space, betas, "output")
    if not betas:
        raise InputError("heisenberg_image needs at least one output leg")
    w = _rows_by_beta(U, betas)
    d_beta = w.shape[0]
    basis = np.einsum("ira,jrb->ijab", w.conj(), w, optimize=True).reshape(
        d_beta * d_beta, U.dim, U.dim) * np.sqrt(d_beta / U.dim)
    return MatrixSubalgebra(U.in_space, basis)


def _rows_by_beta(U: UnitaryChannel, betas) -> np.ndarray:
    """Rows of U grouped by the index of the (ordered) beta output legs:
    shape (d_beta, D / d_beta, D)."""
    space = U.out_space
    front = [space.index(l) for l in betas]
    order = front + [k for k in range(len(space.dims)) if k not in front]
    d_beta = space.subspace(betas).total_dim
    rows = U.matrix.reshape(space.dims + (U.dim,))
    return rows.transpose(order + [len(order)]).reshape(
        d_beta, U.dim // d_beta, U.dim)


def _ordered_subset(space: TensorSpace, labels, side) -> list[str]:
    labels = list(labels)
    for l in labels:
        if l not in space.labels:
            raise InputError(f"unknown {side} leg {l!r}")
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate {side} legs in {labels}")
    return [l for l in space.labels if l in set(labels)]


def _leg_plan(space: TensorSpace, label: str):
    """What the influence kernel needs of one input leg: the shape that
    splits a D x D matrix's row and column into (outer, leg, inner)
    digits, the D x d one-hot matrix of the leg digit, the pairs k < l,
    and a mask that zeroes a d x d diagonal while keeping a NaN."""
    dims = space.dims
    k = space.index(label)
    d = dims[k]
    inner = math.prod(dims[k + 1:])
    digit = np.arange(space.total_dim) // inner % d
    onehot = (digit[:, None] == np.arange(d)).astype(float)
    ku, lu = np.triu_indices(d, 1)
    split = (space.total_dim // (d * inner), d, inner)
    return split * 2, onehot, ku, lu, 1.0 - np.eye(d)


def _output_leg_norms(U: UnitaryChannel, b: str, alphas) -> dict:
    """Max raw Frobenius norm of [U^dag(E (x) 1)U, F (x) 1] over matrix
    units E of output leg b and F of input leg a, for each a in alphas.

    With g = U^dag(E_ij (x) 1)U in a-leg blocks g_kl, the squared norm
    for F_kl is the off-diagonal block mass in block column k and in
    block row l plus |g_kk - g_ll|^2.  Each image is W_i^dag W_j, from
    the rows of U grouped by b index, and only the pairs i <= j are
    formed: the (j, i) image is the adjoint of the (i, j) one, so its
    norm at (k, l) is the (i, j) norm at (l, k), and the max over (k, l)
    is the same.  |g|^2 is taken once per image, and each leg's block
    masses are one contraction with its one-hot digit matrix.  The
    differences g_kk - g_ll (k < l) are formed before squaring: every
    term is a sum of squares, so a commuting pair comes out at roundoff
    scale.  A Gram form |g_kk|^2 + |g_ll|^2 - 2 Re<g_kk, g_ll> would
    cancel O(1) terms, with an error near the influence cut at D=256.
    Each leg's arithmetic is its own, so the norm does not depend on
    which other legs are in alphas, and a NaN in U stays a NaN."""
    w = _rows_by_beta(U, [b])
    plans = {a: _leg_plan(U.in_space, a) for a in alphas}
    best = dict.fromkeys(alphas, 0.0)
    d_b = w.shape[0]
    for i in range(d_b):
        wi_dag = dagger(w[i])
        for j in range(i, d_b):
            g = wi_dag @ w[j]
            p = g.real ** 2 + g.imag ** 2
            for a, (split, onehot, ku, lu, off_mask) in plans.items():
                off = (onehot.T @ p @ onehot) * off_mask
                n2 = off.sum(axis=0)[:, None] + off.sum(axis=1)[None, :]
                if ku.size:
                    # a view of the diagonal blocks, (d, outer, inner)^2
                    diag = np.einsum("ikjlkm->kijlm", g.reshape(split))
                    diff = (diag[ku] - diag[lu]).reshape(ku.size, -1)
                    d1 = np.einsum("pi,pi->p", diff.view(float),
                                   diff.view(float))
                    n2[ku, lu] += d1
                    n2[lu, ku] += d1
                best[a] = np.maximum(best[a], n2.max())
    return {a: float(np.sqrt(s)) for a, s in best.items()}


def pair_commutator_norm(U: UnitaryChannel, a: str, b: str) -> float:
    """Max raw Frobenius norm of [U^dag(E (x) 1)U, F (x) 1] over matrix
    units E of the b output leg and F of the a input leg: the one-leg case
    of ``_output_leg_norms``, with each image W_i^dag W_j in closed form."""
    return _output_leg_norms(U, b, [a])[a]


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
    leg, with the raw norm, threshold and borderline flag of each pair."""
    by_b = {b: _output_leg_norms(U, b, U.in_space.labels)
            for b in U.out_space.labels}
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
