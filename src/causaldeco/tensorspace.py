"""Labeled tensor product spaces and leg bookkeeping.

Every operator in this package acts on an ordered tensor product of
labeled finite-dimensional factors ("legs").  Keeping the order explicit
in a small value type lets the rest of the code move operators between
leg frames by reshaping and transposing their legs instead of
error-prone manual index arithmetic.

Conventions: vectors use the lexicographic product basis of the factor
list (row-major, numpy reshape order).  ``vec`` of a matrix means
row-major flattening.  An operator argument may be one D x D matrix or
a stack of shape (..., D, D); ``embed``, ``partial_trace`` and
``restrict`` act on each matrix of a stack, with the leg axes last.
``reorder`` is the exception: it re-indexes an array's leading axis,
with any trailing axes riding along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericsError
from .policy import DIM_CAP  # noqa: F401 (re-exported)


def _as_complex(mat) -> np.ndarray:
    return np.asarray(mat, dtype=complex)


def require_finite(mat, what: str) -> None:
    """Raise NumericsError unless every entry is finite.  LAPACK's SVD
    can hang on a non-finite entry, so every SVD input passes here."""
    if not np.isfinite(mat).all():
        raise NumericsError(f"non-finite entries in {what}")


def _relative_norm(diff, *refs):
    """||diff||_F over the product of the refs' Frobenius norms, per
    matrix of a stack: a zero ref reads 0, and a NaN stays NaN."""
    num = np.linalg.norm(diff, axis=(-2, -1))
    den = math.prod(np.linalg.norm(r, axis=(-2, -1)) for r in refs)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)[()]


def as_dim(value, what: str) -> int:
    """``value`` as a dimension: a positive integer, given as an integer
    or an integral float.  Bools, strings and fractions raise InputError
    rather than being truncated."""
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise InputError(f"{what} dimension must be a positive integer, "
                         f"got {value!r}")
    d = int(value)
    if d < 1:
        raise InputError(f"{what} has dimension {d}")
    return d


@dataclass(frozen=True)
class TensorSpace:
    """Ordered sequence of labeled factors, e.g. (("a1", 2), ("a2", 3))."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(l), as_dim(d, f"factor {l!r}"))
                        for l, d in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [l for l, _ in factors]
        if len(set(labels)) != len(labels):
            raise InputError(f"duplicate factor labels: {labels}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def total_dim(self) -> int:
        out = 1
        for _, d in self.factors:
            out *= d
        return out

    def index(self, label: str) -> int:
        for i, (l, _) in enumerate(self.factors):
            if l == label:
                return i
        raise InputError(f"no factor labeled {label!r} in {self.labels}")

    def dim(self, label: str) -> int:
        return self.factors[self.index(label)][1]

    def subspace(self, labels) -> "TensorSpace":
        """Space made of the named factors, in the order given."""
        return TensorSpace(tuple((l, self.dim(l)) for l in labels))

    def complement(self, labels) -> tuple[str, ...]:
        """Labels not in ``labels``, in ambient order."""
        drop = set(labels)
        return tuple(l for l in self.labels if l not in drop)

    # -- leg permutations ------------------------------------------------

    def reorder(self, arr, new_labels) -> np.ndarray:
        """``arr`` with its leading axis, indexed by this space's legs,
        re-indexed by ``new_labels`` (a reordering of all labels) by one
        reshape and one transpose.  Trailing axes ride along."""
        new_labels = tuple(new_labels)
        if sorted(new_labels) != sorted(self.labels):
            raise InputError(
                f"{new_labels} is not a reordering of {self.labels}")
        arr = np.asarray(arr)
        axes = [self.index(l) for l in new_labels]
        n = len(axes)
        moved = arr.reshape(self.dims + arr.shape[1:]).transpose(
            axes + list(range(n, n + arr.ndim - 1)))
        return moved.reshape(arr.shape)

    def permutation_to(self, new_labels) -> np.ndarray:
        """Permutation matrix P with (P psi) indexed by ``new_labels``
        order: ``reorder`` applied to the identity."""
        return self.reorder(np.eye(self.total_dim), new_labels)

    # -- embeddings and reductions ---------------------------------------

    def _transposed(self, mat, src, dst) -> np.ndarray:
        """A stack of D x D matrices with legs in order ``src``,
        rewritten with legs in order ``dst`` (both orderings of all
        labels) by one reshape and one transpose."""
        axes = [1 + tuple(src).index(l) for l in dst]
        moved = mat.reshape((-1,) + tuple(self.dim(l) for l in src) * 2)
        return moved.transpose([0] + axes + [a + len(axes) for a in axes]
                               ).reshape(mat.shape)

    def embed(self, op, labels) -> np.ndarray:
        """Extend an operator on the named legs (in that order) by identity."""
        op = _as_complex(op)
        sub = self.subspace(labels)
        if op.shape[-2:] != (sub.total_dim, sub.total_dim):
            raise InputError(
                f"operator shape {op.shape} does not match legs {labels} "
                f"of dimension {sub.total_dim}")
        dr = self.total_dim // sub.total_dim
        big = np.zeros(op.shape[:-2] + (self.total_dim,) * 2, dtype=complex)
        big.reshape(op.shape[:-2] + (sub.total_dim, dr) * 2)[
            ..., :, np.arange(dr), :, np.arange(dr)] = op
        order = tuple(labels) + self.complement(labels)
        return self._transposed(big, order, self.labels)

    def partial_trace(self, mat, keep_labels) -> np.ndarray:
        """Trace out all legs except ``keep_labels`` (result in that order)."""
        mat = _as_complex(mat)
        dk = self.subspace(keep_labels).total_dim
        order = tuple(keep_labels) + self.complement(keep_labels)
        dr = self.total_dim // dk
        m4 = self._transposed(mat, self.labels, order).reshape(
            mat.shape[:-2] + (dk, dr, dk, dr))
        return np.einsum("...irjr->...ij", m4)

    def restrict(self, mat, labels):
        """Write ``mat`` as (small op on ``labels``) tensor identity.

        Returns (small, residual) where residual is the relative Frobenius
        distance between ``mat`` and the factored form, one per matrix of
        a stack; callers decide what residual counts as supported.
        """
        mat = _as_complex(mat)
        dr = self.total_dim // self.subspace(labels).total_dim
        small = self.partial_trace(mat, labels) / dr
        return small, _relative_norm(mat - self.embed(small, labels), mat)

    # -- operator Schmidt ------------------------------------------------

    def schmidt_right_factors(self, mat, left_labels, rel=1e-9):
        """Right factors of the operator Schmidt decomposition.

        Splitting the legs into (``left_labels`` | rest), any operator is a
        sum of x_k tensor y_k with orthogonal factors.  Returns the list of
        y_k (operators on the remaining legs, ambient order) whose singular
        values pass the relative rank threshold.
        """
        mat = _as_complex(mat)
        order = tuple(left_labels) + self.complement(left_labels)
        dl = self.subspace(left_labels).total_dim
        dr = self.total_dim // dl
        m4 = self._transposed(mat, self.labels, order).reshape(dl, dr, dl, dr)
        mmat = np.transpose(m4, (0, 2, 1, 3)).reshape(dl * dl, dr * dr)
        require_finite(mmat, "an operator Schmidt decomposition")
        u, s, vh = np.linalg.svd(mmat, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return []
        cut = rel * s[0] * np.sqrt(max(mmat.shape))
        # mmat = sum_k s_k u_k v_k^H, so vec(y_k) is the k-th row of vh.
        ys = []
        for k in range(s.size):
            if s[k] <= cut:
                break
            ys.append(vh[k].reshape(dr, dr).copy())
        return ys


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R diagonal phases are normalized so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    z = (rng.standard_normal((dim, dim)) +
         1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    ph = d / np.abs(d)
    return q * ph


def dagger(mat) -> np.ndarray:
    return np.asarray(mat).conj().swapaxes(-1, -2)


def unitarity_residual(m) -> float:
    """||M^dag M - 1||_F / sqrt(d) for a d x d array M; inf when M is
    not square, and NaN when M^dag M holds one (a NaN in M, or an
    overflow of complex products)."""
    d = m.shape[1]
    if m.shape[0] != d:
        return float("inf")
    return float(np.linalg.norm(dagger(m) @ m - np.eye(d)) / np.sqrt(d))
