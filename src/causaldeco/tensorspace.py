"""Labeled tensor product spaces and leg bookkeeping.

Every operator in this package acts on an ordered tensor product of
labeled finite-dimensional factors ("legs").  Keeping the order explicit
in a small value type lets the rest of the code move operators between
leg frames with permutation matrices instead of error-prone manual index
arithmetic.

Conventions: vectors use the lexicographic product basis of the factor
list (row-major, numpy reshape order).  ``vec`` of a matrix means
row-major flattening.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericsError

# Hard cap on ambient dimensions for dense linear algebra.
DIM_CAP = 256


def _as_complex(mat) -> np.ndarray:
    return np.asarray(mat, dtype=complex)


def require_finite(mat, what: str) -> None:
    """Raise NumericsError unless every entry is finite.  LAPACK's SVD
    can hang on a non-finite entry, so every SVD input passes here."""
    if not np.isfinite(mat).all():
        raise NumericsError(f"non-finite entries in {what}")


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

    def permutation_to(self, new_labels) -> np.ndarray:
        """Permutation matrix P with (P psi) indexed by ``new_labels`` order.

        ``new_labels`` must be a reordering of all labels.
        """
        new_labels = tuple(new_labels)
        if sorted(new_labels) != sorted(self.labels):
            raise InputError(
                f"{new_labels} is not a reordering of {self.labels}")
        if new_labels == self.labels:
            return np.eye(self.total_dim)
        axes = [self.index(l) for l in new_labels]
        src = np.arange(self.total_dim).reshape(self.dims)
        src = np.transpose(src, axes).reshape(-1)
        perm = np.zeros((self.total_dim, self.total_dim))
        perm[np.arange(self.total_dim), src] = 1.0
        return perm

    def front_permutation(self, labels) -> tuple[np.ndarray, "TensorSpace"]:
        """Permutation bringing ``labels`` (in that order) to the front."""
        order = tuple(labels) + self.complement(labels)
        return self.permutation_to(order), self.subspace(order)

    # -- embeddings and reductions ---------------------------------------

    def embed(self, op, labels) -> np.ndarray:
        """Extend an operator on the named legs (in that order) by identity."""
        op = _as_complex(op)
        sub = self.subspace(labels)
        if op.shape != (sub.total_dim, sub.total_dim):
            raise InputError(
                f"operator shape {op.shape} does not match legs {labels} "
                f"of dimension {sub.total_dim}")
        rest = self.complement(labels)
        d_rest = 1
        for l in rest:
            d_rest *= self.dim(l)
        perm, _ = self.front_permutation(labels)
        big = np.kron(op, np.eye(d_rest))
        return perm.conj().T @ big @ perm

    def partial_trace(self, mat, keep_labels) -> np.ndarray:
        """Trace out all legs except ``keep_labels`` (result in that order)."""
        mat = _as_complex(mat)
        perm, sub = self.front_permutation(keep_labels)
        m = perm @ mat @ perm.conj().T
        dk = 1
        for l in keep_labels:
            dk *= self.dim(l)
        dr = self.total_dim // dk
        m4 = m.reshape(dk, dr, dk, dr)
        return np.einsum("irjr->ij", m4)

    def restrict(self, mat, labels):
        """Write ``mat`` as (small op on ``labels``) tensor identity.

        Returns (small, residual) where residual is the relative Frobenius
        distance between ``mat`` and the factored form; callers decide
        what residual counts as supported.
        """
        mat = _as_complex(mat)
        dk = 1
        for l in labels:
            dk *= self.dim(l)
        dr = self.total_dim // dk
        small = self.partial_trace(mat, labels) / dr
        rebuilt = self.embed(small, labels)
        norm = np.linalg.norm(mat)
        if norm == 0.0:
            return small, 0.0
        residual = np.linalg.norm(mat - rebuilt) / norm
        return small, residual

    def is_supported_on(self, mat, labels, rel_tol=1e-8) -> bool:
        _, residual = self.restrict(mat, labels)
        return residual <= rel_tol

    # -- operator Schmidt ------------------------------------------------

    def schmidt_right_factors(self, mat, left_labels, rel=1e-9):
        """Right factors of the operator Schmidt decomposition.

        Splitting the legs into (``left_labels`` | rest), any operator is a
        sum of x_k tensor y_k with orthogonal factors.  Returns the list of
        y_k (operators on the remaining legs, ambient order) whose singular
        values pass the relative rank threshold.
        """
        mat = _as_complex(mat)
        right_labels = self.complement(left_labels)
        perm, sub = self.front_permutation(left_labels)
        m = perm @ mat @ perm.conj().T
        dl = 1
        for l in left_labels:
            dl *= self.dim(l)
        dr = self.total_dim // dl
        m4 = m.reshape(dl, dr, dl, dr)
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
    return np.asarray(mat).conj().T
