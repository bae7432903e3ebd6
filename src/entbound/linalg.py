"""Hermitian matrix substrate: bipartite partial transpose, spectra, norms.

Every matrix in this package is a `HermitianMatrix`: a complex square array
tagged with subsystem dimensions ``(n1, n2)``, ``n = n1 * n2``. Values are
immutable after construction and all operations here are pure functions, so
concurrent use is safe.

A matrix computes its eigendecomposition (`HermitianMatrix.spectrum`) and its
partial transpose (`HermitianMatrix.pt`) on first use and keeps them, so every
eigenvalue read of one value shares one decomposition. The cache cannot go
stale because the stored array is read-only, and it needs no lock of its own:
two threads racing on a first use at worst compute the same deterministic
value twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPSDError,
    SpectralError,
)

# Relative threshold for rank decisions (support projectors, boundary tests).
EIG_ZERO_RTOL = 1e-9
# Inputs less Hermitian than this (relative Frobenius) are rejected instead
# of silently symmetrized.
_HERMITICITY_RTOL = 1e-8


@dataclass(frozen=True)
class HermitianMatrix:
    """Complex Hermitian matrix with bipartite dimension metadata.

    The stored array is symmetrized ``(M + M†)/2`` at construction and made
    read-only. ``dims = (n1, n2)`` names the tensor-factor split used by the
    partial transpose; a plain matrix with no preferred split uses ``(n, 1)``.
    """

    mat: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        n1, n2 = (int(d) for d in self.dims)
        if n1 < 1 or n2 < 1 or n1 * n2 != m.shape[0]:
            raise DimensionMismatchError(
                f"dims {(n1, n2)} incompatible with matrix order {m.shape[0]}"
            )
        scale = max(1.0, float(np.linalg.norm(m)))
        asym = float(np.linalg.norm(m - m.conj().T))
        if asym > _HERMITICITY_RTOL * scale:
            raise NotHermitianError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
        h = (m + m.conj().T) / 2
        h.setflags(write=False)
        object.__setattr__(self, "mat", h)
        object.__setattr__(self, "dims", (n1, n2))

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def n1(self) -> int:
        return self.dims[0]

    @property
    def n2(self) -> int:
        return self.dims[1]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    @cached_property
    def spectrum(self) -> "SpectralDecomposition":
        """Eigendecomposition with ascending eigenvalues and a fixed phase convention."""
        try:
            w, v = np.linalg.eigh(self.mat)
        except np.linalg.LinAlgError as exc:
            raise SpectralError(f"eigendecomposition did not converge: {exc}") from exc
        return SpectralDecomposition(w.astype(float), _fix_phases(v))

    @cached_property
    def pt(self) -> "HermitianMatrix":
        """Transpose of the second tensor factor (see `partial_transpose_array`)."""
        return HermitianMatrix(partial_transpose_array(self.mat, self.dims), self.dims)

    def _same_dims(self, other: "HermitianMatrix") -> None:
        if self.dims != other.dims:
            raise DimensionMismatchError(f"dims {self.dims} != {other.dims}")

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._same_dims(other)
        return HermitianMatrix(self.mat + other.mat, self.dims)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._same_dims(other)
        return HermitianMatrix(self.mat - other.mat, self.dims)

    def __mul__(self, c: float) -> "HermitianMatrix":
        return HermitianMatrix(float(c) * self.mat, self.dims)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    def __iter__(self):
        """Unpack as ``w, v = a.spectrum``."""
        return iter((self.eigenvalues, self.eigenvectors))


def hermitian(mat: np.ndarray, dims: tuple[int, int] | None = None) -> HermitianMatrix:
    """Wrap an array as a HermitianMatrix, defaulting dims to ``(n, 1)``."""
    m = np.asarray(mat, dtype=complex)
    if dims is None:
        dims = (m.shape[0], 1)
    return HermitianMatrix(m, dims)


def identity(dims: tuple[int, int]) -> HermitianMatrix:
    return HermitianMatrix(np.eye(dims[0] * dims[1], dtype=complex), dims)


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive.

    Ties break to the lowest index (np.argmax convention), giving a
    reproducible eigenbasis for a fixed input. The phases are scalar
    divisions: numpy's array division can differ from them in the last bit.
    """
    pivots = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * np.array([p.conjugate() / abs(p) if abs(p) > 0 else 1.0 for p in pivots])


def rel_tol(w: np.ndarray) -> float:
    """Rank threshold of a spectrum: ``EIG_ZERO_RTOL`` times its largest |eigenvalue|."""
    return EIG_ZERO_RTOL * float(np.max(np.abs(w)))


def signed_eigenspaces(a: HermitianMatrix):
    """Eigenvectors of ``a`` with masks of its positive, negative and zero eigenvalues.

    An eigenvalue is zero when its magnitude is at most `rel_tol` of the
    spectrum. Returns ``(v, pos, neg, null)``.
    """
    w, v = a.spectrum
    tol = rel_tol(w)
    pos = w > tol
    neg = w < -tol
    return v, pos, neg, ~(pos | neg)


def partial_transpose_array(mat: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Partial transpose of an array of shape ``(..., n, n)``, ``n = n1 * n2``.

    Transposes the second tensor factor of every matrix in the stack:
    ((i,k),(j,l)) -> ((i,l),(j,k)). An exact entry permutation, hence
    involutive, and spectrum-real on Hermitian input.
    """
    n1, n2 = dims
    batch = mat.shape[:-2]
    t = mat.reshape(*batch, n1, n2, n1, n2).swapaxes(-3, -1)
    return t.reshape(*batch, n1 * n2, n1 * n2)


def trace_inner_product(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Hilbert-Schmidt inner product Tr[A†B], real for Hermitian pairs."""
    if a.mat.shape != b.mat.shape:
        raise DimensionMismatchError(f"orders {a.n} != {b.n}")
    return float(np.vdot(a.mat, b.mat).real)


def trace_norm(a: HermitianMatrix) -> float:
    """Sum of absolute eigenvalues (Schatten-1 norm of a Hermitian matrix)."""
    return float(np.sum(np.abs(a.spectrum.eigenvalues)))


def frobenius_norm(a: HermitianMatrix) -> float:
    return float(np.linalg.norm(a.mat))


def min_eigenvalue(a: HermitianMatrix) -> float:
    return float(a.spectrum.eigenvalues[0])


def support_projector(a: HermitianMatrix, tol: float | None = None) -> HermitianMatrix:
    """Orthogonal projector onto eigenspaces with eigenvalue above ``tol``.

    ``tol`` defaults to `rel_tol` of the spectrum. The input must be PSD
    within that tolerance.
    """
    w, v = a.spectrum
    if tol is None:
        tol = rel_tol(w)
    if w.size and w[0] < -max(tol, 0.0) - 1e-15:
        raise NotPSDError(f"support projector of a non-PSD matrix (min eig {w[0]:.3e})")
    cols = v[:, w > tol]
    p = cols @ cols.conj().T
    return HermitianMatrix(p, a.dims)


def is_psd(a: HermitianMatrix, tol: float = 1e-10) -> bool:
    """True iff the minimum eigenvalue is at least ``-tol``."""
    return min_eigenvalue(a) >= -tol


def rank_of(a: HermitianMatrix, tol: float | None = None) -> int:
    w = a.spectrum.eigenvalues
    if tol is None:
        tol = rel_tol(w)
    return int(np.sum(np.abs(w) > tol))


def random_hermitian(
    dims: tuple[int, int], rng: np.random.Generator, scale: float = 1.0
) -> HermitianMatrix:
    n = dims[0] * dims[1]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix(scale * (g + g.conj().T) / 2, dims)


def random_state(
    dims: tuple[int, int], rng: np.random.Generator, rank: int | None = None
) -> HermitianMatrix:
    """Unit-trace PSD matrix from a Ginibre factor G: GG†/Tr[GG†]."""
    n = dims[0] * dims[1]
    r = n if rank is None else int(rank)
    g = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    s = g @ g.conj().T
    return HermitianMatrix(s / np.trace(s).real, dims)


def to_json_dict(a: HermitianMatrix) -> dict:
    """Repo-wide JSON matrix form: dims plus row-major real/imag parts."""
    return {
        "dims": [a.n1, a.n2],
        "re": a.mat.real.tolist(),
        "im": a.mat.imag.tolist(),
    }


def from_json_dict(d: dict) -> HermitianMatrix:
    try:
        dims = (int(d["dims"][0]), int(d["dims"][1]))
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DimensionMismatchError(f"malformed matrix object: {exc}") from exc
    if re.shape != im.shape:
        raise DimensionMismatchError(f"re/im shapes differ: {re.shape} vs {im.shape}")
    return HermitianMatrix(re + 1j * im, dims)
