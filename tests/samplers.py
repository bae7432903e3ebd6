"""Random batches of PPT states and of Rains-set elements for sampled checks."""

import numpy as np

from entbound.linalg import partial_transpose_array


def sample_ppt_states(
    dims: tuple[int, int], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stack of ``count`` PPT states, shape (count, n, n).

    Each sample mixes a Ginibre state toward the maximally mixed state by a
    uniformly random amount past the exact PPT-boundary mixing weight, so the
    batch covers boundary and interior.
    """
    n = dims[0] * dims[1]
    g = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    s = g @ g.conj().transpose(0, 2, 1)
    s /= np.trace(s, axis1=1, axis2=2).real[:, None, None]
    s = (s + s.conj().transpose(0, 2, 1)) / 2
    spt = partial_transpose_array(s, dims)
    lam = np.linalg.eigvalsh(spt)[:, 0]
    tstar = np.where(lam < 0.0, -lam / (1.0 / n - lam), 0.0)
    t = tstar + rng.uniform(size=count) * (1.0 - tstar)
    eye = np.eye(n) / n
    out = (1.0 - t)[:, None, None] * s + t[:, None, None] * eye[None, :, :]
    return out


def sample_T(dims: tuple[int, int], count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` elements of T, shape (count, n, n).

    Random Hermitian matrices are projected onto the PSD cone, then rescaled
    so the trace norm of the partial transpose is uniform in [0, 1]; the batch
    covers the interior and the boundary sphere.
    """
    n = dims[0] * dims[1]
    g = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    h = (g + g.conj().transpose(0, 2, 1)) / 2
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    psd = np.einsum("kij,kj,klj->kil", v, w, v.conj())
    pt = partial_transpose_array(psd, dims)
    norms = np.sum(np.abs(np.linalg.eigvalsh(pt)), axis=1)
    norms = np.where(norms > 1e-14, norms, 1.0)
    u = rng.uniform(size=count)
    return psd * (u / norms)[:, None, None]
