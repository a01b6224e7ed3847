"""Independent oracles, kept away from the production code paths they check."""

import itertools

import numpy as np
import scipy.linalg


def naive_permanent(matrix) -> complex:
    """Permanent by explicit permutation sum, O(n! n)."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1 + 0j
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1 + 0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


def brute_force_occupations(modes: int, photons: int) -> set:
    """All occupation tuples by filtered cartesian product."""
    return {
        occ for occ in itertools.product(range(photons + 1), repeat=modes)
        if sum(occ) == photons
    }


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (z + z.conj().T)


def random_fock_input(modes: int, photons: int, rng: np.random.Generator) -> tuple:
    """A uniformly chosen way to drop `photons` photons into `modes` ports."""
    occ = [0] * modes
    for port in rng.integers(0, modes, size=photons):
        occ[port] += 1
    return tuple(occ)


def schur_generator(unitary) -> np.ndarray:
    """Hermitian A with exp(-iA) = U from a complex Schur form of U."""
    t, q = scipy.linalg.schur(np.asarray(unitary, dtype=complex), output="complex")
    a = q @ np.diag(-np.angle(np.diag(t))) @ q.conj().T
    return 0.5 * (a + a.conj().T)
