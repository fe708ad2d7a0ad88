"""Test-side predicates, random operators and index helpers built on
qubitbench.linalg."""

import numpy as np

from qubitbench.linalg import dagger, identity, is_hermitian, max_abs


def is_unitary(a, tol=1e-9):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return max_abs(dagger(a) @ a - identity(a.shape[0])) <= tol


def is_projector(a, tol=1e-9):
    a = np.asarray(a)
    if not is_hermitian(a, tol):
        return False
    return max_abs(a @ a - a) <= tol


def random_hermitian(dim, seed):
    """Gaussian random Hermitian matrix, deterministic per seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + dagger(z)) / 2.0


def occupations_of_index(config, index):
    """Occupation tuple (n_1, ..., n_2n) of a flat Fock basis index of config."""
    occs = []
    rem = int(index)
    for pos in range(config.num_modes):  # mode 1 is the most significant digit
        power = config.mode_dim ** (config.num_modes - 1 - pos)
        n, rem = divmod(rem, power)
        occs.append(n)
    return tuple(occs)
