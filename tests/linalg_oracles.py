"""Test-side predicates, random operators, index helpers and reference
constructions built on qubitbench.linalg."""

import numpy as np

from qubitbench.collective import scalars
from qubitbench.dualrail import annihilation, creation, dual_rail_projector, number
from qubitbench.linalg import KrausChannel, dagger, identity, max_abs
from qubitbench.repetition import error_operator


def is_unitary(a, tol=1e-9):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return max_abs(dagger(a) @ a - identity(a.shape[0])) <= tol


def is_projector(a, tol=1e-9):
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return max_abs(a - dagger(a), a @ a - a) <= tol


def random_hermitian(dim, seed):
    """Gaussian random Hermitian matrix, deterministic per seed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + dagger(z)) / 2.0


def random_kraus_channel(dim, n_ops, seed):
    """n_ops Kraus operators cut from a seeded random (n_ops dim, dim)
    isometry V: sum_a K_a^dag K_a = V^dag V = 1, so the channel is trace
    preserving by construction."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_ops * dim, dim)) + 1j * rng.standard_normal((n_ops * dim, dim))
    v, _ = np.linalg.qr(z)
    return KrausChannel(tuple(v.reshape(n_ops, dim, dim)))


def miscorrecting_channel():
    """K_a = E_(a+1 mod 4) / 2 on the three-bit code: trace preserving, but
    the branch that follows the error E_a applies the next error instead of
    undoing it."""
    return KrausChannel(tuple(error_operator((a + 1) % 4) / 2.0 for a in range(4)))


def occupations_of_index(config, index):
    """Occupation tuple (n_1, ..., n_2n) of a flat Fock basis index of config."""
    occs = []
    rem = int(index)
    for pos in range(config.num_modes):  # mode 1 is the most significant digit
        power = config.mode_dim ** (config.num_modes - 1 - pos)
        n, rem = divmod(rem, power)
        occs.append(n)
    return tuple(occs)


def dual_rail_frame_ladder_oracle(config, k, kp):
    """(P, X, Y, Z) of the dual-rail qubit on modes (k, kp) from ladder
    operators: Z = (n_kp - n_k) P, X = (a_k^dag a_kp + h.c.) P, Y = -i Z X,
    with P the unit-excitation projector of the pair."""
    p = np.diag(dual_rail_projector(config, k, kp))
    z = np.diag(number(config, kp) - number(config, k)) @ p
    hop = creation(config, k) @ annihilation(config, kp)
    x = (hop + dagger(hop)) @ p
    return p, x, -1j * (z @ x), z


def collective_scalar_frame_oracle(flavor):
    """(P, X, Y, Z) of the protected three-spin qubit of the given flavor
    from the rotation scalars s_ij, with P = 1/2 - (s12 + s23 + s31)/6.

    omega: X = (2 s12 - s23 - s31) P / 6, the swap of spins 1 and 2 on the
    support; Y = -(sqrt3/6)(s23 - s31) P; Z = [X, Y]/2i.
    singlet_triplet: X = (sqrt3/6)(s23 - s31) P; Z = -(1 + s12) P / 2, minus
    the swap; Y = [Z, X]/2i.
    """
    s12, s23, s31 = scalars()
    p = identity(8) / 2.0 - (s12 + s23 + s31) / 6.0
    if flavor == "omega":
        x = ((2.0 * s12 - s23 - s31) / 6.0) @ p
        y = (-np.sqrt(3.0) / 6.0) * ((s23 - s31) @ p)
        z = (x @ y - y @ x) / 2.0j
    elif flavor == "singlet_triplet":
        x = (np.sqrt(3.0) / 6.0) * ((s23 - s31) @ p)
        z = -((identity(8) + s12) / 2.0) @ p
        y = (z @ x - x @ z) / 2.0j
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return p, x, y, z


def kraus_apply_oracle(channel, rho):
    """sum_a K_a rho K_a^dag, one Kraus operator at a time; rho is one
    density operator or a stack of them."""
    out = np.zeros_like(rho, dtype=complex)
    for k in channel.ops:
        out += k @ rho @ dagger(k)
    return out


def _span_rank(matrices, rcond=1e-8):
    stacked = np.vstack([np.ravel(m) for m in matrices])
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals > rcond * max(1.0, svals[0])))


def generated_algebra_dimension_oracle(alg, word_length=4, restrict_to=None):
    """Rank of every generator word up to word_length, |gens|^k words at
    length k, stopping at the first length that adds no direction."""
    gens = alg.with_adjoints()
    n = alg.ambient_dim
    words = [identity(n)]
    frontier = [identity(n)]
    rank = 1
    for _ in range(word_length):
        frontier = [w @ g for w in frontier for g in gens]
        words.extend(frontier)
        new_rank = _span_rank(words)
        if new_rank == rank:
            break
        rank = new_rank
    if restrict_to is not None:
        words = [dagger(restrict_to) @ w @ restrict_to for w in words]
    return _span_rank(words)


def commutant_basis_oracle(alg, rcond=1e-10):
    """Orthonormal basis of the commutant from the unreduced stack: one block
    1 (x) G^T - G (x) 1 per generator and non-Hermitian adjoint, solved with
    one full SVD and no reduction of the generator list."""
    n = alg.ambient_dim
    one = identity(n)
    stack = np.vstack([np.kron(one, g.T) - np.kron(g, one) for g in alg.with_adjoints()])
    _, svals, vh = np.linalg.svd(stack)
    rank = int(np.sum(svals > rcond * max(1.0, svals[0])))
    return list(vh[rank:].conj().reshape(-1, n, n))


def expectations_oracle(states, ops):
    """Re <psi|O_k|psi> as one three-operand einsum over kets (..., d) and
    operators (k, d, d)."""
    return np.einsum("...i,kij,...j->...k", states.conj(), ops, states).real
