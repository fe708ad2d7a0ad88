"""Noiseless qubit of three spin-1/2 particles under collective noise.

When noise couples to the total spin components S_x, S_y, S_z only, the
eight-dimensional space splits by total angular momentum into a spin-3/2
part and two equivalent spin-1/2 routes.  The route label is untouched by
the noise and carries one protected qubit.  The module builds the collective
generators and both explicit protected bases, the isometries V of a
singlet-triplet flavor and of a phase flavor built on the cube roots of
unity.  Every frame here is ``frames.frame_from_isometry`` of V or of its
columns: the protected frame of each flavor, and the sector frames available
when only S_z and S^2 are conserved.  The rotation scalars, and the support
projector, pair swap and antisymmetric triple product built from them, are
a second construction that the checks compare these frames with.
``noiseless_invariance_suite`` runs the randomized checks on the frames its
caller built; ``suites`` measures the static ones.
"""

from __future__ import annotations

import functools

import numpy as np

from .frames import frame_from_isometry
from .linalg import (
    basis_state,
    embed,
    expectations,
    identity,
    max_abs,
    random_haar_state,
    sigma_x,
    sigma_y,
    sigma_z,
    trial_chunks,
)

__all__ = [
    "N_SPINS",
    "DIM",
    "FLAVORS",
    "collective_ops",
    "total_spin_ops",
    "joint_kernel_dimension",
    "protected_basis",
    "scalars",
    "exchange_12",
    "antisymmetric_product",
    "support_projector",
    "pauli_coefficients",
    "noiseless_frame",
    "noiseless_invariance_suite",
    "exchange_sector_frames",
]

N_SPINS = 3
DIM = 8
FLAVORS = ("singlet_triplet", "omega")

_PAULIS = (sigma_x, sigma_y, sigma_z)

# Singular values of the stacked generators below this are kernel directions
KERNEL_SV_THRESHOLD = 1e-8


@functools.cache
def collective_ops(n_spins):
    """Total spin components S_alpha = sum_i sigma_alpha^(i) / 2; the
    arrays are shared and read-only."""
    out = []
    for pauli in _PAULIS:
        s = np.zeros((2 ** n_spins, 2 ** n_spins), dtype=complex)
        for i in range(n_spins):
            s += embed(pauli, i, n_spins) / 2.0
        s.setflags(write=False)
        out.append(s)
    return tuple(out)


def total_spin_ops():
    """(S_x, S_y, S_z, S^2) of the three spins."""
    sx, sy, sz = collective_ops(N_SPINS)
    return sx, sy, sz, sx @ sx + sy @ sy + sz @ sz


def joint_kernel_dimension(n_spins):
    """Dimension of the common null space of the collective generators.

    Returns (dimension, margin): margin is the gap between the singular
    values kept below KERNEL_SV_THRESHOLD and the first one above it.
    """
    ops = collective_ops(n_spins)
    stacked = np.vstack(ops)
    svals = np.linalg.svd(stacked, compute_uv=False)
    below = svals[svals < KERNEL_SV_THRESHOLD]
    above = svals[svals >= KERNEL_SV_THRESHOLD]
    dim = int(below.size)
    top = float(below.max()) if below.size else 0.0
    bottom = float(above.min()) if above.size else np.inf
    return dim, bottom - top


def _ket(bits):
    index = int(bits, 2)
    return basis_state(DIM, index)


@functools.cache
def protected_basis(flavor):
    """The 8 x 4 isometry V onto the protected pair of routes, one of two
    explicit realizations.

    singlet_triplet builds on singlet/triplet states of spins 1 and 2; omega
    uses relative phases that are cube roots of unity and diagonalizes the
    cyclic spin permutation: route 0 puts the phases (1, w^2, w) and route 1
    the phases (1, w, w^2) on |001>, |010>, |100> (s_z = +1/2) and on their
    complements (s_z = -1/2).  Columns are route-major: column
    2 route + (s_z < 0) is the vector (route, s_z), so that collective
    generators take the block form 1 (x) B in these coordinates.  The array
    is shared and read-only.
    """
    if flavor == "singlet_triplet":
        v0p = (_ket("010") - _ket("100")) / np.sqrt(2.0)
        v0m = (_ket("101") - _ket("011")) / np.sqrt(2.0)
        v1p = (2.0 * _ket("001") - _ket("010") - _ket("100")) / np.sqrt(6.0)
        v1m = (2.0 * _ket("110") - _ket("101") - _ket("011")) / np.sqrt(6.0)
    elif flavor == "omega":
        w = np.exp(2j * np.pi / 3.0)
        v0p = (_ket("001") + w ** 2 * _ket("010") + w * _ket("100")) / np.sqrt(3.0)
        v0m = (_ket("110") + w ** 2 * _ket("101") + w * _ket("011")) / np.sqrt(3.0)
        v1p = (_ket("001") + w * _ket("010") + w ** 2 * _ket("100")) / np.sqrt(3.0)
        v1m = (_ket("110") + w * _ket("101") + w ** 2 * _ket("011")) / np.sqrt(3.0)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    v = np.column_stack([v0p, v0m, v1p, v1m])
    v.setflags(write=False)
    return v


@functools.cache
def scalars():
    """Rotation scalars s_ij = X_i X_j + Y_i Y_j + Z_i Z_j for the 3 pairs.

    Returns (s12, s23, s31), built on first use; the arrays are shared and
    read-only.
    """
    out = []
    for i, j in ((0, 1), (1, 2), (2, 0)):
        s = np.zeros((DIM, DIM), dtype=complex)
        for pauli in _PAULIS:
            s += embed(pauli, i, N_SPINS) @ embed(pauli, j, N_SPINS)
        s.setflags(write=False)
        out.append(s)
    return tuple(out)


def exchange_12():
    """Unitary swapping spins 1 and 2: (1 + sigma^(1).sigma^(2)) / 2."""
    s12 = scalars()[0]
    return (identity(DIM) + s12) / 2.0


def antisymmetric_product():
    """sum over permutations of eps_{abc} sigma_a^(1) sigma_b^(2) sigma_c^(3)."""
    eps = {
        ("x", "y", "z"): 1.0, ("y", "z", "x"): 1.0, ("z", "x", "y"): 1.0,
        ("x", "z", "y"): -1.0, ("z", "y", "x"): -1.0, ("y", "x", "z"): -1.0,
    }
    by_name = dict(zip("xyz", _PAULIS))
    out = np.zeros((DIM, DIM), dtype=complex)
    for (a, b, c), sign in eps.items():
        out += sign * (embed(by_name[a], 0, N_SPINS) @ embed(by_name[b], 1, N_SPINS)
                       @ embed(by_name[c], 2, N_SPINS))
    return out


def support_projector():
    """P_q = 1/2 - (s12 + s23 + s31)/6, the projector onto the spin-1/2 part."""
    s12, s23, s31 = scalars()
    return identity(DIM) / 2.0 - (s12 + s23 + s31) / 6.0


def noiseless_frame(flavor):
    """The protected qubit of the given flavor: the frame of its isometry V.

    Route 0 is the +1 eigenspace of Z for both flavors, and X exchanges the
    routes.  On the support, the omega X is the swap of spins 1 and 2 and
    the singlet-triplet Z is minus that swap.
    """
    return frame_from_isometry(protected_basis(flavor))


def pauli_coefficients(op2):
    """Real coefficients c with op2 = sum_alpha c_alpha sigma_alpha.

    Returns (c, residual) where residual collects the identity component,
    imaginary parts, and reconstruction error.
    """
    op2 = np.asarray(op2, dtype=complex)
    coeffs = np.array([np.trace(p @ op2) / 2.0 for p in _PAULIS])
    ident = np.trace(op2) / 2.0
    rebuilt = sum(c.real * p for c, p in zip(coeffs, _PAULIS))
    return coeffs.real, max_abs(coeffs.imag, ident, op2 - rebuilt)


def _collective_unitaries(theta):
    """exp(-i theta.S) for a stack of rotation vectors theta, shape (n, 3).

    Collective noise rotates every spin alike, so the unitary is r (x) r (x) r
    with r = cos(|theta|/2) 1 - i sin(|theta|/2) theta^.sigma; the sinc form of
    sin(|theta|/2)/|theta| stays finite at theta = 0.
    """
    theta = np.asarray(theta, dtype=float)
    angle = np.linalg.norm(theta, axis=-1)
    r = (np.cos(angle / 2.0)[:, None, None] * identity(2)
         - 0.5j * np.sinc(angle / (2.0 * np.pi))[:, None, None]
         * (theta @ np.reshape(_PAULIS, (3, 4))).reshape(-1, 2, 2))
    rr = (r[:, :, None, :, None] * r[:, None, :, None, :]).reshape(-1, 4, 4)
    return (rr[:, :, None, :, None] * r[:, None, :, None, :]).reshape(-1, DIM, DIM)


def noiseless_invariance_suite(frames, trials, seed):
    """Randomized protection evidence for frames, a dict from flavor to
    frame, as an ordered dict from check name to deviation in the order of
    frames: expectations of the frame members are invariant under random
    collective unitaries.  trials = 0 gives an empty dict and draws nothing.

    Trials run in stacks of at most linalg.TRIAL_CHUNK.  Per flavor, a stack
    of n draws from seed, an integer or a np.random.Generator drawn in place,
    the rotation vectors theta as one standard normal block (n, 3), then the
    states random_haar_state(DIM, rng, n).
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if trials == 0:
        return {}
    rng = np.random.default_rng(seed)
    checks = {}
    for flavor, frame in frames.items():
        members = np.stack(frame.observables() + (frame.support,))
        dev = 0.0
        for n in trial_chunks(trials):
            theta = rng.standard_normal((n, 3))
            psi = random_haar_state(DIM, rng, n)
            phi = (_collective_unitaries(theta) @ psi[:, :, None])[:, :, 0]
            dev = max_abs(dev, expectations(phi, members) - expectations(psi, members))
        checks[f"collective_unitary_expectation_invariance_{flavor}"] = dev
    return checks


def exchange_sector_frames():
    """Sector qubits available when S_z and S^2 are both conserved.

    Splitting the spin-1/2 part by s_z = +1/2 or -1/2 leaves two rank-2
    supports; on each, the omega flavor's two route vectors of that s_z are
    the isometry of a qubit with no gauge factor.  These sector frames
    commute with S_z but not with S_x or S_y, so they trade collective
    protection for compatibility with exchange-only control.
    """
    v = protected_basis("omega")
    # s_z = +1/2, then -1/2: columns 2 route + sector
    return tuple(frame_from_isometry(v[:, sector::2]) for sector in (0, 1))
