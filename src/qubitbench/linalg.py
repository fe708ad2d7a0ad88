"""Dense complex linear algebra helpers shared by every construction.

Conventions used across the package:

* Operators are square ``complex128`` ndarrays in row-major order.
* Pure states are one-dimensional ``complex128`` ndarrays of unit norm.
* Density operators are Hermitian, positive semidefinite, trace-1 ndarrays.
* In tensor products, factor 0 is the most significant index: a three-qubit
  basis ket |abc> sits at index 4a + 2b + c.

Everything here is a pure function of its inputs; randomness enters only
through explicit seeds.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "sigma_x",
    "sigma_y",
    "sigma_z",
    "identity",
    "basis_state",
    "density",
    "dagger",
    "max_abs",
    "kron",
    "kron_all",
    "embed",
    "apply_on",
    "commutator",
    "anticommutator",
    "INPUT_ROUNDING",
    "is_hermitian",
    "eigh",
    "evolve",
    "partial_trace",
    "expectations",
    "random_haar_state",
    "child_seed",
    "TRIAL_CHUNK",
    "trial_chunks",
    "KrausChannel",
]

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def identity(dim):
    return np.eye(dim, dtype=complex)


def basis_state(dim, index):
    """Computational basis ket e_index in dimension dim."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def density(psi):
    """Rank-one density operator |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def dagger(a):
    return np.asarray(a).conj().T


def max_abs(*parts):
    """Largest entry magnitude over all parts, the deviation measure used
    everywhere: every check combines its residuals through this one call.

    Each part is a number or an array of any shape.  The result is NaN if
    any entry is NaN (numpy's maximum propagates it, where Python's max
    keeps its first argument), and 0.0 when there are no entries.
    """
    # the ufunc's own reduce: np.max adds a dispatch layer on every call
    largest = np.maximum.reduce
    return float(largest([largest(np.abs(p), axis=None, initial=0.0) for p in parts],
                         initial=0.0))


def kron(a, b):
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(*ops):
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _site_layout(op, sites, n_sites):
    """(sites, rest, d) for op on the given factors of n_sites equal factors
    of dimension d: sites as a tuple, the other factors in ascending order."""
    sites = (sites,) if isinstance(sites, (int, np.integer)) else tuple(sites)
    rest = [s for s in range(n_sites) if s not in sites]
    if len(sites) + len(rest) != n_sites:  # a repeated or out-of-range site
        raise ValueError(f"sites {sites} are not distinct factors of {n_sites}")
    d = round(op.shape[0] ** (1.0 / len(sites)))
    if d ** len(sites) != op.shape[0]:
        raise ValueError(f"dimension {op.shape[0]} is not a power of {len(sites)} equal factors")
    return sites, rest, d


def embed(op, sites, n_sites):
    """op on the given factors of n_sites equal factors, identity on the others.

    sites is one factor index, or an ordered tuple of distinct ones: tensor
    factor j of op (factor 0 most significant) acts on factor sites[j], so
    the sites may be non-adjacent and in any order.
    """
    sites, rest, d = _site_layout(op, sites, n_sites)
    # op (x) 1 has its factors in the order sites + rest; permute them back
    # (list.index, not np.argsort: its sort kernels add about 0.5 MB of RSS)
    full = kron(op, identity(d ** len(rest))).reshape((d,) * (2 * n_sites))
    order = list(sites) + rest
    back = [order.index(i) for i in range(n_sites)]
    full = full.transpose(back + [n_sites + i for i in back])
    return full.reshape(d ** n_sites, d ** n_sites)


def apply_on(op, sites, n_sites, states):
    """embed(op, sites, n_sites) @ psi for one ket psi, or for each ket of a
    (..., d**n_sites) stack, without forming the lift.

    op's input factors are contracted with the kets' factors at sites, and
    its output factors are moved back to those places.
    """
    sites, _, d = _site_layout(op, sites, n_sites)
    k, batch = len(sites), states.shape[:-1]
    kets = states.reshape(batch + (d,) * n_sites)
    at = [len(batch) + s for s in sites]
    out = np.tensordot(op.reshape((d,) * (2 * k)), kets, axes=(list(range(k, 2 * k)), at))
    return np.moveaxis(out, range(k), at).reshape(states.shape)


def _check_same_square(a, b, what):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what}: first operand is not square")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"{what}: second operand is not square")
    if a.shape != b.shape:
        raise ValueError(f"{what}: dimension mismatch {a.shape} vs {b.shape}")


def commutator(a, b):
    """AB - BA for equal-dimension square operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    _check_same_square(a, b, "commutator")
    return a @ b - b @ a


def anticommutator(a, b):
    """AB + BA for equal-dimension square operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    _check_same_square(a, b, "anticommutator")
    return a @ b + b @ a


# Largest departure of an input from a property it must have (Hermiticity,
# unit norm, unit trace) that is accepted as rounding rather than rejected.
INPUT_ROUNDING = 1e-9


def is_hermitian(a):
    """Square, and equal to its adjoint within INPUT_ROUNDING."""
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and max_abs(a - dagger(a)) <= INPUT_ROUNDING


def eigh(h):
    """Hermitian eigendecomposition, eigenvalues ascending.

    Returns (w, v) with h @ v[:, j] = w[j] * v[:, j] and orthonormal columns.
    Raises on non-Hermitian input.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("eigh requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return w, v


def evolve(h, t):
    """Unitary exp(-i h t) for Hermitian h, via eigendecomposition.

    t may be an array of times: h is diagonalized once and the result stacks
    one unitary per time, shape t.shape + h.shape.
    """
    w, v = eigh(h)
    phases = np.exp(-1j * w * np.asarray(t)[..., None])
    return (v * phases[..., None, :]) @ dagger(v)


def expectations(states, ops):
    """Re <psi|O_k|psi> for kets of shape (..., d) and operators (k, d, d).

    states is one ket (d,) or a stack of any batch shape; the result has
    shape (..., k), () batch giving (k,).  Every O_k psi comes out of one
    (kets, d) @ (d, k d) product, which each ket's row then contracts with
    its conjugate; the O_k need not be Hermitian.
    """
    k, d, _ = ops.shape
    flat = states.reshape(-1, d)
    images = (flat @ ops.transpose(2, 0, 1).reshape(d, k * d)).reshape(-1, k, d)
    return np.einsum("nki,ni->nk", images, flat.conj()).real.reshape(*states.shape[:-1], k)


def partial_trace(rho, dims, keep):
    """Reduced operator of rho over the kept tensor factors.

    dims lists the factor dimensions (factor 0 most significant); keep is the
    set of factor indices to retain, in ascending order in the output.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"dims {dims} inconsistent with shape {rho.shape}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"bad keep set {keep} for {len(dims)} factors")
    n = len(dims)
    reshaped = rho.reshape(dims + dims)
    row = list(range(n))
    col = list(range(n, 2 * n))
    for i in range(n):
        if i not in keep:
            col[i] = row[i]  # contract the traced factor
    out_idx = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum(reshaped, row + col, out_idx)
    d_keep = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(d_keep, d_keep)


def random_haar_state(dim, seed, n=None):
    """Haar-random pure state of dimension dim, or an (n, dim) stack of them.

    seed is an integer or a np.random.Generator, drawn from in place.  A
    stack is one (n, 2, dim) block of standard normals, each state's real
    parts then its imaginary parts, so it equals n single draws bit for bit.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = np.random.default_rng(seed).standard_normal((1 if n is None else n, 2, dim))
    psi = z[:, 0] + 1j * z[:, 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return psi[0] if n is None else psi


# Randomized checks evaluate their trials in stacks of at most this many, so
# their working memory does not grow with the number of trials.
TRIAL_CHUNK = 256


def trial_chunks(trials):
    """Stack sizes covering trials: full TRIAL_CHUNK stacks, then the rest."""
    for start in range(0, trials, TRIAL_CHUNK):
        yield min(TRIAL_CHUNK, trials - start)


def child_seed(seed, name):
    """Derive an independent integer seed from (seed, name).

    Stable across platforms so that concurrent suites never depend on
    execution order.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map rho -> sum_a K_a rho K_a^dag."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.ops)
        if not ops:
            raise ValueError("KrausChannel needs at least one operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ValueError("Kraus operators must share one shape")
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self):
        return self.ops[0].shape[0]

    @functools.cached_property
    def _liouville(self):
        """sum_a K_a (x) conj(K_a), which maps the row-major vec of rho to
        the vec of its image; built on the first apply."""
        k = np.stack(self.ops)
        return np.einsum("kab,kdc->adbc", k, k.conj()).reshape(self.dim ** 2, self.dim ** 2)

    def apply(self, rho):
        """The image of one density operator, or of each in an (n, d, d) stack."""
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"rho of shape {rho.shape} is not {self.dim} x {self.dim} or a stack")
        flat = rho.reshape(*rho.shape[:-2], self.dim ** 2)
        return (flat @ self._liouville.T).reshape(rho.shape)

    def trace_preservation_defect(self):
        """max |sum_a K_a^dag K_a - 1|, zero for a trace-preserving map."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for k in self.ops:
            acc += dagger(k) @ k
        return max_abs(acc - identity(self.dim))
