"""Dual-rail bosonic qubits in truncated Fock space.

A register of 2n modes, each truncated at a fixed maximum occupation, hosts n
qubits through the pairing (k, k+1): logical |0> puts the single boson in the
second mode of the pair, logical |1> in the first.  The module builds ladder
operators, the unit-excitation projectors, the encoded observables (the
frame of the isometry onto a pair's unit-excitation sector), and the
linear-optics gates (phase shifter, beam splitter, the sign-on-two-photons
gate, and their conditional-sign composition), plus leakage bookkeeping and
destructive photodetection.  Diagonal operators (occupation numbers, pair
projectors, phase shifters, the sign gate) are returned as 1-D diagonals.

The two-mode gates are exponentiated on the (cutoff+1)^2 space of the two
modes they touch and lifted to the register of the config they are given
with ``linalg.embed``.  This is exact, not an approximation: the truncation
is per mode, so a two-mode generator on the register is that generator
(x) 1, and so is its exponential.  Built on a two-mode config, a gate is
that (cutoff+1)^2 factor, and ``linalg.apply_on`` applies it to the states
of a larger register without forming the register operator.

Mode indices are 1-based; mode 1 is the most significant index of the basis
ordering.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .frames import frame_from_isometry
from .linalg import INPUT_ROUNDING, dagger, embed, evolve, identity

__all__ = [
    "FockConfig",
    "fock_state",
    "index_of_occupations",
    "occupation_table",
    "annihilation",
    "creation",
    "number",
    "dual_rail_projector",
    "dual_rail_frame",
    "phase_shifter",
    "beam_splitter",
    "ns_gate",
    "csign",
    "leakage",
    "logical_pairs",
    "prepare_logical",
    "photodetect",
    "born_distribution",
]


@dataclass(frozen=True)
class FockConfig:
    """Geometry of the register: an even number of modes and a cutoff."""

    num_modes: int = 2
    cutoff: int = 2

    def __post_init__(self):
        if self.num_modes < 2 or self.num_modes % 2 != 0:
            raise ValueError("num_modes must be even and >= 2")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    @property
    def mode_dim(self):
        return self.cutoff + 1

    @property
    def dim(self):
        return self.mode_dim ** self.num_modes

    @property
    def num_qubits(self):
        return self.num_modes // 2

    def check_mode(self, k):
        if not 1 <= k <= self.num_modes:
            raise ValueError(f"mode index {k} outside 1..{self.num_modes}")


def index_of_occupations(config, occs):
    occs = tuple(int(n) for n in occs)
    if len(occs) != config.num_modes:
        raise ValueError("one occupation per mode required")
    if any(n < 0 or n > config.cutoff for n in occs):
        raise ValueError(f"occupations {occs} exceed cutoff {config.cutoff}")
    index = 0
    for n in occs:
        index = index * config.mode_dim + n
    return index


@functools.cache
def occupation_table(config):
    """dim x num_modes integer array of occupations, row i for basis index i.

    Built once per config; the array is shared and read-only.
    """
    shape = (config.mode_dim,) * config.num_modes
    table = np.indices(shape).reshape(config.num_modes, -1).T
    table.setflags(write=False)
    return table


def fock_state(config, occs):
    psi = np.zeros(config.dim, dtype=complex)
    psi[index_of_occupations(config, occs)] = 1.0
    return psi


def _single_mode_lowering(dim):
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def annihilation(config, k):
    """Truncated lowering operator on mode k, identity on the others."""
    config.check_mode(k)
    return embed(_single_mode_lowering(config.mode_dim), k - 1, config.num_modes)


def creation(config, k):
    return dagger(annihilation(config, k))


def number(config, k):
    """Diagonal of the occupation-number operator of mode k."""
    config.check_mode(k)
    return occupation_table(config)[:, k - 1].astype(float)


def dual_rail_projector(config, k, kp):
    """Diagonal of the projector onto n_k + n_kp = 1 (0/1 entries)."""
    config.check_mode(k)
    config.check_mode(kp)
    if k == kp:
        raise ValueError("a dual-rail pair needs two distinct modes")
    occs = occupation_table(config)
    keep = (occs[:, k - 1] + occs[:, kp - 1]) == 1
    return keep.astype(float)


def dual_rail_frame(config, k, kp):
    """Encoded observables of the qubit carried by modes (k, kp).

    The frame of the isometry V onto the unit-excitation sector of the pair.
    Its columns are the basis states with n_k + n_kp = 1, first those with
    n_k = 0 (logical 0), then those with n_k = 1 (logical 1), each set in
    basis order, so column j of both sets has the same occupations of the
    other modes, the gauge factor.  Hence Z = (n_kp - n_k) P and
    X = (a_k^dag a_kp + a_k a_kp^dag) P, with P the unit-excitation
    projector of the pair.  All three observables conserve the joint
    occupation of the pair, so the frame is exact at any cutoff.
    """
    sector = dual_rail_projector(config, k, kp) == 1.0
    n_k = occupation_table(config)[:, k - 1]
    cols = np.concatenate([np.flatnonzero(sector & (n_k == 0)),
                           np.flatnonzero(sector & (n_k == 1))])
    return frame_from_isometry(identity(config.dim)[:, cols])


def phase_shifter(config, k, phi):
    """Diagonal of exp(-i phi n_k)."""
    return np.exp(-1j * phi * number(config, k))


def beam_splitter(config, k, l, theta, phi=0.0):
    """exp(theta (e^{i phi} a_k^dag a_l - e^{-i phi} a_k a_l^dag)).

    Exponentiated on the (cutoff+1)^2 space of modes (k, l), mode k first,
    and lifted to the register as that gate on (k, l) and the identity on
    the other modes.  The lift is exact: truncation is per mode, so the
    register generator is the two-mode generator (x) 1.  Conserves
    n_k + n_l, so matrix elements between states whose joint occupation
    stays within the cutoff are free of truncation error.
    """
    config.check_mode(k)
    config.check_mode(l)
    if k == l:
        raise ValueError("beam splitter needs two distinct modes")
    a = _single_mode_lowering(config.mode_dim)
    hop = np.exp(1j * phi) * np.kron(dagger(a), a)  # a_k^dag a_l on the pair
    generator = 1j * (hop - dagger(hop))  # Hermitian; exp(-i generator theta) below
    return embed(evolve(generator, theta), (k - 1, l - 1), config.num_modes)


def ns_gate(config, k):
    """Diagonal of the sign flip on occupations n_k >= 2, +1 on n_k in {0, 1}."""
    config.check_mode(k)
    if config.cutoff < 2:
        raise ValueError("ns_gate needs cutoff >= 2")
    counts = occupation_table(config)[:, k - 1]
    return np.where(counts >= 2, -1.0, 1.0)


def csign(config, k1=1, k2=3, theta=np.pi / 4, phi=0.0):
    """Conditional sign gate on modes k1 and k2, one mode of each of two
    dual-rail qubits.

    Composition: a beam splitter between modes k1 and k2, the
    sign-on-two-photons gate on each of them, then the inverse beam
    splitter.  With k1 and k2 the first modes of two pairs (the defaults:
    pairs (1, 2) and (3, 4)) and theta = pi/4, the restriction to the
    two-qubit logical space is diag(1, 1, 1, -1).  All three factors act on
    the two modes only, so the product is formed on their (cutoff+1)^2
    space and lifted to the register of config once; as for beam_splitter,
    the lift is exact.  csign(FockConfig(2, cutoff), 1, 2) is that factor
    itself, for ``linalg.apply_on`` to apply to a register's states.
    """
    if config.cutoff < 2:
        raise ValueError("csign needs cutoff >= 2")
    config.check_mode(k1)
    config.check_mode(k2)
    pair = FockConfig(2, config.cutoff)
    u_bs = beam_splitter(pair, 1, 2, theta, phi)
    signs = ns_gate(pair, 1) * ns_gate(pair, 2)
    return embed((dagger(u_bs) * signs) @ u_bs, (k1 - 1, k2 - 1), config.num_modes)


def leakage(state, config, pairs):
    """Weight outside the joint unit-excitation sector of the given pairs.

    state is one ket of shape (dim,), which gives a float, or a stack of
    shape (..., dim), which gives an array of the batch shape, one leakage
    per row; every row must have unit norm.
    """
    state = np.asarray(state, dtype=complex)
    seen = set()
    keep = np.ones(config.dim, dtype=bool)
    for k, kp in pairs:
        if k in seen or kp in seen:
            raise ValueError("overlapping pairs")
        seen.update((k, kp))
        keep &= dual_rail_projector(config, k, kp) == 1.0
    weights = np.abs(state) ** 2
    _require_unit_norm(np.sum(weights, axis=-1), "leakage")
    # the clamp absorbs rounding only; unnormalized input was rejected above
    outside = np.clip(1.0 - np.sum(weights[..., keep], axis=-1), 0.0, 1.0)
    return float(outside) if state.ndim == 1 else outside


def _require_unit_norm(norm_sq, what):
    """Raise unless every squared norm in norm_sq, one number or one per
    row of a stack, is 1 within INPUT_ROUNDING; name the worst row (C order)."""
    flat = np.ravel(norm_sq)
    off = np.abs(flat - 1.0)
    if np.any(off > INPUT_ROUNDING):
        worst = int(np.argmax(off))
        where = f" in row {worst}" if np.ndim(norm_sq) else ""
        raise ValueError(f"{what} needs a unit-norm state, got squared norm "
                         f"{float(flat[worst])!r}{where}")


def logical_pairs(config):
    return tuple((2 * i + 1, 2 * i + 2) for i in range(config.num_qubits))


def prepare_logical(config, bits):
    """Product Fock state |b_1 ... b_n> with pair i set to |01> or |10>."""
    bits = list(bits)
    if len(bits) != config.num_qubits:
        raise ValueError(f"need {config.num_qubits} bits, got {len(bits)}")
    occs = []
    for b in bits:
        if b not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        occs.extend((1, 0) if b else (0, 1))
    return fock_state(config, occs)


def photodetect(state, config, k, seed):
    """Destructive number measurement of mode k, modeled as a projection.

    Samples the outcome from the Born distribution, returns the outcome, the
    renormalized post-measurement state, and the outcome probability.
    """
    probs = born_distribution(state, config, k)
    state = np.asarray(state, dtype=complex)
    counts = occupation_table(config)[:, k - 1]
    total = probs.sum()
    outcome = int(np.random.default_rng(seed).choice(config.mode_dim, p=probs / total))
    post = np.where(counts == outcome, state, 0.0)
    norm = np.linalg.norm(post)
    if norm == 0.0:  # unreachable for a sampled outcome
        raise ValueError("projection onto the sampled outcome has zero norm")
    return outcome, post / norm, float(probs[outcome])


def born_distribution(state, config, k):
    """Outcome probabilities of photodetection on mode k, no sampling.

    Raises ValueError on a state that is not of unit norm.
    """
    config.check_mode(k)
    state = np.asarray(state, dtype=complex)
    counts = occupation_table(config)[:, k - 1]
    probs = np.array(
        [float(np.sum(np.abs(state[counts == n]) ** 2)) for n in range(config.mode_dim)]
    )
    _require_unit_norm(float(probs.sum()), "photodetection")
    return probs
