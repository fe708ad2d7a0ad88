"""Three-qubit repetition code viewed as a protected subsystem.

The code spans |000> and |111> and protects against the error set
E = {1, X1, X2, X3}.  Beyond the standard recovery channel, the module
exposes the two tensor factorizations of the eight-dimensional space: the
error-adapted one, in which every error acts trivially on the qubit factor,
and the stabilizer-eigenvalue one, in which the qubit label is flipped by
the first error.  The error-adapted factorization is the code isometry V
with columns E_a |i_L>: its frame, through ``frames.frame_from_isometry``,
has the whole space as support, and V^dag is the error-basis map.
``invariance_suite`` runs the randomized checks on the frame and recovery
channel its caller built; ``suites`` measures the static one.
"""

from __future__ import annotations

import functools
import types

import numpy as np

from .frames import frame_from_isometry
from .linalg import (
    INPUT_ROUNDING,
    KrausChannel,
    anticommutator,
    basis_state,
    commutator,
    dagger,
    density,
    embed,
    identity,
    max_abs,
    random_haar_state,
    sigma_x,
    sigma_z,
    trial_chunks,
)

__all__ = [
    "DIM",
    "N_PHYSICAL",
    "SYNDROME_TABLE",
    "encode",
    "logical_zero",
    "logical_one",
    "error_operator",
    "syndrome_of",
    "syndrome_from_commutation",
    "stabilizer_generators",
    "code_vector",
    "recovery_channel",
    "subsystem_iso_Q",
    "subsystem_iso_Qprime",
    "frame_from_errors",
    "error_recovery_words",
    "invariance_suite",
]

N_PHYSICAL = 3
DIM = 8

# syndrome bits under the stabilizer generators Z1Z2 and Z2Z3, indexed by a
SYNDROME_TABLE = ("00", "10", "11", "01")


@functools.cache
def _error_operators():
    # Built on first use, not at import; read-only because every caller
    # shares these four arrays.
    ops = (identity(DIM),) + tuple(embed(sigma_x, site, N_PHYSICAL) for site in range(N_PHYSICAL))
    for op in ops:
        op.setflags(write=False)
    return ops


def error_operator(a):
    """E_0 = 1 and E_a = X_a for a in 1..3; involutive and Hermitian.

    The returned array is shared and read-only.
    """
    if a not in (0, 1, 2, 3):
        raise ValueError(f"error index {a} outside 0..3")
    return _error_operators()[a]


def syndrome_of(a):
    if a not in (0, 1, 2, 3):
        raise ValueError(f"error index {a} outside 0..3")
    return SYNDROME_TABLE[a]


def stabilizer_generators():
    m1 = embed(sigma_z, 0, N_PHYSICAL) @ embed(sigma_z, 1, N_PHYSICAL)
    m2 = embed(sigma_z, 1, N_PHYSICAL) @ embed(sigma_z, 2, N_PHYSICAL)
    return m1, m2


def syndrome_from_commutation(a):
    """Syndrome read off the commutation pattern with the stabilizers.

    Bit 0 when the error commutes with the generator, 1 when it
    anticommutes; must reproduce the static table for every error.
    """
    e = error_operator(a)
    bits = []
    for m in stabilizer_generators():
        commutes = max_abs(commutator(e, m)) < 1e-12
        anticommutes = max_abs(anticommutator(e, m)) < 1e-12
        if commutes == anticommutes:
            raise ValueError("error neither commutes nor anticommutes")
        bits.append("0" if commutes else "1")
    return "".join(bits)


def logical_zero():
    return basis_state(DIM, 0)  # |000>


def logical_one():
    return basis_state(DIM, 7)  # |111>


def encode(c0, c1):
    """c0 |000> + c1 |111>; arrays of amplitudes give a stack of states.
    Raises unless |c0|^2 + |c1|^2 = 1 within INPUT_ROUNDING."""
    c0 = np.asarray(c0)[..., None]
    c1 = np.asarray(c1)[..., None]
    if np.any(np.abs(np.abs(c0) ** 2 + np.abs(c1) ** 2 - 1.0) > INPUT_ROUNDING):
        raise ValueError("encode requires |c0|^2 + |c1|^2 = 1")
    return c0 * logical_zero() + c1 * logical_one()


def code_vector(a, i):
    """|v_a^i> = E_a |i_L>, the error-adapted orthonormal basis."""
    if i not in (0, 1):
        raise ValueError("logical index must be 0 or 1")
    logical = logical_zero() if i == 0 else logical_one()
    return error_operator(a) @ logical


def recovery_channel():
    """Kraus channel R_a = E_a sum_i |v_a^i><v_a^i|; trace preserving.
    The channel is shared and its operators are read-only."""
    return _recovery_channel()


@functools.cache
def _recovery_channel():
    ops = []
    for a in range(4):
        proj = sum(density(code_vector(a, i)) for i in (0, 1))
        op = error_operator(a) @ proj
        op.setflags(write=False)
        ops.append(op)
    return KrausChannel(tuple(ops))


@functools.cache
def _code_isometry():
    # column 4 i + a is |v_a^i>: qubit index major, error index minor;
    # shared and read-only
    v = np.stack([code_vector(a, i) for i in (0, 1) for a in range(4)], axis=1)
    v.setflags(write=False)
    return v


def subsystem_iso_Q():
    """|v_a^i> -> |i> (x) |e_a>, syndrome basis ordered by the static table:
    V^dag of the code isometry.

    Under this map every error leaves the qubit factor untouched and only
    relabels the syndrome factor.
    """
    return dagger(_code_isometry())


def subsystem_iso_Qprime():
    """|abc> -> |l=a> (x) |m1=a+b, m2=b+c> (sums mod 2).

    l, m1, m2 mark the -1 eigenspaces of Z1, Z1Z2, Z2Z3.  The labels follow
    the computational basis with positive real phases, the convention fixed
    by requiring the global flip X1X2X3 to act as a positive-real qubit flip.
    """
    u = np.zeros((DIM, DIM), dtype=complex)
    for idx in range(DIM):
        a = (idx >> 2) & 1
        b = (idx >> 1) & 1
        c = idx & 1
        l, m1, m2 = a, a ^ b, b ^ c
        u[4 * l + 2 * m1 + m2, idx] = 1.0
    return u


@functools.cache
def frame_from_errors():
    """Frame of the code isometry V: O_q = V (sigma (x) 1_4) V^dag, which is
    sum_a E_a O_C E_a for the code observable O_C, with support V V^dag = 1.
    The frame is shared and its arrays are read-only.
    """
    frame = frame_from_isometry(_code_isometry())
    for member in (frame.support,) + frame.observables():
        member.setflags(write=False)
    return frame


@functools.cache
def error_recovery_words():
    """All sixteen operators E_b R_a (recovery first, then a fresh error),
    keyed by (b, a); the mapping and its arrays are shared and read-only."""
    # _recovery_channel, not the public name: a stand-in channel installed
    # on the module must not end up in the cached words
    channel = _recovery_channel()
    words = {}
    for b in range(4):
        e_b = error_operator(b)
        for a in range(4):
            word = e_b @ channel.ops[a]
            word.setflags(write=False)
            words[(b, a)] = word
    return types.MappingProxyType(words)


def _code_tables(frame, channel):
    """Every randomized expectation of invariance_suite as a linear function
    of a trial's code amplitudes, K_0 = |000>, K_1 = |111>.

    A trial c_0 K_0 + c_1 K_1 reads each expectation as
    Re sum_ij conj(c_i) c_j t_ij, the real Frobenius product of its code
    density matrix c c^dag with a block t, stored flat as (k, 4) at 2 i + j
    for the frame observables O_k.  Returned:
      - single (4, k, 4): t_ij = <E_a K_i|O_k|E_a K_j>; E_0 = 1 gives the
        reference;
      - words (85, k, 4): t_ij = <W K_i|O_k|W K_j> for every word W of at
        most three letters R_b E_b;
      - cycles (85, k, 4): t_ij = tr(C(|K_j><K_i|) O_k) for every cycle C of
        at most three letters rho -> R(E_a rho E_a).
    Words and cycles are numbered as a 4-ary heap: 0 is the empty one, and
    letter b after prefix p is 4 p + 1 + b.  Each letter is linear, so one
    product per length carries both code kets, and all four code units,
    through every prefix of that length.
    """
    obs = np.stack(frame.observables())
    errors = np.stack(_error_operators())
    code = np.stack([logical_zero(), logical_one()])

    def blocks(kets):
        # (..., 2, DIM) rows of kets -> (..., k, 4) blocks <K_i|O_k|K_j>
        t = kets.conj()[..., None, :, :] @ obs @ kets[..., None, :, :].swapaxes(-1, -2)
        return t.reshape(*t.shape[:-2], 4)

    # the four word letters R_b E_b side by side, applied to rows of kets as
    # phi @ (R_b E_b)^T: each reset matches the preceding error, the only
    # branch with nonzero amplitude
    word_letters = (np.stack(channel.ops) @ errors).transpose(2, 0, 1).reshape(DIM, 4 * DIM)
    # the four cycle letters side by side on rows of vec(rho): row m of
    # letter a is vec(R(E_a U_m E_a)) for the m-th matrix unit U_m
    units = identity(DIM * DIM).reshape(-1, DIM, DIM)
    corrupted = (errors[:, None] @ units @ errors[:, None]).reshape(-1, DIM, DIM)
    cycle_letters = (channel.apply(corrupted).reshape(4, DIM * DIM, DIM * DIM)
                     .swapaxes(0, 1).reshape(DIM * DIM, 4 * DIM * DIM))
    # tr(rho O_k) of rows of vec(rho) is vec(rho) . vec(O_k^T)
    obs_t = obs.transpose(0, 2, 1).reshape(len(obs), -1).T

    kets = code[None]
    # row 2 i + j is vec(|K_j><K_i|), the unit that carries conj(c_i) c_j
    rhos = (code[None, :, :, None] * code.conj()[:, None, None, :]).reshape(1, 4, DIM * DIM)
    words, cycles = [blocks(kets)], [(rhos @ obs_t).swapaxes(1, 2)]
    for _ in range(3):
        kets = (kets.reshape(-1, DIM) @ word_letters).reshape(-1, 2, 4, DIM)
        kets = kets.swapaxes(1, 2).reshape(-1, 2, DIM)
        words.append(blocks(kets))
        rhos = (rhos.reshape(-1, DIM * DIM) @ cycle_letters).reshape(-1, 4, 4, DIM * DIM)
        rhos = rhos.swapaxes(1, 2).reshape(-1, 4, DIM * DIM)
        cycles.append((rhos @ obs_t).swapaxes(1, 2))
    single = blocks((errors @ code.T).swapaxes(1, 2))
    return single, np.concatenate(words), np.concatenate(cycles)


def invariance_suite(frame, channel, trials, seed):
    """Randomized evidence that frame ignores the noise when channel is the
    recovery, as an ordered dict from check name to deviation.

    For random encoded states: expectations are unchanged by any single
    error, by recovered words of alternating errors and matched resets, and
    by error-then-full-recovery cycles at the density-operator level.
    trials = 0 gives an empty dict and draws nothing.

    Trials run in stacks of at most linalg.TRIAL_CHUNK.  Each stack of n
    draws from seed, an integer or a np.random.Generator drawn in place,
    the amplitudes random_haar_state(2, rng, n), then the word and cycle
    lengths (n, 2) in 1..3, then the letters (n, 2, 3), of which a trial
    uses as many as its length.  Every trial lies in the code space and
    every letter is linear, so the code kets and code units go through
    each word and cycle prefix once (_code_tables), and a trial reads each
    expectation, after every letter up to its length, as a product of its
    2 x 2 code density matrix with the table block of its prefix.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    if trials == 0:
        return {}
    rng = np.random.default_rng(seed)
    single, word_blocks, cycle_blocks = _code_tables(frame, channel)
    # Re sum_ij conj(r_ij) t_ij is the dot of r and t as real vectors
    tables = np.concatenate([single, word_blocks, cycle_blocks]).view(float)
    offsets = np.array([[len(single)], [len(single) + len(word_blocks)]])
    steps = np.arange(3)
    single_dev = word_dev = channel_dev = 0.0
    for n in trial_chunks(trials):
        c = random_haar_state(2, rng, n)
        lengths = rng.integers(1, 4, size=(n, 2))
        letters = rng.integers(0, 4, size=(n, 2, 3))
        # the rows each trial reads: the four single errors, then its
        # word and its cycle prefix after each step
        prefix = np.empty((n, 2, 3), dtype=int)
        node = 0
        for step in steps:
            node = 4 * node + 1 + letters[:, :, step]
            prefix[:, :, step] = node
        rows = np.concatenate([np.broadcast_to(np.arange(4), (n, 4)),
                               (prefix + offsets).reshape(n, 6)], axis=1)
        rho = (c[:, :, None] * c.conj()[:, None, :]).reshape(n, 4).view(float)
        # one contraction for every row, so equal blocks read equal values
        reads = np.einsum("nv,nrkv->nrk", rho, tables[rows])
        dev = reads - reads[:, :1]
        run = lengths[:, :, None] > steps
        single_dev = max_abs(single_dev, dev[:, :4])
        word_dev = max_abs(word_dev, dev[:, 4:7][run[:, 0]])
        channel_dev = max_abs(channel_dev, dev[:, 7:][run[:, 1]])
    return {
        "single_error_expectation_invariance": single_dev,
        "recovered_word_expectation_invariance": word_dev,
        "error_then_recovery_channel_invariance": channel_dev,
    }
