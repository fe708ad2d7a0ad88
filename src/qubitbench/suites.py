"""Named check suites composing the constructions into reproducible runs.

Each suite runner returns (name, deviation) pairs, produced in order by the
check families of its suite in ``_FAMILIES``.  A family is a small generator
that measures its checks over one namespace shared by the suite's run: the
configuration, the heavy inputs the runner builds once and the family's own
random stream.  A bound that defines a check sits next to its family, and the
family's docstring is its ``--describe`` text.  The structure of each paper
algebra (commutant and isotypic blocks) is built at most once per report, on
first use, and shared by every suite of the report.  A family measures its
residuals with ``linalg.max_abs``, one call over all the parts of a check (or
a running ``dev = max_abs(dev, residual)`` over trial stacks), so a NaN
anywhere reaches the check; no family sees the tolerance.  ``run_suite`` adds
the suite prefix and is the one place that judges a deviation against it.
All randomness is derived from the master seed and the family's name, so the
samples of a family do not depend on what any other family draws, and
identical configurations reproduce identical numbers.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import collective as col
from . import dualrail as dr
from . import repetition as rep
from .frames import (
    EncodedQubitFrame,
    OperatorAlgebra,
    algebra_structure,
    commutant_basis,
    expectation,
    frame_commutes_with,
    generated_algebra_dimension,
    isotypic_decomposition,
    verify_frame,
)
from .linalg import (
    apply_on,
    basis_state,
    child_seed,
    commutator,
    dagger,
    density,
    evolve,
    identity,
    kron,
    max_abs,
    partial_trace,
    random_haar_state,
    sigma_x,
    sigma_y,
    sigma_z,
    trial_chunks,
)

__all__ = ["SuiteConfig", "SUITE_NAMES", "run_suite", "render_text", "describe"]

SUITE_NAMES = ("bosonic", "repetition", "collective", "algebra", "all")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    tolerance: float = 1e-9
    seed: int = 0
    trials: int = 100
    cutoff: int = 2

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.suite in ("bosonic", "all") and self.cutoff < 2:
            raise ValueError("bosonic suite needs cutoff >= 2 for the two-photon gates")


# The paper's algebras by label: the generators of each, built on demand.
_PAPER_ALGEBRAS = {
    "collective_noise": lambda: col.collective_ops(col.N_SPINS),
    "error_recovery_words": lambda: tuple(rep.error_recovery_words().values()),
    "pauli": lambda: (sigma_x, sigma_y, sigma_z),
}


class _Structures(dict):
    """One report's AlgebraStructure of each paper algebra, built on first use."""

    def __missing__(self, label):
        structure = algebra_structure(OperatorAlgebra(_PAPER_ALGEBRAS[label]()))
        self[label] = structure
        return structure


def _run(config, suite, structures, **inputs):
    """The suite's (name, deviation) pairs, family by family; each family
    draws from its own stream, seeded by the master seed and its name."""
    s = SimpleNamespace(trials=config.trials, structures=structures, **inputs)
    pairs = []
    for family in _FAMILIES[suite]:
        s.rng = np.random.default_rng(child_seed(config.seed, family.__name__))
        pairs.extend(family(s))
    return pairs


_TWO_QUBIT_BITS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Fock cutoffs checked whatever the configured one; modes of the two-qubit register.
_CUTOFFS = (2, 3, 4)
_NUM_MODES = 4


# ----------------------------------------------------------------- bosonic


def projector_number_identity_deviation():
    """Worst deviation of P n = n P = P n P over all mode pairs of the
    register and all of _CUTOFFS, with n the joint occupation of the pair.
    Both operators are diagonal, so the products are elementwise products
    of their diagonals."""
    dev = 0.0
    for cutoff in _CUTOFFS:
        config = dr.FockConfig(_NUM_MODES, cutoff)
        for k in range(1, _NUM_MODES + 1):
            for kp in range(k + 1, _NUM_MODES + 1):
                p = dr.dual_rail_projector(config, k, kp)
                n = dr.number(config, k) + dr.number(config, kp)
                pn = p * n
                np_ = n * p
                pnp = pn * p
                dev = max_abs(dev, pn - np_, pn - pnp)
    return dev


def _bosonic_frame(s):
    """P = unit-excitation projector of the pair; Z = (n_k' - n_k) P;
    X = (a_k^dag a_k' + a_k a_k'^dag) P; Y = -i Z X.  The six frame axioms
    hold, and their worst deviation stays within tol at cutoffs 2, 3 and 4."""
    for name, deviation in verify_frame(s.frame).items():
        yield f"frame/{name}", deviation
    yield "frame_cutoff_independence", max_abs(
        *(deviation for c in _CUTOFFS
          for deviation in verify_frame(dr.dual_rail_frame(dr.FockConfig(2, c), 1, 2)).values()))


def _bosonic_projector_number_identity(s):
    """P (n_k + n_k') = (n_k + n_k') P = P (n_k + n_k') P for every mode
    pair of four modes at cutoffs 2, 3 and 4."""
    yield "projector_number_identity", projector_number_identity_deviation()


def _bosonic_csign(s):
    """BS(1,3)^dag NS_1 NS_3 BS(1,3) = diag(1, 1, 1, -1) on the logical basis
    at theta = pi/4, up to a global phase; the gate is unitary and conserves
    the total photon number.  The gate g is built on modes 1 and 3 alone and
    applied to the register's logical states there.  The register gate is
    U = g (x) 1 up to an order of factors, so U^dag U - 1 = (g^dag g - 1) (x) 1
    and [U, N] = [g, n_1 + n_3] (x) 1 entry for entry: both checks are exact
    on g."""
    g = s.csign
    logical = np.array([dr.prepare_logical(s.config4, bits) for bits in _TWO_QUBIT_BITS])
    m = logical.conj() @ apply_on(g, (0, 2), _NUM_MODES, logical).T
    phase = m[0, 0] / abs(m[0, 0])
    yield "csign_logical_matrix", max_abs(m / phase - np.diag([1.0, 1.0, 1.0, -1.0]))
    yield "csign_unitary", max_abs(dagger(g) @ g - identity(g.shape[0]))
    n_pair = dr.number(s.config2, 1) + dr.number(s.config2, 2)
    yield "csign_conserves_photon_number", max_abs(g * n_pair - n_pair[:, None] * g)


def _bosonic_post_splitter(s):
    """Leakage of the coincident-photon state |1,1> after the splitter alone
    equals sin^2(2 theta): 1/2 at theta = pi/8, and at theta = pi/4 the
    transfer out of the logical space is complete, so the qubits exist only
    stroboscopically across the gate.  The splitter acts on modes 1 and 3."""
    config4 = s.config4
    coincident = dr.prepare_logical(config4, (1, 1))
    for name, theta, target in (
        ("post_splitter_leakage_half_at_eighth_pi", np.pi / 8, 0.5),
        ("post_splitter_full_transfer_at_quarter_pi", np.pi / 4, 1.0),
    ):
        splitter = dr.beam_splitter(s.config2, 1, 2, theta)
        leak = dr.leakage(apply_on(splitter, (0, 2), _NUM_MODES, coincident),
                          config4, dr.logical_pairs(config4))
        yield name, abs(leak - target)


def _bosonic_logical_evolution(s):
    """exp(-i Z t) and exp(-i X t) keep random logical states in the code
    space (max(1, trials // 10) samples)."""
    config2 = s.config2
    zero, one = dr.prepare_logical(config2, (0,)), dr.prepare_logical(config2, (1,))
    dev = 0.0
    for n in trial_chunks(max(1, s.trials // 10)):
        states = random_haar_state(2, s.rng, n) @ np.array([zero, one])
        times = s.rng.uniform(0.0, 2.0 * np.pi, n)
        for h in (s.frame.z, s.frame.x):
            evolved = (evolve(h, times) @ states[:, :, None])[:, :, 0]
            dev = max_abs(dev, dr.leakage(evolved, config2, [(1, 2)]))
    yield "logical_evolution_stays_in_code_space", dev


def _bosonic_phase_shifter(s):
    """exp(-i 2 pi n_k) is the identity."""
    yield "phase_shifter_full_period", max_abs(dr.phase_shifter(s.config2, 1, 2.0 * np.pi) - 1.0)


def _bosonic_beam_splitter(s):
    """At theta = pi/2 the splitter moves a photon fully from one mode to the
    other; at a random angle and phase it conserves the photon number of a
    random state."""
    config2, rng = s.config2, s.rng
    swap = dr.beam_splitter(config2, 1, 2, np.pi / 2) @ dr.fock_state(config2, (1, 0))
    amp = np.vdot(dr.fock_state(config2, (0, 1)), swap)
    yield "beam_splitter_full_swap", 1.0 - abs(amp)

    psi = random_haar_state(config2.dim, rng)
    n2 = dr.number(config2, 1) + dr.number(config2, 2)
    u_bs = dr.beam_splitter(config2, 1, 2, float(rng.uniform(0, np.pi)),
                            float(rng.uniform(0, np.pi)))
    before = np.vdot(psi, n2 * psi).real
    after = np.vdot(u_bs @ psi, n2 * (u_bs @ psi)).real
    yield "beam_splitter_conserves_photon_number", abs(after - before)


def _bosonic_prepared_states(s):
    """The four prepared two-qubit logical states have zero leakage."""
    config4 = s.config4
    yield "prepared_states_have_zero_leakage", max_abs(
        *(dr.leakage(dr.prepare_logical(config4, bits), config4, dr.logical_pairs(config4))
          for bits in _TWO_QUBIT_BITS))


def _bosonic_two_photon_sign_gate(s):
    """NS flips the sign of occupations n_k >= 2 and leaves 0 and 1 alone."""
    signs = dr.ns_gate(s.config2, 1)
    occ = dr.occupation_table(s.config2)[:, 0]
    yield "two_photon_sign_gate_action", max_abs(signs - np.where(occ >= 2, -1.0, 1.0))


def _bosonic_photodetection(s):
    """Destructive number readout of one mode: Born probabilities 1/2, 1/2
    on (|01> + |10>)/sqrt2, and the same outcome and state for the same
    seed."""
    config2 = s.config2
    plus = (dr.fock_state(config2, (0, 1)) + dr.fock_state(config2, (1, 0))) / np.sqrt(2.0)
    dist = dr.born_distribution(plus, config2, 1)
    yield "photodetection_born_probabilities", max_abs(
        dist[0] - 0.5, dist[1] - 0.5, dist.sum() - 1.0)

    det_seed = s.rng.integers(2**63)
    out1 = dr.photodetect(plus, config2, 1, det_seed)
    out2 = dr.photodetect(plus, config2, 1, det_seed)
    same = out1[0] == out2[0] and max_abs(out1[1] - out2[1]) == 0.0
    yield "photodetection_deterministic_per_seed", 0.0 if same else 1.0


def run_bosonic(config, structures):
    config2 = dr.FockConfig(2, config.cutoff)
    config4 = dr.FockConfig(_NUM_MODES, config.cutoff)
    return _run(config, "bosonic", structures, config2=config2, config4=config4,
                frame=dr.dual_rail_frame(config2, 1, 2), csign=dr.csign(config2, 1, 2))


# -------------------------------------------------------------- repetition


def _repetition_frame(s):
    """Z_q = sum_a E_a Z_C E_a, X_q = sum_a E_a X_C E_a and Y = -i Z X, with
    the whole 8-dim space as support, satisfy the six frame axioms."""
    for name, deviation in verify_frame(s.frame).items():
        yield f"frame/{name}", deviation


def _repetition_code(s):
    """encode(c0, c1) = c0 |000> + c1 |111>; the errors {1, X1, X2, X3} are
    Hermitian involutions; the syndrome bits, read off the anticommutation
    pattern with Z1 Z2 and Z2 Z3, match the static table."""
    yield "encoding_examples", max_abs(
        rep.encode(1.0, 0.0) - basis_state(8, 0),
        rep.encode(0.0, 1.0) - basis_state(8, 7),
        rep.encode(1 / np.sqrt(2), 1 / np.sqrt(2))
        - (basis_state(8, 0) + basis_state(8, 7)) / np.sqrt(2),
    )
    yield "errors_are_hermitian_involutions", max_abs(
        *(residual for e in map(rep.error_operator, range(4))
          for residual in (e @ e - identity(8), e - dagger(e))))
    matches = all(rep.syndrome_from_commutation(a) == rep.syndrome_of(a) for a in range(4))
    yield "syndrome_table_matches_commutation", 0.0 if matches else 1.0


def _repetition_recovery(s):
    """R_a = E_a sum_i |v_a^i><v_a^i| is trace preserving; R_a E_a is the
    identity on the code, and R_a E_b with a != b annihilates it."""
    channel = s.channel
    yield "recovery_trace_preserving", channel.trace_preservation_defect()

    logicals = (rep.logical_zero(), rep.logical_one())
    match_dev = 0.0
    mismatch_dev = 0.0
    for a in range(4):
        for b in range(4):
            w = channel.ops[a] @ rep.error_operator(b)
            amps = [np.vdot(l, w @ l) for l in logicals]
            cross = np.vdot(logicals[0], w @ logicals[1])
            if a == b:
                match_dev = max_abs(match_dev, abs(amps[0]) - 1.0, amps[0] - amps[1], cross,
                                    *(w @ l - amp * l for l, amp in zip(logicals, amps)))
            else:
                mismatch_dev = max_abs(mismatch_dev, *(w @ l for l in logicals))
    yield "matched_recovery_is_identity_on_code", match_dev
    yield "mismatched_recovery_annihilates_code", mismatch_dev


def _repetition_error_basis_iso(s):
    """|v_a^i> -> |i> (x) |e_a> is unitary; errors leave the qubit factor
    untouched (max(1, trials // 10) random states) and recovery resets the
    syndrome factor to |e_0>."""
    iso_q = s.iso_q
    yield "error_basis_iso_unitary", max_abs(dagger(iso_q) @ iso_q - identity(8))
    yield "error_basis_iso_vector_mapping", max_abs(
        *(iso_q @ rep.code_vector(a, i) - basis_state(8, 4 * i + a)
          for a in range(4) for i in (0, 1)))

    errors = np.stack([rep.error_operator(a) for a in range(4)])
    dev = 0.0
    for n in trial_chunks(max(1, s.trials // 10)):
        c = random_haar_state(2, s.rng, n)
        corrupted = (errors @ rep.encode(c[:, 0], c[:, 1]).T).transpose(2, 0, 1)
        # qubit (x) syndrome amplitudes of each corrupted state; the qubit
        # factor's reduced operator is phi phi^dag over the syndrome index
        phi = (corrupted @ iso_q.T).reshape(n, 4, 2, 4)
        rho_q = phi @ phi.conj().swapaxes(-1, -2)
        fidelity = np.einsum("ni,naik,nk->na", c.conj(), rho_q, c).real
        dev = max_abs(dev, 1.0 - fidelity)
    yield "errors_leave_qubit_factor_untouched", dev

    yield "recovery_resets_syndrome_factor", max_abs(
        *(iso_q @ s.channel.ops[a] @ dagger(iso_q)
          - kron(identity(2), np.outer(basis_state(4, 0), basis_state(4, a).conj()))
          for a in range(4)))


def _repetition_stabilizer_iso(s):
    """|abc> -> |a> (x) |a+b, b+c>: the global flip X1 X2 X3 is the qubit
    flip, but the first error flips this qubit label too, so the label is
    not protected (X1 is at spectral distance 1 from every 1 (x) G)."""
    iso_qp = s.iso_qp
    yield "stabilizer_iso_label_examples", max_abs(
        *(iso_qp @ basis_state(8, abc) - kron(basis_state(2, l), basis_state(4, m))
          for abc, l, m in ((0b000, 0, 0b00), (0b100, 1, 0b10), (0b011, 0, 0b10),
                            (0b111, 1, 0b00))))

    c = random_haar_state(2, s.rng)
    flipped = iso_qp @ (rep.error_operator(1) @ rep.encode(c[0], c[1]))
    target = kron(np.array([c[1], c[0]]), basis_state(4, 0b10))
    yield "first_error_flips_stabilizer_qubit", max_abs(flipped - target)

    global_flip = rep.error_operator(1) @ rep.error_operator(2) @ rep.error_operator(3)
    yield "global_flip_is_qubit_flip_in_stabilizer_iso", max_abs(
        iso_qp @ global_flip @ dagger(iso_qp) - kron(sigma_x, identity(4)))

    e1p = iso_qp @ rep.error_operator(1) @ dagger(iso_qp)
    gauge_part = partial_trace(e1p, (2, 4), {1}) / 2.0
    distance = np.linalg.norm(e1p - kron(identity(2), gauge_part), 2)
    yield "stabilizer_qubit_not_protected", abs(distance - 1.0)


def _repetition_recovery_idempotent(s):
    """Recovering twice equals recovering once, on a random density operator."""
    once = s.channel.apply(density(random_haar_state(8, s.rng)))
    yield "recovery_channel_idempotent", max_abs(s.channel.apply(once) - once)


def _repetition_word_algebra(s):
    """The sixteen words E_b R_a generate 1_2 (x) M_4: an isotypic block of
    multiplicity 2 and dimension 4."""
    blocks = s.structures["error_recovery_words"].blocks
    yield "noise_recovery_algebra_isotypic_block", 0.0 if (2, 4) in blocks else 1.0


def _repetition_protected_expectation(s):
    """<Z_q> = 0.3 - 0.7 = -0.4 on sqrt(0.3)|000> + sqrt(0.7)|111> after the
    error X2."""
    state = rep.error_operator(2) @ rep.encode(np.sqrt(0.3), np.sqrt(0.7))
    yield "protected_expectation_example", abs(expectation(s.frame.z, state) - (-0.4))


def _repetition_invariance(s):
    """Frame expectations are unchanged by single errors, by recovered
    words and by error-then-recovery cycles of up to three letters on trials
    random encoded states, each read after every letter as a quadratic form
    in the state's two code amplitudes; the frame commutes with every word
    E_b R_a."""
    yield from rep.invariance_suite(s.frame, s.channel, s.trials, s.rng).items()
    words = s.structures["error_recovery_words"].algebra
    yield "frame_commutes_with_error_recovery_words", frame_commutes_with(s.frame, words)


def run_repetition(config, structures):
    return _run(config, "repetition", structures, frame=rep.frame_from_errors(),
                channel=rep.recovery_channel(), iso_q=rep.subsystem_iso_Q(),
                iso_qp=rep.subsystem_iso_Qprime())


# -------------------------------------------------------------- collective


def _collective_total_spin(s):
    """[S_x, S_y] = i S_z and cyclic; S^2 splits the 8 dimensions into
    spin-3/2 (dim 4) and two spin-1/2 routes (dim 2 each); |000> has
    S_z = 3/2."""
    sx, sy, sz = s.generators
    yield "angular_momentum_closure", max_abs(
        commutator(sx, sy) - 1j * sz,
        commutator(sy, sz) - 1j * sx,
        commutator(sz, sx) - 1j * sy,
    )
    eigs = np.sort(np.linalg.eigvalsh(s.s2))
    yield "casimir_multiplicities", max_abs(eigs - np.array([0.75] * 4 + [3.75] * 4))
    aligned = basis_state(8, 0)
    yield "aligned_state_sz_eigenvalue", max_abs(sz @ aligned - 1.5 * aligned)


# Least singular-value gap at collective.KERNEL_SV_THRESHOLD
MIN_KERNEL_SPLIT = 1e-4


def _collective_joint_kernel(s):
    """No state of three spins is annihilated by S_x, S_y and S_z; two spins
    have one such state and four spins two.  For each, the singular-value
    gap at the kernel threshold must be at least MIN_KERNEL_SPLIT = 1e-4."""
    for n, expected in ((3, 0), (2, 1), (4, 2)):
        dim, margin = col.joint_kernel_dimension(n)
        yield f"joint_kernel_dim_{n}_spins", abs(dim - expected)
        # np.maximum, not max, so that a NaN margin fails
        yield f"kernel_split_margin_{n}_spins", float(np.maximum(0.0, MIN_KERNEL_SPLIT - margin))


def _collective_scalars(s):
    """The rotation scalars s_ij = X_i X_j + Y_i Y_j + Z_i Z_j commute with
    every S_alpha; s12 is -3 on the pair singlet and +1 on the triplet."""
    s12, s23, s31 = col.scalars()
    yield "scalars_commute_with_generators", max_abs(
        *(commutator(sc, g) for sc in (s12, s23, s31) for g in s.generators))
    singlet = (basis_state(8, 0b010) - basis_state(8, 0b100)) / np.sqrt(2.0)
    yield "pair_singlet_scalar_eigenvalue", max_abs(s12 @ singlet + 3.0 * singlet)
    aligned = basis_state(8, 0)
    yield "pair_triplet_scalar_eigenvalue", max_abs(s12 @ aligned - aligned)


def _collective_protected_basis(s):
    """Two explicit route bases, singlet-triplet and cube-root-of-unity
    phases, are orthonormal with S^2 = 3/4 and S_z = +-1/2; the frame of
    each, P = V V^dag and X, Y, Z = V (sigma (x) 1) V^dag, satisfies the six
    frame axioms."""
    sz = s.generators[2]
    for flavor in col.FLAVORS:
        v = col.protected_basis(flavor)
        yield f"protected_basis_orthonormal_{flavor}", max_abs(dagger(v) @ v - identity(4))
        yield f"protected_basis_quantum_numbers_{flavor}", max_abs(
            s.s2 @ v - 0.75 * v, sz @ v - v @ np.diag([0.5, -0.5, 0.5, -0.5]))
        for name, deviation in verify_frame(s.frames[flavor]).items():
            yield f"frame_{flavor}/{name}", deviation


def _collective_scalar_frame(s):
    """P = 1/2 - (s12 + s23 + s31)/6 has trace 4; the swap of spins 1 and 2
    times P is the omega frame's X, which exchanges the route labels, and
    minus the singlet-triplet frame's Z; the omega frame's Z is
    (sqrt3/6) sum eps_abc sigma_a^1 sigma_b^2 sigma_c^3."""
    p_q = col.support_projector()
    yield "support_trace", abs(np.trace(p_q).real - 4.0)
    om = s.frames["omega"]
    swap = col.exchange_12() @ p_q
    yield "swap_equals_scalar_combination", max_abs(
        om.x - swap, s.frames["singlet_triplet"].z + swap)
    yield "z_is_antisymmetric_triple_product", max_abs(
        om.z - (np.sqrt(3.0) / 6.0) * col.antisymmetric_product())
    v = col.protected_basis("omega")  # column 2 route + (s_z < 0)
    yield "swap_exchanges_route_labels", max_abs(
        om.x @ v[:, 0] - v[:, 2], om.x @ v[:, 3] - v[:, 1])


def _collective_noise_algebra(s):
    """The commutant of {S_alpha} has dimension 5 = 1^2 + 2^2; its isotypic
    blocks (multiplicity, dimension) are (1, 4) and (2, 2)."""
    noise = s.structures["collective_noise"]
    yield "noise_commutant_dimension", abs(len(noise.commutant) - 5)
    yield "noise_isotypic_blocks", 0.0 if noise.blocks == ((1, 4), (2, 2)) else 1.0


def _collective_invariance(s):
    """Every frame member commutes with every S_alpha; in protected
    coordinates each S_alpha is 1 (x) B with 2B a unit real Pauli
    combination; frame expectations are invariant under trials random
    collective unitaries."""
    randomized = col.noiseless_invariance_suite(s.frames, s.trials, s.rng)
    noise = s.structures["collective_noise"].algebra
    for flavor, frame in s.frames.items():
        yield f"frame_commutes_with_noise_{flavor}", frame_commutes_with(frame, noise)
        # V^dag S_alpha V = 1 (x) B_alpha, with B_alpha the gauge-factor block
        v = col.protected_basis(flavor)
        block_dev = unit_dev = 0.0
        for g in s.generators:
            m = dagger(v) @ g @ v
            b = partial_trace(m, (2, 2), {1}) / 2.0
            coeffs, residual = col.pauli_coefficients(2.0 * b)
            block_dev = max_abs(block_dev, m - kron(identity(2), b))
            unit_dev = max_abs(unit_dev, residual, coeffs @ coeffs - 1.0)
        yield f"noise_block_structure_{flavor}", block_dev
        yield f"gauge_action_unit_pauli_{flavor}", unit_dev
        name = f"collective_unitary_expectation_invariance_{flavor}"
        if name in randomized:
            yield name, randomized[name]


def _collective_purity(s):
    """|psi><psi| (x) rho_gauge has a pure qubit factor for any gauge state,
    and its gauge factor keeps the purity of rho_gauge."""
    dev = 0.0
    for flavor in col.FLAVORS:
        v = col.protected_basis(flavor)
        for rho_g in (identity(2) / 2.0,
                      np.diag([1.0, 0.0]).astype(complex),
                      np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)):
            psi_q = random_haar_state(2, s.rng)
            back = dagger(v) @ (v @ kron(density(psi_q), rho_g) @ dagger(v)) @ v
            qubit, gauge = (partial_trace(back, (2, 2), {k}) for k in (0, 1))
            dev = max_abs(dev, np.trace(qubit @ qubit).real - 1.0,
                          np.trace(gauge @ gauge).real - np.trace(rho_g @ rho_g).real)
    yield "protected_qubit_stays_pure", dev


def _collective_exchange_sector(s):
    """Fixing s_z = +-1/2 gives two rank-2 qubits compatible with
    exchange-only control (they commute with S_z) but not collectively
    protected (some [O, S_x] reaches 0.1)."""
    sx, _, sz = s.generators
    frames = col.exchange_sector_frames()
    yield "exchange_sector_frames_valid", max_abs(
        *(residual for frame in frames
          for residual in (*verify_frame(frame).values(), np.trace(frame.support).real - 2.0)))
    yield "exchange_sector_commutes_with_sz", max_abs(
        *(frame_commutes_with(frame, OperatorAlgebra((sz,))) for frame in frames))
    breaks = [frame_commutes_with(frame, OperatorAlgebra((sx,))) for frame in frames]
    yield "exchange_sector_not_collectively_protected", float(
        np.maximum(0.0, 0.1 - np.min(breaks)))


def _collective_flavor_change(s):
    """The two flavors differ by a unitary W (x) 1 on the qubit factor."""
    m = dagger(col.protected_basis("omega")) @ col.protected_basis("singlet_triplet")
    w = partial_trace(m, (2, 2), {0}) / 2.0
    yield "flavors_differ_by_qubit_factor_unitary", max_abs(
        m - kron(w, identity(2)), dagger(w) @ w - identity(2))


def _collective_generated_algebra(s):
    """P, X, Y, Z generate the full 4-dim operator algebra of the qubit on
    the protected basis of either flavor."""
    dev = 0.0
    for flavor in col.FLAVORS:
        frame = s.frames[flavor]
        alg = OperatorAlgebra(frame.observables() + (frame.support,))
        dim = generated_algebra_dimension(
            alg, word_length=2, restrict_to=col.protected_basis(flavor))
        dev = max_abs(dev, dim - 4)
    yield "frame_generates_full_qubit_algebra", dev


def run_collective(config, structures):
    sx, sy, sz, s2 = col.total_spin_ops()
    return _run(config, "collective", structures, generators=(sx, sy, sz), s2=s2,
                frames={flavor: col.noiseless_frame(flavor) for flavor in col.FLAVORS})


# ----------------------------------------------------------------- algebra


def _algebra_abstract_qubit(s):
    """P = 1 with X, Y, Z the Pauli matrices passes every frame axiom;
    halving Y breaks {A, B} = 2 delta_AB P, and the break is caught: the
    check reads how far the broken frame's anticommutator deviation is from
    the exact 1.5 by which {Y/2, Y/2} = P/2 misses 2P."""
    abstract = EncodedQubitFrame(support=identity(2), x=sigma_x, y=sigma_y, z=sigma_z)
    yield "abstract_qubit_frame_passes", max_abs(*verify_frame(abstract).values())
    broken = EncodedQubitFrame(support=identity(2), x=sigma_x, y=sigma_y / 2.0, z=sigma_z)
    # {Y/2, Y/2} = P/2 misses 2P by exactly 1.5
    yield "detects_broken_normalization", abs(
        verify_frame(broken)["pairwise_anticommutators"] - 1.5)


def _algebra_commutant(s):
    """The commutant, the joint nullspace of M -> MG - GM over generators
    and adjoints, is the scalars for the Pauli matrices and all of M_2 for
    the identity."""
    basis = s.structures["pauli"].commutant
    residuals = [len(basis) - 1]
    if len(basis) == 1:
        b = basis[0]
        scaled = b / b[0, 0] if abs(b[0, 0]) > 0 else b
        residuals.append(scaled - identity(2))
    yield "irreducible_commutant_is_scalars", max_abs(*residuals)
    trivial = OperatorAlgebra((identity(2),))
    yield "identity_generators_have_full_commutant", abs(len(commutant_basis(trivial)) - 4)


def _algebra_pauli_isotypic(s):
    """The center of the Pauli algebra is the scalars, so it is one block,
    (multiplicity, dimension) = (1, 2)."""
    yield "pauli_isotypic_single_block", 0.0 if s.structures["pauli"].blocks == ((1, 2),) else 1.0


def _algebra_commutant_members(s):
    """Every commutant member of the collective-noise algebra commutes with
    each generator and adjoint."""
    noise = s.structures["collective_noise"]
    yield "commutant_members_commute", max_abs(
        *(commutator(m, g) for m in noise.commutant for g in noise.algebra.with_adjoints()))


def _algebra_bicommutant(s):
    """The double commutant equals the span of generator words up to length
    4: dimension 20 for collective noise, 16 for the error-recovery words."""
    for label, expected in (("collective_noise", 20), ("error_recovery_words", 16)):
        structure = s.structures[label]
        bicomm = commutant_basis(OperatorAlgebra(structure.commutant))
        span = generated_algebra_dimension(structure.algebra, word_length=4)
        yield (f"bicommutant_matches_generated_{label}",
               max_abs(len(bicomm) - expected, span - expected))


def _algebra_isotypic_determinism(s):
    """The isotypic blocks of collective noise do not depend on the order of
    the commutant basis they are split from: the reversed basis gives the
    same blocks."""
    noise = s.structures["collective_noise"]
    same = isotypic_decomposition(noise.commutant[::-1]) == noise.blocks
    yield "isotypic_summary_seed_independent", 0.0 if same else 1.0


def _algebra_expectation(s):
    """<0|Z|0> = 1 and <0|X|0> = 0."""
    yield "expectation_examples", max_abs(
        expectation(sigma_z, basis_state(2, 0)) - 1.0,
        expectation(sigma_x, basis_state(2, 0)) - 0.0,
    )


def _algebra_protected_frame(s):
    """The error-built repetition frame commutes with every error-recovery
    word E_b R_a: the worst entry left of P, X, Y and Z after projection
    onto the span of the stored commutant basis of the sixteen words."""
    frame = rep.frame_from_errors()
    members = np.stack((frame.support,) + frame.observables()).reshape(4, -1)
    # the basis is orthonormal in the Hilbert-Schmidt product
    comm = np.reshape(s.structures["error_recovery_words"].commutant, (-1, members.shape[1]))
    yield "protected_frame_in_noise_commutant", max_abs(members - members @ comm.conj().T @ comm)


def run_algebra(config, structures):
    return _run(config, "algebra", structures)


# ------------------------------------------------------------------ driver


_FAMILIES = {
    "bosonic": (
        _bosonic_frame,
        _bosonic_projector_number_identity,
        _bosonic_csign,
        _bosonic_post_splitter,
        _bosonic_logical_evolution,
        _bosonic_phase_shifter,
        _bosonic_beam_splitter,
        _bosonic_prepared_states,
        _bosonic_two_photon_sign_gate,
        _bosonic_photodetection,
    ),
    "repetition": (
        _repetition_frame,
        _repetition_code,
        _repetition_recovery,
        _repetition_error_basis_iso,
        _repetition_stabilizer_iso,
        _repetition_recovery_idempotent,
        _repetition_word_algebra,
        _repetition_protected_expectation,
        _repetition_invariance,
    ),
    "collective": (
        _collective_total_spin,
        _collective_joint_kernel,
        _collective_scalars,
        _collective_protected_basis,
        _collective_scalar_frame,
        _collective_noise_algebra,
        _collective_invariance,
        _collective_purity,
        _collective_exchange_sector,
        _collective_flavor_change,
        _collective_generated_algebra,
    ),
    "algebra": (
        _algebra_abstract_qubit,
        _algebra_commutant,
        _algebra_pauli_isotypic,
        _algebra_commutant_members,
        _algebra_bicommutant,
        _algebra_isotypic_determinism,
        _algebra_expectation,
        _algebra_protected_frame,
    ),
}


def run_suite(config):
    """Execute the chosen suite(s); returns the report document as a dict.

    Check objects carry exactly the fields name, max_deviation, pass; a check
    passes when its deviation is at most config.tolerance.  The JSON view
    preserves execution order; the text renderer sorts by name.
    """
    names = SUITE_NAMES[:-1] if config.suite == "all" else (config.suite,)
    structures = _Structures()  # this report's only; the next builds its own
    checks = []
    for suite in names:
        # looked up by module-global name at call time, so a wrapper
        # installed on the module attribute sees the call
        for name, deviation in globals()[f"run_{suite}"](config, structures):
            deviation = float(deviation)  # NaN compares false, so it fails
            checks.append({"name": f"{suite}/{name}", "max_deviation": deviation,
                           "pass": deviation <= config.tolerance})
    return {
        "suite": config.suite,
        "config": {
            "tolerance": config.tolerance,
            "seed": config.seed,
            "trials": config.trials,
            "cutoff": config.cutoff,
        },
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def render_text(doc):
    lines = [
        f"suite: {doc['suite']}",
        "config: " + ", ".join(f"{k}={v}" for k, v in doc["config"].items()),
        "",
    ]
    width = max((len(c["name"]) for c in doc["checks"]), default=0)
    for c in sorted(doc["checks"], key=lambda c: c["name"]):
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(f"{status}  {c['name']:<{width}}  max_deviation={c['max_deviation']:.3e}")
    n_fail = sum(1 for c in doc["checks"] if not c["pass"])
    lines.append("")
    lines.append(
        f"{len(doc['checks'])} checks, {n_fail} failed"
        if n_fail else f"{len(doc['checks'])} checks, all passed"
    )
    return "\n".join(lines) + "\n"


def describe(suite):
    """What each check family verifies: the docstrings of the families that
    emit the checks, in emission order."""
    if suite == "all":
        return "\n".join(describe(name) for name in SUITE_NAMES[:-1])
    if suite not in _FAMILIES:
        raise ValueError(f"unknown suite {suite!r}")
    lines = [f"[{suite}]"]
    for family in _FAMILIES[suite]:
        key = family.__name__.removeprefix(f"_{suite}_")
        lines.append(textwrap.fill(" ".join(family.__doc__.split()), width=79,
                                   initial_indent=f"  {key}: ", subsequent_indent="    ",
                                   break_on_hyphens=False))
    return "\n".join(lines) + "\n"
