"""Named check suites composing the constructions into reproducible runs.

Each suite returns a flat list of CheckResult objects whose names carry a
suite prefix.  All randomness is derived from the master seed and the suite
name, so results do not depend on execution order and identical
configurations reproduce identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import collective as col
from . import dualrail as dr
from . import repetition as rep
from .frames import (
    CheckResult,
    EncodedQubitFrame,
    OperatorAlgebra,
    commutant_basis,
    expectation,
    frame_commutes_with,
    generated_algebra_dimension,
    isotypic_decomposition_retrying,
    verify_frame,
)
from .linalg import (
    basis_state,
    child_seed,
    commutator,
    dagger,
    density,
    evolve,
    identity,
    kron,
    max_abs,
    random_haar_state,
    sigma_x,
    sigma_y,
    sigma_z,
)

__all__ = ["SuiteConfig", "SUITE_NAMES", "run_suite", "describe"]

SUITE_NAMES = ("bosonic", "repetition", "collective", "algebra", "all")


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    tolerance: float = 1e-9
    seed: int = 0
    trials: int = 100
    cutoff: int = 2
    output_path: str | None = None
    format: str = "text"

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.suite in ("bosonic", "all") and self.cutoff < 2:
            raise ValueError("bosonic suite needs cutoff >= 2 for the two-photon gates")
        if self.format not in ("text", "json"):
            raise ValueError(f"unknown format {self.format!r}")


def _check(prefix, name, deviation, tol):
    deviation = float(deviation)
    return CheckResult(f"{prefix}/{name}", deviation, deviation <= tol)


def _merge(prefix, report, out):
    for c in report.checks:
        out.append(CheckResult(f"{prefix}/{c.name}", c.max_deviation, c.passed))


# ----------------------------------------------------------------- bosonic


def projector_number_identity_deviation(cutoffs=(2, 3, 4), num_modes=4):
    """Worst deviation of P n = n P = P n P over all mode pairs and cutoffs,
    with n the joint occupation of the pair.  Both operators are diagonal,
    so the products are elementwise products of their diagonals."""
    dev = 0.0
    for cutoff in cutoffs:
        config = dr.FockConfig(num_modes, cutoff)
        for k in range(1, num_modes + 1):
            for kp in range(k + 1, num_modes + 1):
                p = dr.dual_rail_projector(config, k, kp)
                n = dr.number(config, k) + dr.number(config, kp)
                pn = p * n
                np_ = n * p
                pnp = pn * p
                dev = max(dev, max_abs(pn - np_), max_abs(pn - pnp))
    return dev


def run_bosonic(tol, seed, trials, cutoff):
    checks = []
    rng = np.random.default_rng(child_seed(seed, "bosonic"))
    pre = "bosonic"

    config2 = dr.FockConfig(2, cutoff)
    frame = dr.dual_rail_frame(config2, 1, 2)
    _merge(f"{pre}/frame", verify_frame(frame, tol), checks)

    cutoff_dev = max(
        verify_frame(dr.dual_rail_frame(dr.FockConfig(2, c), 1, 2), tol).max_deviation
        for c in (2, 3, 4)
    )
    checks.append(_check(pre, "frame_cutoff_independence", cutoff_dev, tol))

    checks.append(
        _check(pre, "projector_number_identity", projector_number_identity_deviation(), tol)
    )

    config4 = dr.FockConfig(4, cutoff)
    u = dr.csign(config4)
    logical = [dr.prepare_logical(config4, bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
    m = np.array([[np.vdot(a, u @ b) for b in logical] for a in logical])
    phase = m[0, 0] / abs(m[0, 0])
    checks.append(
        _check(pre, "csign_logical_matrix",
               max_abs(m / phase - np.diag([1.0, 1.0, 1.0, -1.0])), tol)
    )
    checks.append(
        _check(pre, "csign_unitary", max_abs(dagger(u) @ u - identity(config4.dim)), tol)
    )
    n_total = sum(dr.number(config4, k) for k in range(1, 5))
    checks.append(_check(pre, "csign_conserves_photon_number",
                         max_abs(u * n_total - n_total[:, None] * u), tol))

    pairs = dr.logical_pairs(config4)
    coincident = dr.prepare_logical(config4, (1, 1))
    leak_half = dr.leakage(dr.beam_splitter(config4, 1, 3, np.pi / 8) @ coincident,
                           config4, pairs)
    checks.append(_check(pre, "post_splitter_leakage_half_at_eighth_pi",
                         abs(leak_half - 0.5), tol))
    leak_full = dr.leakage(dr.beam_splitter(config4, 1, 3, np.pi / 4) @ coincident,
                           config4, pairs)
    checks.append(_check(pre, "post_splitter_full_transfer_at_quarter_pi",
                         abs(leak_full - 1.0), tol))

    dev = 0.0
    for _ in range(max(1, trials // 10)):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / np.linalg.norm(c)
        psi = c[0] * dr.prepare_logical(config2, (0,)) + c[1] * dr.prepare_logical(config2, (1,))
        t = float(rng.uniform(0.0, 2.0 * np.pi))
        for h in (frame.z, frame.x):
            dev = max(dev, dr.leakage(evolve(h, t) @ psi, config2, [(1, 2)]))
    checks.append(_check(pre, "logical_evolution_stays_in_code_space", dev, tol))

    checks.append(_check(pre, "phase_shifter_full_period",
                         max_abs(dr.phase_shifter(config2, 1, 2.0 * np.pi)
                                 - identity(config2.dim)), tol))

    swap = dr.beam_splitter(config2, 1, 2, np.pi / 2) @ dr.fock_state(config2, (1, 0))
    amp = np.vdot(dr.fock_state(config2, (0, 1)), swap)
    checks.append(_check(pre, "beam_splitter_full_swap", 1.0 - abs(amp), tol))

    psi = random_haar_state(config2.dim, rng)
    n2 = dr.number(config2, 1) + dr.number(config2, 2)
    u_bs = dr.beam_splitter(config2, 1, 2, float(rng.uniform(0, np.pi)), float(rng.uniform(0, np.pi)))
    before = np.vdot(psi, n2 * psi).real
    after = np.vdot(u_bs @ psi, n2 * (u_bs @ psi)).real
    checks.append(_check(pre, "beam_splitter_conserves_photon_number",
                         abs(after - before), tol))

    prep_dev = max(
        dr.leakage(dr.prepare_logical(config4, bits), config4, pairs)
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    checks.append(_check(pre, "prepared_states_have_zero_leakage", prep_dev, tol))

    signs = dr.ns_gate(config2, 1)
    occ = dr.occupation_table(config2)[:, 0]
    expected = np.where(occ >= 2, -1.0, 1.0)
    checks.append(_check(pre, "two_photon_sign_gate_action", max_abs(signs - expected), tol))

    plus = (dr.fock_state(config2, (0, 1)) + dr.fock_state(config2, (1, 0))) / np.sqrt(2.0)
    dist = dr.born_distribution(plus, config2, 1)
    dist_dev = max(abs(dist[0] - 0.5), abs(dist[1] - 0.5), abs(dist.sum() - 1.0))
    checks.append(_check(pre, "photodetection_born_probabilities", dist_dev, tol))

    det_seed = child_seed(seed, "bosonic-detect")
    out1 = dr.photodetect(plus, config2, 1, det_seed)
    out2 = dr.photodetect(plus, config2, 1, det_seed)
    det_dev = 0.0 if (out1[0] == out2[0] and max_abs(out1[1] - out2[1]) == 0.0) else 1.0
    checks.append(_check(pre, "photodetection_deterministic_per_seed", det_dev, tol))

    return checks


# -------------------------------------------------------------- repetition


def run_repetition(tol, seed, trials):
    checks = []
    pre = "repetition"
    rng = np.random.default_rng(child_seed(seed, "repetition"))

    frame = rep.frame_from_errors()
    _merge(f"{pre}/frame", verify_frame(frame, tol), checks)

    enc_dev = max(
        max_abs(rep.encode(1.0, 0.0) - basis_state(8, 0)),
        max_abs(rep.encode(0.0, 1.0) - basis_state(8, 7)),
        max_abs(rep.encode(1 / np.sqrt(2), 1 / np.sqrt(2))
                - (basis_state(8, 0) + basis_state(8, 7)) / np.sqrt(2)),
    )
    checks.append(_check(pre, "encoding_examples", enc_dev, tol))

    inv_dev = max(
        max(max_abs(rep.error_operator(a) @ rep.error_operator(a) - identity(8)),
            max_abs(rep.error_operator(a) - dagger(rep.error_operator(a))))
        for a in range(4)
    )
    checks.append(_check(pre, "errors_are_hermitian_involutions", inv_dev, tol))

    table_dev = 0.0 if all(
        rep.syndrome_from_commutation(a) == rep.syndrome_of(a) for a in range(4)
    ) else 1.0
    checks.append(_check(pre, "syndrome_table_matches_commutation", table_dev, tol))

    channel = rep.recovery_channel()
    checks.append(_check(pre, "recovery_trace_preserving",
                         channel.trace_preservation_defect(), tol))

    logicals = (rep.logical_zero(), rep.logical_one())
    match_dev = 0.0
    mismatch_dev = 0.0
    for a in range(4):
        for b in range(4):
            w = channel.ops[a] @ rep.error_operator(b)
            amps = [np.vdot(l, w @ l) for l in logicals]
            cross = np.vdot(logicals[0], w @ logicals[1])
            if a == b:
                match_dev = max(match_dev, abs(abs(amps[0]) - 1.0),
                                abs(amps[0] - amps[1]), abs(cross))
                for l, amp in zip(logicals, amps):
                    match_dev = max(match_dev, max_abs(w @ l - amp * l))
            else:
                mismatch_dev = max(mismatch_dev, *(max_abs(w @ l) for l in logicals))
    checks.append(_check(pre, "matched_recovery_is_identity_on_code", match_dev, tol))
    checks.append(_check(pre, "mismatched_recovery_annihilates_code", mismatch_dev, tol))

    iso_q = rep.subsystem_iso_Q()
    checks.append(_check(pre, "error_basis_iso_unitary",
                         max_abs(dagger(iso_q.unitary) @ iso_q.unitary - identity(8)), tol))
    map_dev = max(
        max_abs(iso_q.apply(rep.code_vector(a, i)) - basis_state(8, 4 * i + a))
        for a in range(4) for i in (0, 1)
    )
    checks.append(_check(pre, "error_basis_iso_vector_mapping", map_dev, tol))

    qfactor_dev = 0.0
    for _ in range(max(1, trials // 10)):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / np.linalg.norm(c)
        psi_q = c
        for a in range(4):
            corrupted = rep.error_operator(a) @ rep.encode(c[0], c[1])
            rho_q = np.asarray(
                _reduced_q(iso_q.apply(corrupted)), dtype=complex
            )
            fidelity = np.vdot(psi_q, rho_q @ psi_q).real
            qfactor_dev = max(qfactor_dev, abs(1.0 - fidelity))
    checks.append(_check(pre, "errors_leave_qubit_factor_untouched", qfactor_dev, tol))

    reset_dev = max(
        max_abs(iso_q.conjugate(channel.ops[a])
                - kron(identity(2), np.outer(basis_state(4, 0), basis_state(4, a).conj())))
        for a in range(4)
    )
    checks.append(_check(pre, "recovery_resets_syndrome_factor", reset_dev, tol))

    iso_qp = rep.subsystem_iso_Qprime()
    perm_dev = max(
        max_abs(iso_qp.apply(basis_state(8, 0b000)) - kron(basis_state(2, 0), basis_state(4, 0b00))),
        max_abs(iso_qp.apply(basis_state(8, 0b100)) - kron(basis_state(2, 1), basis_state(4, 0b10))),
        max_abs(iso_qp.apply(basis_state(8, 0b011)) - kron(basis_state(2, 0), basis_state(4, 0b10))),
        max_abs(iso_qp.apply(basis_state(8, 0b111)) - kron(basis_state(2, 1), basis_state(4, 0b00))),
    )
    checks.append(_check(pre, "stabilizer_iso_label_examples", perm_dev, tol))

    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    c = c / np.linalg.norm(c)
    flipped = iso_qp.apply(rep.error_operator(1) @ rep.encode(c[0], c[1]))
    target = kron(np.array([c[1], c[0]]), basis_state(4, 0b10))
    checks.append(_check(pre, "first_error_flips_stabilizer_qubit",
                         max_abs(flipped - target), tol))

    global_flip = rep.error_operator(1) @ rep.error_operator(2) @ rep.error_operator(3)
    checks.append(_check(pre, "global_flip_is_qubit_flip_in_stabilizer_iso",
                         max_abs(iso_qp.conjugate(global_flip) - kron(sigma_x, identity(4))),
                         tol))

    e1p = iso_qp.conjugate(rep.error_operator(1))
    gauge_part = np.zeros((4, 4), dtype=complex)
    for i in (0, 1):
        sel = np.zeros((2, 1), dtype=complex)
        sel[i, 0] = 1.0
        gauge_part += dagger(kron(sel, identity(4))) @ e1p @ kron(sel, identity(4))
    gauge_part /= 2.0
    distance = np.linalg.norm(e1p - kron(identity(2), gauge_part), 2)
    checks.append(_check(pre, "stabilizer_qubit_not_protected", abs(distance - 1.0), tol))

    rho = density(random_haar_state(8, rng))
    once = channel.apply(rho)
    twice = channel.apply(once)
    checks.append(_check(pre, "recovery_channel_idempotent", max_abs(twice - once), tol))

    words = rep.error_recovery_words()
    alg = OperatorAlgebra(tuple(words.values()), label="error_recovery_words")
    summary = isotypic_decomposition_retrying(alg, seed=child_seed(seed, "rep-isotypic"))
    iso_ok = (2, 4) in summary.as_multiset()
    checks.append(_check(pre, "noise_recovery_algebra_isotypic_block", 0.0 if iso_ok else 1.0, tol))

    state = rep.error_operator(2) @ rep.encode(np.sqrt(0.3), np.sqrt(0.7))
    checks.append(_check(pre, "protected_expectation_example",
                         abs(expectation(frame.z, state) - (-0.4)), tol))

    _merge(pre, rep.invariance_suite(trials, child_seed(seed, "rep-invariance"), tol), checks)
    return checks


def _reduced_q(phi):
    """Qubit-factor reduced density operator of a 2x4 factored pure state."""
    from .linalg import partial_trace

    return partial_trace(density(phi), (2, 4), {0})


# -------------------------------------------------------------- collective


def run_collective(tol, seed, trials):
    checks = []
    pre = "collective"
    rng = np.random.default_rng(child_seed(seed, "collective"))

    system = col.total_spin_ops()
    sx, sy, sz = system.generators()
    closure = max(
        max_abs(commutator(sx, sy) - 1j * sz),
        max_abs(commutator(sy, sz) - 1j * sx),
        max_abs(commutator(sz, sx) - 1j * sy),
    )
    checks.append(_check(pre, "angular_momentum_closure", closure, tol))

    eigs = np.sort(np.linalg.eigvalsh(system.s2))
    target = np.array([0.75] * 4 + [3.75] * 4)
    checks.append(_check(pre, "casimir_multiplicities", max_abs(eigs - target), tol))

    highest = basis_state(8, 0)
    checks.append(_check(pre, "aligned_state_sz_eigenvalue",
                         max_abs(sz @ highest - 1.5 * highest), tol))

    _merge(pre, col.no_invariant_state_check(tol), checks)

    s12, s23, s31 = col.scalars()
    scalar_dev = max(
        max_abs(commutator(s, g))
        for s in (s12, s23, s31)
        for g in system.generators()
    )
    checks.append(_check(pre, "scalars_commute_with_generators", scalar_dev, tol))

    singlet = (basis_state(8, 0b010) - basis_state(8, 0b100)) / np.sqrt(2.0)
    checks.append(_check(pre, "pair_singlet_scalar_eigenvalue",
                         max_abs(s12 @ singlet + 3.0 * singlet), tol))
    aligned = basis_state(8, 0)
    checks.append(_check(pre, "pair_triplet_scalar_eigenvalue",
                         max_abs(s12 @ aligned - aligned), tol))

    for flavor in col.FLAVORS:
        basis = col.protected_basis(flavor)
        v = basis.vectors
        ortho = max_abs(dagger(v) @ v - identity(4))
        checks.append(_check(pre, f"protected_basis_orthonormal_{flavor}", ortho, tol))
        label_dev = max(
            max_abs(system.s2 @ v - 0.75 * v),
            max_abs(sz @ v - v @ np.diag([0.5, -0.5, 0.5, -0.5])),
        )
        checks.append(_check(pre, f"protected_basis_quantum_numbers_{flavor}", label_dev, tol))
        _merge(f"{pre}/frame_{flavor}", verify_frame(col.noiseless_frame(flavor), tol), checks)

    p_q = col.support_projector()
    checks.append(_check(pre, "support_trace", abs(np.trace(p_q).real - 4.0), tol))

    om = col.noiseless_frame("omega")
    checks.append(_check(pre, "swap_equals_scalar_combination",
                         max_abs(om.x - col.exchange_12() @ p_q), tol))
    checks.append(_check(pre, "z_is_antisymmetric_triple_product",
                         max_abs(om.z - (np.sqrt(3.0) / 6.0) * col.antisymmetric_product()),
                         tol))

    swap_dev = max(
        max_abs(om.x @ col.protected_basis("omega").vector(0, +0.5)
                - col.protected_basis("omega").vector(1, +0.5)),
        max_abs(om.x @ col.protected_basis("omega").vector(1, -0.5)
                - col.protected_basis("omega").vector(0, -0.5)),
    )
    checks.append(_check(pre, "swap_exchanges_route_labels", swap_dev, tol))

    alg = OperatorAlgebra(system.generators(), label="collective_noise")
    checks.append(_check(pre, "noise_commutant_dimension",
                         abs(len(commutant_basis(alg)) - 5), tol))
    summary = isotypic_decomposition_retrying(alg, seed=child_seed(seed, "col-isotypic"))
    iso_ok = summary.as_multiset() == ((1, 4), (2, 2))
    checks.append(_check(pre, "noise_isotypic_blocks", 0.0 if iso_ok else 1.0, tol))

    _merge(pre, col.noiseless_invariance_suite(trials, child_seed(seed, "col-invariance"), tol),
           checks)

    purity_dev = 0.0
    for flavor in col.FLAVORS:
        for rho_g in (identity(2) / 2.0,
                      np.diag([1.0, 0.0]).astype(complex),
                      np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)):
            psi_q = random_haar_state(2, rng)
            purity_dev = max(
                purity_dev,
                abs(col.purity_of_protected_qubit(psi_q, rho_g, flavor) - 1.0),
            )
            gauge_purity = col.purity_of_protected_qubit(psi_q, rho_g, flavor, factor="gauge")
            purity_dev = max(
                purity_dev,
                abs(gauge_purity - np.trace(rho_g @ rho_g).real),
            )
    checks.append(_check(pre, "protected_qubit_stays_pure", purity_dev, tol))

    sector_dev = 0.0
    commute_sz = 0.0
    break_margin = np.inf
    for frame in col.exchange_sector_frames("omega"):
        sector_dev = max(sector_dev, verify_frame(frame, tol).max_deviation,
                         abs(np.trace(frame.support).real - 2.0))
        commute_sz = max(commute_sz,
                         max(max_abs(commutator(o, sz)) for o in frame.observables()))
        break_margin = min(break_margin,
                           max(max_abs(commutator(o, sx)) for o in frame.observables()))
    checks.append(_check(pre, "exchange_sector_frames_valid", sector_dev, tol))
    checks.append(_check(pre, "exchange_sector_commutes_with_sz", commute_sz, tol))
    checks.append(_check(pre, "exchange_sector_not_collectively_protected",
                         max(0.0, 0.1 - break_margin), tol))

    _, residual = col.flavor_change_unitary()
    checks.append(_check(pre, "flavors_differ_by_qubit_factor_unitary", residual, tol))

    span_dev = 0.0
    for flavor in col.FLAVORS:
        frame = col.noiseless_frame(flavor)
        basis = col.protected_basis(flavor)
        alg_f = OperatorAlgebra(frame.observables() + (frame.support,),
                                label=f"frame_{flavor}")
        dim = generated_algebra_dimension(alg_f, word_length=2, restrict_to=basis.vectors)
        span_dev = max(span_dev, abs(dim - 4))
    checks.append(_check(pre, "frame_generates_full_qubit_algebra", span_dev, tol))

    return checks


# ----------------------------------------------------------------- algebra


def run_algebra(tol, seed, trials):
    checks = []
    pre = "algebra"

    abstract = EncodedQubitFrame(
        support=identity(2), x=sigma_x, y=sigma_y, z=sigma_z, label="abstract_qubit"
    )
    checks.append(_check(pre, "abstract_qubit_frame_passes",
                         verify_frame(abstract, tol).max_deviation, tol))

    broken = EncodedQubitFrame(
        support=identity(2), x=sigma_x, y=sigma_y / 2.0, z=sigma_z, label="broken_qubit"
    )
    broken_report = verify_frame(broken, tol)
    detected = not broken_report.check("pairwise_anticommutators").passed
    checks.append(_check(pre, "detects_broken_normalization", 0.0 if detected else 1.0, tol))

    pauli_alg = OperatorAlgebra((sigma_x, sigma_y, sigma_z), label="pauli")
    basis = commutant_basis(pauli_alg)
    comm_dev = abs(len(basis) - 1)
    if len(basis) == 1:
        b = basis[0]
        scaled = b / b[0, 0] if abs(b[0, 0]) > 0 else b
        comm_dev = max(comm_dev, max_abs(scaled - identity(2)))
    checks.append(_check(pre, "irreducible_commutant_is_scalars", comm_dev, tol))

    full = OperatorAlgebra((identity(2),), label="trivial")
    checks.append(_check(pre, "identity_generators_have_full_commutant",
                         abs(len(commutant_basis(full)) - 4), tol))

    qubit_summary = isotypic_decomposition_retrying(pauli_alg, seed=child_seed(seed, "alg-pauli"))
    checks.append(_check(pre, "pauli_isotypic_single_block",
                         0.0 if qubit_summary.as_multiset() == ((1, 2),) else 1.0, tol))

    system = col.total_spin_ops()
    spin_alg = OperatorAlgebra(system.generators(), label="collective_noise")
    member_dev = max(
        max(max_abs(commutator(m, g)) for g in spin_alg.with_adjoints())
        for m in commutant_basis(spin_alg)
    )
    checks.append(_check(pre, "commutant_members_commute", member_dev, tol))

    words = rep.error_recovery_words()
    word_alg = OperatorAlgebra(tuple(words.values()), label="error_recovery_words")
    for alg, expected in ((spin_alg, 20), (word_alg, 16)):
        bicomm = commutant_basis(
            OperatorAlgebra(tuple(_hermitian_split(commutant_basis(alg))),
                            label=f"{alg.label}-commutant")
        )
        span = generated_algebra_dimension(alg, word_length=4)
        dev = max(abs(len(bicomm) - expected), abs(span - expected))
        checks.append(_check(pre, f"bicommutant_matches_generated_{alg.label}", dev, tol))

    seed_a = child_seed(seed, "alg-seeds-a")
    seed_b = child_seed(seed, "alg-seeds-b")
    same = (isotypic_decomposition_retrying(spin_alg, seed=seed_a).as_multiset()
            == isotypic_decomposition_retrying(spin_alg, seed=seed_b).as_multiset())
    checks.append(_check(pre, "isotypic_summary_seed_independent", 0.0 if same else 1.0, tol))

    exp_dev = max(
        abs(expectation(sigma_z, basis_state(2, 0)) - 1.0),
        abs(expectation(sigma_x, basis_state(2, 0)) - 0.0),
    )
    checks.append(_check(pre, "expectation_examples", exp_dev, tol))

    frame = rep.frame_from_errors()
    alg_ok = frame_commutes_with(frame, word_alg, tol).all_pass
    checks.append(_check(pre, "protected_frame_in_noise_commutant",
                         0.0 if alg_ok else 1.0, tol))
    return checks


def _hermitian_split(matrices):
    out = []
    for m in matrices:
        out.append((m + dagger(m)) / 2.0)
        out.append((m - dagger(m)) / 2.0j)
    return out


# ------------------------------------------------------------------ driver


_RUNNERS = {
    "bosonic": lambda cfg: run_bosonic(cfg.tolerance, cfg.seed, cfg.trials, cfg.cutoff),
    "repetition": lambda cfg: run_repetition(cfg.tolerance, cfg.seed, cfg.trials),
    "collective": lambda cfg: run_collective(cfg.tolerance, cfg.seed, cfg.trials),
    "algebra": lambda cfg: run_algebra(cfg.tolerance, cfg.seed, cfg.trials),
}


def run_suite(config):
    """Execute the chosen suite(s); returns the report document as a dict.

    Check objects carry exactly the fields name, max_deviation, pass.  The
    JSON view preserves execution order; the text renderer sorts by name.
    """
    names = SUITE_NAMES[:-1] if config.suite == "all" else (config.suite,)
    checks = []
    for name in names:
        checks.extend(_RUNNERS[name](config))
    doc = {
        "suite": config.suite,
        "config": {
            "tolerance": config.tolerance,
            "seed": config.seed,
            "trials": config.trials,
            "cutoff": config.cutoff,
        },
        "checks": [c.to_json_dict() for c in checks],
        "all_pass": all(c.passed for c in checks),
    }
    return doc


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


_DESCRIPTIONS = {
    "bosonic": (
        ("frame/*", "P = unit-excitation projector of the pair; Z = (n_k' - n_k) P; "
                    "X = (a_k^dag a_k' + a_k a_k'^dag) P; Y = -i Z X"),
        ("projector_number_identity", "P (n_k + n_k') = (n_k + n_k') P = P (n_k + n_k') P"),
        ("csign_*", "BS(1,3)^dag NS_1 NS_3 BS(1,3) = diag(1,1,1,-1) on the logical basis "
                    "at theta = pi/4"),
        ("post_splitter_*", "leakage of the coincident-photon state after the splitter "
                            "alone equals sin^2(2 theta); at theta = pi/4 the transfer out of "
                            "the logical space is complete, so the qubits exist only "
                            "stroboscopically across the gate"),
        ("logical_evolution_*", "exp(-i Z t) and exp(-i X t) preserve the code space"),
        ("photodetection_*", "destructive number readout of one mode, Born sampling"),
    ),
    "repetition": (
        ("frame/*", "Z_q = sum_a E_a Z_C E_a, X_q = sum_a E_a X_C E_a, Y = -i Z X; "
                    "support is the whole 8-dim space"),
        ("syndrome_*", "syndrome bits = anticommutation pattern with Z1 Z2 and Z2 Z3"),
        ("*recovery*", "R_a = E_a sum_i |v_a^i><v_a^i|; R_a E_a = 1 on the code, "
                       "R reset to the 00 syndrome"),
        ("error_basis_iso_*", "|v_a^i> -> |i> (x) |e_a>: errors act on the syndrome "
                              "factor only"),
        ("stabilizer_iso_*", "|abc> -> |a> (x) |a+b, b+c>: the first error flips this "
                             "qubit label, so it is not protected"),
        ("*invariance*", "frame expectations unchanged by errors and recovery words"),
    ),
    "collective": (
        ("joint_kernel_*", "no common null state of S_x, S_y, S_z for 3 spins; "
                           "1 for 2 spins, 2 for 4 spins"),
        ("casimir_*", "S^2 splits 8 dims into spin-3/2 (dim 4) and two spin-1/2 routes"),
        ("protected_basis_*", "two explicit route bases: singlet-triplet and the "
                              "cube-root-of-unity phases"),
        ("frame_*", "P = 1/2 - (s12 + s23 + s31)/6; X, Y, Z built from rotation scalars"),
        ("z_is_antisymmetric_triple_product", "Z = (sqrt3/6) sum eps_abc "
                                              "sigma_a^1 sigma_b^2 sigma_c^3"),
        ("noise_*", "commutant of {S_alpha} has dimension 5 = 1^2 + 2^2; blocks (1,4), (2,2)"),
        ("exchange_sector_*", "fixing s_z = +-1/2 gives two rank-2 qubits compatible with "
                              "exchange-only control but not collectively protected"),
    ),
    "algebra": (
        ("abstract_qubit_*", "P = 1, X, Y, Z = the Pauli matrices"),
        ("detects_broken_normalization", "halving Y breaks {A,B} = 2 delta_AB P"),
        ("*commutant*", "commutant = joint nullspace of M -> MG - GM over generators"),
        ("*isotypic*", "random central element splits the space into m x d blocks"),
        ("bicommutant_*", "double commutant equals the span of generator words"),
    ),
}


def describe(suite):
    """Human-readable map from check families to the formulas they verify."""
    if suite == "all":
        parts = [describe(name) for name in SUITE_NAMES[:-1]]
        return "\n".join(parts)
    if suite not in _DESCRIPTIONS:
        raise ValueError(f"unknown suite {suite!r}")
    lines = [f"[{suite}]"]
    for family, text in _DESCRIPTIONS[suite]:
        lines.append(f"  {family}: {text}")
    return "\n".join(lines) + "\n"
