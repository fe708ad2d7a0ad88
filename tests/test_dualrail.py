"""Truncated Fock space, mode pairs, and the two-qubit sign gate.

Oracles here are built from scratch with np.kron chains so the module's
operator constructions are checked against an independent path.
"""

import numpy as np
import pytest

from qubitbench.dualrail import (
    FockConfig,
    annihilation,
    beam_splitter,
    born_distribution,
    creation,
    csign,
    dual_rail_frame,
    dual_rail_projector,
    fock_state,
    index_of_occupations,
    leakage,
    logical_pairs,
    ns_gate,
    number,
    occupation_table,
    phase_shifter,
    photodetect,
    prepare_logical,
)
from qubitbench.frames import verify_frame
from qubitbench.linalg import (
    child_seed,
    commutator,
    dagger,
    evolve,
    max_abs,
)

from linalg_oracles import dual_rail_frame_ladder_oracle, is_unitary, occupations_of_index


def lowering_oracle(cutoff):
    d = cutoff + 1
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    return a


def mode_op_oracle(config, k, op):
    """Embed a single-mode operator at 1-based mode k by kron chain."""
    d = config.cutoff + 1
    out = np.eye(1, dtype=complex)
    for mode in range(1, config.num_modes + 1):
        out = np.kron(out, op if mode == k else np.eye(d, dtype=complex))
    return out


def dense_beam_splitter_oracle(config, k, l, theta, phi):
    """The full-register path: the generator built on every mode, then evolve."""
    lower = lowering_oracle(config.cutoff)
    a_k = mode_op_oracle(config, k, lower)
    a_l = mode_op_oracle(config, l, lower)
    hop = np.exp(1j * phi) * (dagger(a_k) @ a_l)
    return evolve(1j * (hop - dagger(hop)), theta)


def dense_csign_oracle(config, k1, k2, theta, phi):
    """BS^dag NS_k1 NS_k2 BS with every factor dense on the register."""
    u_bs = dense_beam_splitter_oracle(config, k1, k2, theta, phi)
    ns = np.diag(np.where(np.arange(config.mode_dim) >= 2, -1.0, 1.0))
    signs = np.diag(mode_op_oracle(config, k1, ns) @ mode_op_oracle(config, k2, ns))
    return (dagger(u_bs) * signs) @ u_bs


def test_config_validation():
    with pytest.raises(ValueError):
        FockConfig(num_modes=3, cutoff=2)
    with pytest.raises(ValueError):
        FockConfig(num_modes=0, cutoff=2)
    with pytest.raises(ValueError):
        FockConfig(num_modes=2, cutoff=0)
    config = FockConfig(num_modes=4, cutoff=3)
    assert config.mode_dim == 4
    assert config.dim == 256
    assert config.num_qubits == 2
    with pytest.raises(ValueError):
        config.check_mode(0)
    with pytest.raises(ValueError):
        config.check_mode(5)


@pytest.mark.parametrize("num_modes,cutoff", [(2, 2), (2, 3), (4, 2)])
def test_index_occupation_roundtrip(num_modes, cutoff):
    config = FockConfig(num_modes, cutoff)
    for index in range(config.dim):
        occs = occupations_of_index(config, index)
        assert len(occs) == num_modes
        assert all(0 <= n <= cutoff for n in occs)
        assert index_of_occupations(config, occs) == index


def test_mode_one_is_most_significant():
    config = FockConfig(2, 2)
    assert index_of_occupations(config, (1, 0)) == config.mode_dim
    assert index_of_occupations(config, (0, 1)) == 1
    table = occupation_table(config)
    assert table.shape == (config.dim, 2)
    for index in range(config.dim):
        assert tuple(table[index]) == occupations_of_index(config, index)


def test_fock_state_and_string():
    config = FockConfig(2, 2)
    psi = fock_state(config, (2, 1))
    assert psi[index_of_occupations(config, (2, 1))] == 1.0
    assert np.count_nonzero(psi) == 1


@pytest.mark.parametrize("num_modes,cutoff,k", [(2, 2, 1), (2, 3, 2), (4, 2, 3)])
def test_ladder_operators_match_kron_oracle(num_modes, cutoff, k):
    config = FockConfig(num_modes, cutoff)
    a_oracle = mode_op_oracle(config, k, lowering_oracle(cutoff))
    assert max_abs(annihilation(config, k) - a_oracle) == 0.0
    assert max_abs(creation(config, k) - dagger(a_oracle)) == 0.0
    n_oracle = dagger(a_oracle) @ a_oracle
    assert max_abs(np.diag(number(config, k)) - n_oracle) < 1e-13


def test_ladder_operators_on_distinct_modes_commute():
    config = FockConfig(4, 2)
    for k in (1, 2, 3):
        for j in range(k + 1, 5):
            comm = commutator(annihilation(config, k), annihilation(config, j))
            assert max_abs(comm) == 0.0
            mixed = commutator(annihilation(config, k), creation(config, j))
            assert max_abs(mixed) == 0.0


def test_ladder_commutator_below_truncation():
    # [a, a^dag] = 1 except on the top occupation level, which truncation clips.
    config = FockConfig(2, 3)
    a = annihilation(config, 1)
    comm = a @ dagger(a) - dagger(a) @ a
    table = occupation_table(config)
    expected = np.diag(np.where(table[:, 0] == config.cutoff,
                                -float(config.cutoff), 1.0)).astype(complex)
    assert max_abs(comm - expected) < 1e-13


def test_projector_is_unit_excitation_indicator():
    config = FockConfig(4, 2)
    p = np.diag(dual_rail_projector(config, 1, 3))
    table = occupation_table(config)
    expected = np.diag((table[:, 0] + table[:, 2] == 1).astype(complex))
    assert max_abs(p - expected) == 0.0
    with pytest.raises(ValueError):
        dual_rail_projector(config, 2, 2)


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_frame_axioms_hold_at_all_cutoffs(cutoff):
    config = FockConfig(2, cutoff)
    report = verify_frame(dual_rail_frame(config, 1, 2))
    assert max(report.values()) <= 1e-12


@pytest.mark.parametrize("config", [FockConfig(4, 2), FockConfig(4, 3), FockConfig(6, 2)],
                         ids=lambda c: f"{c.num_modes}modes-cutoff{c.cutoff}")
@pytest.mark.parametrize("pair", [(1, 2), (3, 4), (1, 3), (2, 1), (4, 2)], ids=str)
def test_frame_matches_ladder_oracle(config, pair):
    # the register modes outside the pair make the gauge factor, m > 1
    frame = dual_rail_frame(config, *pair)
    got = (frame.support,) + frame.observables()
    want = dual_rail_frame_ladder_oracle(config, *pair)
    assert max_abs(*(g - w for g, w in zip(got, want))) == 0.0


def test_frame_action_on_logical_states():
    config = FockConfig(2, 2)
    frame = dual_rail_frame(config, 1, 2)
    zero = prepare_logical(config, (0,))   # one boson in the second mode
    one = prepare_logical(config, (1,))    # one boson in the first mode
    assert max_abs(zero - fock_state(config, (0, 1))) == 0.0
    assert max_abs(one - fock_state(config, (1, 0))) == 0.0
    assert max_abs(frame.z @ zero - zero) < 1e-13
    assert max_abs(frame.z @ one + one) < 1e-13
    assert max_abs(frame.x @ zero - one) < 1e-13
    assert max_abs(frame.x @ one - zero) < 1e-13


def test_phase_shifter_diagonal_phases():
    config = FockConfig(2, 2)
    phi = 0.37
    u = phase_shifter(config, 1, phi)
    table = occupation_table(config)
    expected = np.exp(-1j * phi * table[:, 0])
    assert u.shape == expected.shape and max_abs(u - expected) < 1e-12


def test_beam_splitter_single_photon_block():
    config = FockConfig(2, 2)
    rng = np.random.default_rng(5)
    for _ in range(5):
        theta = float(rng.uniform(0, np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        u = beam_splitter(config, 1, 2, theta, phi)
        assert is_unitary(u, tol=1e-12)
        ten = fock_state(config, (1, 0))
        one = fock_state(config, (0, 1))
        block = np.array([
            [np.vdot(ten, u @ ten), np.vdot(ten, u @ one)],
            [np.vdot(one, u @ ten), np.vdot(one, u @ one)],
        ])
        expected = np.array([
            [np.cos(theta), np.exp(1j * phi) * np.sin(theta)],
            [-np.exp(-1j * phi) * np.sin(theta), np.cos(theta)],
        ])
        assert max_abs(block - expected) < 1e-12


def test_beam_splitter_conserves_total_occupation():
    config = FockConfig(2, 3)
    n_total = np.diag(number(config, 1) + number(config, 2))
    u = beam_splitter(config, 1, 2, 0.62, 1.1)
    assert max_abs(u @ n_total - n_total @ u) < 1e-12


def test_coincident_photons_bunch_as_sine_curve():
    # Two photons entering opposite ports leave the coincidence subspace
    # with probability sin^2(2 theta).
    config = FockConfig(2, 2)
    coincident = fock_state(config, (1, 1))
    for theta in np.linspace(0.0, np.pi / 2, 13):
        out = beam_splitter(config, 1, 2, float(theta)) @ coincident
        stay = abs(np.vdot(coincident, out)) ** 2
        assert abs(stay - np.cos(2 * theta) ** 2) < 1e-12


def ordered_pairs(num_modes):
    return [(k, l) for k in range(1, num_modes + 1)
            for l in range(1, num_modes + 1) if k != l]


# At 6 modes and cutoff 2 each dense oracle is a 729 x 729 eigendecomposition,
# so four pairs stand for the rest: both ends, reversed, adjacent and apart.
@pytest.mark.parametrize("num_modes,cutoff,pairs", [
    (4, 1, ordered_pairs(4)),
    (4, 2, ordered_pairs(4)),
    (4, 3, ordered_pairs(4)),
    (6, 1, ordered_pairs(6)),
    (6, 2, [(1, 6), (6, 1), (2, 5), (4, 3)]),
], ids=["4-modes-cutoff1", "4-modes-cutoff2", "4-modes-cutoff3",
        "6-modes-cutoff1", "6-modes-cutoff2"])
def test_beam_splitter_matches_dense_register_oracle(num_modes, cutoff, pairs):
    config = FockConfig(num_modes, cutoff)
    rng = np.random.default_rng(100 * num_modes + cutoff)
    for k, l in pairs:
        theta = float(rng.uniform(0, np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        u = beam_splitter(config, k, l, theta, phi)
        assert max_abs(u - dense_beam_splitter_oracle(config, k, l, theta, phi)) < 1e-12, (k, l)


@pytest.mark.parametrize("num_modes,k1,k2", [
    (4, 3, 1),
    (6, 1, 5),
])
def test_csign_matches_dense_register_oracle(num_modes, k1, k2):
    config = FockConfig(num_modes, 2)
    rng = np.random.default_rng(num_modes)
    theta = float(rng.uniform(0, np.pi))
    phi = float(rng.uniform(0, 2 * np.pi))
    u = csign(config, k1, k2, theta, phi)
    oracle = dense_csign_oracle(config, k1, k2, theta, phi)
    assert max_abs(u - oracle) < 1e-12


def test_two_mode_gates_reject_one_mode():
    config = FockConfig(4, 2)
    with pytest.raises(ValueError):
        beam_splitter(config, 2, 2, 0.3)
    with pytest.raises(ValueError):
        csign(config, 1, 1)
    with pytest.raises(ValueError):
        csign(config, 1, 5)


def test_ns_gate_signs_and_cutoff_guard():
    config = FockConfig(2, 3)
    ns = np.diag(ns_gate(config, 2))
    table = occupation_table(config)
    expected = np.diag(np.where(table[:, 1] >= 2, -1.0, 1.0)).astype(complex)
    assert max_abs(ns - expected) == 0.0
    with pytest.raises(ValueError):
        ns_gate(FockConfig(2, 1), 1)


def logical_basis(config):
    return [prepare_logical(config, bits)
            for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]


def test_csign_logical_action_at_quarter_pi():
    config = FockConfig(4, 2)
    u = csign(config)
    states = logical_basis(config)
    m = np.array([[np.vdot(a, u @ b) for b in states] for a in states])
    phase = m[0, 0] / abs(m[0, 0])
    assert max_abs(m / phase - np.diag([1.0, 1.0, 1.0, -1.0])) < 1e-12
    assert is_unitary(u, tol=1e-12)


def test_csign_coincidence_element_follows_cos_4theta():
    config = FockConfig(4, 2)
    both = prepare_logical(config, (1, 1))
    for theta in (0.1, 0.3, np.pi / 8, np.pi / 4):
        u = csign(config, theta=theta)
        amp = np.vdot(both, u @ both)
        assert abs(amp - np.cos(4 * theta)) < 1e-12


def test_csign_cutoff_independence():
    m_by_cutoff = []
    for cutoff in (2, 3):
        config = FockConfig(4, cutoff)
        u = csign(config)
        states = logical_basis(config)
        m_by_cutoff.append(np.array([[np.vdot(a, u @ b) for b in states]
                                     for a in states]))
    assert max_abs(m_by_cutoff[0] - m_by_cutoff[1]) < 1e-12


def test_leakage_of_prepared_and_rotated_states():
    config = FockConfig(4, 2)
    pairs = logical_pairs(config)
    assert pairs == ((1, 2), (3, 4))
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert leakage(prepare_logical(config, bits), config, pairs) < 1e-12
    # A state with two photons in one rail sits fully outside.
    assert leakage(fock_state(config, (2, 0, 0, 1)), config, pairs) == pytest.approx(1.0)
    # So does an empty first pair next to a doubly filled second pair.
    assert leakage(fock_state(config, (0, 0, 1, 1)), config, pairs) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        leakage(prepare_logical(config, (0, 0)), config, [(1, 2), (2, 3)])


def random_register_states(config, batch, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((*batch, config.dim)) + 1j * rng.standard_normal((*batch, config.dim))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@pytest.mark.parametrize("pair", [(1, 1), (2, 2), (1, 3), (0, 2)], ids=lambda p: f"{p[0]}-{p[1]}")
def test_leakage_rejects_every_pair_the_projector_rejects(pair):
    # a pair of one mode twice has no unit-excitation sector to weigh
    config = FockConfig(2, 2)
    with pytest.raises(ValueError):
        dual_rail_projector(config, *pair)
    with pytest.raises(ValueError):
        leakage(fock_state(config, (0, 1)), config, [pair])


@pytest.mark.parametrize("num_modes, batch", [(2, (256,)), (4, (7,)), (4, (3, 5)), (2, (0,))])
def test_stacked_leakage_equals_per_row_calls(num_modes, batch):
    config = FockConfig(num_modes, 2)
    pairs = logical_pairs(config)
    states = random_register_states(config, batch, num_modes)
    # half of each stack inside the code space, where leakage is ~0
    rows = states.reshape(-1, config.dim)
    rows[::2] = prepare_logical(config, (1,) * config.num_qubits)
    got = leakage(states, config, pairs)
    assert got.shape == batch
    per_row = np.array([leakage(row, config, pairs) for row in rows]).reshape(batch)
    assert got.tobytes() == per_row.tobytes()
    assert all(type(leakage(row, config, pairs)) is float for row in rows)


def test_stacked_leakage_rejects_one_off_norm_row():
    config = FockConfig(2, 2)
    states = random_register_states(config, (256,), 3)
    leakage(states, config, [(1, 2)])
    states[137] *= np.sqrt(1.0 + 1e-6)
    with pytest.raises(ValueError, match=r"unit-norm.*in row 137$"):
        leakage(states, config, [(1, 2)])


def test_midgate_leakage_peaks_at_quarter_pi():
    config = FockConfig(4, 2)
    pairs = logical_pairs(config)
    both = prepare_logical(config, (1, 1))
    for theta in (np.pi / 8, np.pi / 6, np.pi / 4):
        mid = beam_splitter(config, 1, 3, float(theta)) @ both
        assert abs(leakage(mid, config, pairs) - np.sin(2 * theta) ** 2) < 1e-12


def test_born_distribution_and_photodetect():
    config = FockConfig(2, 2)
    plus = (fock_state(config, (0, 1)) + fock_state(config, (1, 0))) / np.sqrt(2)
    dist = born_distribution(plus, config, 1)
    assert dist.shape == (config.mode_dim,)
    assert abs(dist[0] - 0.5) < 1e-12 and abs(dist[1] - 0.5) < 1e-12

    counts = np.zeros(config.mode_dim)
    draws = 400
    for i in range(draws):
        outcome, post, prob = photodetect(plus, config, 1, child_seed(7, str(i)))
        counts[outcome] += 1
        assert abs(prob - dist[outcome]) < 1e-12
        assert abs(np.linalg.norm(post) - 1.0) < 1e-12
        # Post-measurement state has a sharp occupation in the measured mode.
        occ = occupation_table(config)[:, 0]
        weight = sum(abs(post[j]) ** 2 for j in range(config.dim)
                     if occ[j] != outcome)
        assert weight < 1e-12
    freq = counts / draws
    # 400 fair draws: allow 4 sigma around 1/2.
    assert abs(freq[0] - 0.5) < 4 * 0.5 / np.sqrt(draws)


def test_photodetect_certain_outcome():
    config = FockConfig(2, 2)
    state = fock_state(config, (0, 1))
    for seed in (0, 1, 99):
        outcome, post, prob = photodetect(state, config, 1, seed)
        assert outcome == 0
        assert prob == pytest.approx(1.0)
        assert max_abs(post - state) < 1e-14


@pytest.mark.parametrize("measure", [
    lambda state, config: leakage(state, config, logical_pairs(config)),
    lambda state, config: photodetect(state, config, 1, 0),
    lambda state, config: born_distribution(state, config, 1),
], ids=["leakage", "photodetect", "born_distribution"])
def test_unnormalized_state_raises(measure):
    config = FockConfig(2, 2)
    plus = (fock_state(config, (0, 1)) + fock_state(config, (1, 0))) / np.sqrt(2)
    measure(plus, config)
    with pytest.raises(ValueError, match="unit-norm"):
        measure(1.1 * plus, config)


def test_photodetect_is_reproducible_per_seed():
    config = FockConfig(2, 2)
    plus = (fock_state(config, (0, 1)) + fock_state(config, (1, 0))) / np.sqrt(2)
    a = photodetect(plus, config, 1, 31)
    b = photodetect(plus, config, 1, 31)
    assert a[0] == b[0]
    assert max_abs(a[1] - b[1]) == 0.0
    assert a[2] == b[2]
