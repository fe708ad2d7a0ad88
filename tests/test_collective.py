"""Three spins under collective noise: total-spin algebra, the protected
two-route subsystem, and the gauge factor it is paired with."""

from types import SimpleNamespace

import numpy as np
import pytest

from qubitbench import collective as col
from qubitbench import suites
from qubitbench.collective import (
    FLAVORS,
    _collective_unitaries,
    antisymmetric_product,
    collective_ops,
    exchange_12,
    exchange_sector_frames,
    joint_kernel_dimension,
    noiseless_frame,
    noiseless_invariance_suite,
    pauli_coefficients,
    protected_basis,
    scalars,
    support_projector,
    total_spin_ops,
)
from qubitbench.frames import OperatorAlgebra, commutant_basis, verify_frame
from qubitbench.linalg import (
    basis_state,
    commutator,
    dagger,
    evolve,
    identity,
    kron_all,
    max_abs,
    partial_trace,
    sigma_x,
    sigma_y,
    sigma_z,
)

from linalg_oracles import collective_scalar_frame_oracle, is_projector

I2 = identity(2)
PAULIS = (sigma_x, sigma_y, sigma_z)


def collective_oracle(n_spins, alpha):
    """Half the sum of single-site Paulis, built by explicit kron chains."""
    dim_ops = [I2] * n_spins
    total = np.zeros((2**n_spins, 2**n_spins), dtype=complex)
    for site in range(n_spins):
        ops = list(dim_ops)
        ops[site] = PAULIS[alpha]
        total = total + kron_all(*ops)
    return total / 2.0


@pytest.mark.parametrize("n_spins", [2, 3, 4])
def test_collective_ops_match_kron_oracle(n_spins):
    sx, sy, sz = collective_ops(n_spins)
    assert max_abs(sx - collective_oracle(n_spins, 0)) == 0.0
    assert max_abs(sy - collective_oracle(n_spins, 1)) == 0.0
    assert max_abs(sz - collective_oracle(n_spins, 2)) == 0.0


def test_total_spin_algebra_and_casimir():
    sx, sy, sz, s2 = total_spin_ops()
    assert max_abs(commutator(sx, sy) - 1j * sz) < 1e-13
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert max_abs(casimir - s2) < 1e-13
    eigs = np.sort(np.linalg.eigvalsh(s2))
    # spin 1/2 twice (4 states) and spin 3/2 once (4 states)
    assert max_abs(eigs - np.array([0.75] * 4 + [3.75] * 4)) < 1e-12


@pytest.mark.parametrize("n_spins,expected", [(2, 1), (3, 0), (4, 2)])
def test_joint_kernel_dimensions(n_spins, expected):
    dim, margin = joint_kernel_dimension(n_spins)
    assert dim == expected
    assert margin > 1e-4


def test_two_spin_kernel_is_the_pair_singlet():
    sx, sy, sz = collective_ops(2)
    singlet = (basis_state(4, 0b01) - basis_state(4, 0b10)) / np.sqrt(2)
    for s in (sx, sy, sz):
        assert max_abs(s @ singlet) < 1e-13


def test_no_invariant_state_report():
    report = dict(suites._collective_joint_kernel(SimpleNamespace()))
    assert max(report.values()) <= 1e-9
    names = set(report)
    for n in (2, 3, 4):
        assert f"joint_kernel_dim_{n}_spins" in names
        assert f"kernel_split_margin_{n}_spins" in names


def scalar_oracle(i, j):
    ops = [I2, I2, I2]
    total = np.zeros((8, 8), dtype=complex)
    for p in PAULIS:
        ops_ij = list(ops)
        ops_ij[i] = p
        ops_ij[j] = p
        total = total + kron_all(*ops_ij)
    return total


def test_scalars_and_protected_bases_are_shared_and_read_only():
    arrays = list(scalars()) + [protected_basis(f) for f in FLAVORS]
    assert all(a is b for a, b in zip(scalars(), scalars()))
    assert all(protected_basis(f) is protected_basis(f) for f in FLAVORS)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 2.0


def test_collective_ops_are_shared_and_read_only():
    for n_spins in (2, 3):
        ops = collective_ops(n_spins)
        assert all(a is b for a, b in zip(ops, collective_ops(n_spins)))
        for a in ops:
            with pytest.raises(ValueError):
                a[0, 0] = 2.0


def test_rotation_scalars_match_oracle():
    s12, s23, s31 = scalars()
    assert max_abs(s12 - scalar_oracle(0, 1)) == 0.0
    assert max_abs(s23 - scalar_oracle(1, 2)) == 0.0
    assert max_abs(s31 - scalar_oracle(2, 0)) == 0.0
    sx, sy, sz = collective_ops(3)
    for s in (s12, s23, s31):
        for g in (sx, sy, sz):
            assert max_abs(commutator(s, g)) < 1e-13


def test_antisymmetric_product_oracle():
    # sum over permutations with sign of sigma_a x sigma_b x sigma_c
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    total = np.zeros((8, 8), dtype=complex)
    for (a, b, c), sign in eps.items():
        total = total + sign * kron_all(PAULIS[a], PAULIS[b], PAULIS[c])
    assert max_abs(antisymmetric_product() - total) == 0.0


def test_support_projector_structure():
    p = support_projector()
    s12, s23, s31 = scalars()
    assert max_abs(p - (identity(8) / 2.0 - (s12 + s23 + s31) / 6.0)) == 0.0
    assert is_projector(p, tol=1e-12)
    assert np.trace(p).real == pytest.approx(4.0, abs=1e-12)


W3 = np.exp(2j * np.pi / 3)


def omega_vector_oracle(route, sz):
    # phase-cycled combinations of one flipped spin among three
    if sz > 0:
        kets = [basis_state(8, 0b001), basis_state(8, 0b010), basis_state(8, 0b100)]
    else:
        kets = [basis_state(8, 0b110), basis_state(8, 0b101), basis_state(8, 0b011)]
    w = W3**2 if route == 0 else W3
    return (kets[0] + w * kets[1] + w**2 * kets[2]) / np.sqrt(3.0)


def singlet_triplet_vector_oracle(route, sz):
    if route == 0:
        if sz > 0:
            return (basis_state(8, 0b010) - basis_state(8, 0b100)) / np.sqrt(2.0)
        return (basis_state(8, 0b101) - basis_state(8, 0b011)) / np.sqrt(2.0)
    if sz > 0:
        return (2 * basis_state(8, 0b001) - basis_state(8, 0b010)
                - basis_state(8, 0b100)) / np.sqrt(6.0)
    return (2 * basis_state(8, 0b110) - basis_state(8, 0b101)
            - basis_state(8, 0b011)) / np.sqrt(6.0)


def test_protected_basis_vectors_match_oracles():
    om = protected_basis("omega")
    st = protected_basis("singlet_triplet")
    for route in (0, 1):
        for sz in (0.5, -0.5):
            col = 2 * route + (sz < 0)  # route-major columns
            assert max_abs(om[:, col] - omega_vector_oracle(route, sz)) < 1e-15
            assert max_abs(st[:, col] - singlet_triplet_vector_oracle(route, sz)) < 1e-15
    with pytest.raises(ValueError):
        protected_basis("unknown")


@pytest.mark.parametrize("flavor", FLAVORS)
def test_protected_basis_spans_spin_half_sector(flavor):
    v = protected_basis(flavor)
    assert v.shape == (8, 4)
    assert max_abs(dagger(v) @ v - identity(4)) < 1e-12
    _, _, sz, s2 = total_spin_ops()
    assert max_abs(s2 @ v - 0.75 * v) < 1e-12
    sz_signs = np.diag([0.5, -0.5, 0.5, -0.5])
    assert max_abs(sz @ v - v @ sz_signs) < 1e-12
    p = support_projector()
    assert max_abs(p @ v - v) < 1e-12


@pytest.mark.parametrize("flavor", FLAVORS)
def test_noiseless_frame_axioms(flavor):
    report = verify_frame(noiseless_frame(flavor))
    assert max(report.values()) <= 1e-12


@pytest.mark.parametrize("flavor", FLAVORS)
def test_noiseless_frame_equals_scalar_oracle(flavor):
    frame = noiseless_frame(flavor)
    got = (frame.support, *frame.observables())
    for member, expected in zip(got, collective_scalar_frame_oracle(flavor)):
        assert max_abs(member - expected) < 1e-12
    with pytest.raises(ValueError):
        noiseless_frame("unknown")


def test_exchange_sector_frames_restrict_the_scalar_oracle():
    # P_s = P (1/2 +- S_z) keeps the s_z = +-1/2 half of the support
    p, *observables = collective_scalar_frame_oracle("omega")
    sz = collective_ops(3)[2]
    for sign, frame in zip((1.0, -1.0), exchange_sector_frames()):
        p_s = p @ (identity(8) / 2.0 + sign * sz)
        assert max_abs(frame.support - p_s) < 1e-12
        for member, expected in zip(frame.observables(), observables):
            assert max_abs(member - p_s @ expected @ p_s) < 1e-12


def test_omega_frame_action_on_basis():
    frame = noiseless_frame("omega")
    v = protected_basis("omega")
    for sector in (0, 1):  # s_z = +1/2, -1/2; routes 0 and 1
        v0, v1 = v[:, sector], v[:, 2 + sector]
        assert max_abs(frame.x @ v0 - v1) < 1e-12
        assert max_abs(frame.x @ v1 - v0) < 1e-12
    # Z is pinned by the antisymmetric triple product identity.
    assert max_abs(frame.z - (np.sqrt(3.0) / 6.0) * antisymmetric_product()) < 1e-12


def test_singlet_triplet_frame_action_on_basis():
    frame = noiseless_frame("singlet_triplet")
    v = protected_basis("singlet_triplet")
    for sector in (0, 1):  # s_z = +1/2, -1/2; routes 0 and 1
        v0, v1 = v[:, sector], v[:, 2 + sector]
        # route 0 holds the pair singlet: exchange eigenvalue -1, Z = +1
        assert max_abs(frame.z @ v0 - v0) < 1e-12
        assert max_abs(frame.z @ v1 + v1) < 1e-12
    assert max_abs(frame.z + exchange_12() @ support_projector()) < 1e-12


def test_swap_operator_eigenvalues():
    # (1 + s12)/2 is the pair swap: -1 on the antisymmetric pair, +1 on the
    # symmetric one, and an involution overall.
    e12 = exchange_12()
    singlet = (basis_state(8, 0b010) - basis_state(8, 0b100)) / np.sqrt(2)
    aligned = basis_state(8, 0)
    assert max_abs(e12 @ singlet + singlet) < 1e-13
    assert max_abs(e12 @ aligned - aligned) < 1e-13
    assert max_abs(e12 @ e12 - identity(8)) < 1e-13
    swapped = e12 @ basis_state(8, 0b100)
    assert max_abs(swapped - basis_state(8, 0b010)) < 1e-13


@pytest.mark.parametrize("flavor", FLAVORS)
def test_noise_acts_as_gauge_only(flavor):
    v = protected_basis(flavor)
    two = []
    for s_alpha in collective_ops(3):
        got = dagger(v) @ s_alpha @ v
        block = partial_trace(got, (2, 2), {1}) / 2.0
        assert max_abs(got - np.kron(identity(2), block)) < 1e-12
        two.append(2.0 * block)
    # doubled blocks close the Pauli algebra on the gauge factor
    assert max_abs(commutator(two[0], two[1]) - 2j * two[2]) < 1e-12
    for b in two:
        coeffs, residual = pauli_coefficients(b)
        assert residual < 1e-12
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)


def test_commutant_of_collective_noise():
    alg = OperatorAlgebra(collective_ops(3))
    basis = commutant_basis(alg)
    assert len(basis) == 5


def test_collective_unitaries_match_evolve():
    rng = np.random.default_rng(8)
    tiny = 1e-12 * np.array([0.6, -0.8, 0.0])
    thetas = np.vstack([rng.standard_normal((6, 3)), np.zeros((1, 3)), tiny])
    sx, sy, sz = collective_ops(3)
    unitaries = _collective_unitaries(thetas)
    assert unitaries.shape == (len(thetas), 8, 8)
    for theta, u in zip(thetas, unitaries):
        expected = evolve(theta[0] * sx + theta[1] * sy + theta[2] * sz, 1.0)
        assert max_abs(u - expected) < 1e-12, theta
    assert max_abs(unitaries[-2] - identity(8)) == 0.0


def invariance_family(trials, seed):
    """The checks of the collective invariance family, on the inputs
    run_collective builds."""
    sx, sy, sz, _ = total_spin_ops()
    s = SimpleNamespace(frames={flavor: noiseless_frame(flavor) for flavor in FLAVORS},
                        generators=(sx, sy, sz), trials=trials,
                        rng=np.random.default_rng(seed), structures=suites._Structures())
    return list(suites._collective_invariance(s))


def test_invariance_suite_runs_green():
    checks = invariance_family(10, seed=4)
    assert [name for name, _ in checks] == [
        f"{check}_{flavor}" for flavor in FLAVORS
        for check in ("frame_commutes_with_noise", "noise_block_structure",
                      "gauge_action_unit_pauli", "collective_unitary_expectation_invariance")]
    assert all(dev <= 1e-9 for _, dev in checks), checks
    assert checks == invariance_family(10, seed=4)
    frames = {flavor: noiseless_frame(flavor) for flavor in FLAVORS}
    assert list(noiseless_invariance_suite(frames, 10, seed=4)) == [
        f"collective_unitary_expectation_invariance_{flavor}" for flavor in FLAVORS]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_protected_qubit_purity(flavor, monkeypatch):
    # the family's deviation is the largest of |qubit purity - 1| and
    # |gauge purity - tr(rho_g^2)| over its gauge states
    monkeypatch.setattr(col, "FLAVORS", (flavor,))
    [(name, dev)] = suites._collective_purity(SimpleNamespace(rng=np.random.default_rng(21)))
    assert name == "protected_qubit_stays_pure"
    assert dev <= 1e-12


def test_exchange_sector_frames_are_partial():
    sx, _, sz = collective_ops(3)
    frames = exchange_sector_frames()
    assert len(frames) == 2
    for frame in frames:
        assert max(verify_frame(frame).values()) <= 1e-12
        assert np.trace(frame.support).real == pytest.approx(2.0, abs=1e-12)
        for o in frame.observables():
            assert max_abs(commutator(o, sz)) < 1e-12
        # but they are not invariant under the full collective algebra
        assert max(max_abs(commutator(o, sx)) for o in frame.observables()) > 0.1


def test_flavor_change_is_qubit_factor_rotation():
    v_st = protected_basis("singlet_triplet")
    v_om = protected_basis("omega")
    m = dagger(v_om) @ v_st
    w = partial_trace(m, (2, 2), {0}) / 2.0
    assert max_abs(m - np.kron(w, identity(2))) < 1e-12
    assert max_abs(dagger(w) @ w - identity(2)) < 1e-12
    expected = np.array([[0.70710678j, 0.70710678], [-0.70710678j, 0.70710678]])
    assert max_abs(w - expected) < 1e-6
    # the change of basis maps one flavor's vectors onto the other's
    assert max_abs(v_om @ np.kron(w, identity(2)) - v_st) < 1e-12
