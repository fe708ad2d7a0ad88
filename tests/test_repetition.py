"""Three-bit flip code: errors, syndromes, recovery, and the two subsystem
pictures (error basis vs stabilizer labels)."""

from types import SimpleNamespace

import numpy as np
import pytest

from qubitbench import suites
from qubitbench.frames import OperatorAlgebra, algebra_structure, expectation
from qubitbench.linalg import (
    KrausChannel,
    basis_state,
    dagger,
    density,
    identity,
    kron,
    kron_all,
    max_abs,
    sigma_x,
    sigma_z,
)
from qubitbench.repetition import (
    DIM,
    SYNDROME_TABLE,
    code_isometry,
    code_vector,
    encode,
    error_operator,
    error_recovery_words,
    frame_from_errors,
    invariance_suite,
    logical_one,
    logical_zero,
    recovery_channel,
    stabilizer_generators,
    subsystem_iso_Qprime,
    syndrome_from_commutation,
    syndrome_of,
)

I2 = identity(2)


def flip_oracle(a):
    """Independent construction: X on site a (1-based), identity for a=0."""
    ops = [I2, I2, I2]
    if a > 0:
        ops[a - 1] = sigma_x
    return kron_all(*ops)


def test_error_operators_match_kron_oracle():
    for a in range(4):
        assert max_abs(error_operator(a) - flip_oracle(a)) == 0.0
    with pytest.raises(ValueError):
        error_operator(4)
    with pytest.raises(ValueError):
        error_operator(-1)


def test_error_operators_are_shared_and_read_only():
    for a in range(4):
        e = error_operator(a)
        assert e is error_operator(a)
        with pytest.raises(ValueError):
            e[0, 0] = 2.0
    assert max_abs(error_operator(0) - identity(DIM)) == 0.0


def test_stabilizer_generators_match_kron_oracle():
    m1, m2 = stabilizer_generators()
    assert max_abs(m1 - kron_all(sigma_z, sigma_z, I2)) == 0.0
    assert max_abs(m2 - kron_all(I2, sigma_z, sigma_z)) == 0.0


def test_syndrome_table_values():
    assert SYNDROME_TABLE == ("00", "10", "11", "01")
    for a in range(4):
        assert syndrome_of(a) == SYNDROME_TABLE[a]
        assert syndrome_from_commutation(a) == SYNDROME_TABLE[a]


def test_logical_states_and_encoding():
    assert max_abs(logical_zero() - basis_state(DIM, 0)) == 0.0
    assert max_abs(logical_one() - basis_state(DIM, 7)) == 0.0
    psi = encode(np.sqrt(0.3), np.sqrt(0.7))
    expected = np.sqrt(0.3) * basis_state(DIM, 0) + np.sqrt(0.7) * basis_state(DIM, 7)
    assert max_abs(psi - expected) < 1e-15
    with pytest.raises(ValueError):
        encode(1.0, 1.0)


def test_code_vectors_are_flipped_basis_states():
    # v_a^i = E_a |i_L>, i.e. the bitstring of i_L with bit a flipped.
    strings = {(0, 0): 0b000, (1, 0): 0b100, (2, 0): 0b010, (3, 0): 0b001,
               (0, 1): 0b111, (1, 1): 0b011, (2, 1): 0b101, (3, 1): 0b110}
    for (a, i), idx in strings.items():
        assert max_abs(code_vector(a, i) - basis_state(DIM, idx)) == 0.0


def recovery_oracle(a):
    proj = density(code_vector(a, 0)) + density(code_vector(a, 1))
    return flip_oracle(a) @ proj


def test_recovery_channel_matches_oracle():
    channel = recovery_channel()
    assert len(channel.ops) == 4
    for a in range(4):
        assert max_abs(channel.ops[a] - recovery_oracle(a)) < 1e-15
    assert channel.trace_preservation_defect() < 1e-12


def test_recovery_corrects_single_flips():
    rng = np.random.default_rng(2)
    channel = recovery_channel()
    for _ in range(20):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / np.linalg.norm(c)
        psi = encode(c[0], c[1])
        for a in range(4):
            corrupted = error_operator(a) @ psi
            fixed = channel.apply(density(corrupted))
            assert max_abs(fixed - density(psi)) < 1e-12


def test_error_basis_iso_columns():
    iso = dagger(code_isometry())
    outer_products = sum(np.outer(basis_state(DIM, 4 * i + a), code_vector(a, i).conj())
                         for i in (0, 1) for a in range(4))
    assert max_abs(iso - outer_products) == 0.0
    assert max_abs(dagger(iso) @ iso - identity(DIM)) < 1e-15
    for a in range(4):
        for i in (0, 1):
            image = iso @ code_vector(a, i)
            expected = kron(basis_state(2, i), basis_state(4, a))
            assert max_abs(image - expected) == 0.0


def test_noise_recovery_words_factor_exactly():
    # Bare double flips cross between logical sectors (the code corrects one
    # flip only), but every error-then-recovery word acts as identity on the
    # qubit factor times a syndrome shift: E_b R_a = 1 (x) |e_b><e_a|.
    iso = dagger(code_isometry())
    words = error_recovery_words()
    for (b, a), w in words.items():
        got = iso @ w @ dagger(iso)
        want = kron(identity(2),
                    np.outer(basis_state(4, b), basis_state(4, a).conj()))
        assert max_abs(got - want) < 1e-14


def test_single_error_on_code_stays_factored():
    # One error applied to a code state moves only the syndrome label.
    iso = dagger(code_isometry())
    for b in range(4):
        e_iso = iso @ error_operator(b) @ dagger(iso)
        for i in (0, 1):
            vec = e_iso @ kron(basis_state(2, i), basis_state(4, 0))
            expected = kron(basis_state(2, i), basis_state(4, b))
            assert max_abs(vec - expected) < 1e-14


def test_recovery_in_error_basis_resets_syndrome():
    iso = dagger(code_isometry())
    channel = recovery_channel()
    for a in range(4):
        got = iso @ channel.ops[a] @ dagger(iso)
        want = kron(identity(2),
                    np.outer(basis_state(4, 0), basis_state(4, a).conj()))
        assert max_abs(got - want) < 1e-14


def stabilizer_label_oracle(bits):
    a, b, c = bits
    return a, (a ^ b, b ^ c)


def test_stabilizer_iso_relabels_all_basis_states():
    iso = subsystem_iso_Qprime()
    for idx in range(DIM):
        bits = ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        l, (m1, m2) = stabilizer_label_oracle(bits)
        image = iso @ basis_state(DIM, idx)
        expected = kron(basis_state(2, l), basis_state(4, 2 * m1 + m2))
        assert max_abs(image - expected) == 0.0


def test_first_flip_in_stabilizer_picture():
    # E_1 flips the label qubit exactly and moves the syndrome to 10.
    iso = subsystem_iso_Qprime()
    got = iso @ error_operator(1) @ dagger(iso)
    expected = kron(sigma_x, np.zeros((4, 4), dtype=complex))
    # build the syndrome part: m1 flips, m2 fixed
    m_flip = kron(sigma_x, identity(2))
    expected = kron(sigma_x, m_flip)
    assert max_abs(got - expected) == 0.0


def test_frame_observables_match_error_sandwich_oracle():
    frame = frame_from_errors()
    z_c = density(logical_zero()) - density(logical_one())
    x_c = np.outer(logical_zero(), logical_one().conj())
    x_c = x_c + dagger(x_c)
    z_oracle = sum(error_operator(a) @ z_c @ error_operator(a) for a in range(4))
    x_oracle = sum(error_operator(a) @ x_c @ error_operator(a) for a in range(4))
    assert max_abs(frame.z - z_oracle) == 0.0
    assert max_abs(frame.x - x_oracle) == 0.0
    assert max_abs(frame.y - (frame.z @ frame.x) * -1j) < 1e-15
    assert max_abs(frame.support - identity(DIM)) == 0.0


def test_frame_expectation_after_second_flip():
    psi = error_operator(2) @ encode(np.sqrt(0.3), np.sqrt(0.7))
    frame = frame_from_errors()
    assert expectation(frame.z, psi) == pytest.approx(-0.4, abs=1e-12)


def test_protected_expectations_survive_any_word():
    rng = np.random.default_rng(8)
    frame = frame_from_errors()
    words = error_recovery_words()
    assert set(words.keys()) == {(b, a) for b in range(4) for a in range(4)}
    for _ in range(10):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / np.linalg.norm(c)
        psi = encode(c[0], c[1])
        base = [expectation(o, psi) for o in frame.observables()]
        for a in range(4):
            corrupted = error_operator(a) @ psi
            for b in range(4):
                out = words[(b, a)] @ corrupted
                assert abs(np.linalg.norm(out) - 1.0) < 1e-12
                for o, ref in zip(frame.observables(), base):
                    assert abs(expectation(o, out) - ref) < 1e-12


def test_channel_frame_and_words_are_shared_and_read_only():
    channel, frame, words = recovery_channel(), frame_from_errors(), error_recovery_words()
    v = code_isometry()
    assert channel is recovery_channel()
    assert frame is frame_from_errors()
    assert words is error_recovery_words()
    assert v is code_isometry()
    for a in (*channel.ops, frame.support, *frame.observables(), *words.values(), v):
        with pytest.raises(ValueError):
            a[0, 0] = 2.0
    with pytest.raises(TypeError):
        words[(0, 0)] = identity(DIM)


def test_word_algebra_has_two_by_four_block():
    alg = OperatorAlgebra(tuple(error_recovery_words().values()))
    assert (2, 4) in algebra_structure(alg).blocks


RANDOMIZED = ("single_error_expectation_invariance",
              "recovered_word_expectation_invariance",
              "error_then_recovery_channel_invariance")


def invariance_family(trials, seed):
    """The checks of the repetition invariance family, on the inputs
    run_repetition builds."""
    s = SimpleNamespace(frame=frame_from_errors(), channel=recovery_channel(), trials=trials,
                        rng=np.random.default_rng(seed), structures=suites._Structures())
    return list(suites._repetition_invariance(s))


def test_invariance_suite_report_shape():
    checks = invariance_family(5, seed=1)
    assert [name for name, _ in checks] == [*RANDOMIZED, "frame_commutes_with_error_recovery_words"]
    assert all(dev <= 1e-9 for _, dev in checks), checks
    randomized = invariance_suite(frame_from_errors(), recovery_channel(), 5, seed=1)
    assert list(randomized) == list(RANDOMIZED)


def test_invariance_suite_zero_trials_is_static():
    [(name, dev)] = invariance_family(0, seed=1)
    assert name == "frame_commutes_with_error_recovery_words"
    assert dev <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_invariance_suite_builds_no_trial_tables_without_trials(seed, monkeypatch):
    # the cycle letters are one KrausChannel.apply on a stack, built only
    # when some trial will read them
    shapes = []
    apply = KrausChannel.apply

    def counted(channel, rho):
        shapes.append(np.shape(rho))
        return apply(channel, rho)

    monkeypatch.setattr(KrausChannel, "apply", counted)
    frame, channel = frame_from_errors(), recovery_channel()
    invariance_suite(frame, channel, 0, seed)
    assert shapes == []
    invariance_suite(frame, channel, 300, seed)
    assert shapes == [(4 * DIM ** 2, DIM, DIM)]


def test_invariance_suite_deterministic_per_seed():
    frame, channel = frame_from_errors(), recovery_channel()
    a = list(invariance_suite(frame, channel, 4, seed=9).items())
    b = list(invariance_suite(frame, channel, 4, seed=9).items())
    assert a == b
