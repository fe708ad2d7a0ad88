"""The stacked randomized invariance checks against per-trial oracles.

Both invariance suites evaluate their trials as numpy stacks.  The oracles
below run the same draws one 8-dim state at a time, with scalar products
only.  Many deviations are exactly 0.0 for the protected frames, so the
stacked and scalar paths are also compared on unprotected frames, where a
stacked expression that compared a state with itself would read 0.  The
sampled repetition check errors_leave_qubit_factor_untouched, also run as
stacks, is compared with the per-sample partial_trace loop it replaced, and
a block of Haar states with as many single draws.  The sampled bosonic
check evolves and measures whole stacks, one leakage call per stack and
generator.
"""

import functools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qubitbench import collective as col
from qubitbench import dualrail as dr
from qubitbench import repetition as rep
from qubitbench import suites
from qubitbench.suites import SuiteConfig, run_suite
from qubitbench.frames import EncodedQubitFrame
from qubitbench.linalg import (
    TRIAL_CHUNK,
    KrausChannel,
    child_seed,
    density,
    embed,
    evolve,
    identity,
    partial_trace,
    random_haar_state,
    sigma_x,
    sigma_y,
    sigma_z,
)

from linalg_oracles import miscorrecting_channel, random_hermitian, random_kraus_channel

TRIALS = (1, 7, TRIAL_CHUNK + 3)
SEEDS = (0, 1, 3)

REPETITION_RANDOMIZED = (
    "single_error_expectation_invariance",
    "recovered_word_expectation_invariance",
    "error_then_recovery_channel_invariance",
)


def _expectation_defect(dev, state, obs, ref):
    return max(dev, *(abs(np.vdot(state, o @ state).real - r) for o, r in zip(obs, ref)))


def repetition_oracle(trials, seed, frame, channel):
    """Per-trial deviations of the three randomized repetition checks.

    Draws per stack of at most TRIAL_CHUNK trials, in the suite's order:
    amplitudes (n, 4), lengths (n, 2), letters (n, 2, 3).
    """
    rng = np.random.default_rng(seed)
    obs = frame.observables()
    errors = [rep.error_operator(a) for a in range(4)]
    single = word = cycle = 0.0
    for start in range(0, trials, TRIAL_CHUNK):
        n = min(TRIAL_CHUNK, trials - start)
        amps = rng.standard_normal((n, 4))
        lengths = rng.integers(1, 4, size=(n, 2))
        letters = rng.integers(0, 4, size=(n, 2, 3))
        for i in range(n):
            c = amps[i, :2] + 1j * amps[i, 2:]
            c = c / np.linalg.norm(c)
            psi = rep.encode(c[0], c[1])
            ref = [np.vdot(psi, o @ psi).real for o in obs]
            for e in errors:
                single = _expectation_defect(single, e @ psi, obs, ref)
            phi = psi
            for b in letters[i, 0, : lengths[i, 0]]:
                phi = channel.ops[b] @ (errors[b] @ phi)
                word = _expectation_defect(word, phi, obs, ref)
            rho = np.outer(psi, psi.conj())
            for b in letters[i, 1, : lengths[i, 1]]:
                rho = channel.apply(errors[b] @ rho @ errors[b])
                cycle = max(cycle, *(abs(np.trace(rho @ o).real - r) for o, r in zip(obs, ref)))
    return dict(zip(REPETITION_RANDOMIZED, (single, word, cycle)))


def collective_oracle(trials, seed, frame_of):
    """Per-trial deviations of the collective randomized check, per flavor.

    Draws per flavor and stack of at most TRIAL_CHUNK trials, in the suite's
    order: theta (n, 3), then the real and imaginary parts of n states
    (n, 2, DIM).  Normalizes one state at a time and exponentiates theta.S
    by eigendecomposition.
    """
    rng = np.random.default_rng(seed)
    generators = col.collective_ops(col.N_SPINS)
    out = {}
    for flavor in col.FLAVORS:
        frame = frame_of(flavor)
        members = frame.observables() + (frame.support,)
        dev = 0.0
        for start in range(0, trials, TRIAL_CHUNK):
            n = min(TRIAL_CHUNK, trials - start)
            thetas = rng.standard_normal((n, 3))
            parts = rng.standard_normal((n, 2, col.DIM))
            for theta, (re, im) in zip(thetas, parts):
                u = evolve(sum(t * s for t, s in zip(theta, generators)), 1.0)
                psi = (re + 1j * im) / np.linalg.norm(re + 1j * im)
                before = [np.vdot(psi, o @ psi).real for o in members]
                dev = _expectation_defect(dev, u @ psi, members, before)
        out[f"collective_unitary_expectation_invariance_{flavor}"] = dev
    return out


def qubit_one_frame(n_sites):
    """Paulis on the first physical qubit or spin: unprotected by both codes."""
    return EncodedQubitFrame(
        support=identity(2 ** n_sites), x=embed(sigma_x, 0, n_sites),
        y=embed(sigma_y, 0, n_sites), z=embed(sigma_z, 0, n_sites))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", TRIALS)
def test_repetition_stacks_match_per_trial_oracle(trials, seed):
    frame, channel = rep.frame_from_errors(), rep.recovery_channel()
    got = rep.invariance_suite(frame, channel, trials, seed)
    expected = repetition_oracle(trials, seed, frame, channel)
    assert list(got) == list(expected)
    for name, dev in expected.items():
        assert abs(got[name] - dev) <= 1e-12, name
        assert got[name] <= 1e-9, name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", TRIALS)
def test_repetition_stacks_are_sensitive(trials, seed):
    # Recovered words and recovery cycles return every code state exactly,
    # whatever the frame; only a recovery that miscorrects lets the
    # unprotected frame show in those two checks.
    frame, channel = qubit_one_frame(3), miscorrecting_channel()
    got = rep.invariance_suite(frame, channel, trials, seed)
    expected = repetition_oracle(trials, seed, frame, channel)
    assert list(got) == list(expected)
    for name, dev in expected.items():
        assert got[name] > 0.1, name
        assert abs(got[name] - dev) <= 1e-12, name


def random_frame(seed):
    """Three unrelated random Hermitian observables: no symmetry of the code,
    the errors or the recovery relates their expectations."""
    x, y, z = (random_hermitian(8, seed + k) for k in range(3))
    return EncodedQubitFrame(support=identity(8), x=x, y=y, z=z)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", TRIALS)
def test_repetition_stacks_match_the_oracle_for_any_channel_and_frame(trials, seed):
    # The suite reads every trial off tables built on the two code kets and
    # the four code units; that rests only on each letter being linear, so
    # it must agree with the state-by-state oracle for a channel and a frame
    # that share nothing with the code.
    frame, channel = random_frame(10 * seed), random_kraus_channel(8, 4, seed)
    got = rep.invariance_suite(frame, channel, trials, seed)
    expected = repetition_oracle(trials, seed, frame, channel)
    assert list(got) == list(expected)
    for name, dev in expected.items():
        assert got[name] > 0.1, name
        assert abs(got[name] - dev) <= 1e-12, name


def aligned_projector_frame():
    """Z = |000><000| with X, Y on the first qubit: not a qubit frame, but
    unlike bit-flip-symmetric observables it tells encode(c0, c1) from
    encode(c1, c0) = X1 X2 X3 encode(c0, c1)."""
    frame = qubit_one_frame(3)
    aligned = np.zeros((8, 8), dtype=complex)
    aligned[0, 0] = 1.0
    return EncodedQubitFrame(support=frame.support, x=frame.x, y=frame.y, z=aligned)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", TRIALS)
def test_repetition_stacks_keep_the_amplitude_order(trials, seed):
    frame, channel = aligned_projector_frame(), miscorrecting_channel()
    got = rep.invariance_suite(frame, channel, trials, seed)
    expected = repetition_oracle(trials, seed, frame, channel)
    assert list(got) == list(expected)
    for name, dev in expected.items():
        assert abs(got[name] - dev) <= 1e-12, name


def noiseless_frames():
    return {flavor: col.noiseless_frame(flavor) for flavor in col.FLAVORS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", TRIALS)
def test_collective_stacks_match_per_trial_oracle(trials, seed):
    got = col.noiseless_invariance_suite(noiseless_frames(), trials, seed)
    expected = collective_oracle(trials, seed, col.noiseless_frame)
    assert list(got) == list(expected)
    for name, dev in expected.items():
        assert abs(got[name] - dev) <= 1e-12, name
        assert got[name] <= 1e-9, name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", TRIALS)
def test_collective_stacks_are_sensitive(trials, seed):
    frame = qubit_one_frame(3)
    frames = {flavor: frame for flavor in col.FLAVORS}
    got = col.noiseless_invariance_suite(frames, trials, seed)
    expected = collective_oracle(trials, seed, lambda flavor: frame)
    assert list(got) == list(expected)
    for name, dev in expected.items():
        assert got[name] > 0.1, name
        assert abs(got[name] - dev) <= 1e-12, name


QUBIT_FACTOR_TRIALS = (1, 7, 10 * (TRIAL_CHUNK + 3))


def qubit_factor_oracle(trials, seed, iso):
    """Per-sample repetition/errors_leave_qubit_factor_untouched: the
    reduced qubit operator of each corrupted state by partial_trace.

    Its samples are the first draws of the family's own stream, each two
    real parts then two imaginary parts.
    """
    rng = np.random.default_rng(child_seed(seed, "_repetition_error_basis_iso"))
    dev = 0.0
    for _ in range(max(1, trials // 10)):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / np.linalg.norm(c)
        for a in range(4):
            corrupted = rep.error_operator(a) @ rep.encode(c[0], c[1])
            rho_q = partial_trace(density(iso @ corrupted), (2, 4), {0})
            dev = max(dev, abs(1.0 - np.vdot(c, rho_q @ c).real))
    return dev


def qubit_factor_check(trials, seed):
    doc = run_suite(SuiteConfig(suite="repetition", seed=seed, trials=trials))
    return next(c["max_deviation"] for c in doc["checks"]
                if c["name"] == "repetition/errors_leave_qubit_factor_untouched")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", QUBIT_FACTOR_TRIALS)
def test_qubit_factor_stacks_match_per_sample_oracle(trials, seed):
    got = qubit_factor_check(trials, seed)
    assert abs(got - qubit_factor_oracle(trials, seed, rep.subsystem_iso_Q())) <= 1e-12
    assert got <= 1e-9


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("trials", QUBIT_FACTOR_TRIALS)
def test_qubit_factor_stacks_are_sensitive(trials, seed, monkeypatch):
    # Under the stabilizer labels the first error flips the qubit label, so
    # the check reads 1 - |<c|X|c>|^2 on the unprotected frame.
    frame, channel, iso = qubit_one_frame(3), miscorrecting_channel(), rep.subsystem_iso_Qprime()
    monkeypatch.setattr(rep, "frame_from_errors", lambda: frame)
    monkeypatch.setattr(rep, "recovery_channel", lambda: channel)
    monkeypatch.setattr(rep, "subsystem_iso_Q", lambda: iso)
    got = qubit_factor_check(trials, seed)
    assert got > 0.1
    assert abs(got - qubit_factor_oracle(trials, seed, iso)) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [None, 1, 7, TRIAL_CHUNK, 300])
def test_amplitude_block_equals_per_sample_draws(n, seed):
    # random_haar_state(d, rng, n) is n single draws bit for bit and leaves
    # the stream where they leave it; n = None is one draw, a block of one.
    for d in (2, 8, 9):
        bulk_rng, sample_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_haar_state(d, bulk_rng, n)
        expected = (random_haar_state(d, sample_rng, 1)[0] if n is None
                    else np.array([random_haar_state(d, sample_rng) for _ in range(n)]))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert bulk_rng.bit_generator.state == sample_rng.bit_generator.state


def logical_evolution_oracle(trials, seed, frame, config):
    """Per-sample bosonic/logical_evolution_stays_in_code_space: one drawn
    state, one time and one 1-D leakage call at a time.

    Draws per stack of at most TRIAL_CHUNK samples, in the family's order:
    the real and imaginary parts of n amplitude pairs (n, 2, 2), then n
    times.
    """
    rng = np.random.default_rng(seed)
    zero, one = dr.prepare_logical(config, (0,)), dr.prepare_logical(config, (1,))
    draws = []
    samples = max(1, trials // 10)
    for start in range(0, samples, TRIAL_CHUNK):
        n = min(TRIAL_CHUNK, samples - start)
        parts = rng.standard_normal((n, 2, 2))
        times = rng.uniform(0.0, 2.0 * np.pi, n)
        draws += [((re + 1j * im) / np.linalg.norm(re + 1j * im), t)
                  for (re, im), t in zip(parts, times)]
    return max(dr.leakage(evolve(h, t) @ (c[0] * zero + c[1] * one), config, [(1, 2)])
               for h in (frame.z, frame.x) for c, t in draws)


@pytest.mark.parametrize("trials, stacks", [(10, [1]), (3000, [TRIAL_CHUNK, 44])])
def test_logical_evolution_calls_leakage_once_per_stack_and_generator(trials, stacks,
                                                                      monkeypatch):
    # max(1, trials // 10) samples: 300 at 3000 trials, in stacks of 256 and 44
    config = dr.FockConfig(2, 2)
    frame = dr.dual_rail_frame(config, 1, 2)
    shapes = []
    leakage = dr.leakage

    def counted(state, *args):
        shapes.append(np.shape(state))
        return leakage(state, *args)

    monkeypatch.setattr(dr, "leakage", counted)
    s = SimpleNamespace(config2=config, frame=frame, trials=trials,
                        rng=np.random.default_rng(5))
    [(name, dev)] = suites._bosonic_logical_evolution(s)
    assert shapes == [(n, config.dim) for n in stacks for _ in range(2)]
    assert len(shapes) <= 4
    monkeypatch.setattr(dr, "leakage", leakage)
    assert abs(dev - logical_evolution_oracle(trials, 5, frame, config)) <= 1e-12
    assert dev <= 1e-9


@pytest.mark.parametrize("trials", [10, 3000])
def test_logical_evolution_matches_oracle_on_leaking_generators(trials):
    # Random Hermitian generators carry logical states out of the code space,
    # so the deviation depends on every drawn amplitude and time.
    config = dr.FockConfig(2, 2)
    frame = SimpleNamespace(z=random_hermitian(config.dim, 11), x=random_hermitian(config.dim, 12))
    s = SimpleNamespace(config2=config, frame=frame, trials=trials, rng=np.random.default_rng(5))
    [(_, dev)] = suites._bosonic_logical_evolution(s)
    assert dev > 0.1
    assert abs(dev - logical_evolution_oracle(trials, 5, frame, config)) <= 1e-12


MEMORY_GUARD_BYTES = 4 * 2**20


def on_suite_inputs(kernel):
    """kernel(trials, seed) on the inputs its suite runner passes it."""
    if kernel is rep.invariance_suite:
        return functools.partial(kernel, rep.frame_from_errors(), rep.recovery_channel())
    return functools.partial(kernel, noiseless_frames())


KERNELS = pytest.mark.parametrize("kernel", [rep.invariance_suite, col.noiseless_invariance_suite],
                                  ids=lambda f: f.__name__)


@KERNELS
def test_invariance_kernels_at_zero_trials_return_nothing_and_draw_nothing(kernel, monkeypatch):
    calls = []
    monkeypatch.setattr(KrausChannel, "apply", lambda *args: calls.append(args))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert on_suite_inputs(kernel)(0, rng) == {}
    assert rng.bit_generator.state == state
    assert calls == []


@KERNELS
def test_invariance_suite_peak_memory_guard(kernel):
    suite = on_suite_inputs(kernel)
    suite(1, 0)  # builds the shared constants outside the measurement
    peaks = {}
    for trials in (1_000, 10_000):
        tracemalloc.start()
        try:
            suite(trials, 0)
            _, peaks[trials] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[10_000] < MEMORY_GUARD_BYTES, f"peaked at {peaks[10_000] / 2**20:.2f} MB"
    assert peaks[10_000] <= 1.5 * peaks[1_000], peaks
