"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line before asserting, so a full run
documents every criterion's status.

The sign-gate criterion checks that the logical qubits exist only
stroboscopically across the two-qubit gate.  After the first balanced
splitter (theta = pi/4) a generic logical input is partly outside the
dual-rail code space: the uniform superposition |+,+> leaks exactly 1/2,
strictly inside the window (0.05, 0.95).  The coincidence state |1,1>
bunches completely (Hong-Ou-Mandel, leakage sin^2(2 theta) = 1), and that
is asserted as a fact rather than as a window.  After the whole gate every
input is back in the code space.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qubitbench.collective import (
    antisymmetric_product,
    joint_kernel_dimension,
    noiseless_frame,
    support_projector,
    total_spin_ops,
)
from qubitbench.dualrail import (
    FockConfig,
    beam_splitter,
    csign,
    dual_rail_frame,
    dual_rail_projector,
    leakage,
    logical_pairs,
    number,
    prepare_logical,
)
from qubitbench.frames import (
    OperatorAlgebra,
    algebra_structure,
    commutant_basis,
    expectation,
    verify_frame,
)
from qubitbench.linalg import dagger, evolve, identity, kron, max_abs
from qubitbench.repetition import (
    encode,
    error_operator,
    error_recovery_words,
    frame_from_errors,
    recovery_channel,
    subsystem_iso_Qprime,
)


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_encoded_states(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = c / np.linalg.norm(c)
        out.append((c, encode(c[0], c[1])))
    return out


def test_frame_axioms_all_constructions():
    frames = (
        dual_rail_frame(FockConfig(2, 2), 1, 2),
        frame_from_errors(),
        noiseless_frame("omega"),
        noiseless_frame("singlet_triplet"),
    )
    worst = max(max(verify_frame(f).values()) for f in frames)
    ok = worst <= 1e-9
    report("frame_axioms_four_constructions", ok, f"max deviation {worst:.2e}")
    assert ok


def test_sign_gate_matrix_and_midgate_leakage_window():
    config = FockConfig(4, 2)
    pairs = logical_pairs(config)
    theta = np.pi / 4
    u = csign(config)
    basis = ((0, 0), (0, 1), (1, 0), (1, 1))
    states = [prepare_logical(config, bits) for bits in basis]
    m = np.array([[np.vdot(a, u @ b) for b in states] for a in states])
    phase = m[0, 0] / abs(m[0, 0])
    matrix_dev = max_abs(m / phase - np.diag([1.0, 1.0, 1.0, -1.0]))

    # Logical inputs by amplitudes (c00, c01, c10, c11): the basis states,
    # |+,+> and one seeded generic state.
    rng = np.random.default_rng(2001)
    generic = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    inputs = {"".join(map(str, bits)): np.eye(4)[i]
              for i, bits in enumerate(basis)}
    inputs["++"] = np.full(4, 0.5)
    inputs["generic"] = generic / np.linalg.norm(generic)

    # The components land in orthogonal occupation sectors: |01> and |10>
    # each leave the code space with probability sin^2 theta, |11> with
    # sin^2(2 theta), |00> never.
    weights = np.array([0.0, np.sin(theta) ** 2, np.sin(theta) ** 2,
                        np.sin(2 * theta) ** 2])
    splitter = beam_splitter(config, 1, 3, theta)
    mid_leak, closed_form, end_leak = {}, {}, {}
    for name, c in inputs.items():
        psi = sum(ci * s for ci, s in zip(c, states))
        mid_leak[name] = leakage(splitter @ psi, config, pairs)
        closed_form[name] = float(weights @ np.abs(c) ** 2)
        end_leak[name] = leakage(u @ psi, config, pairs)

    in_window = 0.05 < mid_leak["++"] < 0.95
    half_dev = abs(mid_leak["++"] - 0.5)
    bunching_dev = abs(mid_leak["11"] - 1.0)
    closed_form_dev = max(abs(mid_leak[k] - closed_form[k]) for k in inputs)
    worst_end = max(end_leak.values())

    ok = (matrix_dev <= 1e-9 and in_window and half_dev <= 1e-12
          and bunching_dev <= 1e-12 and closed_form_dev <= 1e-12
          and worst_end <= 1e-9)
    report(
        "sign_gate_and_midgate_leakage",
        ok,
        f"matrix deviation {matrix_dev:.2e}; mid-gate leakage "
        + ", ".join(f"{k} {v:.6f}" for k, v in mid_leak.items())
        + f"; ++ {'inside' if in_window else 'outside'} (0.05, 0.95); "
        f"closed-form deviation {closed_form_dev:.2e}; "
        f"worst end-of-gate leakage {worst_end:.2e}",
    )
    assert matrix_dev <= 1e-9
    assert in_window, f"mid-gate leakage of |+,+> is {mid_leak['++']:.6f}"
    assert half_dev <= 1e-12, (
        f"mid-gate leakage of |+,+> is {mid_leak['++']!r}, not 1/2"
    )
    assert bunching_dev <= 1e-12, (
        f"mid-gate leakage of |1,1> is {mid_leak['11']!r}: the coincident "
        "photons should bunch completely at theta = pi/4"
    )
    assert closed_form_dev <= 1e-12, (mid_leak, closed_form)
    assert worst_end <= 1e-9, end_leak


def test_pair_occupation_projector_identity():
    worst = 0.0
    for cutoff in (2, 3, 4):
        config = FockConfig(4, cutoff)
        for k in range(1, 5):
            for kp in range(k + 1, 5):
                p = np.diag(dual_rail_projector(config, k, kp))
                n = np.diag(number(config, k) + number(config, kp))
                worst = max(worst,
                            max_abs(p @ n - n @ p),
                            max_abs(p @ n - p @ n @ p))
    ok = worst <= 1e-12
    report("pair_occupation_projector_identity", ok,
           f"max deviation {worst:.2e} over cutoffs 2-4, all mode pairs")
    assert ok


def test_flip_code_protection():
    frame = frame_from_errors()
    words = error_recovery_words()
    worst = 0.0
    for c, psi in random_encoded_states(100, seed=1234):
        base = [expectation(o, psi) for o in frame.observables()]
        for a in range(4):
            corrupted = error_operator(a) @ psi
            for b in range(4):
                out = words[(b, a)] @ corrupted
                for o, ref in zip(frame.observables(), base):
                    worst = max(worst, abs(expectation(o, out) - ref))
    invariance_ok = worst <= 1e-9

    channel = recovery_channel()
    trace_dev = channel.trace_preservation_defect()
    trace_ok = trace_dev <= 1e-12

    eig_dev = 0.0
    for a in range(4):
        w = channel.ops[a] @ error_operator(a)
        for psi in (encode(1.0, 0.0), encode(0.0, 1.0)):
            lam = np.vdot(psi, w @ psi)
            eig_dev = max(eig_dev, abs(abs(lam) - 1.0),
                          max_abs(w @ psi - lam * psi))
    eig_ok = eig_dev <= 1e-12

    iso = subsystem_iso_Qprime()
    got = iso @ error_operator(1) @ dagger(iso)
    want = kron(np.array([[0, 1], [1, 0]], dtype=complex),
                kron(np.array([[0, 1], [1, 0]], dtype=complex), identity(2)))
    flip_ok = max_abs(got - want) == 0.0

    ok = invariance_ok and trace_ok and eig_ok and flip_ok
    report(
        "flip_code_protection",
        ok,
        f"word invariance {worst:.2e}; trace defect {trace_dev:.2e}; "
        f"matched-word eigenvalue deviation {eig_dev:.2e}; "
        f"label-flip bit-exact {flip_ok}",
    )
    assert invariance_ok and trace_ok and eig_ok and flip_ok


def test_collective_noise_protection():
    dims_ok = True
    margins_ok = True
    for n, expected in ((3, 0), (2, 1), (4, 2)):
        dim, margin = joint_kernel_dimension(n)
        dims_ok = dims_ok and dim == expected
        margins_ok = margins_ok and margin >= 1e-4

    generators = total_spin_ops()[:3]
    alg = OperatorAlgebra(generators)
    commutant_dim = len(commutant_basis(alg))
    blocks = algebra_structure(alg).blocks
    iso_ok = blocks == ((1, 4), (2, 2))

    rng = np.random.default_rng(4321)
    frames = (noiseless_frame("omega"), noiseless_frame("singlet_triplet"))
    worst = 0.0
    for _ in range(100):
        theta = rng.standard_normal(3)
        u = evolve(sum(t * s for t, s in zip(theta, generators)), 1.0)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = psi / np.linalg.norm(psi)
        phi = u @ psi
        for frame in frames:
            for o in frame.observables():
                worst = max(worst, abs(np.vdot(phi, o @ phi)
                                       - np.vdot(psi, o @ psi)))
    invariance_ok = worst <= 1e-9

    trace_dev = abs(np.trace(support_projector()).real - 4.0)
    trace_ok = trace_dev <= 1e-10
    z_dev = max_abs(noiseless_frame("omega").z
                    - (np.sqrt(3.0) / 6.0) * antisymmetric_product())
    z_ok = z_dev <= 1e-12

    ok = (dims_ok and margins_ok and commutant_dim == 5 and iso_ok
          and invariance_ok and trace_ok and z_ok)
    report(
        "collective_noise_protection",
        ok,
        f"kernel dims ok {dims_ok}; margins ok {margins_ok}; commutant dim "
        f"{commutant_dim}; blocks {blocks}; invariance "
        f"{worst:.2e}; support trace deviation {trace_dev:.2e}; "
        f"triple-product deviation {z_dev:.2e}",
    )
    assert dims_ok and margins_ok
    assert commutant_dim == 5
    assert iso_ok
    assert invariance_ok and trace_ok and z_ok


def test_cross_construction_isotypic_block():
    blocks = algebra_structure(OperatorAlgebra(tuple(error_recovery_words().values()))).blocks
    ok = (2, 4) in blocks
    report("cross_construction_isotypic_block", ok, f"blocks {blocks} contain (2, 4): {ok}")
    assert ok


def test_report_determinism(tmp_path):
    # pytest's pythonpath setting does not reach a new process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "qubitbench.cli", "--format", "json",
             "--seed", "0", "--out", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        out.append(path.read_bytes())
    ok = out[0] == out[1]
    doc = json.loads(out[0])
    report("report_determinism", ok,
           f"byte-identical {ok}; {len(doc['checks'])} checks; "
           f"all_pass {doc['all_pass']}")
    assert ok
    assert doc["all_pass"]
