"""Frame verification and operator-algebra structure analysis."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitbench import suites
from qubitbench.collective import collective_ops, noiseless_frame, protected_basis
from qubitbench.frames import (
    _nullspace,
    EncodedQubitFrame,
    OperatorAlgebra,
    algebra_structure,
    center_from_commutant,
    commutant_basis,
    expectation,
    frame_commutes_with,
    frame_from_isometry,
    generated_algebra_dimension,
    isotypic_decomposition,
    verify_frame,
)
from qubitbench.linalg import (
    basis_state,
    commutator,
    dagger,
    density,
    identity,
    kron,
    max_abs,
    sigma_x,
    sigma_y,
    sigma_z,
)
from qubitbench.repetition import error_recovery_words
from qubitbench.suites import SuiteConfig, run_suite

from linalg_oracles import (
    commutant_basis_oracle,
    generated_algebra_dimension_oracle,
    random_hermitian,
)

EXPECTED_CHECKS = (
    "hermitian_observables",
    "cyclic_commutators",
    "pairwise_anticommutators",
    "squares_equal_support",
    "observables_confined_to_support",
    "support_trace_even",
)


def pauli_frame():
    return EncodedQubitFrame(support=identity(2), x=sigma_x, y=sigma_y, z=sigma_z)


def doubled_frame():
    # Two commuting copies: support is the full 4-dim space, trace 4.
    return EncodedQubitFrame(
        support=identity(4),
        x=kron(identity(2), sigma_x),
        y=kron(identity(2), sigma_y),
        z=kron(identity(2), sigma_z),
    )


# Frame deviations at or below this pass.
TOL = 1e-9


def test_verify_frame_passes_exact_qubit():
    report = verify_frame(pauli_frame())
    assert max(report.values()) <= TOL
    assert max(report.values()) == 0.0
    assert tuple(report) == EXPECTED_CHECKS


def test_verify_frame_passes_doubled_qubit():
    report = verify_frame(doubled_frame())
    assert max(report.values()) <= TOL
    assert max(report.values()) == 0.0


def test_verify_frame_flags_non_hermitian():
    frame = EncodedQubitFrame(identity(2), sigma_x, 1j * sigma_y, sigma_z)
    report = verify_frame(frame)
    assert not report["hermitian_observables"] <= TOL


def test_verify_frame_flags_scaled_observable():
    frame = EncodedQubitFrame(identity(2), sigma_x, sigma_y / 2.0, sigma_z)
    report = verify_frame(frame)
    assert not report["pairwise_anticommutators"] <= TOL
    assert not max(report.values()) <= TOL


def test_verify_frame_flags_wrong_handedness():
    # Swapping X and Y inverts the cyclic commutators but keeps everything else.
    frame = EncodedQubitFrame(identity(2), sigma_y, sigma_x, sigma_z)
    report = verify_frame(frame)
    assert not report["cyclic_commutators"] <= TOL
    assert report["pairwise_anticommutators"] <= TOL
    assert report["squares_equal_support"] <= TOL


def test_verify_frame_flags_odd_support_trace():
    proj = np.diag([1.0, 1.0, 1.0]).astype(complex)
    frame = EncodedQubitFrame(proj, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)))
    report = verify_frame(frame)
    assert not report["support_trace_even"] <= TOL


def test_verify_frame_flags_observable_leaving_support():
    proj = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    x = np.zeros((4, 4), dtype=complex)
    x[:2, :2] = sigma_x
    y = np.zeros((4, 4), dtype=complex)
    y[:2, :2] = sigma_y
    z = np.zeros((4, 4), dtype=complex)
    z[:2, :2] = sigma_z
    good = EncodedQubitFrame(proj, x, y, z)
    assert max(verify_frame(good).values()) <= TOL

    x_leak = x.copy()
    x_leak[2, 3] = x_leak[3, 2] = 1.0
    bad = EncodedQubitFrame(proj, x_leak, y, z)
    report = verify_frame(bad)
    assert not report["observables_confined_to_support"] <= TOL


@pytest.mark.parametrize("member", ["x", "y", "z"])
def test_a_nan_member_entry_fails_every_check_that_reads_it(member, monkeypatch):
    members = {"x": sigma_x.copy(), "y": sigma_y.copy(), "z": sigma_z.copy()}
    members[member][0, 1] = np.nan
    report = verify_frame(EncodedQubitFrame(identity(2), **members))
    # every check but the support trace reads X, Y and Z
    reads_member = EXPECTED_CHECKS[:-1]
    for name in reads_member:
        assert math.isnan(report[name]), name
    assert report["support_trace_even"] == 0.0

    def nan_frame(s):
        """The Pauli frame with one NaN entry."""
        yield from report.items()

    monkeypatch.setitem(suites._FAMILIES, "algebra", (nan_frame,))
    doc = run_suite(SuiteConfig(suite="algebra"))
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [
        f"algebra/{name}" for name in reads_member]


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from((1, 2, 3)), extra=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_frame_from_isometry_is_the_qubit_factor_of_v(m, extra, seed):
    # a random isometry: the Q factor of a complex Gaussian n x 2m matrix
    rng = np.random.default_rng(seed)
    shape = (2 * m + extra, 2 * m)
    v, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    frame = frame_from_isometry(v)
    assert max_abs(*verify_frame(frame).values()) <= 1e-12
    for sigma, o in zip((sigma_x, sigma_y, sigma_z), frame.observables()):
        assert max_abs(dagger(v) @ o @ v - kron(sigma, identity(m))) <= 1e-12
    assert max_abs(frame.support - v @ dagger(v)) <= 1e-12


def test_frame_shape_validation():
    with pytest.raises(ValueError):
        EncodedQubitFrame(identity(2), sigma_x, sigma_y, identity(3))


def test_report_json_shape():
    report = verify_frame(pauli_frame())
    assert list(report) == list(EXPECTED_CHECKS)
    assert all(isinstance(d, float) for d in report.values())
    assert report["cyclic_commutators"] == list(report.values())[1]
    with pytest.raises(KeyError):
        report["not_a_check"]


def planted_singular_values(rng, rows, cols, tail):
    """rows x cols complex matrix whose singular values are 2.0, then
    values in [0.5, 2], then the given tail values."""
    k = min(rows, cols)
    svals = np.concatenate([[2.0], rng.uniform(0.5, 2.0, k - 1 - len(tail)), tail])
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)) + 1j * rng.standard_normal((cols, k)))
    return (u * svals) @ v.conj().T


@pytest.mark.parametrize("rows, cols", [(448, 16), (40, 16), (16, 16), (10, 16)],
                         ids=["tall-stack", "tall", "square", "wide"])
def test_nullspace_matches_direct_svd(rows, cols):
    # 1e-9 and 1e-11 relative to the largest singular value lie on either
    # side of NULLSPACE_RCOND = 1e-10: the first is kept, the second joins the zeros
    rng = np.random.default_rng(rows * cols)
    a = planted_singular_values(rng, rows, cols, [2e-9, 2e-11, 0.0, 0.0])
    _, svals, vh = np.linalg.svd(a)  # full: vh is a complete basis for any shape
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    assert rank == min(rows, cols) - 3
    null = _nullspace(a)
    assert null.shape == (cols - rank, cols)
    oracle = vh[rank:].conj()
    assert max_abs(null.T @ null.conj() - oracle.T @ oracle.conj()) <= 1e-12
    assert max_abs(null.conj() @ null.T - identity(cols - rank)) <= 1e-12


def test_commutant_of_irreducible_algebra_is_scalars():
    basis = commutant_basis(OperatorAlgebra((sigma_x, sigma_y, sigma_z)))
    assert len(basis) == 1
    b = basis[0]
    assert max_abs(b / b[0, 0] - identity(2)) < 1e-9


def test_commutant_of_identity_is_everything():
    basis = commutant_basis(OperatorAlgebra((identity(2),)))
    assert len(basis) == 4


def test_commutant_of_diagonal_generator():
    basis = commutant_basis(OperatorAlgebra((sigma_z,)))
    assert len(basis) == 2
    for b in basis:
        assert max_abs(b - np.diag(np.diag(b))) < 1e-9


def test_commutant_members_commute_with_generators():
    gens = (kron(sigma_x, identity(2)), kron(sigma_z, identity(2)))
    alg = OperatorAlgebra(gens)
    basis = commutant_basis(alg)
    assert len(basis) == 4
    for b in basis:
        for g in gens:
            assert max_abs(commutator(b, g)) < 1e-9


def test_with_adjoints_adds_only_new_operators():
    alg = OperatorAlgebra((sigma_x, sigma_x + 1j * sigma_y))
    ops = alg.with_adjoints()
    assert len(ops) == 3


def test_isotypic_full_matrix_algebra():
    assert algebra_structure(OperatorAlgebra((sigma_x, sigma_y, sigma_z))).blocks == ((1, 2),)


def test_isotypic_tensor_factor():
    gens = (kron(sigma_x, identity(2)), kron(sigma_y, identity(2)),
            kron(sigma_z, identity(2)))
    structure = algebra_structure(OperatorAlgebra(gens))
    assert structure.blocks == ((2, 2),)
    assert structure.algebra.ambient_dim == 4
    assert len(structure.commutant) == 4


def test_isotypic_abelian_generator():
    assert algebra_structure(OperatorAlgebra((sigma_z,))).blocks == ((1, 1), (1, 1))


def test_isotypic_direct_sum_blocks():
    # 2-dim irreducible block plus a 1-dim trivial block.
    g1 = np.zeros((3, 3), dtype=complex)
    g1[:2, :2] = sigma_x
    g2 = np.zeros((3, 3), dtype=complex)
    g2[:2, :2] = sigma_z
    assert algebra_structure(OperatorAlgebra((g1, g2))).blocks == ((1, 1), (1, 2))


def test_isotypic_decomposition_is_deterministic():
    # no seed: two splits of one commutant basis, and of the same basis in
    # another order, give the same blocks
    alg = OperatorAlgebra((sigma_x, sigma_y, sigma_z))
    a = algebra_structure(alg)
    b = algebra_structure(alg)
    assert a.blocks == b.blocks
    assert isotypic_decomposition(a.commutant[::-1]) == a.blocks
    assert a.blocks == ((1, 2),)


@pytest.mark.parametrize("phase", [1.0, 1j], ids=["hermitian", "anti_hermitian"])
def test_isotypic_split_refines_by_every_center_element(phase):
    # The commutant of a diagonal algebra given as matrix units: each center
    # element separates one component from the rest, and with phase i only
    # the anti-Hermitian parts separate anything.
    units = [phase * np.diag(row).astype(complex) for row in np.eye(4)]
    assert isotypic_decomposition(units) == ((1, 1),) * 4


@pytest.mark.parametrize("dropped", range(5))
def test_isotypic_decomposition_raises_when_blocks_miss_the_dimension_identities(dropped):
    # Collective noise without one of its five commutant elements: each
    # component still gives a square rank, and the blocks ((1, 4), (2, 2))
    # still fill the 8 dimensions, but 1 + 4 squares count five elements,
    # not the four given.
    comm = algebra_structure(OperatorAlgebra(collective_ops(3))).commutant
    truncated = comm[:dropped] + comm[dropped + 1:]
    with pytest.raises(np.linalg.LinAlgError, match="miss the dimension identities"):
        isotypic_decomposition(truncated)


def test_frame_commutes_with_commuting_algebra():
    frame = doubled_frame()
    alg = OperatorAlgebra((kron(sigma_x, identity(2)),))
    assert frame_commutes_with(frame, alg) <= TOL


def test_frame_commutes_with_detects_violation():
    frame = pauli_frame()
    alg = OperatorAlgebra((sigma_x,))
    assert not frame_commutes_with(frame, alg) <= TOL


def test_frame_commutes_with_reads_the_support():
    # [|0><0|, sigma_x] = |0><1| - |1><0|; the observables are zero
    zero = np.zeros((2, 2), dtype=complex)
    frame = EncodedQubitFrame(support=density(basis_state(2, 0)), x=zero, y=zero, z=zero)
    assert frame_commutes_with(frame, OperatorAlgebra((sigma_x,))) == 1.0


def test_frame_commutes_with_dim_mismatch():
    with pytest.raises(ValueError):
        frame_commutes_with(pauli_frame(), OperatorAlgebra((identity(4),)))


def test_expectation_on_kets_and_densities():
    up = basis_state(2, 0)
    assert expectation(sigma_z, up) == pytest.approx(1.0)
    assert expectation(sigma_x, up) == pytest.approx(0.0)
    plus = (basis_state(2, 0) + basis_state(2, 1)) / np.sqrt(2)
    assert expectation(sigma_x, density(plus)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expectation(1j * sigma_x, up)


def test_generated_algebra_dimension_pauli():
    alg = OperatorAlgebra((sigma_x, sigma_z))
    assert generated_algebra_dimension(alg, word_length=2) == 4


def test_generated_algebra_dimension_restricted():
    # Restriction to an invariant subspace: fix the first factor, act on the
    # second; the compressed words span the full 2x2 algebra.
    gens = (kron(identity(2), sigma_x), kron(identity(2), sigma_z))
    alg = OperatorAlgebra(gens)
    sub = np.eye(4, dtype=complex)[:, :2]
    assert generated_algebra_dimension(alg, word_length=2, restrict_to=sub) == 4
    # The same span measured on a subspace the algebra leaves: only the
    # identity compression survives.
    swapped = OperatorAlgebra((kron(sigma_x, identity(2)), kron(sigma_z, identity(2))))
    assert generated_algebra_dimension(swapped, word_length=2, restrict_to=sub) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generated_algebra_dimension_is_nan_on_a_non_finite_generator(bad):
    x = sigma_x.copy()
    x[0, 1] = bad
    alg = OperatorAlgebra((x, sigma_z))
    assert math.isnan(generated_algebra_dimension(alg, word_length=2))
    assert math.isnan(generated_algebra_dimension(alg, word_length=2,
                                                  restrict_to=identity(2)[:, :1]))


def center_oracle(alg):
    """Center as the commutant of the generators together with their commutant."""
    gens = tuple(alg.generators) + tuple(commutant_basis(alg))
    return commutant_basis(OperatorAlgebra(gens))


def span_projector(matrices):
    """Orthogonal projector onto the span of matrices, as vectors."""
    rows = np.array([np.ravel(m) for m in matrices])
    q, _ = np.linalg.qr(rows.T)
    return q @ q.conj().T


def conjugated_direct_sum_algebra(seed):
    """A random unitary conjugate of (1_2 (x) M_2) + M_3 on seven dimensions."""
    rng = np.random.default_rng(seed)
    gens = []
    for pauli in (sigma_x, sigma_z):
        g = np.zeros((7, 7), dtype=complex)
        g[:4, :4] = kron(identity(2), pauli)
        gens.append(g)
    for _ in range(2):
        g = np.zeros((7, 7), dtype=complex)
        g[4:, 4:] = random_hermitian(3, rng)
        gens.append(g)
    u, _ = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
    return OperatorAlgebra(tuple(u @ g @ u.conj().T for g in gens))


CENTER_CASES = {
    "pauli": lambda: OperatorAlgebra((sigma_x, sigma_y, sigma_z)),
    "collective_noise": lambda: OperatorAlgebra(collective_ops(3)),
    "error_recovery_words": lambda: OperatorAlgebra(tuple(error_recovery_words().values())),
    "conjugated_direct_sum": lambda: conjugated_direct_sum_algebra(11),
}


@pytest.mark.parametrize("case", sorted(CENTER_CASES))
def test_center_from_commutant_matches_two_stack_oracle(case):
    alg = CENTER_CASES[case]()
    comm = commutant_basis(alg)
    center = center_from_commutant(comm)
    oracle = center_oracle(alg)
    assert len(center) == len(oracle)
    assert max_abs(span_projector(center) - span_projector(oracle)) < 1e-9
    gram = np.array([[np.vdot(a, b) for b in center] for a in center])
    assert max_abs(gram - identity(len(center))) < 1e-9
    assert len(center) == len(isotypic_decomposition(comm))


def test_conjugated_direct_sum_blocks():
    structure = algebra_structure(conjugated_direct_sum_algebra(11))
    assert structure.blocks == ((1, 3), (2, 2))
    assert len(structure.commutant) == 5


# The stack over the 16 span rows of the word algebra peaks near 2.1 MiB;
# the 28 raw generators and adjoints reached 3.6 MiB, and a dense
# full-matrices SVD of that stack about 50 MB for an unused U.
MEMORY_GUARD_BYTES = 3 * 2**20


@pytest.mark.parametrize("step", [commutant_basis, algebra_structure],
                         ids=lambda f: f.__name__)
def test_word_algebra_peak_memory_guard(step):
    alg = CENTER_CASES["error_recovery_words"]()
    tracemalloc.start()
    try:
        step(alg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_GUARD_BYTES, f"{step.__name__} peaked at {peak / 2**20:.1f} MB"


def block_sum_algebra(blocks, seed):
    """A random unitary conjugate of the direct sum of 1_m (x) M_d over blocks.

    Each block gets two random Hermitian generators and one non-Hermitian
    one, shifted by the block index so that equal shapes stay inequivalent.
    """
    rng = np.random.default_rng(seed)
    n = sum(m * d for m, d in blocks)
    gens = [np.zeros((n, n), dtype=complex) for _ in range(3)]
    start = 0
    for i, (m, d) in enumerate(blocks):
        parts = (random_hermitian(d, rng) + 3.0 * i * identity(d), random_hermitian(d, rng),
                 rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for g, part in zip(gens, parts):
            g[start:start + m * d, start:start + m * d] = kron(identity(m), part)
        start += m * d
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return OperatorAlgebra(tuple(u @ g @ u.conj().T for g in gens))


@st.composite
def block_shapes(draw, max_dim=12):
    """Blocks (m, d) with m <= 3, d <= 4 and sum m d <= max_dim."""
    blocks = []
    room = max_dim
    while room and (not blocks or draw(st.booleans())):
        m = draw(st.integers(1, min(3, room)))
        d = draw(st.integers(1, min(4, room // m)))
        blocks.append((m, d))
        room -= m * d
    return blocks


@settings(max_examples=40, deadline=None, derandomize=True)
@given(blocks=block_shapes(), seed=st.integers(0, 2**32 - 1))
@example(blocks=[(2, 2), (2, 2)], seed=0)
@example(blocks=[(3, 1), (1, 3), (1, 3)], seed=1)
@example(blocks=[(1, 4), (2, 2), (3, 1)], seed=2)
def test_block_sum_structure_matches_construction(blocks, seed):
    alg = block_sum_algebra(blocks, seed)
    structure = algebra_structure(alg)
    assert structure.blocks == tuple(sorted(blocks))
    assert len(structure.commutant) == sum(m * m for m, _ in blocks)
    bicommutant = commutant_basis(OperatorAlgebra(structure.commutant))
    assert len(bicommutant) == sum(d * d for _, d in blocks)
    assert generated_algebra_dimension(alg, word_length=12) == sum(d * d for _, d in blocks)
    again = algebra_structure(alg)
    assert again.blocks == structure.blocks
    assert isotypic_decomposition(structure.commutant) == structure.blocks


PADDING = ("duplicate", "multiple", "combination", "zero", "near_1e-9", "near_1e-11")


def padded_generators(blocks, seed, padding):
    """The generators of block_sum_algebra(blocks, seed), or with no blocks
    the zero matrix on C^2, followed by one member per entry of padding.

    duplicate, multiple and combination add a copy, a complex multiple and
    a complex linear combination of earlier members, and zero the zero
    matrix: none of them adds a direction.  near_<delta> adds a random
    matrix scaled to delta times the largest generator norm, a direction
    that only this member carries; 1e-9 and 1e-11 lie on either side of
    NULLSPACE_RCOND = 1e-10.  (G + delta C for an earlier member G would
    tilt the large span rows by delta C / 2, and they would carry the
    small constraint on their own.)
    """
    rng = np.random.default_rng([seed, len(padding)])
    gens = list(block_sum_algebra(blocks, seed).generators) if blocks else [np.zeros((2, 2))]
    n = len(gens[0])
    largest = max(np.linalg.norm(g) for g in gens)
    for kind in padding:
        g = gens[rng.integers(len(gens))]
        coeffs = rng.standard_normal(len(gens)) + 1j * rng.standard_normal(len(gens))
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "duplicate":
            gens.append(g.copy())
        elif kind == "multiple":
            gens.append(coeffs[0] * g)
        elif kind == "combination":
            gens.append(np.tensordot(coeffs, gens, axes=1))
        elif kind == "zero":
            gens.append(np.zeros((n, n)))
        else:
            delta = float(kind.removeprefix("near_"))
            gens.append(delta * largest * c / np.linalg.norm(c))
    return OperatorAlgebra(tuple(gens))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(blocks=block_shapes(max_dim=6), seed=st.integers(0, 2**32 - 1),
       padding=st.lists(st.sampled_from(PADDING), max_size=3))
@example(blocks=[], seed=0, padding=["zero"])
@example(blocks=[(2, 2)], seed=2, padding=[])
@example(blocks=[(2, 2)], seed=0, padding=["near_1e-9"])
@example(blocks=[(1, 2), (2, 1)], seed=1, padding=["near_1e-11", "duplicate"])
@example(blocks=[(1, 1), (1, 2)], seed=3, padding=["multiple", "combination", "zero"])
def test_commutant_matches_unreduced_stack_oracle(blocks, seed, padding):
    alg = padded_generators(blocks, seed, padding)
    comm = commutant_basis(alg)
    oracle = commutant_basis_oracle(alg)
    assert len(comm) == len(oracle)
    # A constraint 1e-9 above the zeros pins the nullspace only to about
    # eps / 1e-9, in the oracle as much as in commutant_basis (seen up to
    # 8e-8 apart over 400 random lists); every other list pins it to rounding.
    tol = 1e-6 if "near_1e-9" in padding else 1e-12
    assert max_abs(span_projector(comm) - span_projector(oracle)) <= tol
    assert generated_algebra_dimension(alg, 4) == generated_algebra_dimension_oracle(alg)


def test_all_zero_generator_has_the_full_commutant():
    alg = OperatorAlgebra((np.zeros((2, 2)),))
    assert len(commutant_basis(alg)) == 4
    assert generated_algebra_dimension(alg, 4) == 1
    assert algebra_structure(alg).blocks == ((2, 1),)


def random_isometry(n, k, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    return q


def frame_algebra(flavor):
    frame = noiseless_frame(flavor)
    return OperatorAlgebra(frame.observables() + (frame.support,))


GENERATED_CASES = {
    "collective_noise": (CENTER_CASES["collective_noise"], random_isometry(8, 5, 2)),
    "error_recovery_words": (CENTER_CASES["error_recovery_words"], random_isometry(8, 5, 0)),
    "pauli": (CENTER_CASES["pauli"], basis_state(2, 0)[:, None]),
    "frame_omega": (lambda: frame_algebra("omega"), protected_basis("omega")),
    "frame_singlet_triplet": (lambda: frame_algebra("singlet_triplet"),
                              random_isometry(8, 3, 1)),
}


@pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
@pytest.mark.parametrize("case", sorted(GENERATED_CASES))
def test_generated_algebra_dimension_matches_word_oracle(case, restricted):
    build, isometry = GENERATED_CASES[case]
    alg = build()
    sub = isometry if restricted else None
    for word_length in (1, 2, 4):
        want = generated_algebra_dimension_oracle(alg, word_length, restrict_to=sub)
        assert generated_algebra_dimension(alg, word_length, restrict_to=sub) == want
