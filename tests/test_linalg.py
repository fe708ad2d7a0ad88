"""Dense linear algebra helpers, checked against independent oracles."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitbench.linalg import (
    KrausChannel,
    anticommutator,
    apply_on,
    basis_state,
    child_seed,
    commutator,
    dagger,
    density,
    eigh,
    embed,
    evolve,
    expectations,
    identity,
    is_hermitian,
    kron,
    kron_all,
    max_abs,
    partial_trace,
    random_haar_state,
    sigma_x,
    sigma_y,
    sigma_z,
)

from linalg_oracles import (
    expectations_oracle,
    is_projector,
    is_unitary,
    kraus_apply_oracle,
    random_hermitian,
)


def expm_taylor(m, terms=40):
    """Scaling-and-squaring Taylor oracle, independent of eigendecomposition."""
    m = np.asarray(m, dtype=complex)
    squarings = max(0, int(np.ceil(np.log2(max(1.0, np.linalg.norm(m, np.inf))))) + 4)
    small = m / (2**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for n in range(1, terms):
        term = term @ small / n
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_pauli_constants():
    assert max_abs(sigma_x @ sigma_x - identity(2)) == 0.0
    assert max_abs(sigma_y @ sigma_y - identity(2)) == 0.0
    assert max_abs(sigma_z @ sigma_z - identity(2)) == 0.0
    assert max_abs(commutator(sigma_x, sigma_y) - 2j * sigma_z) == 0.0
    assert max_abs(anticommutator(sigma_x, sigma_y)) == 0.0


def test_basis_state_and_density():
    e2 = basis_state(5, 2)
    assert e2.shape == (5,)
    assert e2[2] == 1.0 and np.count_nonzero(e2) == 1
    rho = density(e2)
    assert rho.shape == (5, 5)
    assert rho[2, 2] == 1.0 and np.count_nonzero(rho) == 1


def test_max_abs_is_largest_entry_magnitude():
    a = np.array([[0.1, -0.5j], [0.25 + 0.25j, 0.0]])
    assert max_abs(a) == pytest.approx(0.5)
    # no parts and empty arrays have no entries
    assert max_abs() == 0.0
    assert max_abs(np.zeros((0, 0))) == 0.0
    assert max_abs(np.zeros(0), np.zeros((3, 0))) == 0.0
    # parts of mixed shapes are measured together
    parts = (0.5, np.array([-0.25, 2j]), np.full((2, 3), -1.5), np.zeros(0))
    assert max_abs(*parts) == 2.0
    assert max_abs(*parts[:1], *parts[2:]) == 1.5
    # ints are accepted, and the measure is a float
    assert max_abs(3, -7, np.array([1, -2])) == 7.0
    assert isinstance(max_abs(-7), float)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 4), max_size=3), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1), complex_parts=st.booleans(), data=st.data())
def test_max_abs_is_nan_when_any_part_holds_one(shapes, seed, complex_parts, data):
    # Python's max(0.0, nan) is 0.0: a NaN must survive wherever it sits
    rng = np.random.default_rng(seed)
    raveled = [rng.standard_normal(math.prod(shape)) * (1 - 0.5j if complex_parts else 1.0)
               for shape in shapes]
    parts = [r.reshape(shape) for r, shape in zip(raveled, shapes)]  # views of raveled
    assert max_abs(*parts) == np.max(np.abs(np.concatenate(raveled)))
    part = data.draw(st.integers(0, len(parts) - 1))
    raveled[part][data.draw(st.integers(0, raveled[part].size - 1))] = np.nan
    assert np.isnan(max_abs(*parts))


def test_kron_matches_numpy():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert max_abs(kron(a, b) - np.kron(a, b)) == 0.0
    assert max_abs(kron_all(a, b, a) - np.kron(np.kron(a, b), a)) == 0.0


def test_kron_is_associative():
    rng = np.random.default_rng(8)
    a, b, c = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
               for d in (2, 3, 2))
    assert max_abs(kron(kron(a, b), c) - kron(a, kron(b, c))) < 1e-12


def permuted_kron_oracle(op, sites, n_sites, d):
    """op (x) 1 has its factors in the order sites + rest; an explicit
    permutation matrix of basis kets brings them back to register order."""
    rest = [s for s in range(n_sites) if s not in sites]
    order = list(sites) + rest
    shape = (d,) * n_sites
    perm = np.zeros((d ** n_sites,) * 2)
    for digits in itertools.product(range(d), repeat=n_sites):
        ordered = [digits[s] for s in order]
        perm[np.ravel_multi_index(digits, shape), np.ravel_multi_index(ordered, shape)] = 1.0
    return perm @ np.kron(op, np.eye(d ** len(rest))) @ perm.T


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sites", [(0,), (0, 2), (2, 0), (1, 3)])
def test_embed_on_sites_matches_permuted_kron(sites, d):
    rng = np.random.default_rng(len(sites) + 10 * sites[0] + d)
    dim = d ** len(sites)
    op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert max_abs(embed(op, sites, 4) - permuted_kron_oracle(op, sites, 4, d)) < 1e-14


def test_embed_single_site_is_the_kron_chain():
    rng = np.random.default_rng(9)
    op = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for site in range(4):
        factors = [identity(3)] * 4
        factors[site] = op
        chain = kron_all(*factors)
        assert np.array_equal(embed(op, site, 4), chain)
        assert np.array_equal(embed(op, np.int64(site), 4), chain)
        assert np.array_equal(embed(op, (site,), 4), chain)


def test_embed_rejects_bad_sites():
    two_site = identity(4)
    for sites in [(1, 1), (0, 4), (-1, 2)]:
        with pytest.raises(ValueError):
            embed(two_site, sites, 4)
    with pytest.raises(ValueError):
        embed(identity(3), (0, 1), 4)  # 3 is not the square of a factor dimension


@pytest.mark.parametrize("d,sites", [
    (3, 2), (2, (0,)), (3, (0, 1)), (3, (1, 0)), (2, (3, 1)), (3, (0, 2)),
])
@pytest.mark.parametrize("batch", [(), (5,)])
def test_apply_on_equals_the_embedded_product(d, sites, batch):
    rng = np.random.default_rng(d + 7 * len(batch))
    k = 1 if isinstance(sites, int) else len(sites)
    op = rng.standard_normal((d ** k,) * 2) + 1j * rng.standard_normal((d ** k,) * 2)
    states = (rng.standard_normal(batch + (d ** 4,))
              + 1j * rng.standard_normal(batch + (d ** 4,)))
    out = apply_on(op, sites, 4, states)
    assert out.shape == states.shape
    full = embed(op, sites, 4)
    assert max_abs(out - states @ full.T) < 1e-13
    # on basis kets every image entry is one entry of op, exactly
    basis = np.eye(d ** 4, dtype=complex)[[0, 5, d ** 4 - 1]]
    assert np.array_equal(apply_on(op, sites, 4, basis), basis @ full.T)
    assert np.array_equal(apply_on(op, sites, 4, basis[1]), full @ basis[1])


def test_apply_on_rejects_what_embed_rejects():
    kets = np.ones((2, 16), dtype=complex)
    for op, sites in [(identity(4), (1, 1)), (identity(4), (0, 4)), (identity(3), (0, 1))]:
        with pytest.raises(ValueError) as embedded:
            embed(op, sites, 4)
        with pytest.raises(ValueError) as applied:
            apply_on(op, sites, 4, kets)
        assert str(applied.value) == str(embedded.value)


def test_commutator_shape_mismatch_raises():
    with pytest.raises(ValueError):
        commutator(identity(2), identity(3))
    with pytest.raises(ValueError):
        anticommutator(identity(2), np.zeros((2, 3)))


def test_predicates():
    assert is_hermitian(sigma_y)
    assert not is_hermitian(1j * sigma_z)
    assert is_unitary(sigma_x)
    assert not is_unitary(2.0 * sigma_x)
    assert is_projector(density(basis_state(3, 1)))
    assert not is_projector(0.5 * identity(2))


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_orders_ascending_with_permutation_columns():
    values, vectors = eigh(sigma_z)
    assert np.allclose(values, [-1.0, 1.0])
    values, vectors = eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(values, [1.0, 2.0, 3.0])
    # Eigenvectors of a diagonal matrix are basis vectors, up to phase.
    assert np.allclose(np.abs(vectors), np.eye(3)[:, [1, 2, 0]])


def test_eigh_reconstructs_input():
    h = random_hermitian(7, 23)
    values, vectors = eigh(h)
    rebuilt = vectors @ np.diag(values) @ dagger(vectors)
    assert max_abs(rebuilt - h) < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_evolve_matches_taylor_oracle(dim):
    for seed in range(3):
        h = random_hermitian(dim, seed)
        t = 0.3 + 0.4 * seed
        u = evolve(h, t)
        expected = expm_taylor(-1j * t * h)
        assert max_abs(u - expected) < 1e-12
        assert is_unitary(u, tol=1e-12)


def test_evolve_zero_time_is_identity():
    h = random_hermitian(4, 11)
    assert max_abs(evolve(h, 0.0) - identity(4)) < 1e-14


def test_evolve_pauli_rotations():
    assert max_abs(evolve(sigma_z, np.pi / 2) - np.diag([-1j, 1j])) < 1e-14
    assert max_abs(evolve(sigma_z, np.pi) + identity(2)) < 1e-14
    ket1 = evolve(sigma_x, np.pi / 2) @ basis_state(2, 0)
    assert max_abs(ket1 - (-1j) * basis_state(2, 1)) < 1e-14


def test_evolve_broadcasts_over_times():
    h = random_hermitian(5, 21)
    ts = np.array([[0.0, 0.3, -1.2], [2.5, 7.5, -0.01]])
    stack = evolve(h, ts)
    assert stack.shape == ts.shape + h.shape
    expected = np.array([[evolve(h, t) for t in row] for row in ts])
    assert max_abs(stack - expected) < 1e-14


def test_evolve_inverts_under_time_reversal():
    for dim in (2, 5, 16):
        h = random_hermitian(dim, dim)
        u = evolve(h, 0.7) @ evolve(h, -0.7)
        assert max_abs(u - identity(dim)) < 1e-10


def partial_trace_oracle(rho, dims, keep):
    """Index-loop reference implementation."""
    keep = sorted(keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    out_dim = int(np.prod(kept_dims))
    tensor = rho.reshape(tuple(dims) * 2)
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for row in np.ndindex(*kept_dims):
        for col in np.ndindex(*kept_dims):
            total = 0.0
            for summed in np.ndindex(*[dims[i] for i in drop]):
                left = [0] * len(dims)
                right = [0] * len(dims)
                for axis, value in zip(keep, row):
                    left[axis] = value
                for axis, value in zip(keep, col):
                    right[axis] = value
                for axis, value in zip(drop, summed):
                    left[axis] = value
                    right[axis] = value
                total += tensor[tuple(left) + tuple(right)]
            r = int(np.ravel_multi_index(row, kept_dims)) if row else 0
            c = int(np.ravel_multi_index(col, kept_dims)) if col else 0
            out[r, c] = total
    return out


@pytest.mark.parametrize("dims,keep", [((2, 3), {0}), ((2, 3), {1}),
                                       ((2, 2, 3), {0, 2}), ((2, 4), {1})])
def test_partial_trace_matches_loop_oracle(dims, keep):
    dim = int(np.prod(dims))
    rho = density(random_haar_state(dim, 3))
    got = partial_trace(rho, dims, keep)
    want = partial_trace_oracle(rho, dims, keep)
    assert max_abs(got - want) < 1e-13
    assert abs(np.trace(got) - 1.0) < 1e-12


def test_partial_trace_of_product_state():
    psi = kron_2vec(random_haar_state(2, 5), random_haar_state(3, 6))
    rho = density(psi)
    left = partial_trace(rho, (2, 3), {0})
    assert max_abs(left - density(random_haar_state(2, 5))) < 1e-12


def kron_2vec(a, b):
    return np.kron(a, b)


def test_partial_trace_of_maximally_entangled_pair():
    bell = (kron_2vec(basis_state(2, 0), basis_state(2, 0))
            + kron_2vec(basis_state(2, 1), basis_state(2, 1))) / np.sqrt(2)
    reduced = partial_trace(density(bell), (2, 2), {0})
    assert max_abs(reduced - identity(2) / 2.0) < 1e-14
    sharp = partial_trace(density(kron_2vec(basis_state(2, 0), basis_state(2, 0))),
                          (2, 2), {0})
    assert max_abs(sharp - density(basis_state(2, 0))) < 1e-14


def test_partial_trace_stays_positive():
    rho = density(random_haar_state(12, 31))
    reduced = partial_trace(rho, (2, 2, 3), {1, 2})
    values, _ = eigh(reduced)
    assert values.min() >= -1e-10
    assert abs(values.sum() - 1.0) < 1e-10


def test_partial_trace_validates_arguments():
    rho = identity(6) / 6.0
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 2), {0})
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 3), {2})


def test_random_haar_state_properties():
    psi = random_haar_state(8, 123)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert max_abs(psi - random_haar_state(8, 123)) == 0.0
    assert max_abs(psi - random_haar_state(8, 124)) > 1e-3


def test_random_hermitian_is_hermitian():
    h = random_hermitian(5, 17)
    assert max_abs(h - dagger(h)) == 0.0
    assert max_abs(h - random_hermitian(5, 17)) == 0.0


def test_child_seed_matches_hash_derivation():
    want = int.from_bytes(
        hashlib.sha256(b"42:bosonic").digest()[:8], "big"
    )
    assert child_seed(42, "bosonic") == want
    assert child_seed(42, "bosonic") != child_seed(42, "algebra")
    assert child_seed(0, "x") != child_seed(1, "x")


def test_kraus_channel_application_and_trace():
    p = 0.25
    ops = (np.sqrt(1 - p) * identity(2), np.sqrt(p) * sigma_x)
    channel = KrausChannel(ops)
    assert channel.dim == 2
    assert channel.trace_preservation_defect() < 1e-15
    rho = density(basis_state(2, 0))
    got = channel.apply(rho)
    want = (1 - p) * rho + p * sigma_x @ rho @ sigma_x
    assert max_abs(got - want) < 1e-15


def test_kraus_channel_detects_trace_leak():
    channel = KrausChannel((0.5 * identity(2),))
    assert channel.trace_preservation_defect() == pytest.approx(0.75)


def random_kraus_channel(dim, count, seed):
    """K_a = G_a S^(-1/2) with S = sum_a G_a^dag G_a: trace preserving."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    w, v = np.linalg.eigh(np.einsum("kba,kbc->ac", g.conj(), g))
    return KrausChannel(tuple(g @ (v / np.sqrt(w)) @ dagger(v)))


def random_densities(n, dim, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    rho = z @ z.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


@pytest.mark.parametrize("dim, count", [(2, 1), (3, 2), (8, 4)])
@pytest.mark.parametrize("n", [None, 1, 7, 259])
def test_kraus_channel_apply_matches_per_operator_sum(dim, count, n):
    channel = random_kraus_channel(dim, count, seed=dim + count)
    assert channel.trace_preservation_defect() < 1e-12
    rho = random_densities(n or 1, dim, seed=n or 0)
    rho = rho[0] if n is None else rho
    got = channel.apply(rho)
    assert got.shape == rho.shape
    assert max_abs(got - kraus_apply_oracle(channel, rho)) <= 1e-13


def test_kraus_channel_apply_rejects_wrong_shape():
    channel = KrausChannel((identity(2),))
    for bad in (np.zeros(4), np.zeros((3, 3)), np.zeros((5, 2, 3)), np.zeros((2, 2, 2, 2))):
        with pytest.raises(ValueError):
            channel.apply(bad)


@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("batch", [(), (5,), (5, 4)], ids=["one", "n", "n-by-4"])
def test_expectations_matches_einsum_oracle(batch, k):
    # non-Hermitian operators: the real part of <psi|O|psi> still has to
    # come out of every entry of O
    rng = np.random.default_rng(len(batch) * 10 + k)
    d = 8
    ops = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    states = rng.standard_normal((*batch, d)) + 1j * rng.standard_normal((*batch, d))
    got = expectations(states, ops)
    assert got.shape == (*batch, k)
    assert got.dtype == np.float64
    assert max_abs(got - expectations_oracle(states, ops)) <= 1e-12 * max(1.0, max_abs(got))


def test_expectations_of_empty_stack():
    ops = np.stack([sigma_x, sigma_z])
    assert expectations(np.zeros((0, 2), dtype=complex), ops).shape == (0, 2)
