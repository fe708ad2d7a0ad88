"""Encoded-qubit frames and finite-dimensional operator-algebra tools.

An encoded qubit is specified operationally: a support projector P together
with Hermitian observables X, Y, Z that reproduce the Pauli relations on the
range of P.  ``frame_from_isometry`` builds one from an isometry V onto a
subsystem C^2 (x) C^m of the physical space: P = V V^dag and each
observable is V (sigma (x) 1_m) V^dag.  ``gauge_split`` reads an operator O
on the same subsystem: V^dag O V is 1_2 (x) G, noise that spares the qubit,
up to a residual.  ``verify_frame`` turns the definition into named
deviations, one per relation, each one ``linalg.max_abs`` over the
relation's residuals, so a NaN entry of any member reaches every deviation
that reads it; judging them against a tolerance is left to the caller.
The commutant and isotypic machinery locates such qubits inside the structure
that a noise algebra imposes on the state space.

The isotypic split needs no random numbers.  The center of the algebra is
the center of its commutant, a commutative algebra spanned by the projectors
onto the isotypic components, so their ranges are exactly the joint
eigenspaces of the center.  ``isotypic_decomposition`` diagonalizes the
Hermitian parts of an orthonormal center basis one after another, each on the
eigenspaces left by the ones before, and starts a new space at every gap
larger than ``CLUSTER_GAP``.  Two components always differ somewhere: with
an orthonormal center basis B_k of c elements on n dimensions, some Hermitian
part separates any two of them by at least 1/sqrt(n c), which is far above
the gap for the algebras here.  The same commutant basis therefore always
gives the same blocks, and no draw can fail to separate them.
``algebra_structure`` builds the commutant and the blocks of an algebra once,
for every check that reads them.

The commutant and the word span see the generators through their span
rows: the rows s_k vh_k of the SVD of the generators and adjoints, one per
dimension of their linear span.  A rotation of the generator list changes
neither the singular values nor the nullspace of a stack of linear
conditions over it, so the error-recovery words stack 16 commutant blocks
instead of 28, and the bicommutants stack one block per commutant element
instead of two.  A word step closes the span without an SVD when its
projected products are within the new-direction cutoff in Frobenius norm,
which bounds their largest singular value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    commutator,
    anticommutator,
    dagger,
    identity,
    is_hermitian,
    kron,
    max_abs,
    partial_trace,
    sigma_x,
    sigma_y,
    sigma_z,
)

__all__ = [
    "EncodedQubitFrame",
    "frame_from_isometry",
    "gauge_split",
    "OperatorAlgebra",
    "AlgebraStructure",
    "verify_frame",
    "commutant_basis",
    "center_from_commutant",
    "isotypic_decomposition",
    "algebra_structure",
    "frame_commutes_with",
    "expectation",
    "generated_algebra_dimension",
]


@dataclass(frozen=True)
class EncodedQubitFrame:
    """Support projector plus encoded X, Y, Z observables."""

    support: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("support", "x", "y", "z"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        shape = self.support.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("support must be a square matrix")
        for name in ("x", "y", "z"):
            if getattr(self, name).shape != shape:
                raise ValueError(f"frame member {name} has mismatched dimension")

    @property
    def ambient_dim(self):
        return self.support.shape[0]

    def observables(self):
        return (self.x, self.y, self.z)


def frame_from_isometry(v):
    """Frame of the qubit factor of the isometry v: P = V V^dag and
    O = V (sigma (x) 1_m) V^dag for sigma in X, Y, Z.

    v has 2m orthonormal columns; column m i + j is the image of
    |i> (x) |j>, qubit index major and gauge index minor.
    """
    v = np.asarray(v, dtype=complex)
    gauge = identity(v.shape[1] // 2)
    x, y, z = (v @ kron(s, gauge) @ dagger(v) for s in (sigma_x, sigma_y, sigma_z))
    return EncodedQubitFrame(support=v @ dagger(v), x=x, y=y, z=z)


def gauge_split(v, op):
    """G = tr_1(V^dag O V) / 2 on the gauge factor of v, in the column order of
    ``frame_from_isometry``, and residual = max_abs(V^dag O V - 1_2 (x) G),
    zero exactly when O acts on the subsystem as 1 (x) G."""
    m = dagger(v) @ op @ v
    g = partial_trace(m, (2, v.shape[1] // 2), {1}) / 2.0
    return g, max_abs(m - kron(identity(2), g))


def verify_frame(frame):
    """Named worst entrywise deviations of (P, X, Y, Z) from one qubit's algebra.

    An ordered dict over six checks: hermiticity, the cyclic commutators
    [A,B] = 2iC, the anticommutators {A,B} = 2 delta_AB P, squares A^2 = P,
    confinement PA = AP = A, and an even support trace of at least 2 (a
    qubit needs two levels per syndrome value).
    """
    p = frame.support
    obs = dict(zip("XYZ", frame.observables()))

    herm = max_abs(*(o - dagger(o) for o in obs.values()))
    comm = max_abs(*(commutator(obs[a], obs[b]) - 2j * obs[c]
                     for a, b, c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y"))))
    anti = max_abs(*(anticommutator(obs[a], obs[b]) - (2.0 * p if a == b else 0.0)
                     for a in "XYZ" for b in "XYZ"))
    squares = max_abs(*(o @ o - p for o in obs.values()))
    confined = max_abs(*(q - o for o in obs.values() for q in (p @ o, o @ p)))

    tr = float(np.real(np.trace(p)))
    nearest_even = max(2.0, 2.0 * np.round(tr / 2.0))
    parity = abs(tr - nearest_even)

    return {
        "hermitian_observables": herm,
        "cyclic_commutators": comm,
        "pairwise_anticommutators": anti,
        "squares_equal_support": squares,
        "observables_confined_to_support": confined,
        "support_trace_even": parity,
    }


@dataclass(frozen=True)
class OperatorAlgebra:
    """A set of generators on one ambient space; adjoints are implied."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=complex) for g in self.generators)
        if not gens:
            raise ValueError("OperatorAlgebra needs at least one generator")
        dim = gens[0].shape[0]
        for g in gens:
            if g.ndim != 2 or g.shape != (dim, dim):
                raise ValueError("generators must be square with one shared dimension")
        object.__setattr__(self, "generators", gens)

    @property
    def ambient_dim(self):
        return self.generators[0].shape[0]

    def with_adjoints(self):
        out = list(self.generators)
        for g in self.generators:
            gd = dagger(g)
            if max_abs(g - gd) > 0.0:
                out.append(gd)
        return out


def _row_reduced(stacked):
    """stacked, or for a tall stack the square R of its QR factorization.

    R has the same singular values and right singular vectors as the tall
    stack, so an SVD of it never forms the tall left factor.
    """
    if stacked.shape[0] > stacked.shape[1]:
        return np.linalg.qr(stacked, mode="r")
    return stacked


def _nullspace(stacked):
    """Orthonormal rows spanning the nullspace of stacked.

    The vh of a square or tall stack, reduced by ``_row_reduced``, is
    square, a complete basis of the unknowns; a wide stack needs the full
    vh for that.
    """
    rows, cols = stacked.shape
    _, svals, vh = np.linalg.svd(_row_reduced(stacked), full_matrices=rows < cols)
    cutoff = NULLSPACE_RCOND * max(1.0, svals[0] if len(svals) else 1.0)
    rank = int(np.sum(svals > cutoff))
    return vh[rank:].conj()


def _span_rows(gens):
    """Rows s_k vh_k, as (r, n, n) matrices, of the thin SVD of the (g, n^2)
    matrix of the generators gens.

    They are the unitary rotation U^dag of the generator list, so a linear
    condition stacked over them has the singular values and the nullspace
    of the same condition stacked over gens.  Rows with s_k at most
    eps n^2 s_0 hold only the round-off of linear dependences and are
    dropped, which moves those singular values by rounding level.  The rows
    keep their s_k, so a small independent direction stays a small
    constraint.  An all-zero list has no rows.
    """
    n = gens.shape[-1]
    _, svals, vh = np.linalg.svd(gens.reshape(len(gens), -1), full_matrices=False)
    keep = svals > np.finfo(float).eps * n * n * svals[0]
    return (svals[keep, None] * vh[keep]).reshape(-1, n, n)


def commutant_basis(alg):
    """Orthonormal basis of {M : [M, G] = 0 for all generators and adjoints}.

    Found as the nullspace of the stacked linear commutation constraints; for
    vec in row-major order, vec(MG - GM) = (1 (x) G^T - G (x) 1) vec(M).
    The stack holds one block per span row of the generators and adjoints
    (see ``_span_rows``), one per dimension of their linear span: 16 blocks
    for the error-recovery words, whose 28 generators and adjoints span 16.
    """
    n = alg.ambient_dim
    gens = _span_rows(np.array(alg.with_adjoints()))
    # entry (g, a, b; c, d) of the stack is delta_ac G_db - G_ac delta_bd,
    # written in place: a broadcast product would hold two more stacks
    stack = np.zeros((len(gens), n, n, n, n), dtype=complex)
    diag = np.arange(n)
    stack[:, diag, :, diag, :] = gens.transpose(0, 2, 1)
    stack[:, :, diag, :, diag] -= gens
    return [row.reshape(n, n) for row in _nullspace(stack.reshape(-1, n * n))]


def center_from_commutant(comm):
    """Orthonormal (Hilbert-Schmidt) basis of the center of an algebra.

    comm is an orthonormal basis of the algebra's commutant, which is closed
    under adjoints.  The center is the commutant's own center, so it is
    found as the coefficients c with sum_i c_i [B_i, B_j] = 0 for every j:
    a (c n^2) x c system instead of a commutant stack over n^2 unknowns.
    """
    basis = np.array(comm)
    prods = np.einsum("iab,jbc->ijac", basis, basis)
    # column i of the system holds [B_i, B_j] for every j
    brackets = prods - prods.transpose(1, 0, 2, 3)
    coeffs = _nullspace(brackets.reshape(len(comm), -1).T)
    return list(np.tensordot(coeffs, basis, axes=1))


# Eigenvalues of a central element closer than this lie in one component.
CLUSTER_GAP = 1e-6
# Relative singular values at most this span the commutant or center nullspace.
NULLSPACE_RCOND = 1e-10
# Relative singular values above this count toward the rank of a matrix span.
SPAN_RCOND = 1e-8
# A projected candidate word above this relative size is a new algebra direction.
NEW_DIRECTION_RCOND = 1e-8


def _span_rank(matrices):
    stacked = np.reshape(matrices, (len(matrices), -1))
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals > SPAN_RCOND * max(1.0, svals[0])))


def _eigenspaces(v, h):
    """The range of the isometry v split by the eigenvalues of h on it."""
    w, u = np.linalg.eigh(dagger(v) @ h @ v)
    cuts = np.flatnonzero(np.diff(w) > CLUSTER_GAP) + 1
    return [v @ part for part in np.split(u, cuts, axis=1)]


def isotypic_decomposition(comm):
    """Sorted tuple of the blocks (m_i, d_i) of the algebra whose commutant
    has basis comm.

    The joint eigenspaces of the center are the isotypic components (see the
    module docstring); within each the commutant restricts to a full matrix
    algebra of dimension m_i^2, and the component dimension factors as
    m_i * d_i.  Raises LinAlgError unless the blocks meet the dimension
    identities sum m_i d_i = n and sum m_i^2 = len(comm).
    """
    comm = np.array(comm)
    n = comm.shape[1]
    spaces = [identity(n)]
    for b in center_from_commutant(comm):
        for h in ((b + dagger(b)) / 2.0, (b - dagger(b)) / 2.0j):
            spaces = [part for v in spaces for part in _eigenspaces(v, h)]

    blocks = []
    for v in spaces:
        m_sq = _span_rank(dagger(v) @ comm @ v)
        m = math.isqrt(m_sq)
        if m * m != m_sq or m == 0 or v.shape[1] % m != 0:
            raise np.linalg.LinAlgError(
                f"component of dim {v.shape[1]} gave commutant rank {m_sq}")
        blocks.append((m, v.shape[1] // m))

    blocks = tuple(sorted(blocks))
    if (sum(m * d for m, d in blocks) != n
            or sum(m * m for m, _ in blocks) != len(comm)):
        raise np.linalg.LinAlgError(f"blocks {blocks} miss the dimension identities")
    return blocks


@dataclass(frozen=True)
class AlgebraStructure:
    """An algebra with its commutant basis and its sorted isotypic blocks
    (multiplicity, irrep dimension)."""

    algebra: OperatorAlgebra
    commutant: tuple
    blocks: tuple


def algebra_structure(alg):
    """The commutant and the isotypic blocks of alg, each computed once."""
    comm = tuple(commutant_basis(alg))
    return AlgebraStructure(alg, comm, isotypic_decomposition(comm))


def frame_commutes_with(frame, alg):
    """Worst entry of [M, G] over the frame members M = P, X, Y, Z and the
    generators G of alg; zero when the frame lies in the commutant."""
    if frame.ambient_dim != alg.ambient_dim:
        raise ValueError("frame and algebra dimensions differ")
    members = (frame.support,) + frame.observables()
    return max_abs(*(commutator(m, g) for g in alg.generators for m in members))


def expectation(op, state):
    """<psi|O|psi> for kets, tr(rho O) for density operators; O Hermitian."""
    op = np.asarray(op, dtype=complex)
    if not is_hermitian(op):
        raise ValueError("expectation requires a Hermitian operator")
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        if op.shape[0] != state.shape[0]:
            raise ValueError("operator and state dimensions differ")
        value = np.vdot(state, op @ state)
    elif state.ndim == 2:
        if op.shape != state.shape:
            raise ValueError("operator and state dimensions differ")
        value = np.trace(state @ op)
    else:
        raise ValueError("state must be a vector or a density operator")
    return float(np.real(value))


def _new_directions(candidates, basis):
    """Orthonormal rows spanning what candidates add to the span of the
    orthonormal rows of basis.

    A projected block whose Frobenius norm is within the cutoff adds no
    row without an SVD: its largest singular value is at most that norm.
    """
    cutoff = NEW_DIRECTION_RCOND * np.max(np.linalg.norm(candidates, axis=1), initial=1.0)
    for _ in range(2):  # a second pass removes the round-off the first leaves
        candidates = candidates - (candidates @ basis.conj().T) @ basis
    if np.linalg.norm(candidates) <= cutoff:
        return candidates[:0]
    _, svals, vh = np.linalg.svd(_row_reduced(candidates), full_matrices=False)
    return vh[svals > cutoff]


def generated_algebra_dimension(alg, word_length, restrict_to=None):
    """Linear dimension of the span of generator words up to word_length.

    Words start from the identity and multiply generators and adjoints on the
    right.  The span is kept as an orthonormal basis, and each step
    multiplies only the directions the previous one added by the span rows
    of the generators and adjoints (see ``_span_rows``), one per dimension
    of their linear span, so a step costs at most n^2 products per span
    row.  A step whose projected products are within the cutoff in
    Frobenius norm closes the span without an SVD.  restrict_to, if given,
    is an isometry whose columns frame the subspace on which the span is
    measured.  A generator with a non-finite entry gives NaN, before any
    SVD can fail on it.
    """
    gens = np.array(alg.with_adjoints())
    if not np.isfinite(gens).all():
        return math.nan
    gens = _span_rows(gens)
    n = alg.ambient_dim
    basis = identity(n).reshape(1, -1) / np.sqrt(n)
    new = basis
    for _ in range(word_length):
        new = _new_directions((new.reshape(-1, 1, n, n) @ gens).reshape(-1, n * n), basis)
        if not len(new):
            # One more letter added no direction: the span is closed under
            # the product, so longer words cannot either.
            break
        basis = np.vstack([basis, new])
    if restrict_to is None:
        return len(basis)
    return _span_rank(dagger(restrict_to) @ basis.reshape(-1, n, n) @ restrict_to)
