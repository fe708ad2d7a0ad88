"""The check list of run_suite, the families that emit it and what trips
them, and the package names the benchmark tracer wraps."""

import dataclasses
import functools
import importlib
import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qubitbench import collective as col
from qubitbench import dualrail as dr
from qubitbench import repetition as rep
from qubitbench import suites
from qubitbench.frames import frame_commutes_with
from qubitbench.linalg import KrausChannel, dagger, evolve, identity, max_abs
from qubitbench.suites import SuiteConfig, describe, run_suite

from linalg_oracles import miscorrecting_channel

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
REFERENCE = json.loads((BENCHMARKS / "reference_names.json").read_text())
WORKLOADS = json.loads((BENCHMARKS / "workloads.json").read_text())["workloads"]
PINNED = ("default-all", "bosonic-cutoff4", "trials-heavy")
SEEDS = (0, 1, 7)


def workload_config(workload, seed):
    c = WORKLOADS[workload]["config"]
    return SuiteConfig(suite=c["suite"], tolerance=c["tolerance"], seed=seed,
                       trials=c["trials"], cutoff=c["cutoff"])


def family_key(suite, family):
    return family.__name__.removeprefix(f"_{suite}_")


@pytest.mark.parametrize("workload", PINNED)
@pytest.mark.parametrize("seed", SEEDS)
def test_check_names_match_benchmark_reference(workload, seed):
    doc = run_suite(workload_config(workload, seed))
    assert [c["name"] for c in doc["checks"]] == REFERENCE[workload]
    assert doc["all_pass"]


def test_every_check_belongs_to_one_described_family(monkeypatch):
    emitted = []

    def recording(suite, family):
        @functools.wraps(family)
        def wrapper(s):
            for name, deviation in family(s):
                emitted.append((f"{suite}/{name}", family_key(suite, family)))
                yield name, deviation
        return wrapper

    for suite, families in list(suites._FAMILIES.items()):
        monkeypatch.setitem(suites._FAMILIES, suite,
                            tuple(recording(suite, f) for f in families))
    configs = [workload_config(w, 0) for w in PINNED] + [SuiteConfig(trials=0)]
    for config in configs:
        emitted.clear()
        names = [c["name"] for c in run_suite(config)["checks"]]
        assert [name for name, _ in emitted] == names, config
        assert len(set(names)) == len(names), config
        for name, key in emitted:
            suite = name.split("/")[0]
            entries = [line for line in describe(suite).splitlines()
                       if line.startswith(f"  {key}: ")]
            assert len(entries) == 1, (name, key)
            assert len(entries[0]) > len(f"  {key}: "), (name, key)


def load_tracer():
    spec = importlib.util.spec_from_file_location("qubitbench_tracer", BENCHMARKS / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = load_tracer()
    for span, module, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {module}.{attr} is not defined"
            owner = getattr(owner, part)
        assert callable(owner), span
    # the smoke check reads the evolve binding of suites
    assert callable(suites.evolve)


def test_tracer_sees_every_runner():
    tracer = load_tracer()
    t = tracer.Tracer()
    with t.report(1):
        # through the module attribute: the tracer wraps package bindings only
        suites.run_suite(SuiteConfig(suite="all", trials=0))
    rows = t.summary(1)
    for suite in suites.SUITE_NAMES[:-1]:
        assert rows[f"suites.run_{suite}"]["calls"] == 1, suite
    assert rows["suites.run_suite"]["calls"] == 1
    assert rows["dualrail.csign"]["calls"] == 1


def test_bosonic_gates_exponentiate_on_their_two_modes():
    tracer = load_tracer()
    t = tracer.Tracer()
    with t.report(1):
        suites.run_suite(SuiteConfig(suite="bosonic", cutoff=4))
    rows = t.summary(1)
    # no evolve on the 625-dim register: the gates are exponentiated on the
    # (cutoff + 1)^2 space of their two modes, as is the one-qubit frame
    assert max(rows["linalg.evolve"]["sizes"]) <= (4 + 1) ** 2
    assert rows["dualrail.csign"]["calls"] == 1
    # nor are they built on it: the suite applies their two-mode factors
    assert max(rows["dualrail.csign"]["sizes"]) <= (4 + 1) ** 2
    assert max(rows["dualrail.beam_splitter"]["sizes"]) <= (4 + 1) ** 2


def test_algebra_structures_are_built_once_per_report():
    tracer = load_tracer()
    t = tracer.Tracer()
    for report in (1, 2):
        with t.report(report):
            suites.run_suite(SuiteConfig())
    for report in (1, 2):
        rows = t.summary(report)
        # collective noise, error-recovery words, Pauli, the trivial algebra
        # and two bicommutants; the second report builds them all again
        assert rows["frames.commutant_basis"]["calls"] == 6, report
        assert rows["frames.isotypic_decomposition"]["calls"] <= 4, report


@pytest.mark.parametrize("suite", ["algebra", "collective", "repetition"])
def test_suite_alone_matches_its_slice_of_all(suite):
    whole = run_suite(SuiteConfig())["checks"]
    alone = run_suite(SuiteConfig(suite=suite))["checks"]
    assert alone == [c for c in whole if c["name"].startswith(f"{suite}/")]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_family_that_draws_moves_no_other_family(seed, monkeypatch):
    before = run_suite(SuiteConfig(seed=seed))["checks"]

    def _drawing(s):
        """Draws five numbers from its stream and emits nothing."""
        s.rng.standard_normal(5)
        yield from ()

    for suite, families in list(suites._FAMILIES.items()):
        monkeypatch.setitem(suites._FAMILIES, suite, (_drawing,) + families)
    assert run_suite(SuiteConfig(seed=seed))["checks"] == before


def csign_checks(cutoff, gate):
    s = SimpleNamespace(config2=dr.FockConfig(2, cutoff), config4=dr.FockConfig(4, cutoff),
                        csign=gate)
    return dict(suites._bosonic_csign(s))


def test_csign_family_trips_on_corrupted_gates():
    tol = SuiteConfig().tolerance
    pair = dr.FockConfig(2, 2)
    assert max(csign_checks(2, dr.csign(pair, 1, 2)).values()) <= tol
    pair_loss = dr.annihilation(pair, 1) @ dr.annihilation(pair, 2)  # a (x) a
    nonconserving = evolve(pair_loss + dagger(pair_loss), 0.3)
    breakers = {
        "csign_logical_matrix": dr.csign(pair, 1, 2, theta=np.pi / 4 + 0.1),
        "csign_unitary": 1.01 * dr.csign(pair, 1, 2),
        "csign_conserves_photon_number": nonconserving,
    }
    for name, gate in breakers.items():
        assert csign_checks(2, gate)[name] > tol, name


def dense_csign_deviations(cutoff):
    """The csign family's deviations computed on the 4-mode register gate."""
    config4 = dr.FockConfig(4, cutoff)
    u = dr.csign(config4)
    logical = [dr.prepare_logical(config4, bits) for bits in suites._TWO_QUBIT_BITS]
    m = np.array([[np.vdot(a, u @ b) for b in logical] for a in logical])
    phase = m[0, 0] / abs(m[0, 0])
    n_total = sum(dr.number(config4, k) for k in range(1, 5))
    return {
        "csign_logical_matrix": max_abs(m / phase - np.diag([1.0, 1.0, 1.0, -1.0])),
        "csign_unitary": max_abs(dagger(u) @ u - identity(config4.dim)),
        "csign_conserves_photon_number": max_abs(u * n_total - n_total[:, None] * u),
    }


@pytest.mark.parametrize("cutoff", [2, 3, 4])
def test_csign_family_on_the_pair_matches_the_dense_register(cutoff):
    on_pair = csign_checks(cutoff, dr.csign(dr.FockConfig(2, cutoff), 1, 2))
    dense = dense_csign_deviations(cutoff)
    assert on_pair.keys() == dense.keys()
    for name, deviation in dense.items():
        assert abs(on_pair[name] - deviation) <= 1e-15, name


@pytest.mark.parametrize("workload", PINNED)
def test_tolerance_only_moves_pass_flags(workload):
    def report(tol):
        return run_suite(dataclasses.replace(workload_config(workload, 0), tolerance=tol))

    base = report(1e-9)
    for tol in (1e-3, 1e-15, 2.0):
        doc = report(tol)
        assert doc.keys() == base.keys()
        assert doc["suite"] == base["suite"]
        assert doc["config"] == {**base["config"], "tolerance": tol}
        assert ([(c["name"], c["max_deviation"]) for c in doc["checks"]]
                == [(c["name"], c["max_deviation"]) for c in base["checks"]])
        assert all(c["pass"] == (c["max_deviation"] <= tol) for c in doc["checks"])
        assert doc["all_pass"] == all(c["pass"] for c in doc["checks"])


def test_a_deviation_at_the_tolerance_passes_and_nan_fails(monkeypatch):
    tol = SuiteConfig().tolerance

    def boundary(s):
        """A deviation equal to the tolerance, and one that is not a number."""
        yield "at_tolerance", tol
        yield "not_a_number", float("nan")

    monkeypatch.setitem(suites._FAMILIES, "algebra", (boundary,))
    doc = run_suite(SuiteConfig(suite="algebra", tolerance=tol))
    assert [(c["name"], c["pass"]) for c in doc["checks"]] == [
        ("algebra/at_tolerance", True), ("algebra/not_a_number", False)]
    assert doc["checks"][0]["max_deviation"] == tol
    assert math.isnan(doc["checks"][1]["max_deviation"])
    assert not doc["all_pass"]


def with_nan(matrix):
    """A copy of matrix with one NaN entry."""
    out = matrix.copy()
    out[3, 5] = np.nan
    return out


def test_a_nan_exchange_sector_entry_fails_all_three_sector_checks(monkeypatch):
    first, second = col.exchange_sector_frames()
    nan_frames = (first, dataclasses.replace(second, x=with_nan(second.x)))
    monkeypatch.setattr(col, "exchange_sector_frames", lambda: nan_frames)
    doc = run_suite(SuiteConfig(suite="collective", trials=0))
    sector = [c for c in doc["checks"] if c["name"].startswith("collective/exchange_sector_")]
    assert len(sector) == 3
    assert all(math.isnan(c["max_deviation"]) and not c["pass"] for c in sector)
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [c["name"] for c in sector]


# verify_frame entries that read one member of a frame with a NaN at the
# off-diagonal (3, 5): the support trace reads only the diagonal of P, and
# hermiticity and the commutators read only X, Y and Z
VERIFY_FRAME_READS = {
    "support": ("pairwise_anticommutators", "squares_equal_support",
                "observables_confined_to_support"),
    **dict.fromkeys("xyz", ("hermitian_observables", "cyclic_commutators",
                            "pairwise_anticommutators", "squares_equal_support",
                            "observables_confined_to_support")),
}
# flavor-specific checks: the omega X against the pair swap and the route
# labels, the omega Z against the triple product and the singlet-triplet Z
# against the pair swap; the exchange sectors are built from the omega
# isometry and read no frame member
SCALAR_IDENTITY_READS = {
    ("omega", "x"): ("swap_equals_scalar_combination", "swap_exchanges_route_labels"),
    ("omega", "z"): ("z_is_antisymmetric_triple_product",),
    ("singlet_triplet", "z"): ("swap_equals_scalar_combination",),
}


def collective_checks_reading(flavor, member):
    """Names of the collective checks that read the given member of the
    given flavor's noiseless frame."""
    names = {f"frame_{flavor}/{name}" for name in VERIFY_FRAME_READS[member]}
    names |= {f"frame_commutes_with_noise_{flavor}",
              f"collective_unitary_expectation_invariance_{flavor}",
              "frame_generates_full_qubit_algebra"}
    names |= set(SCALAR_IDENTITY_READS.get((flavor, member), ()))
    return {f"collective/{name}" for name in names}


@pytest.mark.parametrize("member", ["support", "x", "y", "z"])
@pytest.mark.parametrize("flavor", col.FLAVORS)
def test_a_nan_noiseless_frame_entry_fails_every_invariance_check_that_reads_it(
        flavor, member, monkeypatch):
    # the whole suite: the NaN also reaches generated_algebra_dimension
    exact = col.noiseless_frame
    clean = run_suite(SuiteConfig(suite="collective"))["checks"]

    def noiseless_frame(f):
        frame = exact(f)
        if f != flavor:
            return frame
        return dataclasses.replace(frame, **{member: with_nan(getattr(frame, member))})

    monkeypatch.setattr(col, "noiseless_frame", noiseless_frame)
    checks = run_suite(SuiteConfig(suite="collective"))["checks"]
    assert len(checks) == 48
    assert [c["name"] for c in checks] == [c["name"] for c in clean]
    reads = collective_checks_reading(flavor, member)
    assert {c["name"] for c in checks if not c["pass"]} == reads
    # every check that reads the member reads NaN; the others as on exact frames
    for got, want in zip(checks, clean):
        if got["name"] in reads:
            assert math.isnan(got["max_deviation"]), got["name"]
        else:
            assert got == want


def test_a_nan_kernel_margin_fails_the_margin_checks(monkeypatch):
    exact = col.joint_kernel_dimension
    monkeypatch.setattr(col, "joint_kernel_dimension", lambda n: (exact(n)[0], float("nan")))
    doc = run_suite(SuiteConfig(suite="collective", trials=0))
    failed = [c for c in doc["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == [
        f"collective/kernel_split_margin_{n}_spins" for n in (3, 2, 4)]
    assert all(math.isnan(c["max_deviation"]) for c in failed)


def test_a_collective_report_builds_each_noiseless_frame_once(monkeypatch):
    exact, built = col.noiseless_frame, []

    def counting(flavor):
        built.append(flavor)
        return exact(flavor)

    monkeypatch.setattr(col, "noiseless_frame", counting)
    run_suite(SuiteConfig(suite="collective"))
    assert sorted(built) == sorted(col.FLAVORS)


def test_a_scaled_protected_basis_breaks_the_purity_check(monkeypatch):
    # V^dag V = 1.01^2 on the scaled basis, so the state read back in
    # protected coordinates is 1.01^4 times the exact one and its purity
    # 1.01^8 times
    exact = col.protected_basis
    monkeypatch.setattr(col, "protected_basis", lambda flavor: 1.01 * exact(flavor))
    [(_, dev)] = suites._collective_purity(SimpleNamespace(rng=np.random.default_rng(0)))
    assert dev > SuiteConfig().tolerance
    assert dev == pytest.approx(1.01 ** 8 - 1.0, abs=1e-12)


def test_a_miscorrecting_recovery_trips_the_recovery_family():
    # K_a = E_(a+1)/2 is trace preserving, but R_a E_a = E_(a+1) E_a / 2
    # has no weight on the code (|<000|R_a E_a|000>| = 0), and R_(b-1) E_b
    # = 1/2 keeps half of every code state
    checks = dict(suites._repetition_recovery(SimpleNamespace(channel=miscorrecting_channel())))
    assert checks == {
        "recovery_trace_preserving": pytest.approx(0.0, abs=1e-15),
        "matched_recovery_is_identity_on_code": pytest.approx(1.0, abs=1e-12),
        "mismatched_recovery_annihilates_code": pytest.approx(0.5, abs=1e-12),
    }


def test_scaled_recovery_operators_trip_trace_preservation():
    # sum_a (1.01 R_a)^dag (1.01 R_a) = 1.0201
    channel = KrausChannel(tuple(1.01 * k for k in rep.recovery_channel().ops))
    [(name, dev), *_] = suites._repetition_recovery(SimpleNamespace(channel=channel))
    assert name == "recovery_trace_preserving"
    assert dev == pytest.approx(1.01 ** 2 - 1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_a_miscorrecting_recovery_is_not_idempotent(seed):
    # recovering twice moves a random state again: 0.046-0.089 over seeds 0-4
    s = SimpleNamespace(channel=miscorrecting_channel(), rng=np.random.default_rng(seed))
    [(name, dev)] = suites._repetition_recovery_idempotent(s)
    assert name == "recovery_channel_idempotent"
    assert dev > 0.01


@pytest.mark.parametrize("dropped", range(4))
def test_a_commutant_missing_an_element_trips_the_protected_frame_check(dropped):
    # the words' commutant is M_2 (x) 1_4; without one of its four
    # elements the frame leaves 1.11-1.17 outside the span, while every
    # commutator of the frame with the words still reads 0.0
    words = suites._Structures()["error_recovery_words"]
    truncated = dataclasses.replace(
        words, commutant=words.commutant[:dropped] + words.commutant[dropped + 1:])
    s = SimpleNamespace(structures={"error_recovery_words": truncated})
    [(name, dev)] = suites._algebra_protected_frame(s)
    assert name == "protected_frame_in_noise_commutant"
    assert dev > 1.0
    assert frame_commutes_with(rep.frame_from_errors(), truncated.algebra) == 0.0
