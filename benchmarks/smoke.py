#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at minimal run length.

    python3 benchmarks/smoke.py

First it feeds the output gate broken reports and checks that each one is
counted, and checks the tracer's invariants on one small traced report.  Then
it runs every workload untraced and traced with a zero-second window and one
timed report, so the gate, the cold-CLI checks and the traced-equals-untraced
check all execute on real reports.  It lives outside tests/ so the unit test
run does not slow down.  Exit status 0 when everything passed.
"""

from __future__ import annotations

import sys

import run
from gate import Tally
from tracer import TARGETS, Tracer


def gate_rejects_broken_reports(reference, config):
    """Each broken variant of a correct report must be counted as failed."""
    seed = 5

    def good():
        return {
            "suite": config["suite"],
            "config": {"tolerance": config["tolerance"], "seed": seed,
                       "trials": config["trials"], "cutoff": config["cutoff"]},
            "checks": [{"name": n, "max_deviation": 0.0, "pass": True} for n in reference],
            "all_pass": True,
        }

    def failed_check(doc):
        doc["checks"][3]["pass"] = False
        doc["all_pass"] = False

    def over_tolerance(doc):
        doc["checks"][0]["max_deviation"] = 10 * config["tolerance"]

    def swapped(doc):
        doc["checks"][0], doc["checks"][1] = doc["checks"][1], doc["checks"][0]

    def dropped(doc):
        doc["checks"].pop()

    def wrong_seed(doc):
        doc["config"]["seed"] = seed + 1

    def wrong_trials(doc):
        doc["config"]["trials"] += 1

    failures = []
    tally = Tally(reference, config)
    if not tally.check(good(), "good", seed) or tally.failed:
        failures.append("gate rejected a correct report")
    for breakage in (failed_check, over_tolerance, swapped, dropped, wrong_seed, wrong_trials):
        tally = Tally(reference, config)
        doc = good()
        breakage(doc)
        if tally.check(doc, breakage.__name__, seed) or not tally.failed:
            failures.append(f"gate accepted a report with {breakage.__name__}")
    return failures


def tracer_invariants():
    """Self times add up to the root span; wrappers are gone afterwards."""
    from qubitbench import linalg, suites

    config = suites.SuiteConfig(suite="repetition", trials=10, seed=3)
    plain = suites.run_suite(config)
    tracer = Tracer()
    with tracer.report(1):
        traced = suites.run_suite(config)
    failures = []
    if traced != plain:
        failures.append("traced report differs from the untraced one")
    rows = tracer.summary(1)
    root = rows["suites.run_suite"]["total_s"]
    self_total = sum(rows[span]["self_s"] for span, _, _, _ in TARGETS)
    if abs(self_total - root) > 1e-6 * max(1.0, root):
        failures.append(f"self times add to {self_total}, root span lasted {root}")
    if any(row["self_s"] < 0 for row in rows.values()):
        failures.append("a negative self time")
    if rows["repetition.error_operator"]["calls"] == 0:
        failures.append("calls through imported names were not traced")
    for fn in (suites.run_suite, suites.evolve, linalg.kron_all, linalg.KrausChannel.apply):
        if hasattr(fn, "__wrapped__"):
            failures.append(f"{fn.__name__} is still wrapped after the traced report")
    return failures


def main():
    nproc = run.setup_environment()
    if nproc is None:
        sys.stderr.write(f"smoke: no package source at {run.SRC / 'qubitbench'}\n")
        return 2
    workloads = run.load_json(run.HERE / "workloads.json")["workloads"]
    reference = run.load_json(run.HERE / "reference_names.json")
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    run.OUT.mkdir(exist_ok=True)

    failures = []
    for name, spec in workloads.items():
        failures += [f"{name}: {f}" for f in gate_rejects_broken_reports(reference[name], spec["config"])]
    failures += tracer_invariants()

    env = run.environment(nproc)
    for name, spec in workloads.items():
        for trace in (0, 1):
            workload = run.Workload(name, spec["config"], reference[name])
            line = run.run_workload(workload, 0, 0, trace, bench, env, min_reports=1)
            if not line["correct"]:
                failures.append(f"{name} trace={trace}: {line['failed']} failed")

    for f in failures:
        print(f"SMOKE FAIL {f}")
    print("smoke: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
