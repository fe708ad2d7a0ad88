"""Output gate: every report the benchmark times must be a correct report.

A report passes when ``all_pass`` is true, its suite and config are the
workload's, its check names and their order equal the committed reference
list, and every deviation is at most the tolerance.  Anything that fails is
counted, never dropped: ``failed`` counts failed checks plus mismatched
reports, ``attempted`` counts the checks the reference list asks for.
"""

from __future__ import annotations


class Tally:
    def __init__(self, reference_names, config):
        self.reference = list(reference_names)
        self.config = dict(config)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0

    def mismatch(self, label, message):
        """Count one mismatched report."""
        self.failed += 1
        self.problems.append(f"{label}: {message}")

    def missing(self, label, message):
        """A report that never arrived: all of its checks failed."""
        self.attempted += len(self.reference)
        self.failed += len(self.reference)
        self.mismatch(label, message)

    def check(self, doc, label, seed):
        """Gate one report document; returns True when it passes."""
        checks = doc.get("checks", [])
        tol = self.config["tolerance"]
        failed = 0
        for i, name in enumerate(self.reference):
            c = checks[i] if i < len(checks) else None
            if (c is None or c.get("name") != name or c.get("pass") is not True
                    or not c.get("max_deviation", float("nan")) <= tol):
                failed += 1
        self.attempted += len(self.reference)
        self.failed += failed
        if failed:
            self.problems.append(f"{label}: {failed} check(s) failed or out of place")
        problems = []
        if [c.get("name") for c in checks] != self.reference:
            problems.append("check names or order differ from the reference list")
        if doc.get("all_pass") is not True:
            problems.append("all_pass is not true")
        if doc.get("suite") != self.config["suite"]:
            problems.append(f"suite {doc.get('suite')!r} is not {self.config['suite']!r}")
        got = doc.get("config", {})
        expected = dict(self.config, seed=seed)
        for key in ("tolerance", "seed", "trials", "cutoff"):
            if got.get(key) != expected[key]:
                problems.append(f"config {key}={got.get(key)!r}, expected {expected[key]!r}")
        if problems:
            self.mismatch(label, "; ".join(problems))
        return not failed and not problems
