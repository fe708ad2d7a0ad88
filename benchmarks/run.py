#!/usr/bin/env python3
"""The qubitbench benchmark: end-to-end metrics and a traced per-layer table.

Run from the repository root.  One workload:

    python3 benchmarks/run.py --workload default-all --seed 0 --seconds 30 --trace 0

Every workload in turn (the default), then the per-layer table of each:

    python3 benchmarks/run.py
    python3 benchmarks/run.py --trace 1

The package is driven only through its public entry points:
``qubitbench.suites.run_suite(SuiteConfig(...))`` in this process, and
``python -m qubitbench.cli ... --format json --out FILE`` as a fresh process.
The load is a closed loop with one client: a report starts only after the
previous one has finished.  Report i of a run uses seed ``--seed + i``;
report 0 is an untimed in-process warm-up.

``--trace 0`` measures, for the ``end_to_end`` metrics of BENCHMARK.json:

  setup_s       median wall time of a fresh interpreter importing qubitbench.cli
  cli_cold_s    median wall time of a fresh CLI process on the workload, from
                start to exit (every cold run uses the base seed; their JSON
                must be byte-identical and equal to the warm-up report)
  peak_rss_mb   median peak resident memory of those CLI processes
  report_s_p50  median wall time of a warm in-process run_suite
  report_s_tail the sample at the highest percentile that has ten samples
                beyond it; a run with fewer than 21 samples has no such
                percentile at or above the median and reports its maximum

``--trace 1`` runs pairs of reports on one seed, untraced and then traced
through ``qubitbench.cli.main`` in this process, and reports the
``per_layer`` metrics: medians over the traced reports of the values
``tracer.layer_values`` derives from the spans.  Tracing overhead is the
traced median report time minus the untraced one.

Every report passes the output gate in gate.py or is counted as failed; the
fail ratio is ``failed / attempted`` of the result line.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Samples, the run environment and, when tracing, the spans are
written under .bench_out/.  Exit status: 0 when every report passed the gate,
1 when one did not, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Tally
from tracer import Tracer, layer_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 4
COLD_RUNS = 2
MIN_REPORTS = 3
TAIL_BEYOND = 10
WAIT_OMITTED = "omitted for every layer: the package has no queues and no I/O waits"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_args(config, seed):
    return ["--suite", config["suite"], "--tol", repr(config["tolerance"]),
            "--seed", str(seed), "--trials", str(config["trials"]),
            "--cutoff", str(config["cutoff"]), "--format", "json"]


def fresh_process(args, log_path):
    """Run ``python <args>`` with the package source on the path, through
    launch.py.  Returns (wall seconds from start to exit, peak RSS in MB,
    exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(HERE / "launch.py"), str(log_path),
                          sys.executable, *args],
                         cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True)
    got = json.loads(out.stdout)
    return got["wall_s"], got["peak_rss_mb"], got["exit_code"]


def tail(samples):
    """(value, percentile) of the tail sample; see the module docstring."""
    xs = sorted(samples)
    n = len(xs)
    j = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    return xs[j], 100.0 * (j + 1) / n


def blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas_threads_set": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_in_use": blas_threads_in_use(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
    }


class Workload:
    """One workload: its fixed config, reference check names and gate tally."""

    def __init__(self, name, config, reference):
        self.name = name
        self.config = config
        self.tally = Tally(reference, config)

    def suite_config(self, seed):
        from qubitbench.suites import SuiteConfig

        c = self.config
        return SuiteConfig(suite=c["suite"], tolerance=c["tolerance"], seed=seed,
                           trials=c["trials"], cutoff=c["cutoff"])

    def timed_report(self, seed, label):
        from qubitbench import suites

        start = time.perf_counter()
        doc = suites.run_suite(self.suite_config(seed))
        elapsed = time.perf_counter() - start
        self.tally.check(doc, label, seed)
        return doc, elapsed

    def read_report(self, path, label, seed):
        """Parse and gate a report file; returns (bytes, doc) or (None, None)."""
        try:
            data = path.read_bytes()
            doc = json.loads(data)
        except (OSError, ValueError) as exc:
            self.tally.missing(label, f"no readable report: {exc}")
            return None, None
        self.tally.check(doc, label, seed)
        return data, doc

    def setup_sample(self):
        elapsed, _, code = fresh_process(["-c", "import qubitbench.cli"],
                                         OUT / f"setup-{self.name}.log")
        if code != 0:
            self.tally.mismatch("setup", f"importing qubitbench.cli exited with {code}")
        return elapsed

    def cold_run(self, seed, label):
        """One fresh CLI process: (wall s, peak RSS MB, report bytes, report)."""
        path = OUT / f"cold-{self.name}.json"
        path.unlink(missing_ok=True)
        elapsed, peak, code = fresh_process(
            ["-m", "qubitbench.cli", *cli_args(self.config, seed), "--out", str(path)],
            OUT / f"cold-{self.name}.log")
        if code != 0:
            self.tally.mismatch(label, f"CLI exited with {code}")
        data, doc = self.read_report(path, label, seed)
        return elapsed, peak, data, doc

    def end_to_end(self, seed, seconds, min_reports):
        """Samples behind the end-to-end metrics of one run.

        After a few set-up samples and the warm-up, each step of the measuring
        window runs one cold CLI process on the base seed, one set-up sample
        and one warm report, so every kind of sample spans the whole window.
        """
        setup = [self.setup_sample() for _ in range(SETUP_SAMPLES)]
        warm, _ = self.timed_report(seed, "warm-up")
        cold, rss, reports, outputs = [], [], [], set()
        start = time.perf_counter()
        while (len(reports) < max(min_reports, COLD_RUNS)
               or time.perf_counter() - start < seconds):
            label = f"cold {len(cold)} seed {seed}"
            elapsed, peak, data, doc = self.cold_run(seed, label)
            cold.append(elapsed)
            rss.append(peak)
            if doc is not None:
                outputs.add(data)
                if doc != warm:
                    self.tally.mismatch(label, "differs from the in-process report")
            setup.append(self.setup_sample())
            i = len(reports) + 1
            reports.append(self.timed_report(seed + i, f"report {i}")[1])
        if len(outputs) > 1:
            self.tally.mismatch(f"cold seed {seed}", "cold runs are not byte-identical")
        return {"setup_s": setup, "cli_cold_s": cold, "peak_rss_mb": rss, "report_s": reports}

    def traced(self, seed, seconds, min_reports):
        """Per-layer values of one run, plus the untraced and traced report times."""
        import qubitbench.cli as cli

        self.timed_report(seed, "warm-up")
        tracer = Tracer()
        plain_s, traced_s, layers = [], [], []
        start = time.perf_counter()
        while len(traced_s) < min_reports or time.perf_counter() - start < seconds:
            i = len(traced_s) + 1
            plain, elapsed = self.timed_report(seed + i, f"report {i}")
            plain_s.append(elapsed)
            label = f"traced report {i}"
            path = OUT / f"traced-{self.name}.json"
            path.unlink(missing_ok=True)
            with tracer.report(i):
                code = cli.main([*cli_args(self.config, seed + i), "--out", str(path)])
            if code != 0:
                self.tally.mismatch(label, f"cli.main returned {code}")
            _, doc = self.read_report(path, label, seed + i)
            if doc is not None and doc != plain:
                self.tally.mismatch(label, "differs from the untraced report of the same seed")
            rows = tracer.summary(i)
            traced_s.append(rows["suites.run_suite"]["total_s"])
            layers.append(layer_values(rows))
        tracer.write(OUT / f"spans-{self.name}-seed{seed}.jsonl")
        values = {k: statistics.median(v[k] for v in layers) for k in layers[0]}
        values["trace.report_s_p50"] = statistics.median(traced_s)
        values["trace.untraced_report_s_p50"] = statistics.median(plain_s)
        values["trace.overhead_s"] = values["trace.report_s_p50"] - values["trace.untraced_report_s_p50"]
        return values, {"untraced_report_s": plain_s, "traced_report_s": traced_s}


def result_line(tally, metrics, units):
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_end_to_end(samples, metrics, tally):
    n = len(samples["report_s"])
    _, pct = tail(samples["report_s"])
    notes = {
        "report_s_p50": f"median of {n} warm in-process reports",
        "report_s_tail": f"p{pct:.0f} of {n} warm reports"
                         + ("" if n > 2 * TAIL_BEYOND else " (their maximum: fewer than 21)"),
        "cli_cold_s": f"median of {len(samples['cli_cold_s'])} fresh CLI processes",
        "setup_s": f"median of {len(samples['setup_s'])} fresh imports of qubitbench.cli",
        "peak_rss_mb": f"median of {len(samples['peak_rss_mb'])} fresh CLI processes",
    }
    for name, entry in metrics.items():
        print(f"  {name:<14} {entry['value']:>12.4f} {entry['unit']:<5} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<14} {tally.fail_ratio:>12.4f} {'ratio':<5} "
          f"{tally.failed} failed / {tally.attempted} checks attempted")


def print_layers(values):
    report_s = values["trace.report_s_p50"]
    rows = sorted({k[:-len(".self_s")] for k in values if k.endswith(".self_s")},
                  key=lambda name: -values[f"{name}.self_s"])
    print(f"  {'layer':<44} {'calls':>8} {'self_s':>10} {'share':>7}")
    for name in rows:
        calls = values.get(f"{name}.calls")
        print(f"  {name:<44} {'' if calls is None else f'{calls:g}':>8} "
              f"{values[f'{name}.self_s']:>10.4f} {100 * values[f'{name}.self_s'] / report_s:>6.1f}%")
    for key in ("frames.commutant_basis.stack_bytes",
                "frames.isotypic_decomposition.attempts_per_success",
                "dualrail.dim_max", "linalg.evolve.dim_max", "linalg.evolve.flops", "cli.render_s"):
        print(f"  {key:<44} {values[key]:>19g}")
    print(f"  tracing overhead: {values['trace.overhead_s']:+.4f} s per report "
          f"(traced median {report_s:.4f} s, untraced {values['trace.untraced_report_s_p50']:.4f} s)")
    print(f"  wait time: {WAIT_OMITTED}")


def run_workload(workload, seed, seconds, trace, bench, env, min_reports=MIN_REPORTS):
    """Measure one workload; prints its block and returns its result line."""
    print(f"== {workload.name}  seed={seed}  seconds={seconds}  trace={trace}  "
          f"config={json.dumps(workload.config)}")
    print("   env " + json.dumps(env))
    details = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
               "config": workload.config, "env": env}
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, samples = workload.traced(seed, seconds, min_reports)
        details.update(samples=samples, layers=values, wait_time=WAIT_OMITTED)
        print_layers(values)
        line = result_line(workload.tally, values, units)
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        samples = workload.end_to_end(seed, seconds, min_reports)
        value, pct = tail(samples["report_s"])
        metrics = {
            "report_s_p50": statistics.median(samples["report_s"]),
            "report_s_tail": value,
            "cli_cold_s": statistics.median(samples["cli_cold_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }
        details.update(samples=samples, tail_percentile=pct)
        line = result_line(workload.tally, metrics, units)
        print_end_to_end(samples, line["metrics"], workload.tally)
    for problem in workload.tally.problems:
        print(f"  GATE {problem}")
    details.update(result=line, problems=workload.tally.problems,
                   fail_ratio=workload.tally.fail_ratio)
    path = OUT / f"result-{workload.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    return line


def setup_environment():
    """Pin BLAS threads before numpy loads and put the package source on the path.

    Returns nproc, or None when the package source is missing.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (SRC / "qubitbench" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    return nproc


def main(argv=None):
    workloads = load_json(HERE / "workloads.json")["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = setup_environment()
    if nproc is None:
        sys.stderr.write(f"benchmark: no package source at {SRC / 'qubitbench'}\n")
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    reference = load_json(HERE / "reference_names.json")
    OUT.mkdir(exist_ok=True)
    env = environment(nproc)

    names = list(workloads) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        workload = Workload(name, workloads[name]["config"], reference[name])
        lines[name] = run_workload(workload, args.seed, seconds, args.trace, bench, env)
        print(json.dumps(lines[name]), flush=True)
    if len(names) > 1:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}/{metric}": entry for name, line in lines.items()
                        for metric, entry in line["metrics"].items()},
        }))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
