"""Benchmark of ``blocklasso fit``, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. One process runs the fits in a closed loop with a
single caller: it calls ``blocklasso.cli.main(["fit", ...])`` on the next
input only after the previous fit returns, and starts fits until their
summed time reaches ``--seconds``. Every fit gets a new input. Inputs
are generated, and outputs checked, in child processes outside the
timed region, so neither counts toward the fitting process's time or
peak memory.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` fits each
input twice, once plain and once with spans around every layer call
(see ``spans.py``), and reports the per-layer metrics; the difference
between the two fit times is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of
a run (machine context, per-fit times, checks, support digests and spans)
is written to ``.perfbench_runs/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = workloads.SRC
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 7
# One BLAS thread for every process of a run: on a small shared machine a
# second thread waits on its neighbours and widens the spread of every time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads")
CHILD_TIMEOUT_S = 170

IMPORT_PROBE = ("import time; t = time.perf_counter(); import blocklasso; "
                "print(time.perf_counter() - t, blocklasso.__file__)")


def declared_units(traced: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> str:
    done = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} failed:\n{done.stderr.strip()}")
    return done.stdout


def measure_setup() -> list[float]:
    """Import time of the package in fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds, location = run_child(["-c", IMPORT_PROBE]).split()
        if not Path(location).resolve().is_relative_to(SRC):
            raise RuntimeError(f"blocklasso imported from {location}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__path__[0]).parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in BLAS_THREAD_GETTERS:
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[lib.name] = getter()
                    break
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if name in os.environ:
            found[name] = os.environ[name]
    return found


def machine_context() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        sha = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
    }


class Inputs:
    """Generated inputs, made in a child process in batches that double
    in size, so a run of many short fits starts few generators."""

    def __init__(self, workload: str, seed: int, dest: Path):
        self.workload, self.seed, self.dest = workload, seed, dest
        self.ready = 0

    def get(self, index: int) -> Path:
        if index >= self.ready:
            count = max(2, self.ready)
            run_child([str(HERE / "workloads.py"), self.workload, str(self.seed),
                       str(self.ready), str(count), str(self.dest)])
            self.ready += count
        return self.dest / f"input_{index:04d}"


def timed_fit(cli, argv: list[str]) -> tuple[float, float, float, int | None, str | None]:
    """One ``blocklasso fit`` call; its console output is discarded."""
    console = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
            code = cli.main(argv)
        error = None if code == 0 else console.getvalue().strip()[-500:]
    except Exception:  # a fit that raises is a failed fit, not a failed run
        code, error = None, traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    return start, elapsed, time.process_time() - cpu, code, error


def run_fits(cli, workload: str, inputs: Inputs, work: Path, seconds: float,
             traced: bool, origin: float):
    """Closed loop of fits, one new input each; returns the fit records
    and the spans."""
    records: list[dict] = []
    unit_times: list[float] = []
    plain = spans.Recorder(cli, timed=False)
    tracer = spans.Recorder(cli, timed=True)
    if traced:
        # one unchecked fit first, so that neither side of the first pair
        # pays the process's one-time costs
        timed_fit(cli, workloads.fit_argv(workload, inputs.get(0), work / "warmup"))
    unit = 0
    while sum(unit_times) < seconds:
        input_dir = inputs.get(unit)
        # in a traced run each input is fitted plain and traced, in alternating order
        modes = [False, True] if traced else [False]
        if traced and unit % 2:
            modes.reverse()
        unit_time = 0.0
        for with_spans in modes:
            fit_id = f"fit_{len(records):04d}"
            out_dir = work / fit_id
            recorder = tracer if with_spans else plain
            recorder.fit_id = fit_id
            first_span = len(recorder.spans)
            with recorder:
                start, elapsed, cpu, code, error = timed_fit(
                    cli, workloads.fit_argv(workload, input_dir, out_dir))
            results = recorder.take_results()
            record = {"id": fit_id, "workload": workload, "input": str(input_dir),
                      "out": str(out_dir), "traced": with_spans, "seconds": elapsed,
                      "cpu_seconds": cpu, "exit_code": code, "error": error}
            if code == 0 and "lambda_path" in results:
                record["counts"] = spans.path_counts(results["lambda_path"])
                if with_spans:
                    root = spans.Span("cli.main", start, start + elapsed, None, fit_id)
                    tracer.spans.append(root)
                    record["layers"] = spans.layer_values(
                        root, tracer.spans[first_span:-1], results)
            del results
            records.append(record)
            unit_time += elapsed
        unit_times.append(unit_time)
        unit += 1
    return records, [span.to_json(origin) for span in tracer.spans]


def check_fits(records: list[dict], work: Path) -> list[dict]:
    listing = work / "fits.json"
    listing.write_text(json.dumps(records), encoding="utf-8")
    verdicts = json.loads(run_child([str(HERE / "check.py"), str(listing)]).splitlines()[-1])
    for record, verdict in zip(records, verdicts):
        if record["exit_code"] != 0:
            verdict = {"ok": False, "reason": f"exit code {record['exit_code']}: {record['error']}"}
        elif "counts" not in record:
            verdict = {**verdict, "ok": False, "reason": "no regularization path was computed"}
        record["check"] = verdict
    return records


def median_of(records: list[dict], value) -> float:
    return statistics.median(value(r) for r in records)


def end_to_end_metrics(records, setup_samples, peak_rss_kb) -> dict:
    passed = [r for r in records if r["check"]["ok"]] or records
    checked = [r["check"] for r in records if "pairs" in r["check"]]
    counted = [r["counts"] for r in records if "counts" in r]
    return {
        "fit_s": median_of(passed, lambda r: r["seconds"]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "support_recovery": (sum(c["pairs_agreeing"] for c in checked)
                             / max(sum(c["pairs"] for c in checked), 1)),
        "converged_point_ratio": (sum(c["converged_points"] for c in counted)
                                  / max(sum(c["grid_points"] for c in counted), 1)),
    }


def per_layer_metrics(records) -> dict:
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r for r in records if not r["traced"]]
    if not traced:
        return {}
    values = {name: median_of(traced, lambda r, n=name: r["layers"][n])
              for name in traced[0]["layers"]}
    values["trace.fit_s"] = median_of(traced, lambda r: r["seconds"])
    values["trace.overhead_s"] = values["trace.fit_s"] - median_of(plain, lambda r: r["seconds"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "blocklasso" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'blocklasso'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    os.environ.update(BLAS_ENV)
    origin = time.perf_counter()
    setup_samples = measure_setup()
    sys.path.insert(0, str(SRC))
    from blocklasso import cli

    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{os.getpid()}"
    try:
        inputs = Inputs(args.workload, args.seed, work)
        records, span_log = run_fits(cli, args.workload, inputs, work, args.seconds,
                                  bool(args.trace), origin)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records = check_fits(records, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # fits of one input must agree exactly, traced or not
    digests: dict[str, set] = {}
    for record in records:
        digests.setdefault(Path(record["input"]).name, set()).add(record["check"].get("digest"))
    deterministic = all(len(found) == 1 for found in digests.values())
    failed = sum(not r["check"]["ok"] for r in records)

    units = declared_units(bool(args.trace))
    if args.trace:
        values = per_layer_metrics(records)
    else:
        values = end_to_end_metrics(records, setup_samples, peak_rss_kb)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}

    context = machine_context()
    full = {
        "workload": args.workload,
        "parameters": workloads.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": context,
        "setup_samples_s": setup_samples,
        "support_digests": {name: sorted(map(str, found)) for name, found in digests.items()},
        "exact_support_share": (sum(r["check"].get("support_exact", False) for r in records)
                                / len(records)),
        "fits": records,
        "spans": span_log,
        "metrics": metrics,
    }
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    print(f"context: {json.dumps(context, sort_keys=True)}")
    for record in records:
        check = record["check"]
        print(f"{record['id']} {Path(record['input']).name} traced={int(record['traced'])} "
              f"{record['seconds']:.3f}s ok={check['ok']} digest={check.get('digest')} "
              f"kkt_gap={check.get('kkt_gap')} {check.get('reason') or ''}".rstrip())
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and deterministic and len(metrics) == len(units),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
