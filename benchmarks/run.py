"""gridsec benchmark: one workload, one seed, one measured run.

    python3 benchmarks/run.py --workload feeder-k2 --seed 1 --seconds 30 --trace 0

The run repeats the workload's job in a closed loop (one job at a time)
until the next job would end after ``--seconds``, then checks every
distinct answer independently.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it wraps the
public ``gridsec`` functions and reports the per-layer metrics instead.
Human-readable lines come first; the last line of stdout is the JSON
result.  A copy of the result, with the environment, goes to
``benchmarks/out/``, and a traced run also writes its spans there.

Metric names and units come from BENCHMARK.json at the repository root;
README.md says what each one means.
"""

import os

# BLAS must be pinned before numpy loads; the set-up probe inherits it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 21

# (span name, defining module, attribute); see spans.Tracer.patch
TRACE_TARGETS = (
    ("network.parse", "gridsec.network", "parse_network"),
    ("network.is_spanning_tree", "gridsec.network", "is_spanning_tree"),
    ("network.fundamental_cycles", "gridsec.network", "fundamental_cycles"),
    ("classical.check_n1", "gridsec.classical", "check_n1"),
    ("classical.step1", "gridsec.classical", "step1_single_switch"),
    ("classical.step2", "gridsec.classical", "step2_multi_switch"),
    ("classical.enumerate", "gridsec.classical", "enumerate_reconfigurations"),
    ("loadflow.check", "gridsec.loadflow", "ComplianceOracle.check"),
    ("loadflow.evaluate", "gridsec.loadflow", "evaluate_configuration"),
    ("loadflow.assemble", "gridsec.loadflow", "assemble_system"),
    ("loadflow.solve", "gridsec.loadflow", "solve_loadflow"),
    ("loadflow.compliance", "gridsec.loadflow", "check_compliance"),
    ("qubo.to_dense", "gridsec.qubo", "Qubo.to_dense"),
    ("qubo.energies", "gridsec.qubo", "Qubo.energies"),
    ("qubo.evaluate", "gridsec.qubo", "Qubo.evaluate"),
    ("n1qubo.build", "gridsec.n1qubo", "build_n1_qubo"),
    ("n1qubo.decode", "gridsec.n1qubo", "decode_solution"),
    ("anneal.sample", "gridsec.anneal", "simulated_annealing"),
    ("anneal.post_process", "gridsec.anneal", "post_process"),
    ("anneal.steepest_descent", "gridsec.anneal", "steepest_descent"),
    ("anneal.histogram", "gridsec.anneal", "energy_histogram"),
    ("grover.search", "gridsec.grover", "grover_search"),
    ("grover.iterate", "gridsec.grover", "grover_iterate"),
    ("grover.classical_scan", "gridsec.grover", "classical_scan"),
)
LAYERS = ("network", "classical", "loadflow", "qubo", "n1qubo", "anneal", "grover")
JOB_SPAN = "bench.job"


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def percentile(values, pct):
    """Nearest-rank percentile; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(round(len(ordered) * pct / 100.0, 6))) - 1]


def tail(values):
    """(percentile, value): the highest of p99.9/p99/p90/p50 with at least ten
    samples beyond it, or the maximum when there are fewer than 20 samples."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(values) - math.ceil(round(len(values) * pct / 100.0, 6)) >= 10:
            return pct, percentile(values, pct)
    return 100.0, percentile(values, 100.0)


def median(values):
    return statistics.median(values) if values else 0.0


def time_setup(name, seed, text):
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                   input=text, text=True, check=True)
    return time.perf_counter() - start


def environment(seed):
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
    }


def layer_metrics(tracer, jobs, parse_ns, values, wrapper_ns):
    """Per-layer numbers per job (totals over the run divided by jobs)."""
    def seconds(name):
        return sum(tracer.durations_ns(name)) / 1e9 / jobs

    def calls(name):
        return len(tracer.by_name(name)) / jobs

    own = tracer.self_times_ns()
    layer_self = dict.fromkeys(LAYERS, 0)
    for (nid, _, _, _), ns in zip(tracer.spans, own):
        layer = tracer.names[nid].split(".")[0]
        if layer in layer_self:
            layer_self[layer] += ns
    job_ns = tracer.durations_ns(JOB_SPAN)
    evaluate_us = [ns / 1e3 for ns in tracer.durations_ns("loadflow.evaluate")]
    decode_us = [ns / 1e3 for ns in tracer.durations_ns("n1qubo.decode")]
    iterate_us = [ns / 1e3 for ns in tracer.durations_ns("grover.iterate")]
    largest = max((tag for tag in tracer.tags.values()), default=None)
    search_ms = [(tracer.spans[k][2] - tracer.spans[k][1]) / 1e6
                 for k in tracer.by_name("grover.search") if tracer.tags.get(k) == largest]
    check_calls = calls("loadflow.check")
    sample_s = seconds("anneal.sample")
    flips = values.get("anneal.reads", 0) * values.get("n1qubo.vars", 0) * values.get("anneal.sweeps", 0)
    got = {
        "network.parse_s": median(parse_ns) / 1e9,
        "network.is_spanning_tree.calls": calls("network.is_spanning_tree"),
        "network.is_spanning_tree.s": seconds("network.is_spanning_tree"),
        "network.fundamental_cycles.s": seconds("network.fundamental_cycles"),
        "classical.enumerate.s": seconds("classical.enumerate"),
        "classical.enumerate.candidates": tracer.counters.get("candidates", 0) / jobs,
        "classical.step1.s": seconds("classical.step1"),
        "classical.step2.s": seconds("classical.step2"),
        "loadflow.calls": check_calls,
        "loadflow.evaluate.s": seconds("loadflow.evaluate"),
        "loadflow.evaluate_us.p50": percentile(evaluate_us, 50),
        "loadflow.evaluate_us.tail": tail(evaluate_us)[1],
        "loadflow.assemble.s": seconds("loadflow.assemble"),
        "loadflow.solve.s": seconds("loadflow.solve"),
        "loadflow.compliance.s": seconds("loadflow.compliance"),
        "loadflow.compliant_frac": tracer.counters.get("compliant", 0) / jobs / check_calls if check_calls else 0.0,
        "qubo.to_dense.calls": calls("qubo.to_dense"),
        "qubo.to_dense.s": seconds("qubo.to_dense"),
        "qubo.energies.s": seconds("qubo.energies"),
        "qubo.evaluate.calls": calls("qubo.evaluate"),
        "qubo.evaluate.s": seconds("qubo.evaluate"),
        "n1qubo.build.s": seconds("n1qubo.build"),
        "n1qubo.decode.calls": calls("n1qubo.decode"),
        "n1qubo.decode.s": seconds("n1qubo.decode"),
        "n1qubo.decode_us.p50": percentile(decode_us, 50),
        "anneal.sample.s": sample_s,
        "anneal.ns_per_flip": sample_s * 1e9 / flips if flips else 0.0,
        "anneal.post_process.s": seconds("anneal.post_process"),
        "anneal.steepest_descent.calls": calls("anneal.steepest_descent"),
        "grover.search.calls": calls("grover.search"),
        "grover.search.s": seconds("grover.search"),
        "grover.search_ms.p50": percentile(search_ms, 50),
        "grover.search_ms.tail": tail(search_ms)[1],
        "grover.iterate.calls": calls("grover.iterate"),
        "grover.iterate_us.p50": percentile(iterate_us, 50),
        "grover.classical_scan.s": seconds("grover.classical_scan"),
        "trace.wall_s": median(job_ns) / 1e9,
        "trace.layer_share": sum(layer_self.values()) / sum(job_ns) if job_ns else 0.0,
        "trace.spans": len(tracer.spans) / jobs,
        "trace.wrapper_overhead_s": wrapper_ns * len(tracer.spans) / jobs / 1e9,
    }
    got.update({f"{layer}.self_s": ns / 1e9 / jobs for layer, ns in layer_self.items()})
    # counts read off the checked answer, one job's worth
    for name in ("n1qubo.vars", "n1qubo.terms", "n1qubo.feasible_reads", "n1qubo.target_reads",
                 "anneal.unique_samples", "anneal.mean_energy", "grover.queries",
                 "grover.classical_queries", "grover.queries_per_sqrt_n"):
        got[name] = values.get(name, 0)
    return got


def main() -> int:
    args = parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "gridsec" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a gridsec checkout: src/gridsec and BENCHMARK.json are required",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    text = wl.inputs(args.seed)

    setup_s = []
    tracer = None
    parse_ns = []
    if args.trace:
        tracer = spans.Tracer()
        observers = {
            "classical.enumerate": lambda a, k, result: tracer.count("candidates", len(result)),
            "loadflow.check": lambda a, k, result: tracer.count("compliant", result.compliant),
            # tag each search with its space size, for the largest-N percentiles
            "grover.search": lambda a, k, result: (a[0] if a else k["space"]).size,
        }
        for name, module, attr in TRACE_TARGETS:
            tracer.patch(name, module, attr, observers.get(name))
        for _ in range(SETUP_REPEATS):
            state = wl.prepare(text, args.seed)
        parse_ns = tracer.durations_ns("network.parse")
    else:
        state = wl.prepare(text, args.seed)
    wl.job(state)  # warm-up: neither timed nor traced
    if tracer is not None:
        tracer.reset()
        job = tracer.wrap(wl.job, JOB_SPAN)
    else:
        job = wl.job

    # Set-up probes run between jobs, spaced evenly over the run, and the
    # rest after the loop, so that their median samples the machine over the
    # whole run, as wall_s does.
    probe_every = args.seconds / SETUP_REPEATS
    times, cpu_times, distinct = [], [], {}
    started = time.perf_counter()
    while True:
        if tracer is None and time.perf_counter() - started >= len(setup_s) * probe_every:
            setup_s.append(time_setup(args.workload, args.seed, text))
        t0, c0 = time.perf_counter(), time.process_time()
        answer = job(state)
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        cpu_times.append(time.process_time() - c0)
        key = wl.digest(answer)
        if key not in distinct:
            distinct[key] = [answer, 0]
        distinct[key][1] += 1
        if time.perf_counter() - started + elapsed > args.seconds:
            break
    if tracer is not None:
        tracer.restore()
    while tracer is None and len(setup_s) < SETUP_REPEATS:
        setup_s.append(time_setup(args.workload, args.seed, text))

    attempted = failed = 0
    problems, totals = [], {}
    for answer, count in distinct.values():
        checked = wl.check(text, answer, args.seed)
        attempted += checked.ops * count
        failed += checked.failed * count
        problems += checked.problems
        for name, value in checked.values.items():
            totals[name] = totals.get(name, 0) + value * count
    values = {name: total / len(times) for name, total in totals.items()}  # per job
    for name, ceiling in wl.ceilings.items():
        if not values[name] <= ceiling:
            problems.append(f"{name} = {values[name]:.3f} is above its ceiling of {ceiling}")
    if len(distinct) > wl.rounds:
        problems.append(f"{len(distinct)} different answers from {len(times)} jobs on {wl.rounds} inputs")

    if tracer is None:
        measured = {"wall_s": median(times), "setup_s": median(setup_s)}
        wanted = spec["end_to_end"]
    else:
        measured = layer_metrics(tracer, len(times), parse_ns, values, spans.wrapper_cost_ns())
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]} for m in wanted}

    env = environment(args.seed)
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    pct, worst = tail(times)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds, "environment": env,
         "jobs": len(times), "job_s_median": median(times), "job_s_tail": {"percentile": pct, "value": worst},
         "job_s": times, "job_cpu_s": cpu_times, "setup_s": setup_s, "values": values,
         "problems": problems, "missing_trace_targets": tracer.missing if tracer else [], **result}, indent=1))
    if tracer is not None:
        tracer.dump(OUT / f"{stem}.spans.json.gz")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(times)} jobs in {sum(times):.2f} s")
    print("environment " + json.dumps(env))
    print(f"job time: median {median(times):.4f} s, p{pct:g} {worst:.4f} s over {len(times)} jobs")
    for name, value in sorted(values.items()):
        print(f"  {name} = {value:g}")
    for m in wanted:
        print(f"{m['name']:34s} {metrics[m['name']]['value']:14.6g} {m['unit']:6s} ({m['better']} is better)")
    if tracer is not None and tracer.missing:
        print(f"trace targets not found (reported as zero): {', '.join(tracer.missing)}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
