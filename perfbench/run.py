"""toricmirror benchmark: run one workload from a seed, check every output,
print the metrics.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one job at a time; see each module):
exact-ladder (ladder.py), crit-sweep (sweep.py), cli-mixed (climix.py).

A run sets the workload up three times, runs one warm-up job per input
class, then starts jobs until `--seconds` have passed and at least 101 jobs
have run (but adds no jobs for the count after four times `--seconds`).
Only the library calls of a job are timed; its output checks (oracles.py)
run after. A job that raises, exits with an unexpected code or fails a
check counts as failed and is never dropped.

Times are normalized to a reference machine speed. Shared hosts slow down
by 10-50% for seconds to minutes, which moves every wall time of a run
together. Before each job (and around each set-up) the run times a fixed
kernel of the benchmark's own exact arithmetic (SpeedProbe, no library
code), and each wall time is multiplied by REFERENCE_KERNEL_S over the
median probe of the nearby jobs: seconds on a machine where the kernel
takes 4 ms. A slower or faster program moves these times as it moves wall
time; a slower machine does not. The wall-clock p50 and p90 are printed
beside them. The run and its children are pinned to one CPU, so the probe
and the jobs share a core, and BLAS libraries to one thread.

End-to-end metrics (`--trace 0`):
  setup_s      median over the set-ups of (import time of the workload and
               the library in a fresh interpreter + building the inputs)
  job_s.p50    median job time over the timed jobs
  job_s.p90    90th percentile; a run holds enough jobs that at least ten
               lie beyond it (the count is printed)
  jobs_per_s   throughput at the deck's nominal mix: deck size divided by
               the sum over classes of (jobs of the class in the deck) x
               (median time of the class in this run), so where a run
               ends inside a deck does not move it
  peak_rss_mb  peak RSS of this process; for cli-mixed, of the largest child
The failed ratio (failed / attempted, warm-up jobs included) is printed
with them and is in the result line as `failed` and `attempted`.

Per-layer metrics (`--trace 1`, a separate run with the same seed): spans
around every library call a job makes, kept in memory and written at exit
to .perfbench/trace-<workload>-seed<seed>.jsonl. A `_s` metric is the
span time per timed job, except the `cli.<command>_s` metrics, which are
per call of that command; `bench.job_self_s` is job time outside any
layer span. Counts are summed over the warm-up jobs, one per input class,
so they repeat exactly for a seed. `critical.useful_ratio` is
critical.deduped / critical.attempted. A metric a workload does not
exercise reads 0. Span times are wall seconds; trace.job_s.p50 is
normalized like job_s.p50, and the tracing overhead is trace.job_s.p50
minus the untraced job_s.p50. Spans are inclusive of nested library work:
bundle.projectivize_s includes validating the built fan,
potential.correction_s re-validating the base, potential.assemble_s a
second correction.

Which end-to-end metric each layer should move:
  fan, bundle        job_s.p90 and jobs_per_s on exact-ladder; the
                     rejection jobs (jobs_per_s) on cli-mixed; only setup_s
                     on crit-sweep
  kahler             job_s.p50 on exact-ladder and crit-sweep, slightly
  gw, potential      jobs_per_s on exact-ladder (the dP6 and 4-D bundles at
                     cutoffs 3-4 do the lookups); nothing on crit-sweep
  critical           every metric on crit-sweep; nothing on exact-ladder
  documents          cli-mixed and a small share of exact-ladder
  cli (start-up)     job_s.p50 on cli-mixed; only setup_s in process
"""

from __future__ import annotations

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every child

import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"exact-ladder": "ladder", "crit-sweep": "sweep", "cli-mixed": "climix"}
SETUP_REPEATS = 3
MIN_JOBS = 101  # the inclusive p90 of 101 or more times has ten above it
MAX_WINDOW = 4  # times --seconds: a slow machine still ends in bounded time
PROBE_REPEATS = 3
REFERENCE_KERNEL_S = 0.004  # the speed probe's time on a quiet 2-vCPU VM
NEARBY = 5  # jobs on each side whose probes set a job's speed factor


def _call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class SpeedProbe:
    """A fixed exact-arithmetic kernel of the benchmark's own (the Kahler-cone
    test on the 24-cone bundle, no library code), timed between jobs. It
    slows with the machine but not with the program under test."""

    def __init__(self):
        rays, cones = inputs.bundle_of(*inputs.BASES["P1xdP6"])
        recipe = inputs.KahlerRecipe(rays, cones)
        point = inputs.draw_parameters(random.Random(0), rays, cones, recipe.offsets,
                                       recipe.parameters)
        self.args = (rays, cones, recipe.offsets(list(point.values())))

    def __call__(self):
        start = perf_counter()
        inputs.in_kahler_cone(*self.args)
        return perf_counter() - start


def normalized(raw, probes):
    """Each wall time scaled by REFERENCE_KERNEL_S over the median probe
    taken within NEARBY jobs of it."""
    return [dt * REFERENCE_KERNEL_S
            / statistics.median(probes[max(0, j - NEARBY): j + NEARBY + 1])
            for j, dt in enumerate(raw)]


class Tracer:
    """Spans (name, job, parent, start, end) around the benchmark's calls;
    a job's own span is named job:<class> and has no parent."""

    def __init__(self):
        self.spans = []
        self.job = self.parent = None

    def step(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self.job, self.parent, start, perf_counter()))

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, job, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "job": job, "parent": parent,
                                     "start": start, "end": end}) + "\n")

    def layer_times(self, jobs, cli_calls):
        """Span seconds per timed job (per call for cli.<command>_s) and the
        jobs' self time."""
        total, calls, self_time = {}, {}, 0.0
        for name, _, parent, start, end in self.spans:
            if parent is None:
                self_time += end - start
            else:
                total[name] = total.get(name, 0.0) + end - start
                calls[name] = calls.get(name, 0) + 1
                self_time -= end - start
        out = {name: t / (calls[name] if name in cli_calls else jobs)
               for name, t in total.items()}
        out["bench.job_self_s"] = self_time / jobs
        return out


def _probe(args):
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    return perf_counter() - start, proc


def cli_startup():
    """Interpreter start, and import time of the CLI and of numpy from
    `-X importtime` (median of a few runs)."""
    interp, imp, numpy = [], [], []
    for _ in range(PROBE_REPEATS):
        interp.append(_probe(["-c", "pass"])[0])
        _, proc = _probe(["-X", "importtime", "-c", "import toricmirror.cli"])
        ours = numpy_us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
            if not m:
                continue
            if m.group(2) == " " and m.group(3).startswith("toricmirror"):  # top level
                ours += int(m.group(1))
            if m.group(3) == "numpy":
                numpy_us = int(m.group(1))
        imp.append(ours / 1e6)
        numpy.append(numpy_us / 1e6)
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(imp),
            "cli.import.numpy_s": statistics.median(numpy)}


def fresh_import_seconds(module):
    """Import time of a workload module, and with it the library, in a
    fresh interpreter: what every run pays before its first job."""
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
            f"from time import perf_counter as clock; start = clock(); "
            f"import {module}; print(clock() - start)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def group_by_class(samples):
    out = {}
    for cls, dt in samples:
        out.setdefault(cls, []).append(dt)
    return out


def nominal_throughput(mix, samples):
    """Jobs per second at the deck's mix, from each class's median job time."""
    by_class = group_by_class(samples)
    present = [c for c in mix if c in by_class]
    seconds = sum(mix[c] * statistics.median(by_class[c]) for c in present)
    return sum(mix[c] for c in present) / seconds


def run_job(job, step, digests):
    """(seconds, output, problems); only job.run is timed."""
    start = perf_counter()
    try:
        out = job.run(step)
    except Exception as exc:  # a job that raises is a failed job
        return perf_counter() - start, None, [f"raised {exc!r}"]
    seconds = perf_counter() - start
    try:
        problems = job.check(out, digests)
    except Exception as exc:  # so is one whose output cannot be checked
        problems = [f"output check raised {exc!r}"]
    return seconds, out, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "toricmirror" / "__init__.py").is_file():
        print(f"error: no toricmirror sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    # one CPU for this process and every child, so the speed probe and the
    # jobs always run on the same (virtual) core
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    module = importlib.import_module(WORKLOADS[args.workload])
    probe = SpeedProbe()
    setups, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        around = [probe() for _ in range(5)]
        import_s = fresh_import_seconds(WORKLOADS[args.workload])
        start = perf_counter()
        workload = module.Workload(args.seed, digests, ROOT)
        setup = import_s + perf_counter() - start
        around += [probe() for _ in range(5)]
        setups.append(setup * REFERENCE_KERNEL_S / statistics.median(around))
    setup_s = statistics.median(setups)

    tracer = Tracer() if args.trace else None
    step = tracer.step if tracer else _call
    attempted = failed = 0
    census = {}
    samples = []
    probes = []
    missed_jobs = missed_roots = 0

    def account(job, out, problems):
        nonlocal attempted, failed, missed_jobs, missed_roots
        attempted += 1
        if problems:
            failed += 1
            print(f"FAILED {job.cls}: {'; '.join(problems)[:400]}", file=sys.stderr)
        missed = getattr(job, "missed", 0)
        missed_jobs += missed > 0
        missed_roots += missed

    try:
        warm_start = perf_counter()
        for job in workload.warmup():
            _, out, problems = run_job(job, _call, digests)
            account(job, out, problems)
            if tracer and out is not None:
                for name, value in job.counts(out).items():
                    census[name] = census.get(name, 0) + value
        warmup_s = perf_counter() - warm_start
        warm_jobs = attempted

        jobs = workload.jobs()
        start = perf_counter()
        while (perf_counter() - start < args.seconds
               or (len(samples) < MIN_JOBS
                   and perf_counter() - start < MAX_WINDOW * args.seconds)):
            job = next(jobs)
            probes.append(probe())
            if tracer:
                tracer.job, tracer.parent = len(samples), f"job:{job.cls}"
            t0 = perf_counter()
            seconds, out, problems = run_job(job, step, digests)
            if tracer:
                tracer.spans.append((tracer.parent, tracer.job, None, t0, perf_counter()))
            samples.append((job.cls, seconds))
            account(job, out, problems)
        window_s = perf_counter() - start
    finally:
        workload.close()

    wall = [dt for _, dt in samples]
    times = normalized(wall, probes)
    samples = [(cls, dt) for (cls, _), dt in zip(samples, times)]
    q = statistics.quantiles(times, n=10, method="inclusive")
    p50, p90 = q[4], q[8]
    wall_q = statistics.quantiles(wall, n=10, method="inclusive")
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-mixed" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    timed = len(times)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{timed} timed jobs in {window_s:.1f} s after {warm_jobs} warm-up jobs "
          f"({warmup_s:.1f} s); speed probe median {statistics.median(probes) * 1e3:.2f} ms "
          f"(reference {REFERENCE_KERNEL_S * 1e3:g} ms)")
    if args.trace:
        metrics = {m["name"]: 0 for m in spec["per_layer"]}
        metrics.update(census)
        cli_calls = {m["name"] for m in spec["per_layer"]
                     if m["name"].startswith("cli.") and m["unit"] == "s"}
        metrics.update(tracer.layer_times(timed, cli_calls))
        metrics.update(cli_startup())
        metrics["trace.job_s.p50"] = p50
        if census.get("critical.attempted"):
            metrics["critical.useful_ratio"] = census["critical.deduped"] / census["critical.attempted"]
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        unknown = sorted(set(metrics) - set(units))
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    else:
        metrics = {
            "setup_s": setup_s,
            "job_s.p50": p50,
            "job_s.p90": p90,
            "jobs_per_s": nominal_throughput(workload.mix, samples),
            "peak_rss_mb": rss_mb,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    beyond = sum(dt > p90 for dt in times)
    notes = {"job_s.p50": f"n={timed}, wall {wall_q[4]:.4f} s",
             "job_s.p90": f"n={timed}, {beyond} beyond, wall {wall_q[8]:.4f} s",
             "setup_s": f"median of {SETUP_REPEATS} (fresh-interpreter import + set-up)",
             "jobs_per_s": f"nominal mix of {sum(workload.mix.values())} jobs"}
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'failed_ratio':28s} {failed / attempted:14.6g} {'':6s} "
          f"{failed}/{attempted} jobs")
    by_class = group_by_class(samples)
    for cls in workload.mix:
        dts = by_class.get(cls, [])
        median = f"median {statistics.median(dts):.4f} s" if dts else "not reached"
        print(f"    class {cls:24s} {len(dts):4d} jobs, {median}")
    if missed_jobs:
        print(f"  start-grid truncation (ROADMAP item 3): {missed_jobs} of {attempted} "
              f"jobs found fewer roots than cones, {missed_roots} roots missed")
    if beyond < 10:
        print(f"warning: only {beyond} jobs beyond p90", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
