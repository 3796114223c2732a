"""Outside-in benchmark for gapperms: cold-start workloads, exact checks.

    python3 bench/run.py --workload guess_pipeline --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 1

Each repetition runs the workload's whole request list as a closed loop (one
client; each request starts when the previous one returns) in a fresh
single-threaded interpreter, so every repetition pays the cold caches a CLI
user pays.  Repetitions continue while the next one fits in --seconds (at
least MIN_REPS); the reported times are medians.  Set-up time is measured apart,
in PROBES_PER_REP fresh interpreters before each repetition, which import
the package and run the workload's one-time self-checks.

Every result is checked against bench/reference.json after the repetition
ends, outside the timed region.  --trace 1 alternates plain and traced
repetitions and reports the per-layer metrics; end-to-end numbers always
come from plain repetitions.  The last line of stdout is one JSON object;
a run record and the spans go to .bench_out/ at the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

PROBES_PER_REP = 6
MIN_REPS = 3
CHILD_TIMEOUT_S = 120
TIME_BUDGET_S = 150  # no repetition starts that could end past this

# per-layer busy times: metric -> span name whose self time is summed
SPAN_TIMES = {
    "tilings.build_s": "tilings.build",
    "tilings.profile_s": "tilings.profile",
    "inclusion_exclusion.sum_s": "inclusion_exclusion.sum",
    "matsuo.rin_s": "matsuo.rin",
    "closed_forms.r1fast_s": "closed_forms.fast_r1",
    "recurrences.fit_s": "recurrences.fit",
    "recurrences.verify_s": "recurrences.verify",
    "recurrences.extend_s": "recurrences.extend",
    "cli.read_bfile_s": "cli.read_bfile",
}
COUNTER_TIMES = ("cli.compute_miss_s", "cli.compute_hit_s")
COUNTS = (
    "tilings.build_calls",
    "tilings.monomials",
    "tilings.profile_entries",
    "inclusion_exclusion.terms_visited",
    "inclusion_exclusion.terms_kept",
    "matsuo.rin_cells",
    "recurrences.fit_calls",
    "recurrences.fit_matrix_cells",
    "recurrences.fit_found",
    "recurrences.fit_none",
    "recurrences.fit_underdetermined",
    "recurrences.fit_insufficient",
    "cli.compute_misses",
    "cli.compute_hits",
    "cli.bfile_bytes_read",
    "cli.bfile_bytes_written",
)
RATIOS = {  # metric -> (numerator count, denominator counts)
    "inclusion_exclusion.kept_ratio": ("inclusion_exclusion.terms_kept",
                                       ("inclusion_exclusion.terms_visited",)),
    "recurrences.fit_found_ratio": ("recurrences.fit_found", ("recurrences.fit_calls",)),
    "cli.cache_hit_ratio": ("cli.compute_hits", ("cli.compute_hits", "cli.compute_misses")),
}
PER_LAYER_COUNTS = ("tilings.build_calls", "tilings.monomials", "tilings.profile_entries",
                    "inclusion_exclusion.terms_visited", "inclusion_exclusion.terms_kept",
                    "matsuo.rin_cells", "recurrences.fit_calls",
                    "recurrences.fit_matrix_cells", "cli.bfile_bytes_read",
                    "cli.bfile_bytes_written")
UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio", "_bytes_read": "bytes",
         "_bytes_written": "bytes"}


def unit_of(name):
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


class ChildError(RuntimeError):
    pass


def run_child(workload, mode, job=None):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, mode],
            input=json.dumps(job) if job else "", capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{mode} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def self_times(spans):
    """Per span name, summed duration minus the time covered by child spans."""
    child_time = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for name, start, end, _, sid in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
    return out


def layer_metrics(rep):
    """Per-layer numbers of one traced repetition, plus the tracer's own
    consistency problems (empty when the spans add up)."""
    spans, counters = rep["spans"], rep["counters"]
    selfs = self_times(spans)
    m = {metric: selfs.get(span, 0.0) for metric, span in SPAN_TIMES.items()}
    m.update({name: counters.get(name, 0.0) for name in COUNTER_TIMES})
    m["oracle.selfcheck_s"] = rep["selfcheck_s"]
    counts = {name: counters.get(name, 0) for name in COUNTS}
    for metric, (num, dens) in RATIOS.items():
        den = sum(counts[d] for d in dens)
        m[metric] = counts[num] / den if den else 0.0
    problems = []
    wall = rep["wall_s"]
    layers = {}
    for name, t in selfs.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + t
    for layer, t in sorted(layers.items()):
        if t > wall:
            problems.append(f"layer {layer} self time {t:.4f} s exceeds wall {wall:.4f} s")
    top = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    if top > wall:
        problems.append(f"top-level spans {top:.4f} s exceed wall {wall:.4f} s")
    if any(end is None for _, _, end, _, _ in spans):
        problems.append("unclosed span")
    return m, counts, layers, problems


def metadata(seed, seconds, trace):
    def git_commit():
        """HEAD when ROOT is itself a git work tree (a bare checkout is not)."""
        try:
            out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10).stdout.split()
        except (OSError, subprocess.SubprocessError):
            return None
        return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gapperms").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_workload(workload, seed, seconds, trace, reference):
    requests = wl.make_requests(workload, seed, reference)
    OUT.mkdir(exist_ok=True)
    scratch_root = OUT / "tmp"
    run_child(workload, "probe")  # first import in a fresh checkout writes bytecode
    setup = []

    modes = ("plain", "traced") if trace else ("plain",)
    reps = {mode: [] for mode in modes}
    failures, attempted = [], 0
    start = time.perf_counter()
    last = 0.0  # duration of the previous iteration
    while True:
        elapsed = time.perf_counter() - start
        done = min(len(r) for r in reps.values())
        # stop before an iteration that would run past the measuring window
        if done >= (2 if trace else MIN_REPS) and elapsed + last > seconds:
            break
        if done and elapsed + last > TIME_BUDGET_S:
            break
        iteration_start = time.perf_counter()
        # spread the set-up probes over the run, as the machine's speed drifts
        setup += [run_child(workload, "probe")["setup_s"] for _ in range(PROBES_PER_REP)]
        for mode in modes:
            index = len(reps[mode])
            run_id = f"{workload}-seed{seed}-{mode}{index}"
            scratch = scratch_root / run_id
            shutil.rmtree(scratch, ignore_errors=True)
            try:
                rep = run_child(workload, mode, {"requests": requests, "scratch": str(scratch),
                                                 "run_id": run_id})
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            attempted += len(requests)
            for i, (req, res) in enumerate(zip(requests, rep["results"])):
                reason = wl.check(req, res, reference)
                if reason:
                    failures.append(f"{run_id} request {i}: {reason}")
            reps[mode].append(rep)
        last = time.perf_counter() - iteration_start
    shutil.rmtree(scratch_root, ignore_errors=True)

    plain = reps["plain"]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    end_to_end = {name: statistics.median(v) for name, v in samples.items()}
    record = {
        "workload": workload,
        "metadata": metadata(seed, seconds, trace),
        "requests": len(requests),
        "repetitions": {mode: len(r) for mode, r in reps.items()},
        "samples": samples,
        "request_latency_s": [r["latencies"] for r in plain],
        "medians": end_to_end,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
    }
    problems = []
    per_layer = {}
    if trace:
        traced = reps["traced"]
        layer_runs = [layer_metrics(r) for r in traced]
        for _, _, _, probs in layer_runs:
            problems.extend(probs)
        counts = layer_runs[0][1]
        if any(c != counts for _, c, _, _ in layer_runs):
            problems.append("exact counts differ between traced repetitions")
        for name in layer_runs[0][0]:
            per_layer[name] = statistics.median(m[name] for m, _, _, _ in layer_runs)
        per_layer.update({name: counts[name] for name in PER_LAYER_COUNTS})
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        per_layer["trace.overhead_ratio"] = traced_wall / end_to_end["wall_s"]
        record.update({
            "per_layer": per_layer,
            "counts": counts,
            "traced_wall_s": [r["wall_s"] for r in traced],
            "layer_self_s": [layers for _, _, layers, _ in layer_runs],
            "trace_problems": problems,
        })
        spans = [{"run_id": r["run_id"], "name": n, "start": s, "end": e, "parent": p, "id": i}
                 for r in traced for n, s, e, p, i in r["spans"]]
        with open(OUT / f"spans-{workload}-seed{seed}.json", "w") as fh:
            json.dump(spans, fh)
    with open(OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record, end_to_end, per_layer, failures, problems


def print_summary(record, end_to_end, per_layer, failures, problems):
    w, reps = record["workload"], record["repetitions"]
    print(f"== {w}: {record['requests']} requests per repetition, closed loop, one client, "
          f"fresh interpreter; repetitions {reps}")
    for name, value in end_to_end.items():
        n = len(record["samples"][name])
        print(f"  {name:<14} {value:12.6f} {unit_of(name):<5} (median of {n})")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'failed_ratio':<14} {ratio:12.6f} ratio ({record['failed']}/{record['attempted']})")
    for name, value in per_layer.items():
        print(f"  {name:<36} {value:16.6f} {unit_of(name)}")
    for line in failures[:10] + problems[:10]:
        print(f"  ! {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gapperms" / "__init__.py").is_file():
        print(f"error: no gapperms package under {SRC}", file=sys.stderr)
        return 2
    try:
        reference = wl.load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {wl.REFERENCE}: {exc}", file=sys.stderr)
        return 2

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        try:
            record, e2e, per_layer, failures, problems = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), reference)
        except ChildError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print_summary(record, e2e, per_layer, failures, problems)
        correct = correct and not failures and not problems
        attempted += record["attempted"]
        failed += record["failed"]
        chosen = per_layer if args.trace else e2e
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
