"""One benchmark repetition in a fresh, single-threaded interpreter.

    python3 bench/child.py WORKLOAD probe           # set-up time only
    python3 bench/child.py WORKLOAD plain  < job    # run the request list
    python3 bench/child.py WORKLOAD traced < job    # same, with layer spans

Set-up is timed from the first statement: `import gapperms` plus one
smallest call into each engine the workload uses, which runs the lazy oracle
self-checks a user pays once per process.  The job on stdin is JSON with
"requests" (see workloads.py), "scratch" (a directory for the CLI's term
cache and b-files) and "run_id".  The result is one JSON object on stdout.

The plain run calls the program's normal entry points.  The traced run keeps
every span in memory until the list ends; it times public functions of each
module by wrapping them from here, and splits `inclusion_exclusion.count`
into tiling build and partition sum by building the tiling enumerators
first.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

WORKLOAD, MODE = sys.argv[1], sys.argv[2]

import gapperms  # noqa: E402,F401
from gapperms import closed_forms, matsuo  # noqa: E402

if WORKLOAD == "guess_pipeline":
    import gapperms.cli  # noqa: E402,F401


def warm_up(workload):
    if workload == "point_queries":
        matsuo.fast22(2, "absolute")
        matsuo.fast22(2, "signed")
    elif workload == "guess_pipeline":
        closed_forms.riordan_sequence(1)
        closed_forms.navarrete_recurrence(2, 2)


WARM_START = time.perf_counter()
warm_up(WORKLOAD)
T1 = time.perf_counter()
SETUP_S = T1 - T0
SELFCHECK_S = T1 - WARM_START

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from gapperms import cli, inclusion_exclusion, recurrences, tilings  # noqa: E402
from gapperms.specs import SequenceSpec  # noqa: E402


class Tracer:
    """In-memory spans [name, start, end, parent_id, span_id] and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None,
               len(self.spans)]
        self.spans.append(rec)
        self.stack.append(rec[4])
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def add(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, module, attr, name, before=None):
        """Replace module.attr with a version timed as span `name`."""
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            if before:
                before(*args, **kwargs)
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, timed)


def rin_cells(n, a):
    """Cells of the rin DP table: per value v, layers sigma <= min(v, a),
    each with sigma + 1 rows of v - sigma + 1 entries."""
    return sum((sig + 1) * (v - sig + 1) for v in range(1, n + 1)
               for sig in range(min(v, a) + 1))


def instrument(tr):
    def on_rin(n, a, b, mode):
        tr.add("matsuo.rin_cells", rin_cells(n, a))

    def on_fast_r1(s, mode, n_max):
        with tr.span("tilings.profile"):
            sizes = [len(tilings.run_profile(s, n).counts) for n in range(1, n_max + 1)]
        tr.add("tilings.profile_entries", sum(sizes))

    def on_fit(terms, order, degree, holdout=5):
        tr.add("recurrences.fit_calls")
        bound = (order + 1) * (degree + 1) + order + 1
        if len(terms.values) >= bound + holdout:
            rows = len(terms.values) - holdout - order
            tr.add("recurrences.fit_matrix_cells", rows * (order + 1) * (degree + 1))

    def on_read(path):
        tr.add("cli.bfile_bytes_read", os.path.getsize(path))

    tr.wrap(matsuo, "rin", "matsuo.rin", on_rin)
    tr.wrap(closed_forms, "fast_r1", "closed_forms.fast_r1", on_fast_r1)
    tr.wrap(closed_forms, "navarrete_recurrence", "closed_forms.navarrete_recurrence")
    tr.wrap(closed_forms, "riordan_sequence", "closed_forms.riordan_sequence")
    tr.wrap(recurrences, "verify", "recurrences.verify")
    tr.wrap(recurrences, "extend", "recurrences.extend")
    tr.wrap(cli, "read_bfile", "cli.read_bfile", on_read)

    original_fit = recurrences.fit

    def fit(*args, **kwargs):
        on_fit(*args, **kwargs)
        try:
            with tr.span("recurrences.fit"):
                op = original_fit(*args, **kwargs)
        except recurrences.UnderdeterminedError:
            tr.add("recurrences.fit_underdetermined")
            raise
        except recurrences.InsufficientTermsError:
            tr.add("recurrences.fit_insufficient")
            raise
        tr.add("recurrences.fit_found" if op is not None else "recurrences.fit_none")
        return op

    recurrences.fit = fit


def traced_count(tr, spec, n, built):
    """inclusion_exclusion.count with the tiling build timed on its own."""
    supports = []
    for gap in dict.fromkeys((spec.r, spec.s)):
        with tr.span("tilings.build"):
            terms = tilings.tiling_polynomial(gap, n).terms
        tr.add("tilings.build_calls")
        if (gap, n) not in built:
            built.add((gap, n))
            tr.add("tilings.monomials", len(terms))
        supports.append(terms.keys())
    pr, ps = supports[0], supports[-1]
    tr.add("inclusion_exclusion.terms_visited", min(len(pr), len(ps)))
    tr.add("inclusion_exclusion.terms_kept", len(pr & ps))
    del supports, pr, ps
    with tr.span("inclusion_exclusion.sum"):
        return inclusion_exclusion.count(spec, n)


def run_request(req, dirs, tr, built):
    op = req["op"]
    if op in ("ie_sequence", "ie_count"):
        spec = SequenceSpec(req["r"], req["s"], req["mode"])
        if op == "ie_count":
            if tr is None:
                return {"value": inclusion_exclusion.count(spec, req["n"])}
            with tr.span("inclusion_exclusion.count"):
                return {"value": traced_count(tr, spec, req["n"], built)}
        if tr is None:
            return {"value": inclusion_exclusion.sequence(spec, req["n"])}
        with tr.span("inclusion_exclusion.sequence"):
            return {"value": [traced_count(tr, spec, n, built)
                              for n in range(1, req["n"] + 1)]}
    if op == "fast22":
        with tr.span("matsuo.fast22") if tr else contextlib.nullcontext():
            return {"value": matsuo.fast22(req["n"], req["mode"])}
    if op == "cli":
        argv = [a.format(**dirs) for a in req["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with tr.span(f"cli.{req['kind']}") if tr else contextlib.nullcontext():
                rc = cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue()}
    raise ValueError(f"unknown op {op!r}")


def _snapshot(path):
    with os.scandir(path) as it:
        return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in it}


def main():
    job = json.load(sys.stdin)
    dirs = {"cache": os.path.join(job["scratch"], "cache"),
            "work": os.path.join(job["scratch"], "work")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    tr = Tracer() if MODE == "traced" else None
    if tr is not None:
        instrument(tr)
    built = set()
    results, latencies = [], []
    for req in job["requests"]:
        before = _snapshot(dirs["cache"]) if tr is not None and req["op"] == "cli" else None
        start = time.perf_counter()
        try:
            res = run_request(req, dirs, tr, built)
        except Exception as exc:  # a failed request is counted, the loop goes on
            res = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - start)
        if req["op"] == "cli":
            path = req["out"].format(**dirs) if req.get("out") else None
            res["out_text"] = None
            if path and os.path.exists(path):
                with open(path) as fh:
                    res["out_text"] = fh.read()
            if before is not None:
                account_cli(tr, req, res, before, _snapshot(dirs["cache"]), path,
                            latencies[-1])
        results.append(res)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump({
        "run_id": job["run_id"],
        "setup_s": SETUP_S,
        "selfcheck_s": SELFCHECK_S,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "results": results,
        "spans": tr.spans if tr else [],
        "counters": tr.counters if tr else {},
    }, sys.stdout)


def account_cli(tr, req, res, before, after, path, elapsed):
    """Cache hit or miss is read off the cache directory: a miss writes it."""
    written = sum(size for name, (size, mtime) in after.items()
                  if before.get(name) != (size, mtime))
    if req["kind"] == "compute":
        miss = written > 0
        tr.add("cli.compute_misses" if miss else "cli.compute_hits")
        tr.add("cli.compute_miss_s" if miss else "cli.compute_hit_s", elapsed)
    if req["kind"] in ("compute", "extend") and res.get("out_text") is not None:
        written += os.path.getsize(path)
    tr.add("cli.bfile_bytes_written", written)


if __name__ == "__main__":
    if MODE == "probe":
        print('{"setup_s": %r}' % SETUP_S)
    else:
        main()
