"""Request lists for the three benchmark workloads, and the exact-output
checks that judge each result against bench/reference.json.

A request is a JSON-ready dict with an "op" key; bench/child.py executes it.
The seed fixes only the order of the requests.  Each workload's inputs are a
fixed pool, so the work done, the exact per-layer counts and the outputs are
the same for every seed; run-to-run spread then measures noise, not inputs.
Orders that would change the work or the peak memory are kept fixed.
"""

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# BENCHMARK.json lists only point_queries and guess_pipeline, so that each
# gated run can last 60 s; ie_sweep runs by hand (see README.md).
WORKLOADS = ("ie_sweep", "point_queries", "guess_pipeline")

# ie_sweep: cold inclusion_exclusion.sequence batches.  r=s=4 appears in both
# modes so the signed batch is checked against the published gap-4 terms;
# the second batch reuses the tiling build and adds only its partition sum.
IE_BATCHES = (
    (3, 3, "signed", 36),
    (4, 4, "absolute", 36),
    (4, 4, "signed", 36),
    (2, 3, "signed", 36),
    (4, 1, "absolute", 36),
)

# point_queries: single large terms; both modes at every fast22 n so that the
# work is identical whatever order the seed picks.
FAST22_NS = (48, 52, 56, 60, 64)
POINT_COUNTS = ((3, 3, "signed", 44), (4, 4, "absolute", 46))

# guess_pipeline: r = 1 specs through the CLI with one term cache per process.
GUESS_SPECS = ((1, 1, "absolute"), (1, 2, "signed"), (1, 2, "absolute"), (1, 3, "absolute"))
GUESS_N = 72
GUESS_SHORT_N = 44
FIT_ORDERS = range(1, 9)
FIT_DEGREES = range(0, 4)
FIT_CELLS = len(FIT_ORDERS) * len(FIT_DEGREES)


# fit outcomes other than a found operator, with the CLI exit status of each
FIT_FAILURES = {"none": 1, "underdetermined": 1, "insufficient": 2}


def spec_key(r, s, mode):
    return f"r{r}_s{s}_{mode}"


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def bfile_text(values, offset=1):
    return "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))


def _interleave(chains, rng):
    """Random merge of request chains that keeps each chain's own order."""
    chains = [list(c) for c in chains if c]
    out = []
    while chains:
        pick = rng.randrange(sum(len(c) for c in chains))
        for c in chains:
            if pick < len(c):
                out.append(c.pop(0))
                break
            pick -= len(c)
        chains = [c for c in chains if c]
    return out


def _guess_chain(r, s, mode, reference):
    key = spec_key(r, s, mode)
    base = ["--r", str(r), "--s", str(s), "--mode", mode, "--engine", "auto",
            "--cache-dir", "{cache}"]
    big, short = f"{{work}}/{key}_big.b", f"{{work}}/{key}_short.b"
    chain = [
        {"op": "cli", "kind": "compute", "key": key, "n": GUESS_N, "out": big,
         "argv": ["compute", *base, "--n", str(GUESS_N), "--bfile", big]},
        {"op": "cli", "kind": "compute", "key": key, "n": GUESS_N, "out": big + "2",
         "argv": ["compute", *base, "--n", str(GUESS_N), "--bfile", big + "2"]},
        {"op": "cli", "kind": "compute", "key": key, "n": GUESS_SHORT_N, "out": short,
         "argv": ["compute", *base, "--n", str(GUESS_SHORT_N), "--bfile", short]},
    ]
    found = []
    for order in FIT_ORDERS:
        for degree in FIT_DEGREES:
            opfile = f"{{work}}/{key}_o{order}_d{degree}.op"
            chain.append({
                "op": "cli", "kind": "fit", "key": key, "cell": f"{order},{degree}",
                "out": opfile,
                "argv": ["fit", "--bfile", short, "--order", str(order),
                         "--degree", str(degree), "--opfile", opfile],
            })
            if reference["fit"][key][f"{order},{degree}"] not in FIT_FAILURES:
                found.append(opfile)
    for opfile in found:
        chain.append({"op": "cli", "kind": "verify", "key": key, "out": None,
                      "argv": ["verify", "--opfile", opfile, "--bfile", big]})
        ext = opfile[:-3] + "_ext.b"
        chain.append({"op": "cli", "kind": "extend", "key": key, "n": GUESS_N, "out": ext,
                      "argv": ["extend", "--opfile", opfile, "--bfile", short,
                               "--n", str(GUESS_N), "--out", ext]})
    return chain


def make_requests(workload, seed, reference=None):
    """The workload's request list in the order fixed by `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "ie_sweep":
        reqs = [{"op": "ie_sequence", "r": r, "s": s, "mode": m, "n": n}
                for r, s, m, n in IE_BATCHES]
        rng.shuffle(reqs)
        return reqs
    if workload == "point_queries":
        fast = [{"op": "fast22", "n": n, "mode": m}
                for n in FAST22_NS for m in ("signed", "absolute")]
        rng.shuffle(fast)
        # the two tiling builds come first, in a fixed order: peak memory
        # depends on what is allocated around them
        counts = [{"op": "ie_count", "r": r, "s": s, "mode": m, "n": n}
                  for r, s, m, n in POINT_COUNTS]
        return counts + fast
    if workload == "guess_pipeline":
        reference = reference or load_reference()
        chains = []
        for spec in GUESS_SPECS:
            chain = _guess_chain(*spec, reference)
            head, fits, tail = chain[:3], chain[3:3 + FIT_CELLS], chain[3 + FIT_CELLS:]
            rng.shuffle(fits)
            chains.append(head + fits + tail)
        return _interleave(chains, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _terms(reference, key, n_max):
    table = reference["terms"][key]
    return [table[str(n)] for n in range(1, n_max + 1)]


def check(request, result, reference):
    """None when `result` is exactly right for `request`, else a reason."""
    if "error" in result:
        return result["error"]
    op = request["op"]
    if op == "ie_sequence":
        key = spec_key(request["r"], request["s"], request["mode"])
        want = _terms(reference, key, request["n"])
        return None if result["value"] == want else f"{key} batch differs"
    if op == "ie_count":
        key = spec_key(request["r"], request["s"], request["mode"])
        want = reference["terms"][key][str(request["n"])]
        return None if result["value"] == want else f"{key} n={request['n']} differs"
    if op == "fast22":
        key = spec_key(2, 2, request["mode"])
        want = reference["terms"][key][str(request["n"])]
        return None if result["value"] == want else f"fast22 {key} n={request['n']} differs"
    kind, key, rc = request["kind"], request["key"], result["rc"]
    if kind in ("compute", "extend"):
        want = bfile_text(_terms(reference, key, request["n"]))
        if rc != 0 or result["out_text"] != want:
            return f"{kind} {key} n={request['n']}: rc={rc} or b-file differs"
        return None
    if kind == "fit":
        outcome = reference["fit"][key][request["cell"]]
        if outcome in FIT_FAILURES:
            ok = rc == FIT_FAILURES[outcome] and result["out_text"] is None
        else:
            ok = rc == 0 and result["out_text"] == outcome
        return None if ok else f"fit {key} cell {request['cell']}: rc={rc}, want {outcome!r}"
    if kind == "verify":
        ok = rc == 0 and result["stdout"] == "ok\n"
        return None if ok else f"verify {key}: rc={rc}"
    return f"unknown request kind {kind!r}"
