"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=src python3 -m pytest -q bench/selftest.py

They check that seeds change only the order of requests, that the recorded
reference agrees with the oracle and the published terms, that a traced
repetition is exactly right and its exact counts repeat across seeds, and
that the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from make_reference import PUBLISHED_A44  # noqa: E402

from gapperms import oracle  # noqa: E402
from gapperms.specs import SequenceSpec  # noqa: E402

REFERENCE = wl.load_reference()


def _canon(requests):
    return sorted(json.dumps(r, sort_keys=True) for r in requests)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_fixes_order_only(workload):
    lists = [wl.make_requests(workload, seed, REFERENCE) for seed in range(1, 6)]
    assert all(_canon(reqs) == _canon(lists[0]) for reqs in lists)
    assert len({json.dumps(reqs) for reqs in lists}) > 1
    assert wl.make_requests(workload, 3, REFERENCE) == lists[2]


def test_guess_chains_keep_dependencies():
    reqs = wl.make_requests("guess_pipeline", 7, REFERENCE)
    for key in {r["key"] for r in reqs}:
        kinds = [r["kind"] for r in reqs if r["key"] == key]
        assert kinds[:3] == ["compute"] * 3
        fits = kinds[3:3 + wl.FIT_CELLS]
        assert fits == ["fit"] * wl.FIT_CELLS
        assert all(k in ("verify", "extend") for k in kinds[3 + wl.FIT_CELLS:])


def test_reference_against_independent_sources():
    for key, table in REFERENCE["terms"].items():
        r, s, mode = key.split("_", 2)
        spec = SequenceSpec(int(r[1:]), int(s[1:]), mode)
        for n in range(1, 8):
            if str(n) in table:
                assert table[str(n)] == oracle.brute_count(spec, n), (key, n)
    a44 = REFERENCE["terms"]["r4_s4_signed"]
    assert [a44[str(n)] for n in range(1, 31)] == PUBLISHED_A44


def _traced(workload, seed):
    requests = wl.make_requests(workload, seed, REFERENCE)
    scratch = run.OUT / "selftest" / f"{workload}-{seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        rep = run.run_child(workload, "traced", {"requests": requests, "scratch": str(scratch),
                                                 "run_id": f"selftest-{seed}"})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for req, res in zip(requests, rep["results"]):
        assert wl.check(req, res, REFERENCE) is None, req
    return run.layer_metrics(rep)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_across_seeds(workload):
    _, counts1, _, problems1 = _traced(workload, 1)
    _, counts2, _, problems2 = _traced(workload, 2)
    assert problems1 == problems2 == []
    assert counts1 == counts2
    expected_layers = {
        "ie_sweep": ("tilings.build_calls", "tilings.monomials",
                     "inclusion_exclusion.terms_visited", "inclusion_exclusion.terms_kept"),
        "point_queries": ("tilings.monomials", "matsuo.rin_cells"),
        "guess_pipeline": ("tilings.profile_entries", "recurrences.fit_calls",
                           "recurrences.fit_matrix_cells", "recurrences.fit_found",
                           "cli.compute_hits", "cli.compute_misses",
                           "cli.bfile_bytes_read", "cli.bfile_bytes_written"),
    }[workload]
    assert all(counts1[name] > 0 for name in expected_layers)
    if workload == "guess_pipeline":
        assert counts1["tilings.build_calls"] == 0
        assert counts1["cli.compute_misses"] == len(wl.GUESS_SPECS)
        assert counts1["recurrences.fit_calls"] == len(wl.GUESS_SPECS) * wl.FIT_CELLS


def test_refuses_without_package():
    bare = run.OUT / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "ie_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
