"""The package namespace: lazy exports and the weight of a cold import."""

import importlib
import os
import re
import subprocess
import sys

import pytest

import gapperms

SRC = os.path.dirname(os.path.dirname(gapperms.__file__))


def fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this gapperms."""
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True, timeout=60)
    return done.stdout


def test_import_loads_no_submodule():
    loaded = fresh("import sys, gapperms\n"
                   "print(sorted(m for m in sys.modules if m.startswith('gapperms.')))")
    assert loaded.strip() == "[]"


def test_star_import_binds_each_name_to_its_home_module_object():
    namespace = {}
    exec("from gapperms import *", namespace)
    assert set(gapperms.__all__) <= set(namespace)
    for module, names in gapperms._EXPORTS.items():
        home = importlib.import_module(f"gapperms.{module}")
        for name in names:
            assert namespace[name] is getattr(home, name), name
            assert getattr(gapperms, name) is getattr(home, name), name
    assert len(gapperms.__all__) == len(set(gapperms.__all__)) == 34


def test_names_the_benchmark_reads_still_resolve(tmp_path):
    # bench/child.py (traced runs) and bench/make_reference.py read these
    # names from src/, and no test or CI step runs make_reference.py
    from gapperms import cli, recurrences, tilings

    for name in ("RunProfile", "run_profile", "tiling_polynomial_direct"):  # reference-only
        assert name not in gapperms.__all__ and not hasattr(gapperms, name), name
    assert tilings.run_profile(2, 3).counts == {(3, 0): 1, (2, 1): 1}
    assert tilings.tiling_polynomial_direct(1, 2).terms == {(2,): 1, (0, 1): 1}
    tilings._tiling_terms.cache_clear()
    assert tilings._tiling_terms.cache_info().currsize == 0
    path = tmp_path / "b.txt"
    path.write_text("1 1\n2 0\n3 0\n4 2\n")
    table = cli.read_bfile(str(path))
    assert table == recurrences.TermTable(1, [1, 0, 0, 2])
    op = recurrences.RecurrenceOperator([[1]])
    assert recurrences.format_operator(op, 1) == "0 0 1\n1\n"


def test_recurrence_errors_are_exported():
    from gapperms import (InexactStepError, InsufficientTermsError, SingularLeadingTermError,
                          UnderdeterminedError, recurrences)

    assert InexactStepError is recurrences.InexactStepError
    assert InsufficientTermsError is recurrences.InsufficientTermsError
    assert SingularLeadingTermError is recurrences.SingularLeadingTermError
    assert UnderdeterminedError is recurrences.UnderdeterminedError


def test_dir_lists_every_export_before_first_use():
    assert fresh("import gapperms\n"
                 "print(set(gapperms.__all__) <= set(dir(gapperms)))").strip() == "True"
    assert set(gapperms.__all__) <= set(dir(gapperms))
    assert "__version__" in dir(gapperms)


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'gapperms' has no attribute 'nonesuch'"):
        gapperms.nonesuch
    with pytest.raises(ImportError):
        from gapperms import nonesuch  # noqa: F401


def test_from_import_still_loads_submodules():
    from gapperms import cli, matsuo

    assert cli is sys.modules["gapperms.cli"] and matsuo is sys.modules["gapperms.matsuo"]
    assert gapperms.__version__ == "0.1.0"


def test_counting_and_cli_modules_do_not_import_dataclasses_or_inspect():
    # a before/after diff, so a module that site already loaded does not count
    added = fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gapperms\n"
        "from gapperms import matsuo, closed_forms, inclusion_exclusion\n"
        "import gapperms.cli\n"
        "print(sorted(set(sys.modules) - before))"
    )
    assert "'gapperms.cli'" in added
    assert "'dataclasses'" not in added and "'inspect'" not in added


def test_counting_paths_load_only_their_engine_modules(capsys):
    # a compute served by r1fast or matsuo, after the set-up imports, loads
    # neither the tiling enumerators, the partition sum nor the oracle
    commands = [["compute", "--r", "1", "--s", "2", "--mode", "abs", "--n", "30"],
                ["compute", "--r", "2", "--s", "2", "--n", "12"],
                ["compute", "--r", "2", "--s", "3", "--n", "9", "--engine", "ie"],
                ["compute", "--r", "2", "--s", "3", "--n", "7", "--engine", "oracle"],
                ["tilings", "--r", "3", "--n", "7"]]
    lazy = ("gapperms.tilings", "gapperms.inclusion_exclusion", "gapperms.oracle")
    out = fresh(
        "import sys\n"
        "from gapperms import closed_forms, matsuo\n"
        "import gapperms.cli\n"
        f"for argv in {commands!r}:\n"
        "    gapperms.cli.main(argv)\n"
        f"    print([m in sys.modules for m in {lazy!r}])\n"
    )
    from gapperms import cli

    want = ""
    for argv, loaded in zip(commands, ("[False, False, False]", "[False, False, False]",
                                       "[True, True, False]", "[True, True, True]",
                                       "[True, True, True]")):
        assert cli.main(argv) == 0
        want += capsys.readouterr().out + loaded + "\n"
    assert out == want


def test_only_fit_verify_and_extend_load_recurrences(tmp_path, capsys):
    # the counting half of the CLI, its cache reads and its argument errors
    # included, never loads the guessing half
    def scripts(d):
        bfile, opfile = str(d / "b.txt"), str(d / "r.op")
        compute = ["compute", "--r", "1", "--s", "1", "--mode", "abs", "--n", "30",
                   "--engine", "riordan"]
        counting = [compute + ["--cache-dir", str(d / "cache")],  # a miss
                    compute + ["--cache-dir", str(d / "cache")],  # a hit
                    compute + ["--bfile", bfile],
                    ["crosscheck", "--r", "1", "--s", "1", "--mode", "abs", "--n", "9",
                     "--engines", "riordan,r1fast"],
                    ["tilings", "--r", "2", "--n", "5"],
                    ["bench", "--r", "1", "--s", "2", "--n", "9", "--engines", "r1fast"],
                    ["compute", "--r", "1"]]
        return [(counting, False),
                ([["fit", "--bfile", bfile, "--order", "4", "--degree", "1",
                   "--opfile", opfile]], True),
                ([["verify", "--opfile", opfile, "--bfile", bfile]], True),
                ([["extend", "--opfile", opfile, "--bfile", bfile, "--n", "34"]], True)]

    def status(argv):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # an argparse error
            return exc.code

    def timeless(text):
        return re.sub(r" \d+\.\d+s$", " s", text, flags=re.M)

    from gapperms import cli

    got = want = ""
    for (argvs, loaded), (argvs_here, _) in zip(scripts(tmp_path / "fresh"),
                                                  scripts(tmp_path / "here")):
        got += fresh(
            "import sys\n"
            "import gapperms.cli\n"
            "print('gapperms.recurrences' in sys.modules)\n"
            f"for argv in {argvs!r}:\n"
            "    try:\n"
            "        rc = gapperms.cli.main(argv)\n"
            "    except SystemExit as exc:\n"
            "        rc = exc.code\n"
            "    print(rc, 'gapperms.recurrences' in sys.modules)\n"
        )
        want += "False\n"
        for argv in argvs_here:
            rc = status(argv)
            want += capsys.readouterr().out + f"{rc} {loaded}\n"
    assert timeless(got) == timeless(want)
    assert "2 False" in want and want.count("0 True") == 3


def test_python_m_gapperms_runs_the_cli(tmp_path):
    def module(*argv):
        return subprocess.run([sys.executable, "-m", "gapperms", *argv], cwd=tmp_path,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=60)

    done = module("compute", "--r", "1", "--s", "1", "--mode", "abs", "--n", "5",
                  "--engine", "riordan")
    assert (done.returncode, done.stdout, done.stderr) == (0, "1 1\n2 0\n3 0\n4 2\n5 14\n", "")
    bad = module("compute", "--r", "1", "--s", "1", "--n", "five")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("usage: gapperms compute")
    assert "argument --n: invalid int value: 'five'" in bad.stderr
