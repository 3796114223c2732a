"""Command-line behaviour: formats, exit codes, caching, stream separation."""

import random
import sys
from contextlib import contextmanager, suppress

import pytest

from gapperms import cli, closed_forms, inclusion_exclusion, oracle


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_compute_single_term(capsys):
    rc, out, err = run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "signed",
                       "--n", "1", "--engine", "oracle")
    assert rc == 0
    assert out == "1 1\n"
    assert err == ""


def test_compute_riordan(capsys):
    rc, out, _ = run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "abs",
                     "--n", "5", "--engine", "riordan")
    assert rc == 0
    assert out == "1 1\n2 0\n3 0\n4 2\n5 14\n"


def test_compute_inapplicable_engine(capsys):
    rc, out, err = run(capsys, "compute", "--r", "2", "--s", "3", "--mode", "signed",
                       "--n", "5", "--engine", "navarrete")
    assert rc != 0
    assert out == ""
    assert "navarrete" in err and "r=1" in err


def test_compute_oracle_cap(capsys, monkeypatch):
    # the cap is checked for the whole range before any enumeration starts
    calls = []
    monkeypatch.setattr(oracle, "brute_count", lambda spec, n, *a: calls.append(n) or 0)
    rc, _, err = run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "signed",
                     "--n", "12", "--engine", "oracle")
    assert rc == 2
    assert "cap" in err
    assert calls == []


@pytest.mark.parametrize("command", ["crosscheck", "bench"])
def test_oracle_cap_is_checked_before_any_engine_runs(capsys, monkeypatch, command):
    def fail(spec, n_max):
        raise AssertionError("ie ran before the oracle cap was checked")

    monkeypatch.setattr(inclusion_exclusion, "sequence", fail)
    rc, out, err = run(capsys, command, "--r", "3", "--s", "3", "--mode", "signed",
                       "--n", "40", "--engines", "ie,oracle")
    assert rc == 2
    assert out == ""
    assert "exceeds the enumeration cap" in err


def test_auto_matches_concrete_engines(capsys):
    for r, s, mode, concrete in [
        ("1", "1", "signed", "navarrete"),
        ("1", "1", "abs", "riordan"),
        ("1", "2", "abs", "r1fast"),
        ("3", "1", "signed", "navarrete"),
        ("3", "1", "abs", "r1fast"),
        ("2", "2", "signed", "matsuo"),
        ("3", "2", "signed", "ie"),
    ]:
        rc1, out1, _ = run(capsys, "compute", "--r", r, "--s", s, "--mode", mode,
                           "--n", "8", "--engine", "auto")
        rc2, out2, _ = run(capsys, "compute", "--r", r, "--s", s, "--mode", mode,
                           "--n", "8", "--engine", concrete)
        assert rc1 == rc2 == 0
        assert out1 == out2


def test_bfile_round_trip(tmp_path, capsys):
    path = tmp_path / "terms.txt"
    rc, out, _ = run(capsys, "compute", "--r", "2", "--s", "2", "--mode", "signed",
                     "--n", "10", "--engine", "ie", "--bfile", str(path))
    assert rc == 0
    assert out == ""
    table = cli.read_bfile(str(path))
    assert table.offset == 1
    assert len(table.values) == 10
    assert cli._bfile_text(table.values, table.offset) == path.read_text()


def test_bfile_offset_flag(tmp_path, capsys):
    args = ["compute", "--r", "1", "--s", "1", "--mode", "signed", "--n", "3",
            "--engine", "navarrete", "--offset", "0"]
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    assert out == "0 1\n1 1\n2 3\n"
    # the cache holds n = 1..N whatever --offset renumbers the output to
    cache = tmp_path / "cache"
    for _ in range(2):
        assert run(capsys, *args, "--cache-dir", str(cache)) == (0, out, "")
        assert [f.name for f in cache.iterdir()] == ["r1_s1_signed_navarrete.bfile"]


def test_bfile_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 two\n")
    with pytest.raises(ValueError) as exc:
        cli.read_bfile(str(bad))
    assert ":2:" in str(exc.value)
    gap = tmp_path / "gap.txt"
    gap.write_text("1 1\n3 5\n")
    with pytest.raises(ValueError) as exc:
        cli.read_bfile(str(gap))
    assert ":2:" in str(exc.value)
    # a library call keeps the interpreter's digit limit, and a term past it
    # is named as such, not as a malformed field, without echoing the line
    big = tmp_path / "big.txt"
    big.write_text(f"1 1\n2 {'7' * 5000}\n3 2\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        with pytest.raises(ValueError) as exc:
            cli.read_bfile(str(big))
        assert f":2: a field passes the {limit}-digit int limit" in str(exc.value)
        assert "non-integer" not in str(exc.value) and "7777" not in str(exc.value)
    with digits_unlimited():
        assert cli.read_bfile(str(big)).values == [1, 7 * (10**5000 - 1) // 9, 2]


@pytest.mark.parametrize("text, message", [
    ("1 1 1\n", ":1: expected 'n value', got '1 1 1\\n'"),
    ("# no terms\n\n# here either\n", ": no terms found"),
])
def test_bad_bfile_exits_two(tmp_path, capsys, text, message):
    bfile = tmp_path / "b.txt"
    bfile.write_text(text)
    rc, out, err = run(capsys, "fit", "--bfile", str(bfile), "--order", "1", "--degree", "0")
    assert (rc, out, err) == (2, "", f"error: {bfile}{message}\n")


def test_cache_hits_are_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["compute", "--r", "1", "--s", "2", "--mode", "abs", "--n", "12",
            "--engine", "r1fast", "--cache-dir", str(cache)]
    rc, out1, _ = run(capsys, *args)
    assert rc == 0
    cached_files = list(cache.iterdir())
    assert len(cached_files) == 1
    assert cached_files[0].name == "r1_s2_absolute_r1fast.bfile"
    stamp = cached_files[0].read_text()
    # shorter request served from the same cache, byte-identical prefix
    rc, out2, _ = run(capsys, "compute", "--r", "1", "--s", "2", "--mode", "abs",
                      "--n", "7", "--engine", "r1fast", "--cache-dir", str(cache))
    assert rc == 0
    assert out2 == "".join(out1.splitlines(keepends=True)[:7])
    assert cached_files[0].read_text() == stamp
    # env variable names the same default directory
    rc, out3, _ = run(capsys, "compute", "--r", "1", "--s", "2", "--mode", "abs",
                      "--n", "12", "--engine", "r1fast", "--cache-dir", str(cache))
    assert out3 == out1


def test_torn_cache_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["compute", "--r", "1", "--s", "1", "--mode", "abs", "--n", "20",
            "--engine", "riordan", "--cache-dir", str(cache)]
    rc, out, _ = run(capsys, *args)
    assert rc == 0 and out.endswith("20 327460573946510746\n")
    path = cache / "r1_s1_absolute_riordan.bfile"
    whole = path.read_bytes()
    for torn in (whole[:-6], whole[:-1], b"1 1\n2 x\n", b"", b"\xff\xfe\x00garbage"):
        path.write_bytes(torn)
        rc, again, _ = run(capsys, *args)
        assert rc == 0 and again == out
        assert path.read_bytes() == whole
    assert [p.name for p in cache.iterdir()] == [path.name]


@pytest.mark.parametrize("failure", ["directory", "replace"])
def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch, failure):
    cache = tmp_path / "cache"
    path = cache / "r1_s1_absolute_riordan.bfile"
    if failure == "directory":
        path.mkdir(parents=True)  # os.replace cannot put a file over a directory
    else:
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(cli.os, "replace", refuse)
    rc, out, err = run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "abs",
                       "--n", "5", "--cache-dir", str(cache))
    assert rc == 2 and out == "" and err.startswith("error: ")
    assert list(cache.glob("*.tmp")) == []


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    rc, out, _ = run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "signed",
                     "--n", "6", "--engine", "navarrete")
    assert rc == 0
    cached = (tmp_path / "envcache" / "r1_s1_signed_navarrete.bfile").read_text()
    assert cached.startswith(out) and cached[len(out):].startswith("# 6 sha256 ")


def test_edited_cache_line_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["compute", "--r", "1", "--s", "1", "--mode", "abs", "--n", "6",
            "--engine", "riordan", "--cache-dir", str(cache)]
    rc, out, _ = run(capsys, *args)
    assert rc == 0 and out == "1 1\n2 0\n3 0\n4 2\n5 14\n6 90\n"
    path = cache / "r1_s1_absolute_riordan.bfile"
    whole = path.read_text()
    assert whole.startswith(out)
    path.write_text(whole.replace("3 0\n", "3 7\n"))
    rc, again, _ = run(capsys, *args)
    assert rc == 0 and again == out
    assert path.read_text() == whole


def test_old_format_cache_is_recomputed_and_rewritten(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "r1_s1_absolute_riordan.bfile"
    path.write_text("1 1\n2 0\n3 0\n4 2\n5 14\n6 91\n")  # no trailer, wrong tail
    args = ["compute", "--r", "1", "--s", "1", "--mode", "abs", "--n", "6",
            "--engine", "riordan", "--cache-dir", str(cache)]
    rc, out, _ = run(capsys, *args)
    assert rc == 0 and out.endswith("6 90\n")
    rewritten = path.read_text()
    assert rewritten.startswith(out) and rewritten.count("\n") == 7
    assert rewritten.splitlines()[-1].startswith("# 6 sha256 ")


def test_warm_cache_does_not_serve_n_below_one(tmp_path, capsys):
    base = ["compute", "--r", "1", "--s", "2", "--mode", "abs", "--engine", "r1fast",
            "--cache-dir", str(tmp_path)]
    assert run(capsys, *base, "--n", "8")[0] == 0
    for n in ("0", "-3"):
        rc, out, err = run(capsys, *base, "--n", n)
        assert rc == 2 and out == "" and "n_max must be >= 1" in err


def test_cache_body_from_index_zero_is_a_miss(tmp_path, capsys):
    # the trailer matches the body, but the cache holds the lines "n t(n)"
    # for n = 1..N only
    path = tmp_path / "r1_s1_absolute_riordan.bfile"
    for body in ("0 1\n1 1\n2 0\n3 0\n4 2\n5 14\n",  # parses, but from index 0
                 "1 2 3\n",  # three fields: does not parse
                 "1 1\n3 0\n"):  # index 2 missing: does not parse
        path.write_text(body + cli._trailer(body))
        rc, out, _ = run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "abs",
                         "--n", "5", "--engine", "riordan", "--cache-dir", str(tmp_path))
        assert rc == 0 and out == "1 1\n2 0\n3 0\n4 2\n5 14\n", body
        assert path.read_text() == out + cli._trailer(out), body


def test_crosscheck_agreement(capsys):
    rc, out, err = run(capsys, "crosscheck", "--r", "2", "--s", "2", "--mode", "signed",
                       "--n", "8", "--engines", "oracle,ie,matsuo")
    assert rc == 0
    assert "agree" in out
    assert err == ""
    rc, out, _ = run(capsys, "crosscheck", "--r", "1", "--s", "1", "--mode", "abs",
                     "--n", "8", "--engines", "oracle,ie,riordan,robbins,r1fast")
    assert rc == 0
    for r, mode, fast in (("3", "abs", "r1fast"), ("4", "signed", "navarrete")):
        rc, out, _ = run(capsys, "crosscheck", "--r", r, "--s", "1", "--mode", mode,
                         "--n", "8", "--engines", f"oracle,ie,{fast}")
        assert rc == 0 and "agree" in out, (r, mode)


def test_crosscheck_rejects_inapplicable(capsys):
    rc, out, err = run(capsys, "crosscheck", "--r", "1", "--s", "1", "--mode", "signed",
                       "--n", "8", "--engines", "oracle,riordan")
    assert rc != 0
    assert "riordan" in err


def test_crosscheck_refuses_a_repeated_engine(capsys):
    rc, out, err = run(capsys, "crosscheck", "--r", "1", "--s", "1", "--mode", "abs",
                       "--n", "5", "--engines", "riordan,oracle,riordan")
    assert rc == 2
    assert out == ""
    assert "'riordan' is listed twice" in err


@pytest.mark.parametrize("listed, message", [
    ("riordan", "crosscheck needs at least two engines"),
    ("auto,ie", "unknown engine 'auto'"),
    ("nope,ie", "unknown engine 'nope'"),
])
def test_crosscheck_refuses_a_bad_engine_list(capsys, listed, message):
    rc, out, err = run(capsys, "crosscheck", "--r", "1", "--s", "1", "--mode", "abs",
                       "--n", "5", "--engines", listed)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_crosscheck_reports_first_mismatch(capsys, monkeypatch):
    real = inclusion_exclusion.sequence

    def broken(spec, n_max):
        values = real(spec, n_max)
        values[4] += 1
        return values

    monkeypatch.setattr(inclusion_exclusion, "sequence", broken)
    rc, out, err = run(capsys, "crosscheck", "--r", "1", "--s", "1", "--mode", "signed",
                       "--n", "8", "--engines", "navarrete,ie")
    assert rc == 1
    assert "n=5" in err
    assert "navarrete=" in err and "ie=" in err


def test_tilings_dump(capsys):
    rc, out, _ = run(capsys, "tilings", "--r", "3", "--n", "5")
    assert rc == 0
    assert out == "1 * x1^5\n2 * x1^3 x2^1\n1 * x1^1 x2^2\n"


def test_fit_verify_extend_flow(tmp_path, capsys):
    bfile = tmp_path / "a11.txt"
    opfile = tmp_path / "a11.op"
    rc, _, _ = run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "signed",
                   "--n", "20", "--engine", "navarrete", "--bfile", str(bfile))
    assert rc == 0
    rc, _, _ = run(capsys, "fit", "--bfile", str(bfile), "--order", "2",
                   "--degree", "1", "--opfile", str(opfile))
    assert rc == 0
    assert opfile.read_text() == "2 1 1\n1\n1 -1\n2 -1\n"
    rc, out, _ = run(capsys, "verify", "--opfile", str(opfile), "--bfile", str(bfile))
    assert rc == 0 and out == "ok\n"
    rc, out, _ = run(capsys, "extend", "--opfile", str(opfile), "--bfile", str(bfile),
                     "--n", "22")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 22
    assert lines[0] == "1 1"


def test_fit_reads_comment_lines_and_cache_files(tmp_path, capsys):
    plain = tmp_path / "a11.txt"
    cache = tmp_path / "cache"
    compute = ["compute", "--r", "1", "--s", "1", "--mode", "signed", "--n", "20",
               "--engine", "navarrete"]
    assert run(capsys, *compute, "--bfile", str(plain))[0] == 0
    assert run(capsys, *compute, "--cache-dir", str(cache))[0] == 0
    commented = tmp_path / "b-file.txt"
    commented.write_text("# A002464\n#\n" + plain.read_text())
    cached = cache / "r1_s1_signed_navarrete.bfile"
    assert cached.read_text().splitlines()[-1].startswith("# 20 sha256 ")
    for path in (commented, cached):
        opfile = tmp_path / f"{path.name}.op"
        rc, _, err = run(capsys, "fit", "--bfile", str(path), "--order", "2",
                         "--degree", "1", "--opfile", str(opfile))
        assert rc == 0, err
        assert opfile.read_text() == "2 1 1\n1\n1 -1\n2 -1\n"


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    compute = ["compute", "--r", "1", "--s", "1", "--mode", "abs", "--n", "3",
               "--engine", "riordan"]
    assert run(capsys, *compute, "--offset", "0") == (0, "0 1\n1 0\n2 0\n", "")
    assert run(capsys, *compute) == (0, "1 1\n2 0\n3 0\n", "")
    bfile = tmp_path / "a11.txt"
    assert run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "signed", "--n", "12",
               "--engine", "navarrete", "--bfile", str(bfile))[0] == 0
    fit = ["fit", "--bfile", str(bfile), "--order", "2", "--degree", "1"]
    # 12 terms cover the bound of 9 plus holdout 3, but not plus the default 5
    assert run(capsys, *fit, "--holdout", "3") == (0, "2 1 1\n1\n1 -1\n2 -1\n", "")
    rc, out, err = run(capsys, *fit)
    assert (rc, out) == (2, "")
    assert "holdout=5" in err


def test_commands_read_bfiles_through_the_module_attribute(tmp_path, capsys, monkeypatch):
    # traced benchmark runs time b-file reads by replacing cli.read_bfile
    bfile, opfile = tmp_path / "a11.txt", tmp_path / "a11.op"
    assert run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "signed", "--n", "20",
               "--engine", "navarrete", "--bfile", str(bfile))[0] == 0
    calls = []
    read_bfile = cli.read_bfile
    monkeypatch.setattr(cli, "read_bfile", lambda path: calls.append(path) or read_bfile(path))
    for argv in (["fit", "--bfile", str(bfile), "--order", "2", "--degree", "1",
                  "--opfile", str(opfile)],
                 ["verify", "--opfile", str(opfile), "--bfile", str(bfile)],
                 ["extend", "--opfile", str(opfile), "--bfile", str(bfile), "--n", "22"]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == [str(bfile)], argv[0]


def test_fit_with_no_holdout_at_order_zero(tmp_path, capsys):
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 5\n" + "".join(f"{n} 0\n" for n in range(2, 9)))
    ops = []
    for holdout in ("0", "1"):
        opfile = tmp_path / f"holdout{holdout}.op"
        assert run(capsys, "fit", "--bfile", str(bfile), "--order", "0", "--degree", "1",
                   "--holdout", holdout, "--opfile", str(opfile)) == (0, "", "")
        ops.append(opfile.read_bytes())
    assert ops[0] == ops[1]


def test_fit_refusal_names_bound(tmp_path, capsys):
    bfile = tmp_path / "short.txt"
    bfile.write_text("".join(f"{i} {i}\n" for i in range(1, 6)))
    rc, out, err = run(capsys, "fit", "--bfile", str(bfile), "--order", "2",
                       "--degree", "1")
    assert rc == 2
    assert "9" in err


def test_fit_underdetermined_exits_one(tmp_path, capsys):
    bfile = tmp_path / "ones.txt"
    bfile.write_text("".join(f"{n} 1\n" for n in range(1, 21)))
    opfile = tmp_path / "ones.op"
    # p_0 + p_1 + p_2 = 0 is two conditions on six coefficients
    rc, out, err = run(capsys, "fit", "--bfile", str(bfile), "--order", "2",
                       "--degree", "1", "--opfile", str(opfile))
    assert (rc, out, err) == (1, "", "error: underdetermined: nullspace has dimension 4\n")
    assert not opfile.exists()


def test_fit_with_no_operator_exits_one(tmp_path, capsys):
    rng = random.Random(7)
    bfile = tmp_path / "random.txt"
    bfile.write_text("".join(f"{n} {rng.randrange(1, 10**9)}\n" for n in range(1, 40)))
    rc, out, err = run(capsys, "fit", "--bfile", str(bfile), "--order", "1", "--degree", "0")
    assert (rc, out, err) == (1, "", "no recurrence of order 1, degree 0 fits\n")


def test_verify_failure_exit_code(tmp_path, capsys):
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 1\n2 2\n3 4\n4 9\n")
    opfile = tmp_path / "op.txt"
    opfile.write_text("1 0 1\n1\n-2\n")  # t(n) = 2 t(n-1)
    rc, out, _ = run(capsys, "verify", "--opfile", str(opfile), "--bfile", str(bfile))
    assert rc == 1
    assert out == "fail 4\n"


def test_tilings_out_file(tmp_path, capsys):
    out = tmp_path / "f35.txt"
    rc, stdout, _ = run(capsys, "tilings", "--r", "3", "--n", "5", "--out", str(out))
    assert rc == 0
    assert stdout == ""
    assert out.read_text() == "1 * x1^5\n2 * x1^3 x2^1\n1 * x1^1 x2^2\n"


def test_extend_out_file(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1 1\n2 0\n3 0\n4 2\n")
    opfile = tmp_path / "op.txt"
    opfile.write_text("4 1 1\n1\n-1 -1\n-2 1\n-5 1\n3 -1\n")
    out = tmp_path / "ext.txt"
    rc, stdout, _ = run(capsys, "extend", "--opfile", str(opfile), "--bfile",
                        str(seeds), "--n", "6", "--out", str(out))
    assert rc == 0
    assert stdout == ""
    assert out.read_text() == "1 1\n2 0\n3 0\n4 2\n5 14\n6 90\n"


def test_extend_stops_at_n(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("".join(f"{n} {n * n}\n" for n in range(3, 23)))  # 20 terms
    opfile = tmp_path / "op.txt"
    opfile.write_text("1 0 1\n1\n-1\n")  # t(n) = t(n-1)
    rc, out, _ = run(capsys, "extend", "--opfile", str(opfile), "--bfile", str(seeds),
                     "--n", "5")
    assert rc == 0
    assert out == "3 9\n4 16\n5 25\n"
    rc, out, err = run(capsys, "extend", "--opfile", str(opfile), "--bfile", str(seeds),
                       "--n", "2")
    assert rc == 2
    assert out == ""
    assert err == "error: n_max=2 is below the first seed index 3\n"


def test_extend_inexact_reports_error(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1 3\n")
    opfile = tmp_path / "op.txt"
    opfile.write_text("1 0 1\n2\n-1\n")  # 2 t(n) = t(n-1)
    rc, stdout, err = run(capsys, "extend", "--opfile", str(opfile), "--bfile",
                          str(seeds), "--n", "3")
    assert rc == 1
    assert stdout == ""
    assert "not an integer" in err


def test_extend_singular_leading_term_exits_one(tmp_path, capsys):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("1 1\n")
    opfile = tmp_path / "op.txt"
    opfile.write_text("1 1 1\n-3 1\n-1\n")  # (n - 3) t(n) = t(n-1)
    out = tmp_path / "ext.txt"
    rc, stdout, err = run(capsys, "extend", "--opfile", str(opfile), "--bfile",
                          str(seeds), "--n", "5", "--out", str(out))
    assert (rc, stdout, err) == (1, "", "error: p_0(3) = 0; cannot solve for t(3)\n")
    assert not out.exists()


def test_extend_refuses_seeds_the_operator_fails_on(tmp_path, capsys):
    # the same terms with b-file index 0: verify fails at 4, and extend,
    # which would otherwise step on to wrong terms, refuses with exit 2
    b1, b0, opfile = tmp_path / "b1.txt", tmp_path / "b0.txt", tmp_path / "r.op"
    compute = ["compute", "--r", "1", "--s", "1", "--mode", "abs", "--engine", "riordan"]
    assert run(capsys, *compute, "--n", "40", "--bfile", str(b1))[0] == 0
    assert run(capsys, "fit", "--bfile", str(b1), "--order", "4", "--degree", "1",
               "--opfile", str(opfile))[0] == 0
    assert run(capsys, *compute, "--n", "20", "--offset", "0", "--bfile", str(b0))[0] == 0
    assert run(capsys, "verify", "--opfile", str(opfile), "--bfile", str(b0)) == (
        1, "fail 4\n", "")
    assert run(capsys, "extend", "--opfile", str(opfile), "--bfile", str(b0),
               "--n", "25") == (2, "", "error: the operator fails on the seeds at n=4\n")


def test_bench_runs(capsys):
    rc, out, err = run(capsys, "bench", "--r", "1", "--s", "1", "--mode", "abs",
                       "--n", "12", "--engines", "riordan,robbins")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("riordan ") and lines[1].startswith("robbins ")


def test_bench_accepts_auto(capsys):
    rc, out, _ = run(capsys, "bench", "--r", "1", "--s", "1", "--mode", "signed",
                     "--n", "8", "--engines", "auto")
    assert rc == 0
    assert out.startswith("auto ") and len(out.splitlines()) == 1


def test_bench_resolves_every_engine_before_timing(capsys):
    rc, out, err = run(capsys, "bench", "--r", "1", "--s", "1", "--mode", "abs",
                       "--n", "8", "--engines", "riordan,navarrete")
    assert rc == 2
    assert out == ""
    assert "navarrete" in err and "r=1 or s=1, and signed mode" in err


def test_bench_runs_each_engine_once_before_its_clock_starts(capsys, monkeypatch):
    # the untimed run at n = 1 takes the lazy module import and first-call
    # setup out of the timed one, for repeated names and auto too
    log = []
    compute, clock = cli.engines.compute, cli.time.perf_counter
    monkeypatch.setattr(cli.engines, "compute", lambda spec, n, engine: (
        log.append((engine, n)) or compute(spec, n, engine)))
    monkeypatch.setattr(cli.time, "perf_counter", lambda: log.append("clock") or clock())
    rc, out, _ = run(capsys, "bench", "--r", "2", "--s", "2", "--n", "8",
                     "--engines", "matsuo,matsuo,ie,auto")
    assert rc == 0
    assert [line.split()[0] for line in out.splitlines()] == ["matsuo", "matsuo", "ie", "auto"]
    assert log == [step for engine in ("matsuo", "matsuo", "ie", "matsuo")
                   for step in ((engine, 1), "clock", (engine, 8), "clock")]


@pytest.mark.parametrize("listed", [",", ""])
def test_bench_refuses_an_empty_engine_list(capsys, listed):
    rc, out, err = run(capsys, "bench", "--r", "1", "--s", "1", "--n", "5", "--engines", listed)
    assert (rc, out, err) == (2, "", "error: bench needs at least one engine\n")


# Riordan's term 1559 is the first past the 4300-digit int <-> str limit of CPython 3.10.7+.
BIG_N = 1600
RIORDAN_OP = "4 1 1\n1\n-1 -1\n-2 1\n-5 1\n3 -1\n"


@contextmanager
def digits_unlimited():
    """Lift the int <-> str digit limit in the block, to build the expected text of big terms."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def big_riordan_bfile(capsys, path):
    rc, out, err = run(capsys, "compute", "--r", "1", "--s", "1", "--mode", "abs",
                       "--n", str(BIG_N), "--engine", "riordan", "--bfile", str(path))
    assert (rc, out, err) == (0, "", "")


def test_compute_writes_terms_past_the_digit_limit(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big_riordan_bfile(capsys, big)
    with digits_unlimited():
        want = "".join(f"{n} {v}\n" for n, v in
                       enumerate(closed_forms.riordan_sequence(BIG_N), start=1))
        assert len(want.splitlines()[1558]) > 4300
    assert big.read_text() == want


def test_verify_and_extend_read_terms_past_the_digit_limit(tmp_path, capsys):
    big, seeds, opfile = tmp_path / "big.txt", tmp_path / "b.txt", tmp_path / "r.op"
    big_riordan_bfile(capsys, big)
    seeds.write_text("".join(big.read_text().splitlines(keepends=True)[:40]))
    opfile.write_text(RIORDAN_OP)
    rc, out, err = run(capsys, "verify", "--opfile", str(opfile), "--bfile", str(big))
    assert (rc, out, err) == (0, "ok\n", "")
    rc, out, err = run(capsys, "extend", "--opfile", str(opfile), "--bfile", str(seeds),
                       "--n", str(BIG_N))
    assert (rc, err) == (0, "")
    assert out == big.read_text()


def test_crosscheck_mismatch_between_big_terms_exits_one(capsys, monkeypatch):
    terms = closed_forms.riordan_sequence(BIG_N)
    monkeypatch.setattr(closed_forms, "robbins", lambda n: terms[n - 1] + (n == BIG_N))
    rc, out, err = run(capsys, "crosscheck", "--r", "1", "--s", "1", "--mode", "abs",
                       "--n", str(BIG_N), "--engines", "riordan,robbins")
    assert (rc, out) == (1, "")
    with digits_unlimited():
        assert err == f"mismatch at n={BIG_N}: riordan={terms[-1]}, robbins={terms[-1] + 1}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int <-> str digit limit")
@pytest.mark.parametrize("argv", [
    ["compute", "--r", "1", "--s", "1", "--mode", "abs", "--n", str(BIG_N), "--engine", "riordan"],
    ["compute", "--r", "1", "--s", "1", "--n", "12", "--engine", "oracle"],
    ["compute", "--r", "1", "--s", "1", "--n", "five"],
])
def test_main_puts_the_callers_digit_limit_back(argv):
    before = sys.get_int_max_str_digits()
    try:
        for limit in (before, 5000):
            sys.set_int_max_str_digits(limit)
            with suppress(SystemExit):  # the bad argument
                cli.main(argv)
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)
