"""Command-line front end.

Subcommands:
  compute     terms of a sequence with a chosen engine, b-file format
  crosscheck  run several engines and compare term by term
  tilings     dump a tiling weight enumerator as text
  fit         guess a recurrence operator from a b-file
  verify      check an operator file against a b-file
  extend      run an operator forward from seed terms
  bench       time engines on a common range

Data goes to stdout (or the file named by --bfile / --opfile); diagnostics
go to stderr.  Exit status is 0 only when nothing mismatched or failed.
Commands import what they need when they run: only fit, verify and extend
load `recurrences`, and only tilings loads `tilings`.
"""

import argparse
import functools
import os
import sys
import time
from contextlib import suppress

# The builtin sha256 (_sha256 up to Python 3.11, _sha2 after) spares the
# load of OpenSSL that importing hashlib costs: about 4 MB of resident memory.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from . import engines
from .specs import ABSOLUTE, SIGNED, SequenceSpec

CACHE_ENV = "GAPPERMS_CACHE_DIR"


def _mode(value: str) -> str:
    return ABSOLUTE if value in ("abs", "absolute") else SIGNED


def _bfile_text(values: list, offset: int) -> str:
    return "".join(f"{offset + i} {v}\n" for i, v in enumerate(values))


def _parse_bfile(lines, where: str) -> tuple:
    offset = None
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{where}:{lineno}: expected 'n value', got {line!r}")
        try:
            n, v = int(parts[0]), int(parts[1])
        except ValueError:
            if 0 < (limit := getattr(sys, "get_int_max_str_digits", lambda: 0)()) < len(parts[1]):
                raise ValueError(f"{where}:{lineno}: a field passes the {limit}-digit int limit, which"
                                 " gapperms commands lift; library callers: sys.set_int_max_str_digits(0)")
            raise ValueError(f"{where}:{lineno}: non-integer field in {line!r}")
        if offset is None:
            offset = n
        elif n != offset + len(values):
            raise ValueError(f"{where}:{lineno}: index {n} breaks the run")
        values.append(v)
    if offset is None:
        raise ValueError(f"{where}: no terms found")
    return offset, values


def read_bfile(path: str):
    """The b-file at path as a `recurrences.TermTable`."""
    from .recurrences import TermTable
    with open(path) as fh:
        return TermTable(*_parse_bfile(fh, path))


def _emit(text: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cache_path(cache_dir, spec: SequenceSpec, engine: str):
    if not cache_dir:
        cache_dir = os.environ.get(CACHE_ENV)
    if not cache_dir:
        return None
    os.makedirs(cache_dir, exist_ok=True)
    name = f"r{spec.r}_s{spec.s}_{spec.mode}_{engine}.bfile"
    return os.path.join(cache_dir, name)


def _trailer(body: str) -> str:
    """Last line of a cache file: the term count and a sha256 of the body."""
    count = body.count("\n")
    digest = sha256(body.encode()).hexdigest()
    return f"# {count} sha256 {digest}\n"


def _read_cache(path: str, n_max: int):
    """Terms 1..n_max from a cache file, or None on a miss.  A file that is
    absent, too short, not UTF-8, or whose trailer is missing or does not match
    its body (a torn write, an edited line, the older trailer-less format) is a miss."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    body = text[:text.rfind("\n", 0, -1) + 1]
    if text != body + _trailer(body):
        return None
    try:
        offset, values = _parse_bfile(body.splitlines(), path)
    except ValueError:
        return None
    if offset != 1 or not 1 <= n_max <= len(values):
        return None
    return values[:n_max]


def _write_atomic(path: str, text: str):
    """Readers see either the old file or the whole new one; a failure leaves no temp file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def _engine_list(text: str) -> list:
    return [e.strip() for e in text.split(",") if e.strip()]


def cmd_compute(args) -> int:
    spec = SequenceSpec(args.r, args.s, _mode(args.mode))
    engine = engines.resolve(spec, args.engine, args.n)
    cache = _cache_path(args.cache_dir, spec, engine)
    values = _read_cache(cache, args.n) if cache else None
    if values is None:
        values = engines.compute(spec, args.n, engine)
        if cache:
            body = _bfile_text(values, 1)
            _write_atomic(cache, body + _trailer(body))
    _emit(_bfile_text(values, args.offset), args.bfile)
    return 0


def cmd_crosscheck(args) -> int:
    spec = SequenceSpec(args.r, args.s, _mode(args.mode))
    names = _engine_list(args.engines)
    if len(names) < 2:
        raise ValueError("crosscheck needs at least two engines")
    for i, name in enumerate(names):
        if name not in engines.ENGINES:  # "auto" too: it would repeat a concrete engine
            raise ValueError(f"unknown engine {name!r}")
        if name in names[:i]:
            raise ValueError(f"engine {name!r} is listed twice")
        engines.resolve(spec, name, args.n)
    results = {e: engines.compute(spec, args.n, e) for e in names}
    reference = names[0]
    for other in names[1:]:
        for n in range(1, args.n + 1):
            a, b = results[reference][n - 1], results[other][n - 1]
            if a != b:
                print(
                    f"mismatch at n={n}: {reference}={a}, {other}={b}",
                    file=sys.stderr,
                )
                return 1
    print(f"ok: {', '.join(names)} agree for n=1..{args.n}")
    return 0


def cmd_tilings(args) -> int:
    from . import tilings  # loaded only here: no other command builds a tiling
    poly = tilings.tiling_polynomial(args.r, args.n)
    _emit(tilings.format_polynomial(poly) + "\n", args.out)
    return 0


def _error(exc, status: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return status


def cmd_fit(args) -> int:
    from . import recurrences
    table = read_bfile(args.bfile)
    try:
        op = recurrences.fit(table, args.order, args.degree, args.holdout)
    except recurrences.UnderdeterminedError as exc:
        return _error(exc, 1)
    if op is None:
        print(
            f"no recurrence of order {args.order}, degree {args.degree} fits",
            file=sys.stderr,
        )
        return 1
    _emit(recurrences.format_operator(op, table.offset), args.opfile)
    return 0


def cmd_verify(args) -> int:
    from . import recurrences
    with open(args.opfile) as fh:
        op, _ = recurrences.parse_operator(fh.read())
    table = read_bfile(args.bfile)
    failing = recurrences.verify(op, table)
    if failing is None:
        print("ok")
        return 0
    print(f"fail {failing}")
    return 1


def cmd_extend(args) -> int:
    from . import recurrences
    with open(args.opfile) as fh:
        op, _ = recurrences.parse_operator(fh.read())
    seeds = read_bfile(args.bfile)
    try:
        table = recurrences.extend(op, seeds, args.n)
    except (recurrences.SingularLeadingTermError, recurrences.InexactStepError) as exc:
        return _error(exc, 1)
    _emit(_bfile_text(table.values, table.offset), args.out)
    return 0


def cmd_bench(args) -> int:
    spec = SequenceSpec(args.r, args.s, _mode(args.mode))
    names = _engine_list(args.engines)
    if not names:
        raise ValueError("bench needs at least one engine")
    resolved = [engines.resolve(spec, name, args.n) for name in names]
    for name, engine in zip(names, resolved):
        engines.compute(spec, 1, engine)  # untimed: the lazy import and first-call setup
        start = time.perf_counter()
        engines.compute(spec, args.n, engine)
        print(f"{name} {time.perf_counter() - start:.3f}s")
    return 0


def _add_spec_args(p):
    p.add_argument("--r", type=int, required=True, help="position gap")
    p.add_argument("--s", type=int, required=True, help="value gap")
    p.add_argument("--mode", choices=("signed", "abs", "absolute"), default="signed")
    p.add_argument("--n", type=int, required=True, help="number of terms")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapperms",
        description="Count permutations where entries r apart never differ by s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute terms with one engine")
    _add_spec_args(p)
    p.add_argument("--engine", choices=(*engines.ENGINES, "auto"), default="auto")
    p.add_argument("--bfile", help="write terms to this path instead of stdout")
    p.add_argument("--offset", type=int, default=1, help="b-file index of the first term")
    p.add_argument("--cache-dir", help=f"term cache directory (default ${CACHE_ENV})")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("crosscheck", help="compare several engines term by term")
    _add_spec_args(p)
    p.add_argument("--engines", required=True, help="comma-separated engine list")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("tilings", help="dump a tiling weight enumerator")
    p.add_argument("--r", type=int, required=True, help="tile gap")
    p.add_argument("--n", type=int, required=True, help="board size")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_tilings)

    p = sub.add_parser("fit", help="fit a recurrence operator to a b-file")
    p.add_argument("--bfile", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--holdout", type=int, default=5)
    p.add_argument("--opfile", help="write the operator here instead of stdout")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="check an operator against a b-file")
    p.add_argument("--opfile", required=True)
    p.add_argument("--bfile", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extend", help="run an operator forward from seeds")
    p.add_argument("--opfile", required=True)
    p.add_argument("--bfile", required=True, help="seed terms")
    p.add_argument("--n", type=int, required=True, help="extend up to this index")
    p.add_argument("--out", help="write terms to this path instead of stdout")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("bench", help="time engines on a common range")
    _add_spec_args(p)
    p.add_argument("--engines", required=True, help="comma-separated engine list")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # CPython 3.10.7+
    if limit:  # terms may pass its 4300 int <-> str digits: lift it while the command runs
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _error(exc, 2)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
