"""Command line interface.

Subcommands: classify, survey, tables, family, cyclo.  Exit codes: 0 success
(for classify: well-rounded), 1 classify on a valid but not well-rounded
ideal, 2 invalid input, 3 internal invariant violation (for classify and
survey: a minimum below its bound; for family: a closed form mismatch; for
tables and cyclo: a failed row, reported on stderr after the output).  Each
exit 3 ends stderr with an "invariant violation: ...; replay: wrlat ..." line.

main spools each command's output and copies it to --out or stdout only
when the command returns, then writes the stderr lines it held back, so a
failed command writes nothing but its error line.  Survey records go
through one formatter per output format (_RECORDS); survey workers run it
on each radicand's rows, so this process only writes strings.  Every other
output goes through render.

The parser is built once per process, on the first main call; each call
parses into a fresh namespace, so no argument carries over.  The handlers
(_cmd_*) are bound at that first build, so a test patches what a handler
calls (cli.cyclo_field, cli.verify_cyclotomic_theorem), not the handler.
json and csv are imported by the functions that use them, so a command in
the default text format loads neither.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import shutil
import sys
import tempfile

from .arith import QuadOrder
from .cyclo import CycloTheoremReport, cyclo_field, verify_cyclotomic_theorem
from .errors import InvariantViolation
from .families import family_stream
from .ideals import IdealTriple
from .survey import SurveyConfig, TableRow, ideal_shape, reference_tables, run_survey
from .svp import MAX_ENUM_DIM

EXIT_OK = 0
EXIT_NOT_WR = 1
EXIT_BAD_INPUT = 2
EXIT_INVARIANT = 3

FORMATS = ("json", "csv", "text")
RECORD_COLUMNS = (
    "D", "a", "b", "g", "norm", "minimum_num", "minimum_den",
    "n_minimal", "wr", "hexagonal", "order_maximal",
)
FAMILY_COLUMNS = ("t", "D", "a", "b", "g", "c1", "c2", "c3", "p_prime", "squarefree")
CYCLO_COLUMNS = (
    "k", "phi", "minimum_num", "minimum_den", "expected_num", "expected_den",
    "n_minimal", "expected_count", "wr", "pass",
)


_YN = ("no", "yes")  # indexed by a bool
_TF = ("false", "true")


@contextlib.contextmanager
def _spool(out):
    """A temporary file for a command's output, copied to the file `out`, or
    to stdout when `out` is None, when the command returns; the command's
    stderr lines are held and written after the copy.  When the command
    raises, both are dropped: nothing is written and no file is created.
    When the copy raises, the held lines are dropped."""
    with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            yield spool
        spool.seek(0)
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            shutil.copyfileobj(spool, fh)
    sys.stderr.write(err.getvalue())


def render(fh, fmt, items, columns, text_lines, key=None, *, row=None):
    """Write `items` to `fh` in the format `fmt`, each line as it is formatted.

    Each row, `row(item)` or else the item, holds the values of `columns`.
    JSON is the json module's indented text that maps `columns` to each row:
    the one row when `key` is None, else {key: [rows]}.  CSV is a header plus
    the csv module's line of each row (it quotes the tables' free text),
    booleans as true/false.  Text is the lines of `text_lines(items)`, each
    ending in a newline.
    """
    rows = items if row is None else map(row, items)
    if fmt == "json":
        import json

        if key is None:
            fh.writelines((json.dumps(dict(zip(columns, next(iter(rows)))), indent=2), "\n"))
            return
        # the text of json.dumps({key: rows}, indent=2), written row by row
        fh.write(f"{{\n  {json.dumps(key)}: [")
        sep = "\n    "
        for r in rows:
            fh.writelines((sep, json.dumps(dict(zip(columns, r)), indent=2).replace("\n", "\n    ")))
            sep = ",\n    "
        fh.write("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")
    elif fmt == "csv":
        import csv

        fh.write(",".join(columns) + "\n")
        csv.writer(fh, lineterminator="\n").writerows(
            [_TF[v] if v.__class__ is bool else v for v in r] for r in rows
        )
    else:
        fh.writelines(text_lines(items))


def _add_common(sub):
    sub.add_argument("--format", choices=FORMATS, default=None, help="output format (default: text)")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


# one formatter per output format: a list of classify_triple rows to one
# string, one f-string per record.  The survey calls them on one radicand's
# rows, never none (every radicand has the unit ideal), so the CSV and JSON
# ones read D and order_maximal once, from the first row

# the tail "1,n_minimal,wr,hexagonal,order_maximal" of a CSV record, indexed
# [order_maximal][n_minimal]: the minimum is an int, so minimum_den is 1, and
# classify_triple's n_minimal decides wr (4 or 6) and hexagonal (6)
_CSV_TAIL = tuple({n: f"1,{n},{_TF[n > 2]},{_TF[n == 6]},{tf}\n" for n in (2, 4, 6)} for tf in _TF)

# _DECIMALS[i] is str(i): the survey formatters read a, b, g and the norm from
# it, and a radicand's rows come sorted by norm, g <= a <= norm and b < a, so
# its last norm bounds every index.  SurveyConfig caps the norm bound, so the
# list holds at most MAX_NORM_BOUND + 1 strings; _records_text, which formats
# classify's row of unbounded norm, does not use it.
_DECIMALS: list[str] = []


def _decimals(rows) -> list[str]:
    """_DECIMALS, grown to the last norm of one radicand's `rows`."""
    n = rows[-1][4] + 1
    if len(_DECIMALS) < n:
        _DECIMALS.extend(map(str, range(len(_DECIMALS), n)))
    return _DECIMALS


def _records_csv(rows) -> str:
    dec, head, tail = _decimals(rows), f"{rows[0][0]},", _CSV_TAIL[rows[0][9]]
    return "".join([
        f"{head}{dec[a]},{dec[b]},{dec[g]},{dec[norm]},{minimum},{tail[n_minimal]}"
        for _, a, b, g, norm, minimum, n_minimal, _, _, _ in rows
    ])


def _records_json(rows) -> str:
    # the record objects of json.dumps({"records": [...]}, indent=2), joined
    # by ",\n": the json module's indented encoder is pure Python
    dec, maximal = _decimals(rows), _TF[rows[0][9]]
    head = f'    {{\n      "D": {rows[0][0]},\n      "a": '
    return ",\n".join([
        f'{head}{dec[a]},\n      "b": {dec[b]},\n'
        f'      "g": {dec[g]},\n      "norm": {dec[norm]},\n      "minimum_num": {minimum},\n'
        f'      "minimum_den": 1,\n      "n_minimal": {n_minimal},\n'
        f'      "wr": {_TF[wr]},\n      "hexagonal": {_TF[hexagonal]},\n'
        f'      "order_maximal": {maximal}\n    }}'
        for _, a, b, g, norm, minimum, n_minimal, wr, hexagonal, _ in rows
    ])


def _records_text(rows) -> str:
    return "".join([
        f"D={D} (a,b,g)=({a},{b},{g}) norm={norm} min={minimum} "
        f"nmin={n_minimal} wr={_YN[wr]} hex={_YN[hexagonal]} maximal={_YN[maximal]}\n"
        for D, a, b, g, norm, minimum, n_minimal, wr, hexagonal, maximal in rows
    ])


_RECORDS = {"csv": _records_csv, "json": _records_json, "text": _records_text}


def _write_records(fh, fmt, results):
    """Write the survey's `results`, one (chunk of `_RECORDS[fmt]`, records,
    wr, hexagonal) per radicand, to `fh` as they arrive, after a header for
    CSV, and sum the summary: it goes on the last text line, to stderr with
    CSV, and under "summary" in JSON, in the bytes of json.dumps(indent=2)."""
    n = wr = hexagonal = 0
    if fmt == "csv":
        fh.write(",".join(RECORD_COLUMNS) + "\n")
    elif fmt == "json":
        fh.write('{\n  "records": [')
    for chunk, records, w, h in results:
        if fmt == "json":
            # every radicand has the unit ideal, so n > 0 after the first chunk
            fh.write(",\n" if n else "\n")
        fh.write(chunk)
        n, wr, hexagonal = n + records, wr + w, hexagonal + h
    # classify_triple raises on a violation, so the bound holds for every record
    line = f"{n} ideals: {wr} wr, {hexagonal} hexagonal, bound holds for {n}/{n}\n"
    if fmt == "json":
        import json

        summary = {"records": n, "wr": wr, "hexagonal": hexagonal, "bound_ok": n}
        fh.write(("\n  ],\n" if n else "],\n") + '  "summary": '
                 + json.dumps(summary, indent=2).replace("\n", "\n  ") + "\n}\n")
    elif fmt == "csv":
        sys.stderr.write(line)
    else:
        fh.write(line)


def _cmd_classify(args, fh) -> int:
    # main maps a bad radicand or triple (ValueError) to exit 2 and a bound
    # violation (InvariantViolation) to exit 3
    t = IdealTriple(args.a, args.b, args.g, QuadOrder(args.D))
    row = (t.order.D, t.a, t.b, t.g, t.a * t.g, *ideal_shape(t.order, t.a // t.g, t.b // t.g, t.g),
           t.order.maximal)
    # the integer minimum fills minimum_num and minimum_den = 1
    render(fh, args.format, [row], RECORD_COLUMNS, _records_text, row=lambda r: (*r[:6], 1, *r[6:]))
    return EXIT_OK if row[7] else EXIT_NOT_WR


_INT_KEYS = ("d_min", "d_max", "norm_bound", "workers")
_CONFIG_KEYS = _INT_KEYS + ("require_squarefree", "output_format")


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, str) and v.lower() in ("true", "yes", "1", "on"):
        return True
    if isinstance(v, str) and v.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"cannot interpret {v!r} as a boolean")


def _as_int(key: str, v, from_json: bool) -> int:
    """A JSON integer that is not a boolean, or key=value text that int() parses."""
    if from_json and isinstance(v, int) and not isinstance(v, bool):
        return v
    if not from_json:
        try:
            return int(v)
        except ValueError:
            pass
    raise ValueError(f"config key {key!r} needs an integer, not {v!r}")


def load_config(path: str) -> dict:
    """Survey settings from a JSON object or flat key=value lines."""
    import json

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        from_json = True
    except json.JSONDecodeError:
        from_json = False
        data = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line: {line!r}")
            data[key.strip()] = val.strip()
    out = {}
    for key, val in data.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if key == "require_squarefree":
            out[key] = _as_bool(val)
        elif key == "output_format":
            if val not in FORMATS:
                raise ValueError(f"unknown output format {val!r}")
            out[key] = val
        else:
            out[key] = _as_int(key, val, from_json)
    return out


def _cmd_survey(args, fh) -> int:
    settings = load_config(args.config) if args.config else {}
    # flags override the config file
    config_format = settings.pop("output_format", "text")
    fmt = args.format or config_format
    for key in _INT_KEYS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    if args.squarefree:
        settings["require_squarefree"] = True
    if "d_min" not in settings or "d_max" not in settings:
        raise ValueError("survey needs --d-min and --d-max (or a config file)")
    _write_records(fh, fmt, run_survey(SurveyConfig(**settings), _RECORDS[fmt]))
    return EXIT_OK


def _table_lines(rows):
    for family in ("imaginary", "real"):
        yield f"{family} family:\n"
        for fam, t, D, _, _, _, ideal, minimal, maximal, match in rows:
            if fam != family:
                continue
            note = "" if maximal else " [non-maximal order]"
            flag = "MATCH" if match else "MISMATCH"
            yield f"  t={t} D={D} I={ideal} minimal: {minimal}{note} {flag}\n"
    yield "all rows match\n" if all(row.match for row in rows) else "MISMATCH detected\n"


def _cmd_tables(args, fh) -> int:
    rows = reference_tables()
    render(fh, args.format, rows, TableRow._fields, _table_lines, key="rows")
    bad = next((row for row in rows if not row.match), None)
    if bad is not None:
        print(f"invariant violation: reference table row {bad.family} t={bad.t} (D={bad.D}) "
              "failed to reproduce; replay: wrlat tables", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _family_row(inst) -> tuple:
    trip = inst.triple
    return (inst.t, inst.D, trip.a, trip.b, trip.g, *inst.closed_form,
            inst.p_prime, inst.squarefree)


def _family_lines(rows):
    for t, D, a, b, g, c1, c2, c3, p_prime, squarefree in rows:
        yield (
            f"t={t} D={D} (a,b,g)=({a},{b},{g}) form=({c1},{c2},{c3}) "
            f"p_prime={_YN[p_prime]} squarefree={_YN[squarefree]}\n"
        )


def _cmd_family(args, fh) -> int:
    instances = family_stream(args.kind, args.t_max, require_squarefree=args.squarefree)
    render(fh, args.format, map(_family_row, instances), FAMILY_COLUMNS, _family_lines, key="instances")
    return EXIT_OK


def _cyclo_row(rep: CycloTheoremReport) -> tuple:
    # both minima are integers: minimum_den and expected_den are 1
    return (rep.k, rep.phi, rep.minimum, 1, rep.expected, 1,
            rep.n_minimal, rep.expected_count, rep.wr, rep.passed)


def _cyclo_lines(reports):
    for rep in reports:
        yield (
            f"k={rep.k} phi={rep.phi}: minimum={rep.minimum} expected={rep.expected} "
            f"minimal_vectors={rep.n_minimal} expected_count={rep.expected_count} "
            f"wr={_YN[rep.wr]}\n"
        )
        yield "PASS\n" if rep.passed else "FAIL\n"


def _cmd_cyclo(args, fh) -> int:
    # phi(k) >= sqrt(k/2) for every k, so a larger k is refused without
    # factoring it; cyclo_field refuses k < 3
    if args.k > 2 * MAX_ENUM_DIM**2 or (F := cyclo_field(args.k)).phi > MAX_ENUM_DIM:
        raise ValueError(f"phi(k) exceeds the enumeration guard ({MAX_ENUM_DIM})")
    rep = verify_cyclotomic_theorem(F)
    render(fh, args.format, [rep], CYCLO_COLUMNS, _cyclo_lines, row=_cyclo_row)
    if not rep.passed:
        print(f"invariant violation: cyclotomic profile failed for k={args.k}; "
              f"replay: wrlat cyclo {args.k}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The wrlat parser, built once per process: every call returns the first
    call's parser, with the _cmd_* handlers bound at that build."""
    parser = argparse.ArgumentParser(
        prog="wrlat",
        description="exact classification of well-rounded ideal lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify one ideal triple (D a b g)")
    p.add_argument("D", type=int)
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("g", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("survey", help="classify every ideal over a radicand range")
    p.add_argument("--d-min", type=int, default=None)
    p.add_argument("--d-max", type=int, default=None)
    p.add_argument("--norm-bound", type=int, default=None)
    p.add_argument("--squarefree", action="store_true", help="restrict to squarefree |D|")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON or key=value settings file")
    _add_common(p)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("tables", help="reproduce the two reference example tables")
    _add_common(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("family", help="list instances of a well-rounded family")
    p.add_argument("kind", choices=("imaginary", "real"))
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--squarefree", action="store_true", help="keep only squarefree |D|")
    _add_common(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("cyclo", help="verify the cyclotomic minimal-vector profile for one k")
    p.add_argument("k", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_cyclo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _spool(args.out) as fh:
            return args.func(args, fh)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
