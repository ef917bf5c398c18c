"""Command line interface.

Subcommands: classify, survey, tables, family, cyclo.  Exit codes: 0 success
(for classify: well-rounded), 1 classify on a valid but not well-rounded
ideal, 2 invalid input, 3 internal invariant violation (for classify and
survey: a minimum below its bound).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .arith import QuadOrder, euler_phi
from .cyclo import CycloTheoremReport, cyclo_field, verify_cyclotomic_theorem
from .errors import InvariantViolation
from .families import family_stream
from .ideals import IdealTriple
from .survey import SurveyConfig, TableRow, classify_triple, reference_tables, run_survey
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


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _summary_line(summary: dict) -> str:
    return (
        f"{summary['records']} ideals: {summary['wr']} wr, {summary['hexagonal']} hexagonal, "
        f"bound holds for {summary['bound_ok']}/{summary['records']}"
    )


def render(args, rows, columns, text_lines, key=None, summary=None):
    """Write `rows`, tuples of the values of `columns` in that order, to --out
    or stdout in the requested format; only that format is built.

    JSON maps `columns` to each row's values: the one row itself when `key`
    is None, else {key: [rows]}.  CSV is a header plus one line per row,
    booleans as true/false.  Text is the lines of `text_lines(rows)`.  A
    survey `summary` goes under "summary" in JSON, on the last text line, and
    to stderr with CSV.  The whole output is built in memory before it is
    written.
    """
    fmt = args.format or "text"
    if fmt == "json":
        dicts = [dict(zip(columns, row)) for row in rows]
        obj = dicts[0] if key is None else {key: dicts}
        if summary is not None:
            obj["summary"] = summary
        text = json.dumps(obj, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(
            [("true" if v else "false") if v.__class__ is bool else v for v in row] for row in rows
        )
        text = buf.getvalue()
    else:
        lines = list(text_lines(rows))
        if summary is not None:
            lines.append(_summary_line(summary))
        text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if summary is not None and fmt == "csv":
        print(_summary_line(summary), file=sys.stderr)


def _add_common(sub):
    sub.add_argument("--format", choices=FORMATS, default=None, help="output format (default: text)")
    sub.add_argument("--out", default=None, help="write output to this path instead of stdout")


def _record_row(r) -> tuple:
    """A SurveyRecord in RECORD_COLUMNS order: the minimum splits into two cells."""
    return (*r[:5], r.minimum.numerator, r.minimum.denominator, *r[6:])


def _record_lines(rows):
    for D, a, b, g, norm, num, den, n_minimal, wr, hexagonal, maximal in rows:
        yield (
            f"D={D} (a,b,g)=({a},{b},{g}) norm={norm} min={Fraction(num, den)} "
            f"nmin={n_minimal} wr={_yn(wr)} hex={_yn(hexagonal)} maximal={_yn(maximal)}"
        )


def _cmd_classify(args) -> int:
    # main maps a bad radicand or triple (ValueError) to exit 2 and a bound
    # violation (InvariantViolation) to exit 3
    t = IdealTriple(args.a, args.b, args.g, QuadOrder(args.D))
    rec = classify_triple(t.order, t.a, t.b, t.g)
    render(args, [_record_row(rec)], RECORD_COLUMNS, _record_lines)
    return EXIT_OK if rec.wr else EXIT_NOT_WR


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


def _cmd_survey(args) -> int:
    settings = load_config(args.config) if args.config else {}
    # flags override the config file
    config_format = settings.pop("output_format", None)
    args.format = args.format or config_format
    for key in _INT_KEYS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    if args.squarefree:
        settings["require_squarefree"] = True
    if "d_min" not in settings or "d_max" not in settings:
        print("error: survey needs --d-min and --d-max (or a config file)", file=sys.stderr)
        return EXIT_BAD_INPUT
    records, summary = run_survey(SurveyConfig(**settings))
    render(args, map(_record_row, records), RECORD_COLUMNS, _record_lines, key="records",
           summary=summary)
    return EXIT_OK


def _table_lines(rows):
    for family in ("imaginary", "real"):
        yield f"{family} family:"
        for fam, t, D, _, _, _, ideal, minimal, maximal, match in rows:
            if fam != family:
                continue
            note = "" if maximal else " [non-maximal order]"
            flag = "MATCH" if match else "MISMATCH"
            yield f"  t={t} D={D} I={ideal} minimal: {minimal}{note} {flag}"
    yield "all rows match" if all(row.match for row in rows) else "MISMATCH detected"


def _cmd_tables(args) -> int:
    rows = reference_tables()
    render(args, rows, TableRow._fields, _table_lines, key="rows")
    if not all(row.match for row in rows):
        print("error: reference table row failed to reproduce", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _family_row(inst) -> tuple:
    trip = inst.triple
    return (inst.t, inst.D, trip.a, trip.b, trip.g, *inst.closed_form.coeffs(),
            inst.p_prime, inst.squarefree)


def _family_lines(rows):
    for t, D, a, b, g, c1, c2, c3, p_prime, squarefree in rows:
        yield (
            f"t={t} D={D} (a,b,g)=({a},{b},{g}) form=({c1},{c2},{c3}) "
            f"p_prime={_yn(p_prime)} squarefree={_yn(squarefree)}"
        )


def _cmd_family(args) -> int:
    instances = family_stream(args.kind, args.t_max, require_squarefree=args.squarefree)
    render(args, map(_family_row, instances), FAMILY_COLUMNS, _family_lines, key="instances")
    return EXIT_OK


def _cyclo_row(rep: CycloTheoremReport) -> tuple:
    return (rep.k, rep.phi, rep.minimum.numerator, rep.minimum.denominator,
            rep.expected.numerator, rep.expected.denominator,
            rep.n_minimal, rep.expected_count, rep.wr, rep.passed)


def _cyclo_lines(rows):
    for k, phi, mn, md, en, ed, n_minimal, expected_count, wr, passed in rows:
        yield (
            f"k={k} phi={phi}: minimum={Fraction(mn, md)} expected={Fraction(en, ed)} "
            f"minimal_vectors={n_minimal} expected_count={expected_count} wr={_yn(wr)}"
        )
        yield "PASS" if passed else "FAIL"


def _cmd_cyclo(args) -> int:
    if args.k < 3:
        print("error: k must be at least 3", file=sys.stderr)
        return EXIT_BAD_INPUT
    # phi(k) >= sqrt(k/2) for every k, so a larger k is refused without factoring it
    if args.k > 2 * MAX_ENUM_DIM**2 or euler_phi(args.k) > MAX_ENUM_DIM:
        print(f"error: phi(k) exceeds the enumeration guard ({MAX_ENUM_DIM})", file=sys.stderr)
        return EXIT_BAD_INPUT
    rep = verify_cyclotomic_theorem(cyclo_field(args.k))
    render(args, [_cyclo_row(rep)], CYCLO_COLUMNS, _cyclo_lines)
    return EXIT_OK if rep.passed else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
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
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
