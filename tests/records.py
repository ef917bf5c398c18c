"""Survey and classify rows with field names, for the tests to read.

`survey.classify_triple` returns plain tuples in RECORD_COLUMNS order, with
the minimum, an int, in one cell; these helpers name the fields.
"""

from collections import namedtuple

from wrlat.survey import ideal_shape, run_survey

Record = namedtuple("Record", "D a b g norm minimum n_minimal wr hexagonal order_maximal")


def classify_one(order, a, b, g) -> Record:
    """The row of one ideal, as `wrlat classify` gets it."""
    return Record(order.D, a, b, g, a * g, *ideal_shape(order, a // g, b // g, g), order.maximal)


def survey(cfg) -> tuple[list[Record], dict]:
    """Every row of a survey window, in output order, and the summary that
    `wrlat survey` writes, summed here from the rows.  Each radicand's
    counts, which the command line sums, must agree with its rows."""
    results = list(run_survey(cfg, list))
    for rows, n, wr, hexagonal in results:
        assert (n, wr, hexagonal) == (len(rows), sum(r[7] for r in rows), sum(r[8] for r in rows))
    records = [Record._make(row) for rows, *_ in results for row in rows]
    n = len(records)
    wr, hexagonal = sum(r.wr for r in records), sum(r.hexagonal for r in records)
    return records, {"records": n, "wr": wr, "hexagonal": hexagonal, "bound_ok": n}
