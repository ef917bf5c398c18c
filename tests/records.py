"""Survey and classify rows with field names, for the tests to read.

`survey.classify_triple` yields plain tuples in RECORD_COLUMNS order, with
the minimum, an int, in one cell; these helpers name the fields.
"""

from collections import namedtuple

from wrlat.survey import classify_triple, run_survey

Record = namedtuple("Record", "D a b g norm minimum n_minimal wr hexagonal order_maximal")


def classify_one(order, a, b, g) -> Record:
    """The row of one ideal, as `wrlat classify` gets it."""
    (row,) = classify_triple(order, [(a, b, g)])
    return Record._make(row)


def survey(cfg) -> tuple[list[Record], dict]:
    """Every row of a survey window, in output order, and the summary."""
    chunks, summary = run_survey(cfg, list)
    return [Record._make(row) for rows in chunks for row in rows], summary
