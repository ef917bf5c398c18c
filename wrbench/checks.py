"""Exact checks of wrlat's outputs, written independently of the code they check.

Nothing here imports wrlat or uses floating point.  A survey record is
re-derived from its triple (D, a, b, g): the ideal is checked by its own
definition, and the lattice minimum and the number of minimal vectors come
from an exact box search.  Cyclotomic answers are checked against Euler's
totient computed here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

CSV_HEADER = "D,a,b,g,norm,minimum_num,minimum_den,n_minimal,wr,hexagonal,order_maximal"

# Pinned seed-0 outputs of `wrlat survey`, taken from --workers 1 runs at the
# commit that introduced this benchmark.  survey_wide runs with two workers,
# so matching its pin also shows that two workers give the one-worker bytes.
SURVEY_PINS = {
    "survey_deep": {
        "sha256": "8fae50d6a72c2570fd7eb638f4e733b140624d1c752b419db2575342a01eef7d",
        "records": 147437, "wr": 3005, "hexagonal": 326,
    },
    "survey_wide": {
        "sha256": "b0ffa79a54a8af0ca7f2da3fda5ca2a84facced05e2f8ac7a798f4603b981687",
        "records": 120117, "wr": 254, "hexagonal": 27,
    },
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return True


def totient(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def _norm(D: int, x: int, y: int) -> int:
    """N(x + y*delta), delta = -sqrt(D), or (1 - sqrt(D))/2 when D = 1 mod 4."""
    if D % 4 == 1:
        return x * x + x * y + y * y * ((1 - D) // 4)
    return x * x - D * y * y


def _length2(D: int, x: int, y: int) -> int:
    """Squared length of the embedded x + y*delta: the norm for D < 0, the
    sum of squares of the two real embeddings (the trace of the square) for D > 0."""
    if D < 0:
        return _norm(D, x, y)
    if D % 4 == 1:
        return ((2 * x + y) ** 2 + D * y * y) // 2
    return 2 * (x * x + D * y * y)


def lattice_minimum(D: int, a: int, b: int, g: int) -> tuple[int, int]:
    """(minimum, number of minimal vectors) of the ideal lattice a*Z + (b + g*delta)*Z.

    A Lagrange step first shortens the basis so that the search box stays
    small; the box itself is exact: every vector m*u + n*v of squared length
    at most Q(u) has n^2 <= 4*A*Q(u)/det and m^2 <= 4*C*Q(u)/det, where
    Q(m*u + n*v) = A*m^2 + B*m*n + C*n^2 and det = 4*A*C - B^2.
    """

    def q(w):
        return _length2(D, w[0], w[1])

    def pair(u, v):  # 2 * <u, v>
        return q((u[0] + v[0], u[1] + v[1])) - q(u) - q(v)

    u, v = (a, 0), (b, g)
    while True:
        if q(v) < q(u):
            u, v = v, u
        k = (pair(u, v) + q(u)) // (2 * q(u))
        if k == 0:
            break
        v = (v[0] - k * u[0], v[1] - k * u[1])
    A, B, C = q(u), pair(u, v), q(v)
    det = 4 * A * C - B * B
    if A <= 0 or det <= 0:
        raise ArithmeticError(f"form of D={D} ({a},{b},{g}) is not positive definite")
    m_max = math.isqrt(4 * C * A // det)
    n_max = math.isqrt(4 * A * A // det)
    best, count = None, 0
    for m in range(-m_max, m_max + 1):
        for n in range(-n_max, n_max + 1):
            if m == 0 and n == 0:
                continue
            val = A * m * m + B * m * n + C * n * n
            if best is None or val < best:
                best, count = val, 1
            elif val == best:
                count += 1
    return best, count


def parse_survey_csv(text: str) -> list[tuple]:
    """Rows of a survey CSV as (D, a, b, g, norm, num, den, n_minimal, wr, hexagonal, maximal)."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("survey CSV has an unexpected header or no final newline")
    flags = {"true": True, "false": False}
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        rows.append(tuple(int(c) for c in cells[:8]) + tuple(flags[c] for c in cells[8:]))
    return rows


def record_problem(row: tuple) -> str | None:
    """Why a survey record is wrong, by direct recomputation, or None."""
    D, a, b, g, norm, num, den, n_min, wr, hexagonal, maximal = row
    where = f"D={D} ({a},{b},{g})"
    if not (0 <= b < a and 0 < g <= a and a % g == 0 and b % g == 0):
        return f"{where}: not a canonical triple"
    if _norm(D, b, g) % (g * a):
        return f"{where}: g*a does not divide N(b + g*delta)"
    if norm != a * g:
        return f"{where}: norm {norm} != a*g"
    if maximal != squarefree(abs(D)):
        return f"{where}: order_maximal flag wrong"
    minimum, count = lattice_minimum(D, a, b, g)
    if Fraction(num, den) != minimum or n_min != count:
        return f"{where}: minimum {num}/{den} x{n_min}, box search gives {minimum} x{count}"
    if wr != (count >= 4) or hexagonal != (count == 6):
        return f"{where}: wr/hexagonal flags wrong"
    return None


def bound_ok(row: tuple) -> bool:
    """The minimum bound: min >= N(I) for D < 0, min^2 >= 4*N(I) for D > 0."""
    D, norm, num, den = row[0], row[4], row[5], row[6]
    if D < 0:
        return num >= norm * den
    return num * num >= 4 * norm * den * den


def check_survey(csv_path: Path, stderr: str, seed: int, pin: dict | None,
                 sample_size: int) -> tuple[list[str], int]:
    """Failed checks of one survey output, and the number of records.

    Every record must satisfy the minimum bound and have consistent flags; a
    seeded sample is recomputed in full; the summary line must match the
    records; a pin, when given, fixes the digest and the summary counts.
    """
    failures = []
    if pin is not None and sha256_file(csv_path) != pin["sha256"]:
        failures.append(f"{csv_path.name}: sha256 differs from the pinned seed-0 output")
    try:
        rows = parse_survey_csv(csv_path.read_text(encoding="utf-8"))
    except (ValueError, KeyError) as exc:
        return failures + [f"{csv_path.name}: unreadable CSV: {exc}"], 0
    wr = hexagonal = 0
    for row in rows:
        if not bound_ok(row):
            failures.append(f"D={row[0]} ({row[1]},{row[2]},{row[3]}): minimum bound fails")
        if row[7] not in (2, 4, 6) or row[8] != (row[7] >= 4) or row[9] != (row[7] == 6):
            failures.append(f"D={row[0]} ({row[1]},{row[2]},{row[3]}): inconsistent flags")
        wr += row[8]
        hexagonal += row[9]
    n = len(rows)
    expected = f"{n} ideals: {wr} wr, {hexagonal} hexagonal, bound holds for {n}/{n}"
    if stderr.strip() != expected:
        failures.append(f"summary line {stderr.strip()!r} != {expected!r}")
    if pin is not None and (n, wr, hexagonal) != (pin["records"], pin["wr"], pin["hexagonal"]):
        failures.append(f"counts {(n, wr, hexagonal)} differ from the pinned seed-0 counts")
    rng = random.Random(seed)
    for row in rng.sample(rows, min(sample_size, n)):
        problem = record_problem(row)
        if problem:
            failures.append(problem)
    return failures, n


def check_cyclo_ring(k: int, exit_code: int, output: str) -> str | None:
    """Why `wrlat cyclo K --format json` output is wrong, or None.

    The minimum must be phi(k)/2, attained by the k (k even) or 2k (k odd)
    signed roots of unity, and the command must exit 0.
    """
    if exit_code != 0:
        return f"k={k}: exit code {exit_code}"
    try:
        rep = json.loads(output)
        got = (rep["k"], rep["phi"], Fraction(rep["minimum_num"], rep["minimum_den"]),
               rep["n_minimal"], rep["wr"], rep["pass"])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"k={k}: unreadable output: {exc!r}"
    phi = totient(k)
    count = k if k % 2 == 0 else 2 * k
    want = (k, phi, Fraction(phi, 2), count, True, True)
    if got != want:
        return f"k={k}: got {got}, expected {want}"
    return None
