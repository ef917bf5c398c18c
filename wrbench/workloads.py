"""The four benchmark workloads: their seeded inputs, one pass, and its checks.

A pass is one whole verification run through wrlat's user-facing entry
points.  ``run`` executes inside a fresh pass process (see pass_runner.py);
``check`` runs afterwards in the benchmark process and returns the failed
checks together with the number of items each pass handled.  README.md in
this directory records why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import SURVEY_PINS, check_cyclo_ring, check_survey, sha256_file, totient

# survey records re-derived by box search in every run
SAMPLE_SIZE = 1000

RING_KS = tuple(k for k in range(3, 91) if totient(k) <= 24)
IDEAL_KS = (13, 17, 19, 21, 25, 27, 28, 32, 36, 40, 44, 48, 60)


def _workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def _windows(seed: int, width: int, centre_max: int) -> list[list[int]]:
    """D ranges of a survey: |D| <= width for seed 0, otherwise the mirrored
    pair width/2 around -c and +c for a seeded c.

    Ideals of real fields cost about a fifth more to classify than those of
    imaginary ones, so a one-sided window would make the pass time depend on
    the sign the seed picked; the pair keeps the seed-0 mix of signs and size.
    """
    if seed == 0:
        return [[-width, width]]
    half = width // 2
    c = random.Random(seed).randint(half, centre_max)
    return [[-c - half, -c + half], [c - half, c + half]]


def survey_deep_params(seed: int) -> dict:
    return {"ranges": _windows(seed, 200, 5000), "norm_bound": 500, "squarefree": True, "workers": 1}


def survey_wide_params(seed: int) -> dict:
    return {"ranges": _windows(seed, 4000, 20000), "norm_bound": 12, "squarefree": False,
            "workers": _workers()}


def run_survey_pass(params: dict, out_dir: Path, index: int) -> dict:
    """One `wrlat survey` per D range, each writing its own CSV."""
    from wrlat import cli

    parts = []
    for j, (d_min, d_max) in enumerate(params["ranges"]):
        out = out_dir / f"pass-{index}-{j}.csv"
        argv = ["survey", "--d-min", str(d_min), "--d-max", str(d_max),
                "--norm-bound", str(params["norm_bound"]), "--workers", str(params["workers"]),
                "--format", "csv", "--out", str(out)]
        if params["squarefree"]:
            argv.append("--squarefree")
        err = io.StringIO()
        part = {"csv": out.name, "exit_code": None, "stderr": "", "error": None}
        try:
            with contextlib.redirect_stderr(err):
                part["exit_code"] = cli.main(argv)
        except Exception as exc:  # counted as a failed check, not a crash of the benchmark
            part["error"] = repr(exc)
        part["stderr"] = err.getvalue()
        parts.append(part)
    return {"parts": parts}


def check_survey_passes(name: str, params: dict, seed: int, passes: list[dict],
                        out_dir: Path) -> tuple[list[str], list[int]]:
    """Check each CSV of the first pass in full; later passes must repeat its bytes."""
    failures, items = [], []
    first = {}  # part index -> (digest, stderr, records)
    pin = SURVEY_PINS[name] if seed == 0 else None
    for raw in passes:
        n_pass = 0
        for j, part in enumerate(raw["parts"]):
            if part["error"] or part["exit_code"] != 0:
                failures.append(f"survey exit code {part['exit_code']}, error {part['error']}")
                continue
            path = out_dir / part["csv"]
            if j not in first:
                found, n = check_survey(path, part["stderr"], seed, pin, SAMPLE_SIZE)
                failures += found
                first[j] = (sha256_file(path), part["stderr"], n)
            elif (sha256_file(path), part["stderr"]) != first[j][:2]:
                failures.append(f"{part['csv']}: output differs from the first pass")
            n_pass += first[j][2]
        items.append(n_pass)
    return failures, items


def cyclo_rings_params(seed: int) -> dict:
    # the ring sweep is fixed by the theorem; the seed does not change it
    return {"ks": list(RING_KS)}


def run_cyclo_rings_pass(params: dict, out_dir: Path, index: int) -> dict:
    from wrlat import cli

    results = []
    for k in params["ks"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["cyclo", str(k), "--format", "json"])
        except Exception as exc:  # counted as a failed check
            results.append([k, None, "", repr(exc)])
            continue
        results.append([k, code, out.getvalue(), None])
    return {"results": results}


def check_cyclo_rings(name: str, params: dict, seed: int, passes: list[dict],
                      out_dir: Path) -> tuple[list[str], list[int]]:
    failures, items = [], []
    for raw in passes:
        for k, code, output, error in raw["results"]:
            problem = f"k={k}: {error}" if error else check_cyclo_ring(k, code, output)
            if problem:
                failures.append(problem)
        items.append(len(raw["results"]))
    return failures, items


def cyclo_ideals_params(seed: int) -> dict:
    """One principal ideal per k, generator coefficients drawn from [-3, 3].

    The generators are the seed-0 draws for every seed: LLL time on random
    bases varies from 0.2 s to 7 s per ideal, so seeded generators would
    spread the pass time by about 20% between seeds.  The seed drives the
    vectors of the rotation checks instead.
    """
    rng = random.Random(0)
    gens = []
    for k in IDEAL_KS:
        coeffs = [0]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in range(totient(k))]
        gens.append([k, coeffs])
    return {"generators": gens, "rotation_seed": seed}


def run_cyclo_ideals_pass(params: dict, out_dir: Path, index: int) -> dict:
    from wrlat import cyclo

    verdicts = []
    for k, coeffs in params["generators"]:
        rng = random.Random(params["rotation_seed"] * 1009 + k)
        try:
            F = cyclo.cyclo_field(k)
            wr = cyclo.verify_principal_ideal_wr(F, cyclo.element(F, coeffs), rng=rng)
        except Exception as exc:  # InvariantViolation included; counted as a failed check
            verdicts.append([k, None, repr(exc)])
            continue
        verdicts.append([k, wr, None])
    return {"verdicts": verdicts}


def check_cyclo_ideals(name: str, params: dict, seed: int, passes: list[dict],
                       out_dir: Path) -> tuple[list[str], list[int]]:
    """Every principal ideal lattice is WR: multiplication by zeta is an
    isometry, so the minimal vectors come in full rotation orbits."""
    failures, items = [], []
    for raw in passes:
        for k, wr, error in raw["verdicts"]:
            if wr is not True:
                failures.append(f"k={k}: verdict {wr}, error {error}")
        items.append(len(raw["verdicts"]))
    return failures, items


@dataclass(frozen=True)
class Workload:
    params: Callable[[int], dict]
    run: Callable[[dict, Path, int], dict]
    check: Callable[[str, dict, int, list, Path], tuple[list[str], list[int]]]


WORKLOADS = {
    "survey_deep": Workload(survey_deep_params, run_survey_pass, check_survey_passes),
    "survey_wide": Workload(survey_wide_params, run_survey_pass, check_survey_passes),
    "cyclo_rings": Workload(cyclo_rings_params, run_cyclo_rings_pass, check_cyclo_rings),
    "cyclo_ideals": Workload(cyclo_ideals_params, run_cyclo_ideals_pass, check_cyclo_ideals),
}
