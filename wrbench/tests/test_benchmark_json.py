import json
from pathlib import Path

from run import E2E_UNITS, REFERENCE_NOMINAL_S, end_to_end_metrics, layer_metrics
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS


def test_per_layer_metrics_match():
    untraced = {"wall_s": 2.0, "cpu_s": 2.0, "reference_s": [0.1]}
    traced = {"wall_s": 2.2, "raw_wall_s": 2.4, "reference_s": [0.1], "trace": {"calls": {}, "self_s": {}, "counts": {}, "absent": []}}
    produced = layer_metrics(untraced, traced, 1)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in produced.items()}


def test_times_are_scaled_to_nominal_host_speed():
    # readings at half the nominal speed on average (their median is nominal):
    # the pass took twice as long as at nominal speed; each set-up sample is
    # scaled by the readings around it
    slow = {"wall_s": 8.0, "cpu_s": 6.0, "peak_rss_mb": 50.0,
            "reference_s": [REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S, 4 * REFERENCE_NOMINAL_S]}
    setup = [[0.2, REFERENCE_NOMINAL_S, 3 * REFERENCE_NOMINAL_S], [0.2, REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S],
             [0.6, REFERENCE_NOMINAL_S, REFERENCE_NOMINAL_S]]
    metrics = end_to_end_metrics(setup, [slow], [100])
    assert {k: v["value"] for k, v in metrics.items()} == {
        "setup_s": 0.2, "wall_s": 4.0, "cpu_s": 3.0, "items_per_s": 25.0, "peak_rss_mb": 50.0}
