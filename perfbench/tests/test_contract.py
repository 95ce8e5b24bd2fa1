import json
from pathlib import Path

import jobs
import run

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
