"""BENCHMARK.json and the code that prints its metrics agree."""

import json
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END

SPEC = json.loads((Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == PER_LAYER


def test_workloads_are_the_runner_choices():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "grid-sweep", "solo-lanes", "serve-mixed"]
