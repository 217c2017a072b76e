"""Smoke test of the end-to-end ledger (``pytest benchmarks``, not tier-1).

Runs two short workloads through ``run.py`` exactly as the driver does and
checks the result object against the manifest.
"""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _manifest():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    return result


def _record(name, trace):
    with open(HERE / "results" / f"run_{name}_t{trace}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _check_against(result, declared):
    by_name = {metric["name"]: metric for metric in declared}
    assert set(result["metrics"]) == set(by_name)
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert entry["unit"] == by_name[name]["unit"]
        assert isinstance(entry["value"], float)


def test_served_untraced_reports_every_end_to_end_metric():
    manifest = _manifest()
    result = _run("--workload", "served_water32", "--ops", "6")
    assert result["attempted"] == 6
    _check_against(result, manifest["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    assert _record("served_water32", 0)["why"] == why["served_water32"]


def test_cold_traced_reports_every_layer_and_the_replay_matches():
    manifest = _manifest()
    result = _run("--workload", "cold_water64", "--ops", "2", "--trace", "1")
    _check_against(result, manifest["per_layer"])
    metrics = result["metrics"]
    assert metrics["replay.max_abs_diff"]["value"] <= 1e-12
    # a fresh session per call: every op builds its plan, none hits
    assert metrics["core.plan.cache_builds"]["value"] == 1.0
    assert metrics["core.plan.cache_hits"]["value"] == 0.0
    assert metrics["core.plan.build_s"]["value"] > 0.0
    with open(HERE / "results" / "e2e_trace_cold_water64.json", encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    assert {"id", "name", "start", "end", "parent", "op", "attrs"} <= set(spans[0])
    assert any(span["name"] == "signfn.eigh" and "bucket_dim" in span["attrs"] for span in spans)


def test_manifest_lists_exactly_the_metric_vocabulary():
    spec = importlib.util.spec_from_file_location("e2e_metrics", HERE / "metrics.py")
    vocabulary = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(vocabulary)
    manifest = _manifest()
    assert manifest["end_to_end"] == [
        {key: metric[key] for key in ("name", "unit", "better", "bound")}
        for metric in vocabulary.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {key: metric[key] for key in ("name", "unit", "better")}
        for metric in vocabulary.PER_LAYER
    ]
    assert manifest["paths"] == ["benchmarks/e2e"]
