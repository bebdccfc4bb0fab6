"""Smoke check of the benchmark harness at tiny sizes; no timing is asserted.

Run from the repository root:  python -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    report, result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    assert report["metrics"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert report["environment"]["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert report["calibration"] == run.CALIBRATIONS[workload].name
    if not trace:
        assert len(report["host_speed_factors"]) == report["rounds"]
        assert all(f > 0 for f in report["host_speed_factors"])


def _corrupting_search_small(qq, work, rng, tiny):
    """The search_small ops with a wrong best_value reported, then an op that raises."""
    warmup, ops = workloads.search_small(qq, work, rng, tiny)

    def wrong_best_value(op=ops[0]):
        res = op.run()
        out = json.loads(res.stdout)
        out["best_value"] += 1e-3
        return dataclasses.replace(res, stdout=json.dumps(out))

    def drift():
        raise RuntimeError("incremental objective drifted")

    return warmup, [dataclasses.replace(ops[0], run=wrong_best_value),
                    dataclasses.replace(ops[1], run=drift), *ops[2:]]


def test_corrupted_output_counts_as_failed(capsys, monkeypatch):
    monkeypatch.setitem(workloads.BUILDERS, "search_small", _corrupting_search_small)
    report, result = _run(capsys, "search_small", 0)
    rounds = report["rounds"]
    assert report["ops_per_round"] == 3
    # the warm-ups pass; each round fails two of its three ops
    assert result["correct"] is False
    assert result["attempted"] == run.SETUP_REPEATS + 3 * rounds
    assert result["failed"] == 2 * rounds
    assert report["metrics"]["error_rate"]["value"] == pytest.approx(
        result["failed"] / result["attempted"]
    )
    assert any("best_value" in f for f in report["failures"])
    assert any("RuntimeError" in f for f in report["failures"])


def test_tracer_reaches_every_binding_site(capsys):
    """Calls made through names imported into search, cli and reference are traced."""
    _, search = _run(capsys, "search_small", 1)
    m = {name: v["value"] for name, v in search["metrics"].items()}
    jobs = m["search.search_uniform.calls"]
    assert jobs == 3
    assert m["bounds.lb.calls"] == jobs  # search imports lb by name
    assert m["discrepancy.qqd_squared.calls"] == jobs  # final re-verification in search
    assert m["designio.write_design.calls"] == jobs  # cli imports write_design by name
    assert m["discrepancy.paircache_init.calls"] >= jobs
    assert m["search.proposals"] + m["search.reverts"] == m["discrepancy.apply_swap.calls"]

    _, verify = _run(capsys, "verify_mixed", 1)
    m = {name: v["value"] for name, v in verify["metrics"].items()}
    assert m["reference.run_checks.calls"] == 1
    assert m["model.is_mcd.calls"] == 5 + 2  # reference imports it as _is_mcd
    assert m["discrepancy.swd.calls"] > 0
    assert m["balance.subsets"] > 0

    # the modules the run used get their original functions back
    cli, search, discrepancy = (
        sys.modules[f"qqdesign.{name}"] for name in ("cli", "search", "discrepancy")
    )
    assert not hasattr(cli.main, "__wrapped__")
    assert search.qqd_squared is discrepancy.qqd_squared
    assert not hasattr(discrepancy.PairCache.apply_swap, "__wrapped__")
