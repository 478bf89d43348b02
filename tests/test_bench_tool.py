"""tools/bench.py: the BENCH document from canned perfbench/run.py output (no benchmark runs)."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("bench")


def _stdout(workload, points, p50, failed=0.0, steal=0.01, trace=0):
    metrics = {"points_per_s": (points, "1/s"), "op_p50_s": (p50, "s"),
               "setup_s": (0.11, "s"), "peak_rss_mb": (44.0, "MB")}
    if trace:
        metrics = {"eit.alpha_closed.points": (8196, "count"),
                   "csvio.write_csv.bytes": (1386229, "B")}
    lines = [f"raw: points_per_s={points:.6g} op_p50_s={p50:.6g} setup_s=0.2 calib_p50_s=0.01"]
    lines.append(f"workload={workload} seed=1 trace={trace} jobs=2 ops=40 "
                 f"failed_ops_frac={failed:.4g} steal_frac={steal:.4g}")
    lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(json.dumps({"correct": failed == 0, "attempted": 40, "failed": int(40 * failed),
                             "metrics": {k: {"value": v, "unit": u}
                                         for k, (v, u) in metrics.items()}}))
    return "\n".join(lines) + "\n"


def test_parse_run_reads_metrics_and_summary_line(bench):
    run = bench.parse_run(_stdout("pulse-sweep", 784000.0, 0.0209, failed=0.025, steal=0.125))
    assert run["metrics"]["points_per_s"] == 784000.0
    assert run["units"]["op_p50_s"] == "s"
    assert run["failed_ops_frac"] == 0.025
    assert run["steal_frac"] == 0.125
    with pytest.raises(ValueError, match="summary line"):
        bench.parse_run('{"metrics": {}}\n')


def test_assemble_summarizes_pairs_on_both_sides(bench):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    old = [(800e3, 0.021), (780e3, 0.020), (790e3, 0.022)]
    new = [(1000e3, 0.016), (990e3, 0.017), (770e3, 0.023)]
    pairs = {"pulse-sweep": [
        (bench.parse_run(_stdout("pulse-sweep", *a, steal=0.0)),
         bench.parse_run(_stdout("pulse-sweep", *b, steal=0.03)))
        for a, b in zip(old, new)
    ]}
    traced = {"pulse-sweep": bench.parse_run(_stdout("pulse-sweep", 0, 0, trace=1))}
    doc = bench.assemble(26, "abc", pairs, traced, contract, {"rev": 2534, "tree": 2557},
                         {"cpu_count": 2, "numpy": "2.4", "PYTHONDONTWRITEBYTECODE": True})
    json.dumps(doc)  # serializable as it stands

    assert doc["pr"] == 26 and doc["rev"] == "abc" and doc["pairs"] == 3
    assert doc["src_lines"] == {"rev": 2534, "tree": 2557}
    assert doc["machine"]["steal_frac_mean"] == pytest.approx(0.015)
    assert doc["machine"]["cpu_count"] == 2
    w = doc["workloads"]["pulse-sweep"]
    assert set(w["end_to_end"]) == {m["name"] for m in contract["end_to_end"]}
    pps = w["end_to_end"]["points_per_s"]
    assert pps["rev"]["median"] == 790e3 and pps["tree"]["median"] == 990e3
    assert pps["rev"]["q1"] == 785e3 and pps["rev"]["q3"] == 795e3
    assert pps["pair_ratios"] == [1000 / 800, 990 / 780, 770 / 790]
    assert pps["pairs_tree_better"] == 2
    assert pps["median_change"] == pytest.approx(990 / 790 - 1)
    p50 = w["end_to_end"]["op_p50_s"]
    assert p50["better"] == "lower" and p50["pairs_tree_better"] == 2
    assert w["failed_ops_frac"] == {"rev": [0.0] * 3, "tree": [0.0] * 3}
    assert w["layers"]["eit.alpha_closed.points"] == {"value": 8196, "unit": "count"}

