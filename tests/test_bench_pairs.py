"""How ``tools/bench_pairs.py`` reads the gate, memory and set-up from its runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import pooled_setup, rss_line, summary, verdict  # noqa: E402

PARENT = summary([0.96, 0.98, 1.0, 1.02, 1.04])  # median 1.0, quartile spread 0.04


@pytest.mark.parametrize(
    "change, wins, bound, sign, expected",
    [
        ([0.90, 0.92, 0.94, 0.95, 0.96], 9, 0.25, 1.0, "improved"),
        ([0.90, 0.92, 0.94, 0.95, 0.96], 8, 0.25, 1.0, "within bound"),  # 8/10 wins
        ([0.97, 0.97, 0.97, 0.98, 0.99], 10, 0.25, 1.0, "within bound"),  # gain 0.03 < spread
        ([1.26, 1.28, 1.30, 1.32, 1.34], 0, 0.25, 1.0, "worse"),
        ([1.20, 1.22, 1.24, 1.26, 1.28], 0, 0.25, 1.0, "within bound"),
        ([1.00, 1.01, 1.02, 1.03, 1.04], 2, 0.03, 1.0, "unresolved"),  # spread 4 % > bound 3 %
        ([1.10, 1.12, 1.14, 1.16, 1.18], 9, 0.25, -1.0, "improved"),  # higher is better
        ([0.66, 0.68, 0.70, 0.72, 0.74], 0, 0.25, -1.0, "worse"),
    ],
    ids=["gain", "too-few-wins", "gain-inside-spread", "loss", "loss-inside-bound", "wide-spread",
         "higher-gain", "higher-loss"],
)
def test_verdict_reads_the_gate(change, wins, bound, sign, expected):
    assert verdict(PARENT, summary(change), wins, 10, bound, sign) == expected


def _pairs(attempted, rss, setup):
    """Pairs whose parent and change runs read the given values in turn."""
    return [
        {side: {"attempted": a[i], "metrics": {"peak_rss_mb": r[i]}, "setup_samples_s": s[i]}
         for i, side in enumerate(bench_pairs.SIDES)}
        for a, r, s in zip(attempted, rss, setup)
    ]


def test_rss_line_has_no_slope_for_one_operation_count():
    pairs = _pairs([(500, 500), (500, 500)], [(50.0, 51.0), (52.0, 53.0)], [([0.1], [0.1])] * 2)
    assert rss_line(pairs) == {"slope_mb_per_1000_ops": None, "intercept_mb": None, "mean_residual_mb": None}


def test_rss_line_fits_memory_on_operations():
    pairs = _pairs([(1000, 2000), (3000, 4000)], [(41.0, 42.0), (43.0, 44.0)], [([0.1], [0.1])] * 2)
    line = rss_line(pairs)
    assert line["slope_mb_per_1000_ops"] == pytest.approx(1.0)
    assert line["intercept_mb"] == pytest.approx(40.0)
    assert line["mean_residual_mb"] == pytest.approx({"parent": 0.0, "change": 0.0}, abs=1e-9)


def test_pooled_setup_pools_every_sample_of_each_side():
    setup = [([0.10, 0.30, 0.20], [0.25, 0.15, 0.35]), ([0.40, 0.50, 0.60], [0.45, 0.55, 0.65])]
    pooled = pooled_setup(_pairs([(1, 1)] * 2, [(1.0, 1.0)] * 2, setup))
    assert pooled["parent"] == summary([0.10, 0.30, 0.20, 0.40, 0.50, 0.60])
    assert pooled["change"] == summary([0.25, 0.15, 0.35, 0.45, 0.55, 0.65])
    assert pooled["change_vs_parent"] == pytest.approx(0.40 / 0.35 - 1.0)


def test_main_reports_the_pooled_setup(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]}))

    def run_once(root, workload, seed, seconds):
        samples = [0.1 * seed, 0.2 * seed] if root == tmp_path else [0.3 * seed, 0.4 * seed]
        return {"correct": True, "attempted": 100, "failed": 0, "setup_samples_s": samples,
                "metrics": {"setup_s": {"value": samples[0]}, "peak_rss_mb": {"value": 50.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    args = [str(tmp_path), str(tmp_path / "change"), "--workload", "catalog", "--pairs", "2", "--seconds", "1"]
    assert bench_pairs.main(args) == 0
    out, err = capsys.readouterr()
    setup = json.loads(out)["setup_samples"]
    assert setup["parent"]["runs"] == [0.1, 0.2, 0.2, 0.4]
    assert setup["change"]["runs"] == [0.3, 0.4, 0.6, 0.8]
    assert setup["change_vs_parent"] == pytest.approx(0.5 / 0.2 - 1.0)
    assert "setup samples: parent median 0.2 s, change 0.5 s (+150.0%), 4 per side" in err.splitlines()
