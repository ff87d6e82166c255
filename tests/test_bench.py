import json

import pytest

from triqrng import pipeline
from triqrng.config import PipelineConfig
from triqrng.pipeline import bench


@pytest.fixture(scope="module")
def counted_run():
    """One bench run, with the number of stream windows it closed."""
    calls = []
    real = pipeline.channel_report

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    cfg = PipelineConfig(certify_samples=1 << 17, recertify_every=1 << 30)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "channel_report", counted)
        report = bench(cfg, seconds=1.0)
    return report, len(calls)


@pytest.fixture(scope="module")
def report(counted_run):
    return counted_run[0]


def test_bench_reports_all_rates(report):
    for key in ("raw_samples_per_s", "raw_bits_per_s", "uniform_bits_per_s",
                "gaussian_values_per_s"):
        assert key in report
    assert report["raw_samples_per_s"] > 0
    assert report["uniform_bits_per_s"] > 0


def test_bench_reports_the_share_of_time_spent_waiting_for_the_source(report):
    assert 0.0 <= report["source_wait_share"] < 1.0


def test_bench_certifies_every_timed_batch(counted_run):
    # each timed 512-block batch closes the I and Q stream windows
    report, windows_closed = counted_run
    assert report["blocks"] > 0
    assert windows_closed >= 2 * report["blocks"] // 512


def test_bench_uniform_rate_is_block_ratio_of_raw(report):
    # every 1536 raw bits yield exactly 1024 extracted bits
    ratio = report["uniform_bits_per_s"] / report["raw_bits_per_s"]
    assert abs(ratio / (1024 / 1536) - 1.0) < 0.01


def test_bench_json_serializable():
    cfg = PipelineConfig(certify_samples=1 << 16, recertify_every=1 << 30)
    doc = json.loads(json.dumps(bench(cfg, seconds=0.3)))
    assert doc["blocks"] > 0
