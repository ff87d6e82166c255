import json

import pytest

from triqrng.config import PipelineConfig
from triqrng.pipeline import bench, bench_json


@pytest.fixture(scope="module")
def report():
    cfg = PipelineConfig(certify_samples=1 << 17, recertify_every=1 << 30)
    return bench(cfg, seconds=1.0)


def test_bench_reports_all_rates(report):
    for key in ("raw_samples_per_s", "raw_bits_per_s", "uniform_bits_per_s",
                "gaussian_values_per_s", "toeplitz_naive_blocks_per_s",
                "toeplitz_fast_blocks_per_s", "stage_timings"):
        assert key in report
    assert report["raw_samples_per_s"] > 0
    assert report["uniform_bits_per_s"] > 0


def test_bench_fast_path_not_slower_than_naive(report):
    assert report["toeplitz_fast_blocks_per_s"] >= report["toeplitz_naive_blocks_per_s"]


def test_bench_uniform_rate_is_block_ratio_of_raw(report):
    # every 1536 raw bits yield exactly 1024 extracted bits
    ratio = report["uniform_bits_per_s"] / report["raw_bits_per_s"]
    assert abs(ratio / (1024 / 1536) - 1.0) < 0.01


def test_bench_json_serializable():
    cfg = PipelineConfig(certify_samples=1 << 16, recertify_every=1 << 30)
    doc = json.loads(bench_json(cfg, seconds=0.3))
    assert doc["blocks"] > 0

