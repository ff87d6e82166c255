import math

import numpy as np
import pytest
from scipy import special

from triqrng.bits import BitBlock
from triqrng.config import PipelineConfig
from triqrng.stats import (
    BLOCK_FREQUENCY_M,
    DEFAULT_ALPHA,
    bit_tests,
    block_frequency_test,
    chi2_sf,
    chi2_test,
    kolmogorov_sf,
    ks_test,
    longest_run_test,
    monobit_test,
    normal_cdf,
    normal_quantile,
    runs_test,
)


def test_ks_calibration_under_the_null():
    # p-values from true-null draws: the fraction below 0.10 stays near 10%
    rng = np.random.default_rng(0)
    below = 0
    for _ in range(100):
        x = rng.standard_normal(100_000)
        if ks_test(x, "gaussian", params=(0.0, 1.0), alpha=0.10).p_value < 0.10:
            below += 1
    assert 5 <= below <= 20


def test_ks_constant_samples_fail():
    x = np.full(1000, 2.5)
    assert ks_test(x, "gaussian").p_value < 1e-10


def test_ks_needs_enough_samples():
    with pytest.raises(ValueError):
        ks_test(np.zeros(50), "gaussian")


def test_ks_unknown_reference():
    with pytest.raises(ValueError):
        ks_test(np.zeros(200), "cauchy")


def test_ks_parameter_estimation_flagged():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1000)
    assert ks_test(x, "gaussian").params_estimated
    assert not ks_test(x, "gaussian", params=(0.0, 1.0)).params_estimated


def test_ks_p_monotone_in_statistic():
    lams = [0.5, 0.8, 1.2, 2.0, 3.0]
    ps = [kolmogorov_sf(l) for l in lams]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_chi2_true_gaussian_calibration():
    rng = np.random.default_rng(2)
    passes = sum(
        chi2_test(rng.standard_normal(20_000), "gaussian", n_bins=64).p_value > 0.01
        for _ in range(100)
    )
    assert passes >= 95


def test_chi2_uniform_statistic_mean_is_dof():
    # 10 equal-probability bins with supplied params: E[chi2] = 9
    rng = np.random.default_rng(3)
    stats = [
        chi2_test(rng.uniform(0, 1, 10_000), "uniform", n_bins=10, params=(0.0, 1.0)).statistic
        for _ in range(200)
    ]
    assert abs(float(np.mean(stats)) - 9.0) < 0.9


def test_chi2_rejects_wrong_distribution():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 50_000)
    assert chi2_test(x, "gaussian", n_bins=64).p_value < 1e-6


def test_chi2_bin_validation():
    with pytest.raises(ValueError):
        chi2_test(np.zeros(100), "gaussian", n_bins=4)


def test_gof_report_invariant():
    rng = np.random.default_rng(5)
    rep = ks_test(rng.standard_normal(500), "gaussian", alpha=0.05)
    assert rep.passed == (rep.p_value >= rep.alpha)
    assert 0.0 <= rep.p_value <= 1.0


def test_p_value_calibration_uniformity():
    # under the null, p-values are ~uniform: KS of the p-values themselves
    rng = np.random.default_rng(6)
    ps = np.array([
        ks_test(rng.standard_normal(2000), "gaussian", params=(0.0, 1.0)).p_value
        for _ in range(200)
    ])
    assert ks_test(ps, "uniform", params=(0.0, 1.0)).p_value > 0.001


# --- SP 800-22 worked examples -------------------------------------------

def _bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def test_monobit_worked_example():
    rep = monobit_test(_bits("1011010101"))
    assert rep.statistic == pytest.approx(2 / math.sqrt(10), rel=1e-12)
    assert rep.p_value == pytest.approx(0.527089, abs=1e-5)


def test_block_frequency_worked_example():
    rep = block_frequency_test(_bits("0110011010"), m=3)
    assert rep.statistic == pytest.approx(1.0, rel=1e-12)
    assert rep.p_value == pytest.approx(0.801252, abs=1e-5)


def test_runs_worked_example():
    rep = runs_test(_bits("1001101011"))
    assert rep.statistic == 7
    assert rep.p_value == pytest.approx(0.147232, abs=1e-5)


def test_runs_precondition_shortcircuit():
    # frequency precondition |pi - 1/2| >= 2/sqrt(n) must fail fast
    rep = runs_test(_bits("1" * 100 + "0"))
    assert rep.p_value == 0.0


def test_longest_run_counts_runs_correctly():
    # hand-checkable 8-bit blocks, M=8 table: classes are <=1, 2, 3, >=4
    blocks = "10101010" "11001100" "11100011" "11110000" * 4
    rep = longest_run_test(_bits(blocks))
    # 16 blocks: longest runs are 1,2,3,4 repeating -> v = (4,4,4,4)
    probs = (0.2148, 0.3672, 0.2305, 0.1875)
    expected = [16 * p for p in probs]
    stat = sum((o - e) ** 2 / e for o, e in zip((4, 4, 4, 4), expected))
    assert rep.statistic == pytest.approx(stat, rel=1e-12)


def _packed_random(nbits: int, seed: int) -> BitBlock:
    rng = np.random.default_rng(seed)
    return BitBlock.from_bits(rng.integers(0, 2, nbits).astype(np.uint8))


def test_bit_tests_pass_on_reference_rng():
    reports = bit_tests(_packed_random(1_000_000, 7))
    assert len(reports) == 4
    assert all(r.passed for r in reports)


def test_bit_tests_reject_alternating():
    bits = np.tile(np.array([0, 1], dtype=np.uint8), 500_000)
    reports = {r.test_name: r for r in bit_tests(BitBlock.from_bits(bits))}
    assert reports["runs"].p_value < 1e-6
    assert reports["longest-run"].p_value < 1e-6
    assert reports["monobit"].passed  # perfectly balanced


def test_bit_tests_reject_all_ones():
    bits = np.ones(1_000_000, dtype=np.uint8)
    reports = {r.test_name: r for r in bit_tests(BitBlock.from_bits(bits))}
    assert reports["monobit"].p_value < 1e-6
    assert reports["block-frequency"].p_value < 1e-6


def test_bit_tests_require_enough_bits():
    with pytest.raises(ValueError):
        bit_tests(_packed_random(10_000, 8))


def test_bit_tests_deterministic():
    blk = _packed_random(1_000_000, 9)
    a = [r.p_value for r in bit_tests(blk)]
    b = [r.p_value for r in bit_tests(blk)]
    assert a == b


# --- the stdlib special functions against scipy's -------------------------

@pytest.mark.parametrize("dof", [*range(1, 11), 16, 63, 100, 1_000, 7_812, 10_000])
def test_chi2_sf_matches_scipy_gammaincc(dof):
    # 7,812 is the block-frequency dof of a 1-Mbit gate chunk
    grid = np.geomspace(1e-3 * dof, 20 * dof, 400)
    ref = special.gammaincc(dof / 2, grid / 2)
    got = np.array([chi2_sf(float(stat), dof) for stat in grid])
    shown = ref >= 1e-300
    assert shown.sum() >= 100
    np.testing.assert_allclose(got[shown], ref[shown], rtol=1e-10, atol=0)
    assert np.all(got[~shown] < 1e-290)


def test_chi2_sf_limits():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(1e6, 3) == 0.0
    assert chi2_sf(1e-300, 1) == pytest.approx(1.0, abs=1e-12)


def test_normal_cdf_and_quantile_match_scipy():
    z = np.linspace(-30.0, 30.0, 60_001)
    np.testing.assert_allclose(normal_cdf(z), special.ndtr(z), rtol=1e-12, atol=0)
    tail = np.geomspace(1e-12, 0.5, 20_000)
    q = np.concatenate([tail, 1.0 - tail])
    np.testing.assert_allclose(normal_quantile(q), special.ndtri(q), rtol=1e-13, atol=1e-15)
    assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)


def _scipy_gate_p_values(bits: np.ndarray, reports) -> list[float]:
    """The four SP 800-22 p-values from each report's statistic, by scipy."""
    n = bits.size
    monobit, block_frequency, runs, longest_run = (r.statistic for r in reports)
    pi = np.count_nonzero(bits) / n
    if abs(pi - 0.5) >= 2 / math.sqrt(n):
        runs_p = 0.0
    else:
        runs_p = special.erfc(abs(runs - 2 * n * pi * (1 - pi)) / (2 * math.sqrt(2 * n) * pi * (1 - pi)))
    return [
        special.erfc(monobit / math.sqrt(2)),
        special.gammaincc(n // BLOCK_FREQUENCY_M / 2, block_frequency / 2),
        runs_p,
        special.gammaincc(6 / 2, longest_run / 2),  # K = 6 classes at 1 Mbit
    ]


def _gate_chunks():
    """1,000 random 1-Mbit chunks, then one biased to 0.51, alternating bits and all ones."""
    rng = np.random.default_rng(27)
    for _ in range(1_000):
        yield rng.bytes(125_000)
    biased = (rng.random(1_000_000) < 0.51).astype(np.uint8)
    alternating = np.tile(np.array([0, 1], dtype=np.uint8), 500_000)
    for bits in (biased, alternating, np.ones(1_000_000, dtype=np.uint8)):
        yield np.packbits(bits).tobytes()


def test_gate_p_values_and_verdicts_match_scipy():
    alphas = (DEFAULT_ALPHA, PipelineConfig().gate_alpha)
    for chunk in _gate_chunks():
        block = BitBlock.from_bytes(chunk)
        reports = bit_tests(block)
        ref = _scipy_gate_p_values(block.bits(), reports)
        got = [r.p_value for r in reports]
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-300)
        assert [[p >= a for p in got] for a in alphas] == [[p >= a for p in ref] for a in alphas]
