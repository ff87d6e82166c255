"""Output checks shared by the benchmark workloads.

Each check returns a list of failure messages (empty when it passes), so
the caller can count a failed check as a failed operation and still report
every problem it saw.
"""

from __future__ import annotations

import numpy as np

from triqrng.bits import BitBlock
from triqrng.entropy import extractable_length
from triqrng.stats import bit_tests, ks_test

# The statistical checks guard against gross defects (a broken extractor
# gives p-values far below 1e-20 on these sample sizes). A small alpha keeps
# the chance that a correct stream fails any of the runs negligible.
CHECK_ALPHA = 1e-6
WINDOW = 64


def check_reports(reports, config) -> list[str]:
    """Every certification clears the leftover-hash budget for block_m."""
    bad = []
    for k, per_channel in enumerate(reports):
        for channel, r in per_channel.items():
            budget = extractable_length(config.block_n, r.h_min_per_bit, config.epsilon)
            if budget < config.block_m:
                bad.append(f"certification {k} channel {channel}: budget {budget} < block_m {config.block_m}")
    return bad


def check_bits(data: bytes) -> list[str]:
    """The SP 800-22 subset passes on a uniform byte stream."""
    reports = bit_tests(BitBlock.from_bytes(data), alpha=CHECK_ALPHA)
    return [f"bit test {r.test_name} failed (p={r.p_value:.3g})" for r in reports if not r.passed]


def check_gaussian(values) -> list[str]:
    report = ks_test(np.asarray(values, dtype=np.float64), "gaussian", alpha=CHECK_ALPHA)
    return [] if report.passed else [f"KS gaussian failed (p={report.p_value:.3g})"]


def check_rayleigh(values) -> list[str]:
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        return ["non-finite Rayleigh value"]
    if v.size and float(v.min()) < 0.0:
        return ["negative Rayleigh value"]
    return []


def _window_hashes(data: bytes) -> np.ndarray:
    """A 64-bit mix of the 64-byte window starting at every offset."""
    n = len(data) - WINDOW + 1
    buf = np.frombuffer(data, dtype=np.uint8)
    # little-endian uint64 at every byte offset, assembled from 8 shifted views
    words = np.zeros(len(data) - 7, dtype=np.uint64)
    for k in range(8):
        words |= buf[k: k + words.size].astype(np.uint64) << np.uint64(8 * k)
    h = np.zeros(n, dtype=np.uint64)
    mult = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for j in range(WINDOW // 8):
            np.bitwise_xor(h, words[8 * j: 8 * j + n], out=h)
            np.multiply(h, mult, out=h)
            np.bitwise_xor(h, h >> np.uint64(29), out=h)
    return h


def check_no_repeated_window(data: bytes) -> list[str]:
    """No 64-byte window occurs twice anywhere in the stream, at any offset."""
    if len(data) < 2 * WINDOW:
        return []
    h = _window_hashes(data)
    s = np.sort(h)
    for value in np.unique(s[1:][s[1:] == s[:-1]]):
        offsets = np.flatnonzero(h == value)
        seen = {}
        for off in offsets.tolist():
            window = data[off: off + WINDOW]
            if window in seen:
                return [f"64-byte window at offset {seen[window]} repeats at offset {off}"]
            seen[window] = off
    return []
