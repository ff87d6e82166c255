import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from triqrng.cli import main
from triqrng.config import PipelineConfig, load_config, write_config
from triqrng.source import simulate_quadratures


@pytest.fixture(scope="module")
def fast_ini(tmp_path_factory):
    # small certification workload so CLI runs stay quick
    path = str(tmp_path_factory.mktemp("cli") / "fast.ini")
    cfg = PipelineConfig()
    from dataclasses import replace

    write_config(replace(cfg, certify_samples=1 << 17, recertify_every=1 << 30), path)
    return path


def test_init_config_roundtrips(tmp_path):
    out = str(tmp_path / "default.ini")
    assert main(["init-config", "--out", out]) == 0
    assert load_config(out) == PipelineConfig()


def test_simulate_codes(tmp_path, capsys):
    prefix = str(tmp_path / "rec")
    assert main(["simulate", "-n", "4096", "--out", prefix, "--format", "codes"]) == 0
    codes = np.fromfile(prefix + ".i.i16", dtype="<i2")
    assert codes.size == 4096


def test_simulate_raw_and_csv(tmp_path):
    prefix = str(tmp_path / "rec")
    assert main(["simulate", "-n", "1024", "--out", prefix, "--format", "raw"]) == 0
    assert np.fromfile(prefix + ".i.f32", dtype="<f4").size == 1024
    assert main(["simulate", "-n", "64", "--out", prefix, "--format", "csv"]) == 0
    data = Path(prefix + ".csv").read_bytes()
    assert b"\r" not in data  # LF line ends, as extract writes its CSVs
    lines = data.decode().splitlines()
    assert lines[0] == "index,I,Q"
    assert len(lines) == 65
    # every value is a plain float that reads back to the simulated voltage exactly
    cfg = PipelineConfig()
    frame = simulate_quadratures(cfg.noise_model(), 64, cfg.prng_seed)
    rows = [line.split(",") for line in lines[1:]]
    assert [int(k) for k, _, _ in rows] == list(range(64))
    assert [float(i) for _, i, _ in rows] == frame.i_samples.tolist()
    assert [float(q) for _, _, q in rows] == frame.q_samples.tolist()


def test_certify_emits_json(fast_ini, tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["-c", fast_ini, "certify", "--json-out", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert set(doc) == {"i", "q"}
    for rep in doc.values():
        for field in ("h_min_per_sample", "h_min_per_bit", "g_star", "n_eff",
                      "sigma_m2", "sigma_qc2", "epsilon", "extractable_fraction"):
            assert field in rep


def test_certify_from_code_files(fast_ini, tmp_path, capsys):
    # simulate records + LO-off background records, then certify from files
    prefix = str(tmp_path / "sig")
    assert main(["-c", fast_ini, "simulate", "-n", "300000", "--out", prefix, "--format", "codes"]) == 0
    capsys.readouterr()
    from dataclasses import replace
    from triqrng.config import load_config, write_config

    bg_ini = str(tmp_path / "bg.ini")
    write_config(replace(load_config(fast_ini), lo_power_mw=0.0, prng_seed=4242), bg_ini)
    bg_prefix = str(tmp_path / "bg")
    assert main(["-c", bg_ini, "simulate", "-n", "300000", "--out", bg_prefix, "--format", "codes"]) == 0
    capsys.readouterr()
    rc = main(["-c", fast_ini, "certify",
               "--i", prefix + ".i.i16", "--q", prefix + ".q.i16",
               "--bg-i", bg_prefix + ".i.i16", "--bg-q", bg_prefix + ".q.i16"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert 0.5 < doc["i"]["h_min_per_bit"] < 0.9


def test_certify_from_the_simulated_records_equals_certify(tmp_path, capsys):
    # the startup record and its LO-off background, written as code files,
    # certify to exactly the JSON of the simulated route
    cfg = replace(PipelineConfig(), certify_samples=1 << 16, prng_seed=11)
    ini, bg_ini = str(tmp_path / "sig.ini"), str(tmp_path / "bg.ini")
    write_config(cfg, ini)
    write_config(replace(cfg, lo_power_mw=0.0, prng_seed=cfg.prng_seed + 10_000), bg_ini)
    sig, bg = str(tmp_path / "sig"), str(tmp_path / "bg")
    count = str(cfg.certify_samples)
    assert main(["-c", ini, "simulate", "-n", count, "--out", sig, "--format", "codes"]) == 0
    assert main(["-c", bg_ini, "simulate", "-n", count, "--out", bg, "--format", "codes"]) == 0
    capsys.readouterr()
    assert main(["-c", ini, "certify"]) == 0
    simulated = capsys.readouterr().out
    assert main(["-c", ini, "certify", "--i", sig + ".i.i16", "--q", sig + ".q.i16",
                 "--bg-i", bg + ".i.i16", "--bg-q", bg + ".q.i16"]) == 0
    assert capsys.readouterr().out == simulated


def test_certify_refuses_a_record_of_at_most_prediction_order_samples(fast_ini, tmp_path, capsys):
    # 16 samples give no lag-16 product to predict from; the background is long enough
    sig, bg = str(tmp_path / "sig"), str(tmp_path / "bg")
    assert main(["-c", fast_ini, "simulate", "-n", "16", "--out", sig, "--format", "codes"]) == 0
    assert main(["-c", fast_ini, "simulate", "-n", "4096", "--out", bg, "--format", "codes"]) == 0
    capsys.readouterr()
    rc = main(["-c", fast_ini, "certify", "--i", sig + ".i.i16", "--q", sig + ".q.i16",
               "--bg-i", bg + ".i.i16", "--bg-q", bg + ".q.i16"])
    assert rc == 2
    assert "need more than prediction_order=16 samples, got 16" in capsys.readouterr().err


def test_certify_rejects_codes_beyond_the_adc_depth(tmp_path, capsys):
    from dataclasses import replace

    ini = str(tmp_path / "12bit.ini")
    write_config(replace(PipelineConfig(), adc_bits=12), ini)
    path = str(tmp_path / "wide.i16")
    np.array([0, 4000], dtype="<i2").tofile(path)
    rc = main(["-c", ini, "certify", "--i", path, "--q", path, "--bg-i", path, "--bg-q", path])
    assert rc == 2
    assert "out of range for 12 bits" in capsys.readouterr().err


def test_certify_refuses_a_code_file_with_a_partial_code(tmp_path, capsys):
    path = tmp_path / "odd.i16"
    path.write_bytes(np.arange(64, dtype="<i2").tobytes() + b"\x00")
    rc = main(["certify", "--i", str(path), "--q", str(path), "--bg-i", str(path), "--bg-q", str(path)])
    assert rc == 2
    assert f"{path}: 129 bytes is not a whole number of int16 codes" in capsys.readouterr().err


def test_simulate_refuses_codes_deeper_than_16_bits(tmp_path, capsys):
    # 1632 = 96 whole 17-bit codes, so only the depth itself is wrong
    ini = tmp_path / "17bit.ini"
    write_config(PipelineConfig(), str(ini))
    text = ini.read_text()
    assert "bits = 16\n" in text and "block_n = 1536\n" in text
    ini.write_text(text.replace("bits = 16\n", "bits = 17\n").replace("block_n = 1536\n", "block_n = 1632\n"))
    prefix = str(tmp_path / "rec")
    assert main(["-c", str(ini), "simulate", "-n", "64", "--out", prefix, "--format", "codes"]) == 2
    assert "[adc] bits must be in [4, 16]" in capsys.readouterr().err
    assert not os.path.exists(prefix + ".i.i16") and not os.path.exists(prefix + ".q.i16")


@pytest.mark.parametrize("argv", [
    pytest.param(["extract", "--type", "uniform", "--blocks", "0"], id="extract-blocks-0"),
    pytest.param(["extract", "--type", "gaussian", "--blocks", "-3"], id="extract-blocks-negative"),
    pytest.param(["simulate", "--count", "0", "--out", "rec"], id="simulate-count-0"),
    pytest.param(["simulate", "-n", "-1", "--out", "rec"], id="simulate-count-negative"),
    pytest.param(["bench", "--seconds", "0"], id="bench-seconds-0"),
    pytest.param(["bench", "--seconds", "nan"], id="bench-seconds-nan"),
])
def test_non_positive_counts_are_refused_at_parse_time(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "must be a positive" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_extract_uniform(fast_ini, tmp_path):
    out = str(tmp_path / "bits.bin")
    assert main(["-c", fast_ini, "extract", "--type", "uniform", "--blocks", "8", "--out", out]) == 0
    assert os.path.getsize(out) == 8 * 2 * 1024 // 8


def test_extract_gaussian_formats(fast_ini, tmp_path):
    out = str(tmp_path / "gauss.bin")
    blocks = str(-(-2 * 65536 // 96))
    assert main(["-c", fast_ini, "extract", "--type", "gaussian", "--blocks", blocks, "--out", out]) == 0
    vals = np.fromfile(out, dtype="<i2")
    assert vals.size == 4 * 65536
    assert np.all(vals % 4 == 0)  # 14 bits left-justified in 16


def test_extract_rayleigh_histogram_mode(fast_ini, tmp_path):
    ini = str(tmp_path / "window21.ini")
    write_config(replace(load_config(fast_ini), sg_window=21), ini)
    out = str(tmp_path / "hist.csv")
    assert main(["-c", ini, "extract", "--type", "rayleigh", "--blocks", "64",
                 "--out", out, "--histogram-mode"]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "bin_center,count,smoothed"
    assert len(lines) == 257


def test_extract_histogram_mode_refuses_a_window_wider_than_its_bins(tmp_path, capsys, monkeypatch):
    ini = str(tmp_path / "wide.ini")
    write_config(replace(PipelineConfig(), block_n=8192, block_m=4096, sg_window=301), ini)
    started = []
    monkeypatch.setattr("triqrng.cli.run_pipeline", lambda *a, **kw: started.append(a))
    out = str(tmp_path / "hist.csv")
    assert main(["-c", ini, "extract", "--type", "rayleigh", "--out", out, "--histogram-mode"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("extract: ") and "[extraction] sg_window" in err and "256" in err
    assert not started and not os.path.exists(out)


def test_extract_rejects_a_geometry_the_startup_certification_refuses(fast_ini, tmp_path, capsys):
    ini = str(tmp_path / "greedy.ini")
    write_config(replace(load_config(fast_ini), block_m=1248), ini)
    out = str(tmp_path / "bits.bin")
    assert main(["-c", ini, "extract", "--type", "uniform", "--blocks", "8", "--out", out]) == 2
    assert "block_m=1248" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("old, new, key", [
    pytest.param("block_m = 1024", "block_m = 1020", "block_m", id="block-m-not-whole-bytes"),
    pytest.param("[source]\n", "[source]\nsigma_q2 = 5.0e-06\n", "sigma_q2", id="derived-sigma-q2"),
    pytest.param("dnl_max = 0.1", "dnl_max = 0.6", "dnl_max", id="dnl-can-invert-bins"),
    pytest.param("pool_size = 65536", "pool_size = 65540", "pool_size", id="pool-not-power-of-two"),
    pytest.param("block_n = ", "blok_n = ", "blok_n", id="misspelt-key"),
])
def test_extract_rejects_a_bad_config_file_with_status_2(tmp_path, capsys, old, new, key):
    ini = tmp_path / "bad.ini"
    write_config(PipelineConfig(), str(ini))
    text = ini.read_text()
    assert old in text
    ini.write_text(text.replace(old, new))
    out = str(tmp_path / "bits.bin")
    assert main(["-c", str(ini), "extract", "--type", "uniform", "--blocks", "8", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("extract: ") and key in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("rtype, flags, named", [
    pytest.param("uniform", ["--format", "csv"], "--format csv", id="csv-uniform"),
    pytest.param("gaussian", ["--histogram-mode"], "--histogram-mode", id="histogram-gaussian"),
    pytest.param("uniform", ["--histogram-mode"], "--histogram-mode", id="histogram-uniform"),
])
def test_extract_refuses_an_option_that_does_nothing_for_its_type(fast_ini, tmp_path, capsys,
                                                                  rtype, flags, named):
    out = str(tmp_path / "out.bin")
    assert main(["-c", fast_ini, "extract", "--type", rtype, "--blocks", "8", "--out", out, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("extract: ") and named in err and rtype in err
    assert not os.path.exists(out)


def test_test_subcommand_on_bits(fast_ini, tmp_path, capsys):
    bits = str(tmp_path / "bits.bin")
    rng = np.random.default_rng(0)
    with open(bits, "wb") as fh:
        fh.write(rng.integers(0, 256, 125_000, dtype=np.uint8).tobytes())
    rc = main(["test", "--bits", bits, "--alpha", "0.01"])
    out = capsys.readouterr().out
    reports = json.loads(out)
    assert rc == 0
    assert [r["test_name"] for r in reports] == ["monobit", "block-frequency", "runs", "longest-run"]


def test_test_subcommand_on_samples(tmp_path, capsys):
    samples = str(tmp_path / "gauss.f32")
    np.random.default_rng(1).standard_normal(50_000).astype("<f4").tofile(samples)
    rc = main(["test", "--samples", samples, "--reference", "gaussian"])
    reports = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert {r["test_name"] for r in reports} == {"ks-gaussian", "chi2-gaussian"}


def test_test_subcommand_fails_on_bad_bits(tmp_path, capsys):
    bits = str(tmp_path / "ones.bin")
    with open(bits, "wb") as fh:
        fh.write(b"\xff" * 125_000)
    rc = main(["test", "--bits", bits])
    capsys.readouterr()
    assert rc == 1


def test_test_subcommand_requires_input(capsys):
    rc = main(["test"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("alpha", ["0", "-1", "1", "1.5", "nan"])
def test_test_refuses_a_significance_level_outside_0_1(tmp_path, capsys, alpha):
    # at alpha <= 0 this all-zero file passed every bit test
    bits = tmp_path / "zeros.bin"
    bits.write_bytes(bytes(200_000))
    with pytest.raises(SystemExit) as exit_:
        main(["test", "--bits", str(bits), "--alpha", alpha])
    assert exit_.value.code == 2
    assert "must be a significance level in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("flag, data, message", [
    pytest.param("--bits", bytes(1000), "bit tests need at least", id="bits"),
    pytest.param("--samples", np.ones(50, dtype="<f4").tobytes(), "KS test needs at least", id="samples"),
])
def test_test_refuses_an_input_too_short_for_its_tests(tmp_path, capsys, flag, data, message):
    path = tmp_path / "short.bin"
    path.write_bytes(data)
    assert main(["test", flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"test: {message}")
    assert captured.out == ""


@pytest.mark.parametrize("command, argv", [
    pytest.param("test", ["--bits"], id="test-bits"),
    pytest.param("test", ["--samples"], id="test-samples"),
    pytest.param("certify", ["--i", "{p}", "--q", "{p}", "--bg-i", "{p}", "--bg-q"], id="certify-codes"),
])
def test_a_missing_input_file_exits_2(tmp_path, capsys, command, argv):
    # exit 1 from `test` means a test failed, so a missing file must not read as one
    missing = str(tmp_path / "missing.bin")
    args = [command] + [a.format(p=missing) for a in argv] + [missing]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{command}: ") and "missing.bin" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_test_refuses_a_partial_float32_sample_file(tmp_path, capsys):
    path = tmp_path / "five.f32"
    path.write_bytes(np.ones(1, dtype="<f4").tobytes() + b"\x00")
    assert main(["test", "--samples", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("test: ") and "5 bytes is not a whole number of float32s" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, listen", [
    pytest.param(["--listen", "127.0.0.1:8123"], "127.0.0.1:8123", id="flag"),
    pytest.param([], PipelineConfig().listen, id="config"),
])
def test_serve_listens_where_the_flag_or_config_says(monkeypatch, capsys, argv, listen):
    seen = {}

    class FakeService:
        port = 8123

        def __init__(self, cfg):
            seen["listen"] = cfg.listen

        def start(self):
            seen["started"] = True

        def stop(self):
            seen["stopped"] = True

    def interrupt(seconds):
        raise KeyboardInterrupt

    monkeypatch.setattr("triqrng.service.RandomService", FakeService)
    monkeypatch.setattr("time.sleep", interrupt)
    monkeypatch.setenv("TRIQRNG_LISTEN", "127.0.0.1:9")  # no longer read
    assert main(["serve", *argv]) == 0
    capsys.readouterr()
    assert seen == {"listen": listen, "started": True, "stopped": True}
