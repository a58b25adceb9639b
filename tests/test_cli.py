import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import trevext
from trevext.cli import (
    EXIT_OK,
    EXIT_PARAMETER,
    EXIT_VERIFICATION,
    main,
)
from trevext.code_extractor import CodeSpec
from trevext.params import preset
from trevext.trevisan import TrevisanInstance, extract_bytes
from trevext.weak_design import block_design, greedy_basic_design, serialize_design

# smallest constructible preset instance: one symbol, Hadamard-only code
MICRO = dict(n=16, m=2, eps="1/2")


def micro_instance():
    p = preset("cor1", 16, Fraction(1, 2), 2)
    assert p.constructible and (p.t, p.d) == (32, 3008)
    return TrevisanInstance(
        block_design(p.t, p.m), CodeSpec(n=16, s=p.s_bits, delta=p.delta)
    )


def run(argv):
    return main([str(a) for a in argv])


def test_params_text_report(capsys):
    assert run(["params", "--preset", "cor1", "--n", 1024, "--m", 64,
                "--eps", "1/1024"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "extractor parameters" in out and "rt_slack" in out


def test_params_machine_report(capsys):
    assert run(["params", "--preset", "cor4", "--n", 1024, "--m", 64,
                "--eps", "1/1024", "--report", "machine"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1 and doc["preset"] == "weak-seed"


def test_params_bad_eps(capsys):
    assert run(["params", "--preset", "cor1", "--n", 64, "--m", 2,
                "--eps", "7/4"]) == EXIT_PARAMETER
    assert "parameter error" in capsys.readouterr().err


def test_params_unsupported_preset_exit(capsys):
    assert run(["params", "--preset", "cor3", "--n", 64, "--m", 2,
                "--eps", "1/4"]) == EXIT_PARAMETER


def _write_micro_inputs(tmp_path, blocks=2, reuse=False):
    rng = random.Random(77)
    data = bytes(rng.getrandbits(8) for _ in range(2 * blocks))  # 16-bit blocks
    inst = micro_instance()
    nbits = inst.d if reuse else inst.d * blocks
    seed = bytes(rng.getrandbits(8) for _ in range((nbits + 7) // 8))
    (tmp_path / "in.bin").write_bytes(data)
    (tmp_path / "seed.bin").write_bytes(seed)
    return inst, data, seed


def test_extract_matches_library(tmp_path, capsys):
    inst, data, seed = _write_micro_inputs(tmp_path, blocks=2)
    rc = run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
              "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
              "--seed-file", tmp_path / "seed.bin"])
    assert rc == EXIT_OK
    expected, report = extract_bytes(inst, data, seed)
    assert (tmp_path / "out.bin").read_bytes() == expected
    assert f"extracted {report.blocks} block(s)" in capsys.readouterr().out


def test_extract_reuse_seed_deterministic(tmp_path, capsys):
    inst, data, seed = _write_micro_inputs(tmp_path, blocks=4, reuse=True)
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
            "--seed-file", tmp_path / "seed.bin", "--reuse-seed",
            "--design-cache", tmp_path / "cache"]
    assert run(argv) == EXIT_OK
    first = (tmp_path / "out.bin").read_bytes()
    assert run(argv) == EXIT_OK  # second run hits the design cache
    assert (tmp_path / "out.bin").read_bytes() == first
    expected, _ = extract_bytes(inst, data, seed, reuse_seed=True)
    assert first == expected
    assert "union-bound factor 4" in capsys.readouterr().out


def test_extract_generates_and_records_seed(tmp_path):
    (tmp_path / "in.bin").write_bytes(b"\x12\x34\x56\x78")
    rc = run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
              "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
              "--reuse-seed"])
    assert rc == EXIT_OK
    seed = (tmp_path / "out.bin.seed").read_bytes()
    assert len(seed) == 3008 // 8  # one d-bit seed
    expected, _ = extract_bytes(
        micro_instance(), b"\x12\x34\x56\x78", seed, reuse_seed=True
    )
    assert (tmp_path / "out.bin").read_bytes() == expected


def test_extract_empty_input(tmp_path, capsys):
    (tmp_path / "in.bin").write_bytes(b"")
    inst, _, seed = _write_micro_inputs(tmp_path, blocks=1, reuse=True)
    (tmp_path / "in.bin").write_bytes(b"")
    rc = run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
              "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
              "--seed-file", tmp_path / "seed.bin", "--reuse-seed"])
    assert rc == EXIT_OK
    assert (tmp_path / "out.bin").read_bytes() == b""
    assert "extracted 0 block(s)" in capsys.readouterr().out


def test_extract_reports_unread_seed_bits(tmp_path, capsys):
    _, _, seed = _write_micro_inputs(tmp_path, blocks=2, reuse=True)
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
            "--seed-file", tmp_path / "seed.bin", "--reuse-seed"]
    assert run(argv) == EXIT_OK
    exact = (tmp_path / "out.bin").read_bytes()
    assert "unread" not in capsys.readouterr().out
    (tmp_path / "seed.bin").write_bytes(seed + b"\x00")  # one byte too long
    assert run(argv) == EXIT_OK
    assert (tmp_path / "out.bin").read_bytes() == exact
    assert "8 seed bit(s) after the last block left unread" in capsys.readouterr().out


def test_extract_short_seed_rejected(tmp_path, capsys):
    (tmp_path / "in.bin").write_bytes(b"\x00\x00")
    (tmp_path / "seed.bin").write_bytes(b"\x01\x02")  # far fewer than d bits
    rc = run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
              "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
              "--seed-file", tmp_path / "seed.bin"])
    assert rc == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert "parameter error" in err and "seed" in err
    assert not (tmp_path / "out.bin").exists()
    assert not (tmp_path / "out.bin.tmp").exists()


def test_extract_block_design_m_off_the_powers_of_two(tmp_path):
    (tmp_path / "in.bin").write_bytes(bytes(range(32)))  # 16 blocks of 16 bits
    rc = run(["extract", "--preset", "cor1", "--n", 16, "--m", 17, "--eps", "1/2",
              "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin"])
    assert rc == EXIT_OK
    assert len((tmp_path / "out.bin").read_bytes()) == 16 * 17 // 8
    # a fresh seed per block, and not one bit more than the run reads
    d = preset("cor1", 16, Fraction(1, 2), 17).d
    assert len((tmp_path / "out.bin.seed").read_bytes()) == (16 * d + 7) // 8


def test_failed_extract_leaves_no_files(tmp_path, capsys):
    (tmp_path / "in.bin").write_bytes(b"\x12\x34\x56")  # short final block
    rc = run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
              "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin"])
    assert rc == EXIT_PARAMETER
    assert "input" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


def test_extract_low_k_warns_and_refuses(tmp_path, capsys):
    inst, data, seed = _write_micro_inputs(tmp_path, blocks=1)
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--k", 3, "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
            "--seed-file", tmp_path / "seed.bin"]
    assert run(argv) == EXIT_PARAMETER
    assert "below the required threshold" in capsys.readouterr().err
    assert run(argv + ["--force"]) == EXIT_OK


def test_extract_unconstructible_instance(tmp_path, capsys):
    (tmp_path / "in.bin").write_bytes(b"\x00" * 128)
    rc = run(["extract", "--preset", "cor1", "--n", 1024, "--m", 64,
              "--eps", "1/1024", "--in", tmp_path / "in.bin",
              "--out", tmp_path / "out.bin"])
    assert rc == EXIT_PARAMETER
    assert "symbol size" in capsys.readouterr().err


def test_design_generate_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "design.bin"
    assert run(["design", "generate", "--kind", "block", "--t", 4, "--m", 8,
                "--out", path]) == EXIT_OK
    assert "ok=True" in capsys.readouterr().out
    assert run(["design", "verify", "--in", path]) == EXIT_OK
    assert "verified" in capsys.readouterr().out
    # export reproduces the serialization bit-exactly
    out2 = tmp_path / "copy.bin"
    assert run(["design", "export", "--in", path, "--out", out2]) == EXIT_OK
    assert path.read_bytes() == out2.read_bytes()


def test_design_corruption_detected(tmp_path, capsys):
    path = tmp_path / "design.bin"
    assert run(["design", "generate", "--kind", "greedy", "--t", 3, "--m", 8,
                "--r", "2", "--out", path]) == EXIT_OK
    capsys.readouterr()
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x41
    path.write_bytes(bytes(blob))
    assert run(["design", "verify", "--in", path]) == EXIT_VERIFICATION
    assert "verification failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["generate", "--m", 4, "--out", "d.bin"], "--t"),
    (["generate", "--t", 3, "--out", "d.bin"], "--m"),
    (["generate", "--t", 3, "--m", 4], "--out"),
    (["verify"], "--in"),
    (["export", "--out", "d.bin"], "--in"),
    (["export", "--in", "d.bin"], "--out"),
])
def test_design_missing_flag_rejected(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.bin").write_bytes(serialize_design(block_design(3, 4)))
    rc = run(["design", *argv, "--design-cache", tmp_path / "cache"])
    assert rc == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert "parameter error" in err and flag in err
    # rejected before any work: nothing built, cached or written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.bin"]


@pytest.mark.parametrize("kind", ["greedy", "block"])
@pytest.mark.parametrize("r", ["abc", "1/0"])
def test_design_unparsable_r_rejected(tmp_path, capsys, kind, r):
    rc = run(["design", "generate", "--kind", kind, "--t", 3, "--m", 4, "--r", r,
              "--out", tmp_path / "d.bin"])
    assert rc == EXIT_PARAMETER
    assert "parameter error" in capsys.readouterr().err
    assert not (tmp_path / "d.bin").exists()


def test_truncated_design_file_rejected(tmp_path, capsys):
    path = tmp_path / "design.bin"
    path.write_bytes(b"WDSN\x01")
    assert run(["design", "verify", "--in", path]) == EXIT_PARAMETER
    assert "length mismatch" in capsys.readouterr().err
    # a cache file cut short inside its header
    _write_micro_inputs(tmp_path, blocks=2)
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
            "--seed-file", tmp_path / "seed.bin", "--design-cache", tmp_path / "cache"]
    assert run(argv) == EXIT_OK
    (cached,) = (tmp_path / "cache").iterdir()
    cached.write_bytes(cached.read_bytes()[:20])
    (tmp_path / "out.bin").unlink()
    capsys.readouterr()
    assert run(argv) == EXIT_PARAMETER
    assert "length mismatch" in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()


def test_design_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    for path in (a, b):
        assert run(["design", "generate", "--kind", "block", "--t", 3, "--m", 4,
                    "--out", path]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == serialize_design(block_design(3, 4))


def test_selftest_quick(capsys):
    assert run(["selftest", "--level", "quick"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("weak designs", "hybrid decomposition", "reduction witness",
                 "two-universality", "smoothing robustness"):
        assert f"ok {name}" in out


def test_selftest_quick_rejects_out(tmp_path, capsys):
    # test vectors are only written at the full level; asking for them at
    # the quick level is an error before any check runs
    out = tmp_path / "vectors.txt"
    assert run(["selftest", "--level", "quick", "--out", out]) == EXIT_PARAMETER
    captured = capsys.readouterr()
    assert "--level full" in captured.err and "ok " not in captured.out
    assert not out.exists()


def test_planted_cached_design_rejected(tmp_path, capsys):
    # a design of the wrong shape at the cor1 n=16 m=2 cache path
    inst, _, _ = _write_micro_inputs(tmp_path, blocks=2)
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
            "--seed-file", tmp_path / "seed.bin", "--design-cache", tmp_path / "cache"]
    assert run(argv) == EXIT_OK
    (cached,) = (tmp_path / "cache").iterdir()
    cached.write_bytes(serialize_design(greedy_basic_design(inst.design.t, 5, 2)))
    (tmp_path / "out.bin").unlink()
    capsys.readouterr()
    assert run(argv) == EXIT_VERIFICATION
    assert "cached design" in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()


def test_generated_block_design_cache_reused_by_extract(tmp_path):
    cache = tmp_path / "cache"
    assert run(["design", "generate", "--kind", "block", "--t", 32, "--m", 2,
                "--design-cache", cache, "--out", tmp_path / "design.bin"]) == EXIT_OK
    (tmp_path / "in.bin").write_bytes(b"\x12\x34")
    assert run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
                "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
                "--reuse-seed", "--design-cache", cache]) == EXIT_OK
    assert len(list(cache.iterdir())) == 1


def test_cli_import_does_not_load_openssl():
    src = os.path.dirname(os.path.dirname(trevext.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, trevext.cli; print('_hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
