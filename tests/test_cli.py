import argparse
import json
import os
import random
import re
import shlex
import stat
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import trevext
from trevext.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARAMETER,
    EXIT_VERIFICATION,
    build_parser,
    main,
)
from trevext.code_extractor import CodeSpec
from trevext.params import preset
from trevext.trevisan import TrevisanInstance, extract_bytes
from trevext.weak_design import (
    SERIAL_MAGIC,
    SERIAL_VERSION,
    WeakDesign,
    block_design,
    greedy_basic_design,
    serialize_design,
)

# smallest constructible preset instance: one symbol, Hadamard-only code
MICRO = dict(n=16, m=2, eps="1/2")


def micro_instance():
    p = preset("cor1", 16, Fraction(1, 2), 2)
    assert p.constructible and (p.t, p.d) == (32, 64)
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
    assert run(["params", "--preset", "cor1", "--n", 1024, "--m", 64,
                "--eps", "1/1024", "--report", "machine"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 3 and doc["preset"] == "uniform-seed/block"
    # the keys of schema 3; a removed or renamed key needs a new version
    assert set(doc) == {
        "schema_version", "preset", "n", "m", "eps", "k", "d", "t", "r", "delta",
        "eps_c", "k_c", "symbol_bits", "constructible", "entropy_loss", "rt_slack",
        "notes", "pinned_constants",
    }
    assert set(doc["pinned_constants"]) == {
        "rt_additive", "preset_cor1_additive", "leftover_hash_additive",
    }


def test_params_bad_eps(capsys):
    assert run(["params", "--preset", "cor1", "--n", 64, "--m", 2,
                "--eps", "7/4"]) == EXIT_PARAMETER
    assert "parameter error" in capsys.readouterr().err


def test_params_unsupported_preset_exit(capsys):
    # cor3 is not a preset choice: argparse refuses it with exit code 2
    with pytest.raises(SystemExit) as exc:
        run(["params", "--preset", "cor3", "--n", 64, "--m", 2, "--eps", "1/4"])
    assert exc.value.code == EXIT_PARAMETER
    assert "invalid choice: 'cor3'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, refusal", [
    (["--preset", "cor4"], "invalid choice: 'cor4'"),
    (["--preset", "cor1", "--beta", "0.75"], "unrecognized arguments: --beta"),
], ids=["preset-cor4", "beta"])
def test_params_weak_seed_options_refused(capsys, argv, refusal):
    # the weak-seed preset and its beta are gone: argparse exits 2
    with pytest.raises(SystemExit) as exc:
        run(["params", "--n", 1024, "--m", 64, "--eps", "1/1024"] + argv)
    assert exc.value.code == EXIT_PARAMETER
    assert refusal in capsys.readouterr().err


def _preset_choices(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == "preset")


def test_preset_choices_match_the_planner():
    # every params --preset choice plans, and extract offers exactly those
    planned = _preset_choices("params")
    for name in planned:
        assert preset(name, 16, Fraction(1, 2), 2).m == 2
    assert _preset_choices("extract") == planned


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
    out = capsys.readouterr().out
    assert f"extracted {report.blocks} block(s)" in out
    # fresh seeds budget the joint error by the union bound too
    assert "joint error budget 2 × eps" in out


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
    assert "joint error budget 4 × eps" in capsys.readouterr().out


def test_extract_generates_and_records_seed(tmp_path):
    (tmp_path / "in.bin").write_bytes(b"\x12\x34\x56\x78")
    rc = run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
              "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
              "--reuse-seed"])
    assert rc == EXIT_OK
    seed = (tmp_path / "out.bin.seed").read_bytes()
    assert len(seed) == 64 // 8  # one d-bit seed
    expected, _ = extract_bytes(
        micro_instance(), b"\x12\x34\x56\x78", seed, reuse_seed=True
    )
    assert (tmp_path / "out.bin").read_bytes() == expected


@pytest.mark.parametrize("reuse", [False, True])
def test_extract_from_a_pipe_records_its_seed(tmp_path, reuse):
    # a pipe has no size: seed bits are drawn as the stream reads them, and
    # the recorded seed re-derives the output through --seed-file
    data = bytes(random.Random(78).getrandbits(8) for _ in range(6))  # 3 blocks
    flags = ["--reuse-seed"] if reuse else []
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2"]
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    try:
        rc = run(argv + ["--in", f"/dev/fd/{read_end}", "--out", tmp_path / "out.bin"] + flags)
    finally:
        os.close(read_end)
    assert rc == EXIT_OK
    out = (tmp_path / "out.bin").read_bytes()
    seed = (tmp_path / "out.bin.seed").read_bytes()
    assert len(seed) == 64 // 8 * (1 if reuse else 3)  # exactly the d-bit seeds read
    (tmp_path / "in.bin").write_bytes(data)
    assert run(argv + ["--in", tmp_path / "in.bin", "--out", tmp_path / "again.bin",
                       "--seed-file", tmp_path / "out.bin.seed"] + flags) == EXIT_OK
    assert (tmp_path / "again.bin").read_bytes() == out
    assert out == extract_bytes(micro_instance(), data, seed, reuse_seed=reuse)[0]


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


def test_extract_temporaries_are_fresh_and_private(tmp_path):
    # the output and the seed record are streamed into fresh temporaries of
    # mode 0600 (the output is key material): a file at <out>.tmp is left as
    # it is, and no temporary remains after a successful or a failed run
    stale = b"bytes of another run"
    (tmp_path / "out.bin.tmp").write_bytes(stale)
    (tmp_path / "in.bin").write_bytes(b"\x12\x34\x56\x78")
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin"]
    assert run(argv) == EXIT_OK
    assert (tmp_path / "out.bin.tmp").read_bytes() == stale
    for name in ("out.bin", "out.bin.seed"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o600
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(files) == ["in.bin", "out.bin", "out.bin.seed", "out.bin.tmp"]
    (tmp_path / "in.bin").write_bytes(b"\x12\x34\x56")  # short final block
    files["in.bin"] = b"\x12\x34\x56"
    assert run(argv) == EXIT_PARAMETER
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


def test_extract_moves_seed_record_first(tmp_path, capsys, monkeypatch):
    # the seed record is in place before the output; when the output's move
    # fails, the run removes the record it moved, and no temporary remains
    import trevext.cli as cli

    (tmp_path / "in.bin").write_bytes(b"\x12\x34")
    out = tmp_path / "out.bin"
    moves = []
    replace = os.replace

    def spy(src, dst):
        moves.append(os.path.basename(dst))
        if dst == str(out):
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", spy)
    assert run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
                "--in", tmp_path / "in.bin", "--out", out]) == EXIT_IO
    assert "No space left" in capsys.readouterr().err
    assert moves == ["out.bin.seed", "out.bin"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin"]


def test_extract_cor2_rejected(tmp_path, capsys):
    # cor2 planned no second stage: argparse refuses it on both commands
    # with exit 2, before extract opens any file
    _write_micro_inputs(tmp_path, blocks=2, reuse=True)
    extract = ["extract", "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
               "--reuse-seed"]
    for argv in (extract + ["--seed-file", tmp_path / "seed.bin"], extract, ["params"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--preset", "cor2", "--n", 16, "--m", 2, "--eps", "1/2"])
        assert exc.value.code == EXIT_PARAMETER
        assert "invalid choice: 'cor2'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin", "seed.bin"]


def test_extract_low_k_warns_and_refuses(tmp_path, capsys):
    inst, data, seed = _write_micro_inputs(tmp_path, blocks=1)
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--k", 3, "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
            "--seed-file", tmp_path / "seed.bin"]
    assert run(argv) == EXIT_PARAMETER
    assert "below the required threshold" in capsys.readouterr().err
    assert run(argv + ["--force"]) == EXIT_OK


@pytest.mark.parametrize("k", ["nan", "inf", "-inf"])
def test_extract_non_finite_k_rejected(tmp_path, capsys, k):
    # nan compares below no threshold, so it would skip the min-entropy
    # check; a --k that is not finite is refused before any file is made
    _write_micro_inputs(tmp_path, blocks=1)
    rc = run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
              f"--k={k}", "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
              "--seed-file", tmp_path / "seed.bin", "--design-cache", tmp_path / "cache",
              "--force"])
    assert rc == EXIT_PARAMETER
    assert "not finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin", "seed.bin"]


def test_extract_k_above_n_rejected(tmp_path, capsys):
    # no 16-bit block has 100 bits of min-entropy: refused with exit 2
    # before any file is made, even with --force
    _write_micro_inputs(tmp_path, blocks=1)
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
            "--seed-file", tmp_path / "seed.bin", "--design-cache", tmp_path / "cache"]
    for k in ("100", "16.5"):
        assert run(argv + ["--k", k, "--force"]) == EXIT_PARAMETER
        assert "exceeds the block length n = 16" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.bin", "seed.bin"]
    # k = n is a claim a source can meet; without --k the shape still runs
    assert run(argv + ["--k", "16", "--force"]) == EXIT_OK
    assert run(argv) == EXIT_OK


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
    # --r is generate's overlap target: verify and export never parse it
    assert run(["design", "verify", "--in", path, "--r", "junk"]) == EXIT_OK
    assert "verified" in capsys.readouterr().out
    # export reproduces the serialization bit-exactly
    out2 = tmp_path / "copy.bin"
    assert run(["design", "export", "--in", path, "--out", out2, "--r", "junk"]) == EXIT_OK
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


def test_design_verify_refuses_empty_sets(tmp_path, capsys):
    # 2^20 sets of t = 0 indices in a 36-byte payload fail verification
    m = 1 << 20
    path = tmp_path / "design.bin"
    path.write_bytes(SERIAL_MAGIC + struct.pack("<IIIIQQ", SERIAL_VERSION, 0, m, 1, m - 1, m))
    assert run(["design", "verify", "--in", path]) == EXIT_VERIFICATION
    assert "t must be >= 1" in capsys.readouterr().err


def _zero_r_denominator(data: bytes) -> bytes:
    """A serialized design whose stored r_certified has denominator 0."""
    return data[:28] + (0).to_bytes(8, "little") + data[36:]


def test_zero_r_denominator_rejected(tmp_path, capsys):
    # a stored r of x/0 is no rational: verify and a cached read by extract
    # both refuse it as a stored r that does not match
    path = tmp_path / "design.bin"
    path.write_bytes(_zero_r_denominator(serialize_design(block_design(4, 8))))
    assert run(["design", "verify", "--in", path]) == EXIT_VERIFICATION
    assert "does not match recomputation" in capsys.readouterr().err
    _write_micro_inputs(tmp_path, blocks=2)
    argv = ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
            "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
            "--seed-file", tmp_path / "seed.bin", "--design-cache", tmp_path / "cache"]
    assert run(argv) == EXIT_OK
    (cached,) = (tmp_path / "cache").iterdir()
    cached.write_bytes(_zero_r_denominator(cached.read_bytes()))
    (tmp_path / "out.bin").unlink()
    capsys.readouterr()
    assert run(argv) == EXIT_VERIFICATION
    assert "does not match recomputation" in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()


def test_design_generate_small_t_block(tmp_path, capsys):
    # a shape the ceiling block layout took over r = 1
    assert run(["design", "generate", "--kind", "block", "--t", 2, "--m", 49,
                "--out", tmp_path / "d.bin"]) == EXIT_OK
    assert "r_certified=48/49 ok=True" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["block", "greedy"])
def test_design_generate_uncertified_family_exit(tmp_path, capsys, monkeypatch, kind):
    import numpy as np

    import trevext.weak_design as wd

    # every set the grid's first row, so the certificate exceeds the target
    monkeypatch.setattr(wd, "_grid_sets", lambda t, count, rows: np.tile(np.arange(t), (count, 1)))
    rc = run(["design", "generate", "--kind", kind, "--t", 4, "--m", 8, "--r", 2,
              "--out", tmp_path / "d.bin"])
    assert rc == EXIT_VERIFICATION
    assert "certification failed" in capsys.readouterr().err
    assert not (tmp_path / "d.bin").exists()


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
                 "two-universality", "smoothing robustness", "compiled stream"):
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


@pytest.mark.parametrize("command", ["design", "extract"])
def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch, command):
    import trevext.cli as cli

    def failing(design):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "serialize_design", failing)
    cache = tmp_path / "cache"
    (tmp_path / "in.bin").write_bytes(b"\x12\x34")
    argv = {
        "design": ["design", "generate", "--kind", "block", "--t", 32, "--m", 2,
                   "--out", tmp_path / "design.bin"],
        "extract": ["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
                    "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin"],
    }[command]
    assert run(argv + ["--design-cache", cache]) == EXIT_IO
    assert "No space left" in capsys.readouterr().err
    assert list(cache.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "in.bin"]


@pytest.mark.parametrize("fails", ["serialize_design", "replace"])
@pytest.mark.parametrize("action", ["generate", "export"])
def test_failed_design_write_leaves_no_file(tmp_path, capsys, monkeypatch, action, fails):
    # generate and export write beside --out and move the file into place:
    # a failure before or at the move leaves neither --out nor the temporary
    import trevext.cli as cli

    design = tmp_path / "d.bin"
    if action == "export":
        assert run(["design", "generate", "--kind", "block", "--t", 4, "--m", 8,
                    "--out", design]) == EXIT_OK
    capsys.readouterr()

    def failing(*args):
        raise OSError(28, "No space left on device")

    if fails == "replace":
        monkeypatch.setattr(cli.os, "replace", failing)
    else:
        monkeypatch.setattr(cli, "serialize_design", failing)
    out = tmp_path / "out.bin"
    argv = {"generate": ["design", "generate", "--kind", "block", "--t", 4, "--m", 8],
            "export": ["design", "export", "--in", design]}[action]
    assert run(argv + ["--out", out]) == EXIT_IO
    assert "No space left" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["d.bin"] if action == "export" else [])


def test_design_generate_serializes_once_and_cleans_up(tmp_path, capsys, monkeypatch):
    # one serialization feeds both the cache entry and --out; when a move
    # into place fails, neither directory keeps a target or a temporary
    import trevext.cli as cli

    calls = []

    def counted(design):
        calls.append(design)
        return serialize_design(design)

    monkeypatch.setattr(cli, "serialize_design", counted)
    (tmp_path / "out").mkdir()
    argv = ["design", "generate", "--kind", "block", "--t", 4, "--m", 8,
            "--design-cache", tmp_path / "cache", "--out", tmp_path / "out" / "d.bin"]
    assert run(argv) == EXIT_OK and len(calls) == 1
    assert run(argv) == EXIT_OK and len(calls) == 2  # a cache hit writes --out only
    want = serialize_design(block_design(4, 8))
    assert [p.read_bytes() for p in tmp_path.glob("*/*")] == [want, want]
    capsys.readouterr()

    def failing(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", failing)
    for sub in ("out", "cache"):
        for p in (tmp_path / sub).iterdir():
            p.unlink()
    assert run(argv) == EXIT_IO
    assert "No space left" in capsys.readouterr().err
    assert list(tmp_path.glob("*/*")) == []


def test_cache_of_an_earlier_construction_ignored(tmp_path):
    # the scored greedy cached block designs as wd_v1_block_...: at cor1
    # n=16 m=2 that design had d = 3008 against today's 64, and reading it
    # would fail extract with "design seed length 3008 != d=64"
    inst, data, seed = _write_micro_inputs(tmp_path, blocks=2)
    cache = tmp_path / "cache"
    cache.mkdir()
    old = cache / "wd_v1_block_t32_m2_r1-1.bin"
    stale = serialize_design(WeakDesign.from_sets(3008, [range(32), range(1504, 1536)]))
    old.write_bytes(stale)
    assert run(["extract", "--preset", "cor1", "--n", 16, "--m", 2, "--eps", "1/2",
                "--in", tmp_path / "in.bin", "--out", tmp_path / "out.bin",
                "--seed-file", tmp_path / "seed.bin", "--design-cache", cache]) == EXIT_OK
    expected, _ = extract_bytes(inst, data, seed)
    assert (tmp_path / "out.bin").read_bytes() == expected
    assert old.read_bytes() == stale and len(list(cache.iterdir())) == 2


def _loaded_by_cli_import(module):
    """Whether a fresh interpreter has `module` loaded after importing the CLI."""
    src = os.path.dirname(os.path.dirname(trevext.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, trevext.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_cli_import_does_not_load_openssl():
    assert not _loaded_by_cli_import("_hashlib")


def test_cli_import_does_not_load_mpmath():
    assert not _loaded_by_cli_import("mpmath")


def test_readme_commands_parse():
    # every `trevext ...` line of README's sh blocks, `\` continuations
    # joined, is a command line the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("trevext ")]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv)
