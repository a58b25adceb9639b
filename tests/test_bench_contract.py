"""Every callable the benchmark wraps by name must still exist, and every
committed benchmark record must say what it measured.

perfbench/child.py replaces the callables listed in its TRACED and COUNTED
tables; a missing one breaks every traced benchmark run.  A BENCH_*.json at
the repository root records a speed claim: the commit it compares against,
the command that measured it, the claim and the machine.  The exact values
the certify_exact workload checks its runs against must be what the harness
computes, or every run of that workload counts as incorrect.
"""

import importlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import child  # noqa: E402
import run  # noqa: E402

sys.path.pop(0)


@pytest.mark.parametrize(
    "module, attr", [(mod, attr) for _, mod, attr in child.TRACED + child.COUNTED]
)
def test_benchmarked_callable_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_records_exist():
    assert BENCH_RECORDS


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_record_fields(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in ("parent_commit", "command", "claim", "machine"):
        assert record.get(key), f"{path.name} lacks {key}"
    commit = record["parent_commit"]
    assert len(commit) == 40 and all(c in "0123456789abcdef" for c in commit)


def test_certify_matches_expected(tmp_path):
    out = tmp_path / "certify.json"
    child.certify(out)
    got = json.loads(out.read_text())
    assert {k: got.get(k) for k in run.CERTIFY_EXPECTED} == run.CERTIFY_EXPECTED


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "fresh"])
def test_output_oracles_accept_micro_extract(tmp_path, reuse):
    # the benchmark's spot checks, child.check_reuse and child.check_fresh,
    # on a `trevext extract` output whose seed is over 64 bits: every
    # sampled output must match the oracle, and a flipped output bit must not
    import random

    from trevext.cli import main
    from trevext.params import preset

    n, m, eps, blocks = 16, 3, "1/2", 8
    d = preset("cor1", n, Fraction(eps), m).d
    assert d > 64
    rng = random.Random(11)
    paths = {name: tmp_path / f"{name}.bin" for name in ("source", "seed", "output")}
    paths["source"].write_bytes(rng.randbytes(blocks * n // 8))
    paths["seed"].write_bytes(rng.randbytes((d * (1 if reuse else blocks) + 7) // 8))
    argv = ["extract", "--preset", "cor1", "--n", n, "--m", m, "--eps", eps,
            "--in", paths["source"], "--out", paths["output"], "--seed-file", paths["seed"],
            "--design-cache", tmp_path / "cache"] + (["--reuse-seed"] if reuse else [])
    assert main([str(a) for a in argv]) == 0
    (design,) = (tmp_path / "cache").glob("*.bin")
    if reuse:
        check, samples = child.check_reuse, [[b, i] for b in range(blocks) for i in range(m)]
    else:
        check, samples = child.check_fresh, list(range(blocks))
    spec = {"n": n, "m": m, "eps": eps, "design": str(design), "samples": samples,
            **{name: str(path) for name, path in paths.items()}}
    assert check(spec) == []
    out = bytearray(paths["output"].read_bytes())
    out[0] ^= 0x80  # output bit 0 of block 0
    paths["output"].write_bytes(bytes(out))
    assert check(spec) == ([[0, 0]] if reuse else [0])


def test_certify_runs_without_bit_serial_oracle(tmp_path, monkeypatch):
    # the exact harness tabulates Trevisan outputs from the one-bit oracle
    # codeword_bit; neither extract nor extract_bit is on its path
    from trevext import code_extractor, trevisan

    def refuse(*args):
        raise AssertionError("bit-serial oracle called")

    for name, fn in (("extract", trevisan.extract), ("extract_bit", code_extractor.extract_bit)):
        for mod in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "trevext"]:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, refuse)
    out = tmp_path / "certify.json"
    child.certify(out)
    got = json.loads(out.read_text())
    assert {k: got.get(k) for k in run.CERTIFY_EXPECTED} == run.CERTIFY_EXPECTED
