"""Code that runs inside the benchmark's child processes.

Usage (perfbench/run.py builds these command lines):

    python3 perfbench/child.py [--trace-out FILE] cli ARGS...     trevext CLI
    python3 perfbench/child.py [--trace-out FILE] certify OUT     exact certification
    python3 perfbench/child.py check-reuse SPEC_JSON              output spot-checks
    python3 perfbench/child.py check-fresh SPEC_JSON

With ``--trace-out`` the public callables listed in ``TRACED`` are wrapped
before any work starts: every call records a span (name, start, end,
parent) in memory, and the spans are written to FILE when the command ends.
Nothing under ``src/`` is changed; the wrappers replace module attributes in
this process only.
"""

from __future__ import annotations

import json
import marshal
import sys
import time
from array import array
from fractions import Fraction

# (span name, module, attribute); "Class.method" patches the class attribute.
TRACED = [
    ("params.preset", "trevext.params", "preset"),
    ("weak_design.block_design", "trevext.weak_design", "block_design"),
    ("weak_design.greedy_basic_design", "trevext.weak_design", "greedy_basic_design"),
    ("weak_design.overlap_sums", "trevext.weak_design", "overlap_sums"),
    ("weak_design.verify_design", "trevext.weak_design", "verify_design"),
    ("weak_design.serialize_design", "trevext.weak_design", "serialize_design"),
    ("weak_design.deserialize_design", "trevext.weak_design", "deserialize_design"),
    ("trevisan.seed_masks", "trevext.trevisan", "seed_masks"),
    ("trevisan.apply", "trevext.trevisan", "CompiledMasks.apply"),
    ("trevisan.extract", "trevext.trevisan", "extract"),
    ("trevisan.extract_stream", "trevext.trevisan", "extract_stream"),
    ("code_extractor.extract_bit", "trevext.code_extractor", "extract_bit"),
    ("cli.cmd_extract", "trevext.cli", "cmd_extract"),
    ("harness.extractor_error", "trevext.harness", "extractor_error"),
    ("harness.max_error_flat_sources", "trevext.harness", "max_error_flat_sources"),
    ("harness.hybrid_gaps", "trevext.harness", "hybrid_gaps"),
    ("entropy.hmin_cond", "trevext.entropy", "hmin_cond"),
    ("universal_hash.toeplitz_hash", "trevext.universal_hash", "toeplitz_hash"),
]
# Called millions of times per fresh-seed block: counted, not timed, so the
# tracer does not dominate what it measures.
COUNTED = [("bitfield.mul", "trevext.bitfield", "BinaryField.mul")]


class Tracer:
    """Spans in flat arrays; parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self._stack: list = []

    def span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def counter(self, name, fn):
        self.counts[name] = 0
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Replace every reference a trevext module holds to a traced callable."""
        import importlib

        import trevext  # noqa: F401  (loads every submodule)
        import trevext.cli  # noqa: F401

        modules = [m for k, m in sys.modules.items() if k.startswith("trevext")]
        for make, table in ((self.span, TRACED), (self.counter, COUNTED)):
            for name, mod_name, attr in table:
                owner = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                orig = getattr(owner, attr)
                wrapped = make(name, orig)
                setattr(owner, attr, wrapped)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def dump(self, path):
        with open(path, "wb") as fh:
            marshal.dump(
                (self.names, self.counts, self.name_id.tobytes(), self.parent.tobytes(),
                 self.start.tobytes(), self.end.tobytes()),
                fh,
            )


def load_spans(path):
    """(names, counts, name_id, parent, start, end) as written by Tracer.dump."""
    with open(path, "rb") as fh:
        names, counts, nid, par, st, en = marshal.load(fh)
    arrays = []
    for code, raw in (("i", nid), ("i", par), ("d", st), ("d", en)):
        a = array(code)
        a.frombytes(raw)
        arrays.append(a)
    return (names, counts, *arrays)


# -- workloads that are library calls -----------------------------------------


def certify(out_path):
    """Exact worst-case error over all flat sources, at two micro instances."""
    from trevext import harness
    from trevext.code_extractor import CodeSpec
    from trevext.entropy import flat_source, hmin_cond
    from trevext.trevisan import TrevisanInstance
    from trevext.universal_hash import toeplitz_extractor
    from trevext.weak_design import WeakDesign

    toeplitz = harness.max_error_flat_sources(toeplitz_extractor(4, 2, Fraction(1, 4)), 2)
    # the selftest's check_reduction instance
    design = WeakDesign.from_sets(6, [(0, 1, 2, 3), (2, 3, 4, 5)])
    inst = TrevisanInstance(design, CodeSpec(n=4, s=2, delta=Fraction(3, 8)))
    trev = harness.max_error_flat_sources(inst, 1)
    joint = harness.extraction_joint(inst, flat_source(trev.worst_support))
    hyb = harness.hybrid_gaps(joint, inst.m)
    result = {
        "toeplitz_max_error": str(toeplitz.max_error),
        "toeplitz_regime": toeplitz.regime,
        "toeplitz_sources": toeplitz.sources_checked,
        "trevisan_max_error": str(trev.max_error),
        "trevisan_regime": trev.regime,
        "trevisan_sources": trev.sources_checked,
        "hybrid_total": str(hyb.total),
        "hybrid_gaps": [str(g) for g in hyb.gaps],
        "hmin_cond": hmin_cond(joint),
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)


# -- output checks (run outside the timed region) -----------------------------


def _load_instance(spec):
    from trevext.code_extractor import CodeSpec
    from trevext.params import preset
    from trevext.trevisan import TrevisanInstance
    from trevext.weak_design import deserialize_design

    p = preset("cor1", spec["n"], Fraction(spec["eps"]), spec["m"])
    with open(spec["design"], "rb") as fh:
        design = deserialize_design(fh.read())
    if (design.t, design.m, design.d) != (p.t, p.m, p.d) or design.r_certified > 1:
        raise SystemExit(f"cached design {design.t, design.m, design.d} does not match "
                         f"the preset {p.t, p.m, p.d}")
    return TrevisanInstance(design, CodeSpec(n=spec["n"], s=p.s_bits, delta=p.delta))


def _bits(data: bytes, start: int, length: int):
    """Bits [start, start+length) of MSB-first `data` as a BitString."""
    from trevext.bitfield import BitString

    lo, hi = start // 8, (start + length + 7) // 8
    shift = 8 * hi - start - length
    value = int.from_bytes(data[lo:hi], "big") >> shift
    return BitString(length, value & ((1 << length) - 1))


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_reuse(spec):
    """Sampled (block, output bit) pairs against the extract_bit oracle.

    Output bit i of a block is the one-bit extractor on the seed bits at the
    positions of design set i, ascending, truncated to the code's seed length.
    """
    from trevext.code_extractor import extract_bit

    inst = _load_instance(spec)
    src, seed, out = _read(spec["source"]), _read(spec["seed"]), _read(spec["output"])
    y = _bits(seed, 0, inst.d)
    bad = []
    for block, bit in spec["samples"]:
        x = _bits(src, block * inst.n, inst.n)
        v = y.substring(inst.design.sets[bit]).prefix(inst.code.t)
        want = extract_bit(inst.code, x, v)
        got = _bits(out, block * inst.m + bit, 1).value
        if got != want:
            bad.append([block, bit])
    return bad


def check_fresh(spec):
    """Whole sampled blocks against the bit-serial composition `extract`."""
    from trevext.trevisan import extract

    inst = _load_instance(spec)
    src, seed, out = _read(spec["source"]), _read(spec["seed"]), _read(spec["output"])
    bad = []
    for block in spec["samples"]:
        x = _bits(src, block * inst.n, inst.n)
        y = _bits(seed, block * inst.d, inst.d)
        if extract(inst, x, y) != _bits(out, block * inst.m, inst.m):
            bad.append(block)
    return bad


def main(argv):
    tracer = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    cmd, rest = argv[0], argv[1:]
    try:
        if cmd == "cli":
            from trevext.cli import main as cli_main

            return cli_main(rest)
        if cmd == "certify":
            certify(rest[0])
            return 0
        if cmd in ("check-reuse", "check-fresh"):
            with open(rest[0]) as fh:
                spec = json.load(fh)
            bad = (check_reuse if cmd == "check-reuse" else check_fresh)(spec)
            print(json.dumps({"mismatches": bad}))
            return 0
        raise SystemExit(f"unknown child command {cmd!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
