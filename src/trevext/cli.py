"""Batch command line: extraction, parameter planning, design management,
self-tests.

Exit codes are a stable contract: 0 success, 2 parameter error,
3 verification/construction failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from fractions import Fraction

from . import harness
from .bitfield import BitString
from .code_extractor import CodeSpec
from .errors import (
    ConstructionError,
    ParameterError,
    TrevextError,
    UnsupportedParametersError,
    VerificationError,
)
from .params import params_report_json, params_report_text, preset
from .trevisan import TrevisanInstance, extract_stream
from .weak_design import (
    SERIAL_VERSION,
    block_design,
    deserialize_design,
    greedy_basic_design,
    serialize_design,
    verify_design,
)

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_VERIFICATION = 3
EXIT_IO = 4


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot parse {what} {text!r}") from None


def _parse_eps(text: str) -> Fraction:
    eps = _parse_fraction(text, "error parameter")
    if not 0 < eps < 1:
        raise ParameterError("eps must be in (0, 1)")
    return eps


def _cache_path(cache_dir: str, kind: str, t: int, m: int, r: Fraction) -> str:
    name = f"wd_v{SERIAL_VERSION}_{kind}_t{t}_m{m}_r{r.numerator}-{r.denominator}.bin"
    return os.path.join(cache_dir, name)


def _load_or_build_design(kind: str, t: int, m: int, r: Fraction, cache_dir=None):
    """Design from the cache when present (checked against the request),
    else built and cached.  Block designs are always r = 1 designs."""
    if kind == "block":
        r = Fraction(1)
    if cache_dir:
        path = _cache_path(cache_dir, kind, t, m, r)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                design = deserialize_design(fh.read())
            if (design.t, design.m) != (t, m) or design.r_certified > r:
                raise VerificationError(
                    f"cached design {path} has t={design.t} m={design.m} "
                    f"r_certified={design.r_certified}; expected t={t} m={m} r<={r}"
                )
            return design
    design = block_design(t, m) if kind == "block" else greedy_basic_design(t, m, r)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=cache_dir, suffix=".tmp", delete=False) as fh:
            fh.write(serialize_design(design))
        os.replace(fh.name, path)
    return design


def cmd_params(args) -> int:
    p = preset(args.preset, args.n, _parse_eps(args.eps), args.m, beta=args.beta)
    print(params_report_json(p) if args.report == "machine" else params_report_text(p))
    return EXIT_OK


def cmd_extract(args) -> int:
    if args.preset != "cor1":
        # cor2 adds a Toeplitz second stage that extract does not run; its
        # output would be cor1's under cor2's advertised (k, m, eps)
        raise ParameterError(
            f"preset {args.preset!r} does not support extraction; "
            "use --preset cor1 (params --preset cor2 plans the two-stage construction)"
        )
    eps = _parse_eps(args.eps)
    p = preset(args.preset, args.n, eps, args.m)
    if not p.constructible:
        raise UnsupportedParametersError(
            f"symbol size {p.s_bits} exceeds the supported field degrees; "
            "use a larger eps or smaller n"
        )
    if args.k is not None and args.k < p.k:
        print(
            f"warning: claimed source min-entropy {args.k} is below the "
            f"required threshold {p.k:.2f}",
            file=sys.stderr,
        )
        if not args.force:
            return EXIT_PARAMETER

    design = _load_or_build_design("block", p.t, p.m, Fraction(1), args.design_cache)
    if design.d != p.d:
        raise VerificationError(f"design seed length {design.d} != d={p.d}")
    code = CodeSpec(n=args.n, s=p.s_bits, delta=p.delta)
    inst = TrevisanInstance(design, code)

    source = getattr(args, "in")
    seed_file = args.seed_file
    # write beside the output and move into place, so a failed run leaves
    # neither an output nor a seed the run generated
    tmp = args.out + ".tmp"
    leftovers = [tmp]
    try:
        if not seed_file:
            nblocks = 8 * os.path.getsize(source) // args.n
            nbytes = (inst.d * (1 if args.reuse_seed else nblocks) + 7) // 8
            seed_file = args.out + ".seed"
            leftovers.append(seed_file)
            with open(seed_file, "wb") as fh:
                for off in range(0, nbytes, 1 << 20):
                    fh.write(os.urandom(min(1 << 20, nbytes - off)))
        with open(source, "rb") as src, open(seed_file, "rb") as seed, \
                open(tmp, "wb") as sink:
            report = extract_stream(inst, src, seed, sink, reuse_seed=args.reuse_seed)
        os.replace(tmp, args.out)
    except BaseException:
        for path in leftovers:
            if os.path.exists(path):
                os.remove(path)
        raise
    print(
        f"extracted {report.blocks} block(s): n={args.n} -> m={p.m} bits each; "
        f"advertised (k, eps) = ({p.k:.2f}, {float(p.eps):.3g})"
        + (f"; reused seed, union-bound factor {report.joint_error_factor}"
           if report.seed_reused else "")
        + (f"; {report.seed_bits_unread} seed bit(s) after the last block left unread"
           if report.seed_bits_unread else "")
    )
    return EXIT_OK


_DESIGN_FLAGS = {"generate": ("t", "m", "out"), "verify": ("in",), "export": ("in", "out")}


def cmd_design(args) -> int:
    missing = [f"--{flag}" for flag in _DESIGN_FLAGS[args.action]
               if getattr(args, flag) is None]
    if missing:
        raise ParameterError(f"design {args.action} needs {', '.join(missing)}")
    r = _parse_fraction(args.r, "overlap target --r")
    if args.action == "generate":
        design = _load_or_build_design(args.kind, args.t, args.m, r, args.design_cache)
        with open(args.out, "wb") as fh:
            fh.write(serialize_design(design))
        # r_certified is exact: from_sets summed every overlap of the design
        ok = design.r_certified <= (r if args.kind == "greedy" else 1)
        print(f"design t={design.t} m={design.m} d={design.d} "
              f"r_certified={design.r_certified} ok={ok}")
        return EXIT_OK
    with open(getattr(args, "in"), "rb") as fh:
        data = fh.read()
    # recomputes every overlap sum and rejects a stored r that differs
    design = deserialize_design(data)
    if args.action == "verify":
        print(f"design t={design.t} m={design.m} d={design.d} "
              f"r_certified={design.r_certified} verified")
        return EXIT_OK
    with open(args.out, "wb") as fh:
        fh.write(serialize_design(design))
    print(f"exported {design.m} sets to {args.out}")
    return EXIT_OK


def _selftest_checks(full: bool, rng_seed: int):
    """Yield (name, callable) pairs; callables raise on failure."""
    import random

    from .entropy import Distribution, JointDistribution, flat_source
    from .universal_hash import ToeplitzSpec, toeplitz_hash
    from .weak_design import WeakDesign

    rng = random.Random(rng_seed)

    def check_designs():
        grid = [(2, 8), (3, 8), (4, 16)] + ([(8, 64)] if full else [])
        for t, m in grid:
            for des, r in ((block_design(t, m), Fraction(1)),
                           (greedy_basic_design(t, m, 2), Fraction(2))):
                cert = verify_design(des, r)
                if not cert.ok:
                    raise VerificationError(
                        f"design t={t} m={m} fails at {cert.violating_index}")
                back = deserialize_design(serialize_design(des))
                if back.sets != des.sets:
                    raise VerificationError("serialization round trip changed sets")

    def check_hybrids():
        for _ in range(200 if full else 40):
            m = rng.randint(1, 5)
            support = [(BitString(m, rng.randrange(1 << m)), rng.randrange(3))
                       for _ in range(rng.randint(1, 8))]
            weights = [rng.randint(1, 9) for _ in support]
            tot = sum(weights)
            mass = {}
            for kv, wgt in zip(support, weights):
                mass[kv] = mass.get(kv, Fraction(0)) + Fraction(wgt, tot)
            harness.hybrid_gaps(JointDistribution(mass), m)  # asserts internally

    def check_reduction():
        design = WeakDesign.from_sets(6, [(0, 1, 2, 3), (2, 3, 4, 5)])
        code = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
        inst = TrevisanInstance(design, code)
        src = JointDistribution(
            {(BitString(4, v), v): Fraction(1, 16) for v in range(16)})
        w = harness.reduction_witness(inst, src)
        if not (w.advantage >= w.gap and w.gap * inst.m >= w.total):
            raise VerificationError("reduction witness below hybrid guarantee")

    def check_toeplitz():
        spec = ToeplitzSpec(5, 3)
        for xa in range(1 << 5):
            for xb in range(xa):
                coll = sum(
                    1 for sv in range(1 << spec.seed_length)
                    if toeplitz_hash(spec, BitString(5, xa), BitString(7, sv))
                    == toeplitz_hash(spec, BitString(5, xb), BitString(7, sv)))
                if Fraction(coll, 1 << spec.seed_length) > Fraction(1, 8):
                    raise VerificationError(f"collision bound fails at {xa},{xb}")

    def check_smoothing():
        from .universal_hash import toeplitz_extractor
        ext = toeplitz_extractor(4, 1, Fraction(1, 4))
        base = flat_source([BitString(4, v) for v in range(8)])
        for _ in range(50 if full else 10):
            shift = Fraction(rng.randint(0, 8), 64)
            mass = dict(base.mass)
            a, b = BitString(4, 0), BitString(4, 9)
            mass[a] = mass[a] - shift
            mass[b] = mass.get(b, Fraction(0)) + shift
            harness.smoothing_robustness_check(ext, Distribution(mass), base)

    def check_stream():
        # a random micro instance streamed with fresh seeds and with one
        # seed reused past the byte-table threshold, against extract
        from functools import reduce

        from .code_extractor import code_params
        from .trevisan import _TABLE_MIN_BLOCKS, extract, extract_bytes

        def join(bits):
            return reduce(BitString.concat, bits, BitString(0, 0)).to_bytes()

        for _ in range(4 if full else 1):
            n, m = rng.randint(9, 40), rng.randint(1, 12)
            code = code_params(n, Fraction(1, 3))
            d = code.t + rng.randrange(1, 8)
            sets = [rng.sample(range(d), code.t) for _ in range(m)]
            inst = TrevisanInstance(WeakDesign.from_sets(d, sets), code)
            for reuse, blocks in ((False, 5), (True, _TABLE_MIN_BLOCKS + 3)):
                xs = [BitString(n, rng.getrandbits(n)) for _ in range(blocks)]
                ys = [BitString(d, rng.getrandbits(d)) for _ in range(1 if reuse else blocks)]
                want = [extract(inst, x, ys[0 if reuse else i]) for i, x in enumerate(xs)]
                out, _ = extract_bytes(inst, join(xs), join(ys), reuse)
                if out != join(want):
                    raise VerificationError(
                        f"stream differs from extract at n={n} m={m} reuse={reuse}")

    checks = [
        ("weak designs", check_designs),
        ("hybrid decomposition", check_hybrids),
        ("reduction witness", check_reduction),
        ("two-universality", check_toeplitz),
        ("smoothing robustness", check_smoothing),
        ("compiled stream", check_stream),
    ]
    return checks


def cmd_selftest(args) -> int:
    full = args.level == "full"
    if args.out and not full:
        raise ParameterError("--out writes test vectors only with --level full")
    rng_seed = args.rng_seed
    vectors = []
    t0 = time.time()
    for name, check in _selftest_checks(full, rng_seed):
        try:
            check()
        except TrevextError as exc:
            print(f"FAIL {name}: {exc} (reproduce with --rng-seed {rng_seed})")
            return EXIT_VERIFICATION
        print(f"ok {name} ({time.time() - t0:.1f}s)")
    if args.out:
        from .universal_hash import toeplitz_extractor
        ext = toeplitz_extractor(4, 2, Fraction(1, 4))
        for k in (2, 3, 4):
            rep = harness.max_error_flat_sources(ext, k)
            vectors.append(harness.format_test_vector(
                "toeplitz_flat_max_error", {"n": 4, "m": 2, "k": k}, rep.max_error))
        with open(args.out, "w") as fh:
            fh.write("\n".join(vectors) + "\n")
        print(f"wrote {len(vectors)} test vector(s) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trevext")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pp = sub.add_parser("params", help="compute extractor parameters")
    pp.add_argument("--preset", choices=["cor1", "cor2", "cor3", "cor4"], required=True)
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--m", type=int, required=True)
    pp.add_argument("--eps", required=True)
    pp.add_argument("--beta", type=float, default=0.75)
    pp.add_argument("--report", choices=["text", "machine"], default="text")
    pp.set_defaults(fn=cmd_params)

    pe = sub.add_parser("extract", help="extract randomness from a file")
    pe.add_argument("--preset", choices=["cor1", "cor2"], default="cor1")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--m", type=int, required=True)
    pe.add_argument("--eps", required=True)
    pe.add_argument("--k", type=float, default=None,
                    help="claimed source min-entropy (warns below threshold)")
    pe.add_argument("--in", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--seed-file", default=None,
                    help="seed bits (MSB-first); omitted = system entropy, "
                    "recorded next to the output")
    pe.add_argument("--reuse-seed", action="store_true")
    pe.add_argument("--design-cache", default=None)
    pe.add_argument("--force", action="store_true")
    pe.set_defaults(fn=cmd_extract)

    pd = sub.add_parser("design", help="generate/verify/export weak designs")
    pd.add_argument("action", choices=["generate", "verify", "export"])
    pd.add_argument("--t", type=int)
    pd.add_argument("--m", type=int)
    pd.add_argument("--r", default="2", help="overlap target for greedy designs")
    pd.add_argument("--kind", choices=["block", "greedy"], default="block")
    pd.add_argument("--in", dest="in", default=None)
    pd.add_argument("--out", default=None)
    pd.add_argument("--design-cache", default=None)
    pd.set_defaults(fn=cmd_design)

    ps = sub.add_parser("selftest", help="run the built-in analysis checks")
    ps.add_argument("--level", choices=["quick", "full"], default="quick")
    ps.add_argument("--rng-seed", type=int, default=0)
    ps.add_argument("--out", default=None, help="test-vector dump path (full level)")
    ps.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParameterError, UnsupportedParametersError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (VerificationError, ConstructionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
