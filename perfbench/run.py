"""Layered benchmark for trevext.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  This process is the single load
generator: it writes the workload's inputs (all derived from --seed) to a
scratch directory inside the checkout, then runs each command of the
workload in a fresh child process, one at a time, with PYTHONPATH pointing
at the checkout's ``src/`` and BLAS/OpenMP pinned to one thread.  Wall time
and peak RSS come from ``wait4`` on that one child.  Output checks run after
the timed loop.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Workloads (see perfbench/README.md for why each was chosen):

* extract_reuse  trevext extract, one reused seed, production shape
* extract_fresh  trevext extract, a fresh seed per block (bit-serial path)
* design_cold    trevext design generate into an empty cache, then verify
* certify_exact  exact worst-case error over all flat sources (library calls)

``--shape micro`` runs every workload at cor1 n=16 m=2 eps=1/2; the
benchmark's self-test uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from child import load_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = ROOT / "perfbench" / "child.py"
WORK_BASE = ROOT / ".perfbench_work"

# A run must end within 180 s; commands still running at this point are
# killed and counted as failed.
DEADLINE_S = 170.0
MIN_REPS = 3  # timed repetitions per run, even when --seconds is short
# Before each timed repetition the set-up command runs until this much
# set-up time is measured (at most SETUP_MAX_RUNS times): one run for a
# ~1 s set-up, several for a ~0.1 s interpreter start, whose timing jitters.
SETUP_BATCH_S = 0.5
SETUP_MAX_RUNS = 6

PYTHON = sys.executable or "python3"

SHAPES = {
    "full": {
        # production shape: s = 62, t = 124, d = 199 764; 8192 blocks.  The
        # input is large on purpose: the CLI reads it whole, and that must
        # show in peak_rss_mib.
        "extract_reuse": {"n": 65536, "m": 256, "eps": "1/8", "source_bytes": 64 << 20},
        # mid shape: s = 47, d = 76 704; the seed stream is ~9x the source
        "extract_fresh": {"n": 8192, "m": 32, "eps": "1/8", "blocks": 32},
        "design_cold": {"t": 124, "m": 256},
    },
    "micro": {
        "extract_reuse": {"n": 16, "m": 2, "eps": "1/2", "source_bytes": 4096},
        "extract_fresh": {"n": 16, "m": 2, "eps": "1/2", "blocks": 64},
        "design_cold": {"t": 32, "m": 2},
    },
}
REUSE_SPOT_CHECKS = 8  # sampled (block, bit) pairs, plus the last one
FRESH_SPOT_CHECKS = 3  # sampled whole blocks, plus the last one

# exact values the harness computes at the seed commit
CERTIFY_EXPECTED = {
    "toeplitz_max_error": "21/64",
    "toeplitz_regime": "exhaustive",
    "toeplitz_sources": 1820,
    "trevisan_max_error": "39/64",
    "trevisan_regime": "exhaustive",
    "trevisan_sources": 120,
    "hybrid_total": "39/64",
}

DESIGN_HEADER = 4 + 32  # serialized design: magic + "<IIIIQQ", then u32 indices


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- child processes ------------------------------------------------------------


@dataclass
class Result:
    wall: float
    rss_kib: int
    rc: int
    stdout: str
    stderr: str


class Runner:
    """Runs one child at a time and times it from spawn to reaped exit."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.logs = work / "logs"
        self.logs.mkdir(parents=True)
        self.count = 0
        self.env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMEXPR_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1",
        }

    def run(self, argv) -> Result:
        self.count += 1
        out_path = self.logs / f"{self.count}.out"
        err_path = self.logs / f"{self.count}.err"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Result(0.0, 0, -1, "", "not started: run deadline reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawnp(argv[0], argv, self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                               (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            pidfd = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
                if not ready:
                    os.kill(pid, signal.SIGKILL)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                raise
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        rc = os.waitstatus_to_exitcode(status)
        result = Result(wall, usage.ru_maxrss, rc, out_path.read_text(errors="replace"),
                        err_path.read_text(errors="replace"))
        if rc != 0:
            tail = result.stderr.strip().splitlines()[-3:]
            print(f"command failed (rc={rc}): {' '.join(map(str, argv[1:]))}", *tail,
                  sep="\n  ", file=sys.stderr)
        return result


def argv_for(kind, args, trace_out=None):
    """A trevext CLI command ("cli") or a perfbench/child.py command ("child").

    Traced, both run under child.py, which wraps the traced callables first.
    """
    args = [str(a) for a in args]
    if trace_out is not None:
        return [PYTHON, str(CHILD), "--trace-out", str(trace_out)] + (
            ["cli"] + args if kind == "cli" else args)
    if kind == "cli":
        return [PYTHON, "-m", "trevext.cli"] + args
    return [PYTHON, str(CHILD)] + args


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- workloads ---------------------------------------------------------------


class Workload:
    """One set of inputs and the commands a repetition runs on them."""

    item = ""  # what work_per_s counts
    commands_per_rep = 1
    n = m = 0  # extractor shape, where there is one

    def __init__(self, runner: Runner, shape: dict, rng: random.Random):
        self.runner = runner
        self.work = runner.work
        self.shape = shape
        self.rng = rng
        self.inputs: dict = {}  # name -> sha256, for the record

    def write_random(self, name: str, nbytes: int) -> Path:
        """nbytes from the seeded generator, in chunks: this process stays small,
        because a spawned child's peak RSS starts at this process's peak."""
        path = self.work / name
        h = hashlib.sha256()
        with open(path, "wb") as fh:
            for off in range(0, nbytes, 1 << 20):
                chunk = self.rng.randbytes(min(1 << 20, nbytes - off))
                h.update(chunk)
                fh.write(chunk)
            # write back now, not during the timed loop
            fh.flush()
            os.fsync(fh.fileno())
        self.inputs[name] = h.hexdigest()
        return path

    def prepare(self):
        """Write the inputs; raises BenchError when the program fails on them."""

    def setup_argv(self):
        return [PYTHON, "-c", "import trevext"]

    def rep_commands(self, r: int) -> list:
        """(kind, args) of each command of repetition r, for argv_for."""
        raise NotImplementedError

    def output_of(self, r: int) -> Path:
        raise NotImplementedError

    def check_rep(self, r: int, results: list) -> list:
        """Problems with repetition r's output, found without trevext."""
        return []

    def spot_check(self, r: int) -> list:
        """Problems found by re-deriving sampled outputs with the oracle."""
        return []

    def items(self) -> int:
        raise NotImplementedError

    def design_path(self):
        """The serialized design the workload loads or writes, if any."""
        return None

    def human(self, work_s) -> list:
        """Workload-specific rates, from the median wall - set-up time."""
        return []


class Extract(Workload):
    item = "block"

    def __init__(self, runner, shape, rng, reuse: bool):
        super().__init__(runner, shape, rng)
        self.reuse = reuse
        self.n, self.m, self.eps = shape["n"], shape["m"], shape["eps"]
        self.cache = self.work / "design_cache"

    def base_args(self):
        args = ["extract", "--preset", "cor1", "--n", self.n, "--m", self.m,
                "--eps", self.eps, "--seed-file", self.seed, "--design-cache", self.cache]
        return args + (["--reuse-seed"] if self.reuse else [])

    def prepare(self):
        nbytes = self.shape.get("source_bytes") or self.shape["blocks"] * self.n // 8
        self.blocks = 8 * nbytes // self.n
        self.source = self.write_random("source.bin", nbytes)
        self.empty = self.write_random("empty.bin", 0)
        report = self.runner.run(argv_for("cli", [
            "params", "--preset", "cor1", "--n", self.n, "--m", self.m, "--eps", self.eps,
            "--report", "machine"]))
        if report.rc != 0:
            raise BenchError("trevext params failed")
        self.d = json.loads(report.stdout)["d"]
        seed_bits = self.d * (1 if self.reuse else self.blocks)
        self.seed = self.write_random("seed.bin", (seed_bits + 7) // 8)
        # the program builds the warm design cache itself, on an empty input
        warm = self.runner.run(self.setup_argv())
        files = sorted(self.cache.glob("*.bin"))
        if warm.rc != 0 or len(files) != 1:
            raise BenchError("trevext extract did not build one cached design")
        self.design_file = files[0]
        self.inputs["design_cache/" + files[0].name] = sha256_file(files[0])

    def design_path(self):
        return self.design_file

    def setup_argv(self):
        return argv_for("cli", self.base_args() + [
            "--in", self.empty, "--out", self.work / "setup_out.bin"])

    def output_of(self, r):
        return self.work / f"out{r}.bin"

    def rep_commands(self, r):
        return [("cli", self.base_args() + ["--in", self.source, "--out", self.output_of(r)])]

    def check_rep(self, r, results):
        want = (self.blocks * self.m + 7) // 8
        got = self.output_of(r).stat().st_size
        return [] if got == want else [f"output is {got} bytes, expected {want}"]

    def spot_check(self, r):
        last = self.blocks - 1
        if self.reuse:
            kind = "check-reuse"
            samples = [[self.rng.randrange(self.blocks), self.rng.randrange(self.m)]
                       for _ in range(REUSE_SPOT_CHECKS)] + [[last, self.m - 1]]
        else:
            kind = "check-fresh"
            samples = [self.rng.randrange(self.blocks) for _ in range(FRESH_SPOT_CHECKS)] + [last]
        spec = {"n": self.n, "m": self.m, "eps": self.eps, "design": str(self.design_file),
                "source": str(self.source), "seed": str(self.seed),
                "output": str(self.output_of(r)), "samples": samples}
        spec_path = self.work / "check.json"
        spec_path.write_text(json.dumps(spec))
        res = self.runner.run(argv_for("child", [kind, spec_path]))
        if res.rc != 0:
            return [f"{kind} exited {res.rc}"]
        bad = json.loads(res.stdout.strip().splitlines()[-1])["mismatches"]
        return [f"{kind}: output differs from the oracle at {bad}"] if bad else []

    def items(self):
        return self.blocks

    def human(self, work_s):
        return [("mbit_s", self.blocks * self.n / 1e6 / max(work_s, 1e-3), "Mbit/s")]


class DesignCold(Workload):
    item = "design set"
    commands_per_rep = 2

    def output_of(self, r):
        return self.work / f"design{r}.bin"

    def rep_commands(self, r):
        t, m = self.shape["t"], self.shape["m"]
        return [
            ("cli", ["design", "generate", "--kind", "block", "--t", t, "--m", m,
                     "--design-cache", self.work / f"cache{r}", "--out", self.output_of(r)]),
            ("cli", ["design", "verify", "--in", self.output_of(r)]),
        ]

    def design_path(self):
        return self.output_of(0)

    def check_rep(self, r, results):
        t, m = self.shape["t"], self.shape["m"]
        problems = []
        if "ok=True" not in results[0].stdout:
            problems.append("design generate did not certify the design")
        if "verified" not in results[1].stdout:
            problems.append("design verify did not verify the design")
        size = self.output_of(r).stat().st_size
        if size != DESIGN_HEADER + 4 * t * m:
            problems.append(f"design file is {size} bytes, expected {DESIGN_HEADER + 4 * t * m}")
        return problems

    def items(self):
        return self.shape["m"]


class CertifyExact(Workload):
    item = "flat source"

    def output_of(self, r):
        return self.work / f"certify{r}.json"

    def rep_commands(self, r):
        return [("child", ["certify", self.output_of(r)])]

    def check_rep(self, r, results):
        got = json.loads(self.output_of(r).read_text())
        return [f"{k} = {got.get(k)!r}, expected {v!r}"
                for k, v in CERTIFY_EXPECTED.items() if got.get(k) != v]

    def items(self):
        return CERTIFY_EXPECTED["toeplitz_sources"] + CERTIFY_EXPECTED["trevisan_sources"]

    def human(self, work_s):
        return [("sources_per_s", self.items() / max(work_s, 1e-3), "1/s")]


def make_workload(name, runner, shape_name, rng):
    shape = SHAPES[shape_name].get(name, {})
    if name == "extract_reuse":
        return Extract(runner, shape, rng, reuse=True)
    if name == "extract_fresh":
        return Extract(runner, shape, rng, reuse=False)
    if name == "design_cold":
        return DesignCold(runner, shape, rng)
    return CertifyExact(runner, shape, rng)


WORKLOADS = ("extract_reuse", "extract_fresh", "design_cold", "certify_exact")


# -- measurement -------------------------------------------------------------


@dataclass
class Rep:
    index: int
    wall: float
    rss_kib: int
    results: list
    setups: list = field(default_factory=list)  # set-up runs just before this rep
    trace_files: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems and all(res.rc == 0 for res in self.results)


def timed_reps(wl: Workload, seconds: float, first: int, trace_dir=None) -> list:
    """Repetitions until `seconds` have passed (at least MIN_REPS).

    Untraced, each repetition is preceded by a batch of set-up runs, so
    set-up and the workload are measured under the same machine conditions
    and wall - set-up can be taken per pair.
    """
    reps = []
    t_end = time.monotonic() + seconds
    while len(reps) < MIN_REPS or time.monotonic() < t_end:
        r = first + len(reps)
        setups = []
        while trace_dir is None and len(setups) < SETUP_MAX_RUNS and (
                sum(res.wall for res in setups) < SETUP_BATCH_S):
            setups.append(wl.runner.run(wl.setup_argv()))
        results, trace_files = [], []
        for k, (kind, args) in enumerate(wl.rep_commands(r)):
            trace_out = None if trace_dir is None else trace_dir / f"rep{r}.{k}"
            results.append(wl.runner.run(argv_for(kind, args, trace_out)))
            if trace_out is not None and trace_out.exists():
                trace_files.append(trace_out)
        reps.append(Rep(r, sum(res.wall for res in results),
                        max(res.rss_kib for res in results), results, setups, trace_files))
        if time.monotonic() > wl.runner.deadline:
            break
    return reps


def check_reps(wl: Workload, reps: list):
    """Per-rep output checks, identical outputs across reps, oracle spot-check."""
    digests = {}
    for rep in reps:
        if any(res.rc != 0 for res in rep.results):
            continue
        r = rep.index
        rep.problems += wl.check_rep(r, rep.results)
        digests[r] = sha256_file(wl.output_of(r))
    if not digests:
        return None
    first = min(digests)
    for r, digest in digests.items():
        if digest != digests[first]:
            reps[r].problems.append(f"output hash {digest} differs from rep {first}")
    spot = wl.spot_check(first)
    if spot:
        for r, digest in digests.items():
            if digest == digests[first]:
                reps[r].problems += spot
    return digests[first]


# -- trace aggregation -------------------------------------------------------


def _quantile(values, q):
    """Quantile q in (0, 1) by statistics.quantiles; 0 when there is no sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


# spans whose per-call durations are kept for p50/p90
QUANTILE_SPANS = ("trevisan.apply", "trevisan.extract", "harness.extractor_error")


class SpanStats:
    """Per-name call counts, busy time and self time over reps; per-call
    durations for QUANTILE_SPANS."""

    def __init__(self):
        self.calls: dict = {}
        self.busy: dict = {}
        self.self_time: dict = {}
        self.durations: dict = {}
        self.counts: dict = {}

    def add_file(self, path: Path):
        names, counts, name_id, parent, start, end = load_spans(path)
        children = [0.0] * len(start)
        for i in range(len(start)):
            if parent[i] >= 0:
                children[parent[i]] += end[i] - start[i]
        for i in range(len(start)):
            name = names[name_id[i]]
            dur = end[i] - start[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - children[i]
            if name in QUANTILE_SPANS:
                self.durations.setdefault(name, []).append(dur)
        for name, c in counts.items():
            self.counts[name] = self.counts.get(name, 0) + c


def per_layer_metrics(wl: Workload, traced: list, overhead_s: float):
    st = SpanStats()
    for rep in traced:
        for path in rep.trace_files:
            st.add_file(path)
    reps = max(len(traced), 1)

    def per_rep(d, name):
        return d.get(name, 0) / reps

    def q(name, quant, scale):
        return _quantile(st.durations.get(name, []), quant) * scale

    def mean(name, scale):
        n = st.calls.get(name, 0)
        return st.busy[name] / n * scale if n else 0.0

    deser = per_rep(st.calls, "weak_design.deserialize_design")
    built = per_rep(st.calls, "weak_design.block_design") + per_rep(
        st.calls, "weak_design.greedy_basic_design")
    design_file = wl.design_path()
    n, m = wl.n, wl.m
    sources = 0
    if isinstance(wl, CertifyExact):
        outs = [json.loads(wl.output_of(rep.index).read_text()) for rep in traced
                if rep.ok]
        sources = sum(o["toeplitz_sources"] + o["trevisan_sources"] for o in outs) / reps
    values = [
        ("trevisan.seed_masks.s", per_rep(st.busy, "trevisan.seed_masks"), "s"),
        ("trevisan.seed_masks.calls", per_rep(st.calls, "trevisan.seed_masks"), "count"),
        ("trevisan.apply.p50_us", q("trevisan.apply", 0.5, 1e6), "us"),
        ("trevisan.apply.p90_us", q("trevisan.apply", 0.9, 1e6), "us"),
        ("trevisan.apply.calls", per_rep(st.calls, "trevisan.apply"), "count"),
        ("trevisan.apply.mask_bits", m * n * per_rep(st.calls, "trevisan.apply"), "bit"),
        ("trevisan.extract_stream.self_s", per_rep(st.self_time, "trevisan.extract_stream"), "s"),
        ("trevisan.extract.p50_ms", q("trevisan.extract", 0.5, 1e3), "ms"),
        ("trevisan.extract.p90_ms", q("trevisan.extract", 0.9, 1e3), "ms"),
        ("code_extractor.extract_bit.calls", per_rep(st.calls, "code_extractor.extract_bit"), "count"),
        ("code_extractor.extract_bit.mean_us", mean("code_extractor.extract_bit", 1e6), "us"),
        ("bitfield.mul.calls", per_rep(st.counts, "bitfield.mul"), "count"),
        ("weak_design.block_design.s", per_rep(st.busy, "weak_design.block_design"), "s"),
        ("weak_design.overlap_sums.s", per_rep(st.busy, "weak_design.overlap_sums"), "s"),
        ("weak_design.serialize_design.s", per_rep(st.busy, "weak_design.serialize_design"), "s"),
        ("weak_design.design_bytes",
         design_file.stat().st_size if design_file and design_file.exists() else 0, "B"),
        ("weak_design.deserialize_design.s", per_rep(st.busy, "weak_design.deserialize_design"), "s"),
        ("weak_design.verify_design.s", per_rep(st.busy, "weak_design.verify_design"), "s"),
        ("weak_design.cache_hit_ratio", deser / (deser + built) if deser + built else 0.0, "ratio"),
        ("cli.cmd_extract.self_s", per_rep(st.self_time, "cli.cmd_extract"), "s"),
        ("params.preset.s", per_rep(st.busy, "params.preset"), "s"),
        ("harness.extractor_error.calls", per_rep(st.calls, "harness.extractor_error"), "count"),
        ("harness.extractor_error.p50_ms", q("harness.extractor_error", 0.5, 1e3), "ms"),
        ("harness.max_error_flat_sources.s", per_rep(st.busy, "harness.max_error_flat_sources"), "s"),
        ("harness.sources_checked", sources, "count"),
        ("harness.hybrid_gaps.s", per_rep(st.busy, "harness.hybrid_gaps"), "s"),
        ("entropy.hmin_cond.s", per_rep(st.busy, "entropy.hmin_cond"), "s"),
        ("universal_hash.toeplitz_hash.calls", per_rep(st.calls, "universal_hash.toeplitz_hash"), "count"),
        ("universal_hash.toeplitz_hash.mean_us", mean("universal_hash.toeplitz_hash", 1e6), "us"),
        ("trace.overhead_s", overhead_s, "s"),
    ]
    samples = {name: st.calls.get(name, 0) for name in QUANTILE_SPANS}
    return values, samples


# -- main ----------------------------------------------------------------------


def machine():
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy}


def preflight(runner: Runner):
    if not (SRC / "trevext" / "__init__.py").is_file():
        raise BenchError(f"no trevext sources under {SRC}; run from a source checkout")
    res = runner.run([PYTHON, "-c", "import trevext; print(trevext.__file__)"])
    where = Path(res.stdout.strip() or "?").resolve()
    if res.rc != 0 or where != (SRC / "trevext" / "__init__.py").resolve():
        raise BenchError(f"child imports trevext from {where}, not from {SRC}")


def run(args) -> dict:
    start = time.monotonic()
    work = WORK_BASE / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work, start + DEADLINE_S)
    try:
        preflight(runner)
        rng = random.Random(f"perfbench/{args.workload}/{args.seed}")
        wl = make_workload(args.workload, runner, args.shape, rng)
        wl.prepare()
        reps = timed_reps(wl, args.seconds, 0)
        setups = [res for rep in reps for res in rep.setups]
        traced = []
        if args.trace:
            trace_dir = work / "trace"
            trace_dir.mkdir()
            traced = timed_reps(wl, args.seconds, len(reps), trace_dir)
        digest = check_reps(wl, reps + traced)

        failed = sum(len(rep.results) for rep in reps + traced if not rep.ok)
        failed += sum(1 for res in setups if res.rc != 0)
        attempted = len(setups) + sum(len(rep.results) for rep in reps + traced)
        for rep in reps + traced:
            for problem in rep.problems:
                print(f"check failed on rep {rep.index}: {problem}", file=sys.stderr)

        wall_s = statistics.median(rep.wall for rep in reps)
        setup_s = statistics.median(res.wall for res in setups)
        work_s = statistics.median(
            rep.wall - wl.commands_per_rep * statistics.median(res.wall for res in rep.setups)
            for rep in reps)
        e2e = [
            ("wall_s", wall_s, "s"),
            ("setup_s", setup_s, "s"),
            ("work_per_s", wl.items() / max(work_s, 1e-3), "1/s"),
            ("peak_rss_mib", statistics.median(rep.rss_kib for rep in reps) / 1024, "MiB"),
        ]
        lines = [f"machine: {json.dumps(machine())}",
                 f"workload {args.workload} shape={args.shape} seed={args.seed}: "
                 f"{len(reps)} timed rep(s), {len(setups)} set-up run(s), "
                 f"work item = {wl.item} ({wl.items()} per rep)"]
        lines += [f"input {name} sha256={h}" for name, h in sorted(wl.inputs.items())]
        lines.append(f"output sha256={digest}")
        lines.append("timed rep wall_s: " + " ".join(f"{rep.wall:.4f}" for rep in reps))
        lines.append("set-up wall_s: " + " ".join(f"{res.wall:.4f}" for res in setups))
        shown = e2e + wl.human(work_s) + [("fail_ratio", failed / attempted, "-")]
        lines += [f"{name} = {value:.6g} {unit}" for name, value, unit in shown]
        metrics = e2e
        if args.trace:
            overhead = statistics.median(rep.wall for rep in traced) - wall_s
            metrics, samples = per_layer_metrics(wl, traced, overhead)
            lines += [f"trace samples {name}: {k}" for name, k in samples.items()]
            lines += [f"{name} = {value:.6g} {unit}" for name, value, unit in metrics]
        for line in lines:
            print(line)
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, value, unit in metrics},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=sorted(SHAPES), default="full")
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
