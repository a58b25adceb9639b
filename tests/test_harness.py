import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from trevext import harness

from trevext.bitfield import BitString
from trevext.code_extractor import CodeSpec, extract_bit, message_symbols
from trevext.entropy import (
    Distribution,
    JointDistribution,
    flat_source,
    pguess_cond,
    variational_distance,
)
from trevext.errors import ParameterError, SizeGuardError
from trevext.harness import (
    advice_bits,
    extraction_joint,
    extractor_error,
    format_test_vector,
    hybrid_gaps,
    majority_predictor,
    max_error_flat_sources,
    parse_test_vector,
    reduction_witness,
    smoothing_robustness_check,
    weak_seed_split_check,
)
from trevext.params import preset
from trevext.trevisan import TrevisanInstance, _bit_seed, extract
from trevext.universal_hash import AdvertisedExtractor, toeplitz_extractor
from trevext.weak_design import WeakDesign, block_design


def identity_extractor(n):
    """Seedless n-bit identity map wrapped as an extractor."""
    return AdvertisedExtractor(lambda x, y: x, n, 0, n, n, Fraction(0))


def micro_instance():
    design = WeakDesign.from_sets(6, [(0, 1, 2, 3), (2, 3, 4, 5)])
    code = CodeSpec(n=4, s=2, delta=Fraction(3, 8))
    return TrevisanInstance(design, code)


# -- extractor error oracle --------------------------------------------------


def test_error_uniform_source_identity():
    ext = identity_extractor(2)
    assert extractor_error(ext, flat_source([BitString(2, v) for v in range(4)])) == 0


def test_error_point_mass_identity():
    # identity on a known input: output is a point mass, distance 1 - 2^-m
    ext = identity_extractor(2)
    assert extractor_error(ext, Distribution({BitString(2, 3): Fraction(1)})) == \
        Fraction(3, 4)


def test_error_flat_half_support():
    ext = identity_extractor(2)
    src = flat_source([BitString(2, 0), BitString(2, 1)])
    assert extractor_error(ext, src) == Fraction(1, 2)


def test_error_side_information_leak():
    # E = X: conditioned on each side symbol the output is deterministic
    ext = identity_extractor(1)
    J = JointDistribution(
        {(BitString(1, b), b): Fraction(1, 2) for b in range(2)}
    )
    assert extractor_error(ext, J) == Fraction(1, 2)


def test_error_size_guard():
    with pytest.raises(SizeGuardError):
        extractor_error(identity_extractor(13), flat_source([BitString(13, 0)]))


def test_uniform_seed_guard(monkeypatch):
    # cor1 at n = 8, m = 2 has d = 32: a uniform seed of 2^32 entries is
    # refused before any seed string is built and before Ext runs
    p = preset("cor1", 8, Fraction(1, 2), 2)
    inst = TrevisanInstance(block_design(p.t, p.m), CodeSpec(n=8, s=p.s_bits, delta=p.delta))
    assert inst.d == 32 > harness.MAX_UNIFORM_SEED_D
    monkeypatch.setattr(harness, "BitString", None)
    monkeypatch.setattr(harness, "_output", None)
    with pytest.raises(SizeGuardError, match="uniform seed"):
        extractor_error(inst, flat_source([BitString(8, 0)]))
    with pytest.raises(SizeGuardError, match="uniform seed"):
        max_error_flat_sources(inst, 1)


def test_error_matches_hybrid_total():
    inst = micro_instance()
    src = flat_source([BitString(4, 0), BitString(4, 5), BitString(4, 9)])
    err = extractor_error(inst, src)
    rep = hybrid_gaps(extraction_joint(inst, src), inst.m)
    assert rep.total == err


def test_extraction_joint_matches_term_by_term_sum():
    # the joint read off the oracle's integer cells equals the Fraction sum
    # of px * py per (Ext(x, y), (y, e)), with side symbols and a skewed seed
    inst = micro_instance()
    src = JointDistribution({(BitString(4, v), v % 3): Fraction(v + 1, 136) for v in range(16)})
    weights = [y % 5 + 1 for y in range(64)]
    seed = Distribution({BitString(6, y): Fraction(w, sum(weights))
                         for y, w in enumerate(weights)})
    want = {}
    for (x, e), px in src.mass.items():
        for y, py in seed.mass.items():
            key = (extract(inst, x, y), (y, e))
            want[key] = want.get(key, 0) + px * py
    assert extraction_joint(inst, src, seed).mass == want


@pytest.mark.parametrize("ext", [micro_instance(), toeplitz_extractor(4, 2, Fraction(1, 4))],
                         ids=["trevisan", "toeplitz"])
def test_malformed_keys_refused_before_ext_runs(monkeypatch, ext):
    # an input that is not an n-bit BitString, or a seed key that is not a
    # d-bit one, raises ParameterError on every path through the table
    monkeypatch.setattr(harness, "codeword_bit", None)
    monkeypatch.setattr(harness, "_output", None)
    x = BitString(ext.n, 0)
    for bad in (5, BitString(ext.n + 1, 0), (x,)):
        with pytest.raises(ParameterError, match=f"input .* is not a {ext.n}-bit string"):
            extractor_error(ext, flat_source([bad]))
        with pytest.raises(ParameterError, match=f"input .* is not a {ext.n}-bit string"):
            extraction_joint(ext, JointDistribution({(bad, "e"): Fraction(1)}))
    for bad in (3, BitString(ext.d - 1, 0)):
        with pytest.raises(ParameterError, match=f"seed .* is not a {ext.d}-bit string"):
            extractor_error(ext, flat_source([x]), flat_source([bad]))
        with pytest.raises(ParameterError, match=f"seed .* is not a {ext.d}-bit string"):
            max_error_flat_sources(ext, 1, flat_source([bad]))


# (n, s, delta) of small valid codes, t = 2s from 2 to 6
_SMALL_CODES = [(1, 1, Fraction(1, 4)), (2, 2, Fraction(1, 4)), (4, 2, Fraction(3, 8)),
                (3, 3, Fraction(1, 4)), (5, 3, Fraction(1, 4))]


def test_table_matches_extract_on_random_instances():
    # the table equals the bit-serial extract on every (x, y) of random
    # instances whose design sets may be longer than the code's seed, d up
    # to 9; the joint built from it matches the term-by-term sum under a
    # skewed seed, with one input under two side symbols
    rng = random.Random(29)
    for trial in range(10):
        n, s, delta = _SMALL_CODES[trial % len(_SMALL_CODES)]
        code = CodeSpec(n=n, s=s, delta=delta)
        size = code.t + (1 if trial < 5 else rng.randint(0, 2))
        d = 9 if trial % 3 == 0 else rng.randint(size, 9)
        m = rng.randint(1, 4)
        inst = TrevisanInstance(
            WeakDesign.from_sets(d, [rng.sample(range(d), size) for _ in range(m)]), code)
        xs = [BitString(n, xv) for xv in range(1 << n)]
        ys = [BitString(d, yv) for yv in range(1 << d)]
        assert harness._table(inst, xs, ys) == \
            [[extract(inst, x, y).value for x in xs] for y in ys]

        twice = rng.choice(xs)
        others = rng.sample(xs, min(3, len(xs)))
        src = JointDistribution(_random_mass(
            rng, [(twice, "a"), (twice, "b")] + [(x, "c") for x in others]))
        seed = Distribution(_random_mass(rng, rng.sample(ys, rng.randint(2, 12))))
        want = {}
        for (x, e), px in src.mass.items():
            for y, py in seed.mass.items():
                key = (extract(inst, x, y), (y, e))
                want[key] = want.get(key, 0) + px * py
        assert extraction_joint(inst, src, seed).mass == want


def test_extraction_joint_guards():
    # outputs of the wrong length and inputs past the size guard are refused
    # as by the error oracle
    def short(x, y):
        return BitString(1, 0)

    short.n, short.d, short.m = 2, 0, 2  # a bare callable with a wrong claim
    with pytest.raises(ParameterError, match="not a 2-bit string"):
        extraction_joint(short, flat_source([BitString(2, 0)]))
    with pytest.raises(SizeGuardError):
        extraction_joint(identity_extractor(13), flat_source([BitString(13, 0)]))


def fraction_extractor_error(ext, source, seed=None):
    """Reference: the exact error summed term by term over every output in
    Fraction arithmetic."""
    if not isinstance(source, JointDistribution):
        source = JointDistribution({(x, None): p for x, p in source.mass.items()})
    if seed is None:
        seed = Distribution({BitString(ext.d, v): Fraction(1, 1 << ext.d)
                             for v in range(1 << ext.d)})
    out, rest = {}, {}
    for (x, e), px in source.mass.items():
        for y, py in seed.mass.items():
            z = extract(ext, x, y) if isinstance(ext, TrevisanInstance) else ext(x, y)
            out[(z, y, e)] = out.get((z, y, e), Fraction(0)) + px * py
            rest[(y, e)] = rest.get((y, e), Fraction(0)) + px * py
    u = Fraction(1, 1 << ext.m)
    total = Fraction(0)
    for (y, e), p in rest.items():
        for zv in range(1 << ext.m):
            total += abs(out.get((BitString(ext.m, zv), y, e), Fraction(0)) - u * p)
    return total / 2


def _random_mass(rng, keys):
    weights = {k: rng.randint(1, 9) for k in keys}
    tot = sum(weights.values())
    return {k: Fraction(w, tot) for k, w in weights.items()}


@pytest.mark.parametrize("ext", [toeplitz_extractor(4, 2, Fraction(1, 4)),
                                 micro_instance()], ids=["toeplitz", "trevisan"])
def test_error_matches_fraction_reference(ext):
    rng = random.Random(ext.d)
    for trial in range(200):
        xs = rng.sample(range(1 << ext.n), rng.randint(1, 8))
        source = JointDistribution(_random_mass(
            rng, [(BitString(ext.n, xv), rng.randrange(3)) for xv in xs]))
        seed = None if trial % 4 == 0 else Distribution(_random_mass(
            rng, [BitString(ext.d, yv)
                  for yv in rng.sample(range(1 << ext.d), rng.randint(1, 12))]))
        assert extractor_error(ext, source, seed) == \
            fraction_extractor_error(ext, source, seed)


class _TruncatingExtractor:
    """Declares m = 2 output bits and returns 1."""

    n, d, m = 2, 0, 2

    def __call__(self, x, y):
        return x.prefix(1)


def test_wrong_length_output_rejected():
    ext = _TruncatingExtractor()
    with pytest.raises(ParameterError, match="2-bit"):
        extractor_error(ext, flat_source([BitString(2, 1)]))
    with pytest.raises(ParameterError, match="2-bit"):
        max_error_flat_sources(ext, k=1)


# -- flat-source family search -----------------------------------------------


@pytest.mark.parametrize("ext, k, max_error, checked, worst", [
    (toeplitz_extractor(4, 2, Fraction(1, 4)), 2, Fraction(21, 64), 1820, [0, 1, 4, 5]),
    (toeplitz_extractor(4, 2, Fraction(1, 4)), 3, Fraction(29, 128), 12870,
     [0, 1, 2, 3, 4, 8, 13, 15]),
    (toeplitz_extractor(4, 2, Fraction(1, 4)), 4, Fraction(9, 128), 1, list(range(16))),
    (micro_instance(), 1, Fraction(39, 64), 120, [0, 1]),
], ids=["toeplitz-k2", "toeplitz-k3", "toeplitz-k4", "trevisan-k1"])
def test_flat_family_reports_pinned(ext, k, max_error, checked, worst):
    rep = max_error_flat_sources(ext, k)
    assert (rep.max_error, rep.regime, rep.sources_checked) == (max_error, "exhaustive", checked)
    assert [x.value for x in rep.worst_support] == worst
    assert all(x.length == ext.n for x in rep.worst_support)
    assert extractor_error(ext, flat_source(rep.worst_support)) == max_error


# -- flat-source family search -----------------------------------------------


def test_flat_family_matches_reference_non_uniform_seed():
    ext = toeplitz_extractor(4, 2, Fraction(1, 4))
    rng = random.Random(5)
    seed = Distribution(_random_mass(
        rng, [BitString(5, yv) for yv in rng.sample(range(32), 20)]))
    rep = max_error_flat_sources(ext, k=1, seed=seed)
    errs = {(a, b): fraction_extractor_error(
        ext, flat_source([BitString(4, a), BitString(4, b)]), seed)
        for a in range(16) for b in range(a + 1, 16)}
    assert rep.sources_checked == len(errs)
    assert rep.max_error == max(errs.values())
    assert errs[tuple(x.value for x in rep.worst_support)] == rep.max_error


def _sparse_extractor():
    """3 -> 5 bits on a 1-bit seed, reaching 8 of the 32 outputs per seed."""
    return AdvertisedExtractor(
        lambda x, y: BitString(5, (3 * x.value + 7 * y.value) % 32), 3, 1, 5, 1, Fraction(0))


def _all_supports(n, k):
    return np.array(list(itertools.combinations(range(1 << n), 1 << k)), dtype=np.intp)


def _reference_errors(ext, k, seed=None):
    return [fraction_extractor_error(ext, flat_source([BitString(ext.n, v) for v in sup]), seed)
            for sup in itertools.combinations(range(1 << ext.n), 1 << k)]


@pytest.mark.parametrize("ext, k", [
    (toeplitz_extractor(3, 2, Fraction(1, 4)), 1),  # m > k
    (micro_instance(), 1),  # m > k
    (_sparse_extractor(), 1),  # m > k, 8 of 2^m outputs reached
    (toeplitz_extractor(3, 1, Fraction(1, 4)), 2),  # m < k
    (toeplitz_extractor(4, 1, Fraction(1, 4)), 2),  # m < k
], ids=["toeplitz3-2", "trevisan", "sparse", "toeplitz3-1", "toeplitz4-1"])
def test_flat_kernel_every_support_matches_reference(ext, k):
    kernel = harness._FlatKernel(ext, None, k)
    supports = _all_supports(ext.n, k)
    got = [Fraction(int(t), kernel.denominator)
           for lo in range(0, len(supports), kernel.chunk)
           for t in kernel.totals(supports[lo : lo + kernel.chunk])]
    assert got == _reference_errors(ext, k)


def test_flat_kernel_chunks_split_supports(monkeypatch):
    # 28 supports of 2 of 8 inputs; each takes 16 cells (2 seeds x 8
    # outputs), so 48 cells give chunks of 3, the last of one support
    ext = _sparse_extractor()
    want = max_error_flat_sources(ext, 1)
    sizes = []
    totals = harness._FlatKernel.totals

    def spy(self, supports):
        sizes.append(len(supports))
        return totals(self, supports)

    monkeypatch.setattr(harness._FlatKernel, "totals", spy)
    for cells, chunks in [(48, [3] * 9 + [1]), (1, [1] * 28)]:
        monkeypatch.setattr(harness, "_FLAT_CELLS", cells)
        sizes.clear()
        assert max_error_flat_sources(ext, 1) == want
        assert sizes == chunks


def test_flat_family_first_maximum_wins(monkeypatch):
    # 56 of the 70 supports tie at the maximum, the first of them second in
    # combinations order; the report names it, whatever the chunking (a
    # support takes 32 cells: 8 seeds x 4 inputs)
    ext = toeplitz_extractor(3, 1, Fraction(1, 4))
    errs = _reference_errors(ext, 2)
    first = errs.index(max(errs))
    assert errs.count(max(errs)) == 56 and first == 1
    want = list(itertools.combinations(range(8), 4))[first]
    for cells in [harness._FLAT_CELLS, 32, 64, 96]:
        monkeypatch.setattr(harness, "_FLAT_CELLS", cells)
        rep = max_error_flat_sources(ext, 2)
        assert rep.max_error == max(errs)
        assert tuple(x.value for x in rep.worst_support) == want


def test_flat_kernel_exact_past_int64():
    # scaled seed masses over 2^70: totals are Python ints, not int64
    ext = toeplitz_extractor(3, 2, Fraction(1, 4))
    rng = random.Random(9)
    weights = [rng.randrange(1, 1 << 66) for _ in range(1 << ext.d)]
    den = 1 << 70
    masses = {BitString(ext.d, v): Fraction(w, den) for v, w in enumerate(weights[:-1])}
    masses[BitString(ext.d, (1 << ext.d) - 1)] = 1 - sum(masses.values())
    seed = Distribution(masses)
    kernel = harness._FlatKernel(ext, seed, 1)
    assert kernel.dtype is object and kernel.denominator >= 1 << 63
    errs = _reference_errors(ext, 1, seed)
    got = kernel.totals(_all_supports(ext.n, 1))
    assert [Fraction(t, kernel.denominator) for t in got] == errs
    rep = max_error_flat_sources(ext, 1, seed=seed)
    assert rep.max_error == max(errs)
    assert tuple(x.value for x in rep.worst_support) == \
        list(itertools.combinations(range(8), 2))[errs.index(max(errs))]


def test_flat_family_evaluates_ext_once_per_pair():
    inner = toeplitz_extractor(4, 2, Fraction(1, 4))
    calls = []

    def counted(x, y):
        calls.append((x.value, y.value))
        return inner(x, y)

    ext = AdvertisedExtractor(counted, inner.n, inner.d, inner.m, inner.k, inner.eps)
    rep = max_error_flat_sources(ext, 2)
    assert rep.sources_checked == 1820
    assert sorted(calls) == [(x, y) for x in range(16) for y in range(32)]
    calls.clear()
    max_error_flat_sources(ext, 3)  # any k: one tabulation
    assert len(calls) == len(set(calls)) == 16 * 32


@pytest.mark.parametrize("ext, k, max_error, checked", [
    (micro_instance(), 1, Fraction(39, 64), 120),
    (toeplitz_extractor(4, 2, Fraction(1, 4)), 2, Fraction(21, 64), 1820),
], ids=["trevisan-k1", "toeplitz-k2"])
def test_flat_family_tabulates_each_pair_once(monkeypatch, ext, k, max_error, checked):
    # a Trevisan instance runs its one-bit oracle once per (input, one-bit
    # seed) pair; any other extractor runs once per (input, seed) pair
    trevisan = isinstance(ext, TrevisanInstance)
    name = "codeword_bit" if trevisan else "_output"
    oracle, calls = getattr(harness, name), []

    def spy(*args):
        calls.append(args[-2:])  # (message symbols, v) or (x, y)
        return oracle(*args)

    monkeypatch.setattr(harness, name, spy)
    rep = max_error_flat_sources(ext, k)
    assert (rep.max_error, rep.regime, rep.sources_checked) == (max_error, "exhaustive", checked)
    if trevisan:
        assert len(calls) == 16 * 16
        assert sorted((tuple(sym), v.value) for sym, v in calls) == sorted(
            (tuple(message_symbols(ext.code, BitString(ext.n, xv))), v)
            for xv in range(1 << ext.n) for v in range(1 << ext.code.t))
    else:
        assert sorted((x.value, y.value) for x, y in calls) == \
            [(x, y) for x in range(1 << ext.n) for y in range(1 << ext.d)]
        # one input BitString per value, shared by every seed
        assert len({id(x) for x, _y in calls}) == 1 << ext.n


def test_flat_family_exhaustive_identity():
    rep = max_error_flat_sources(identity_extractor(2), k=1)
    assert rep.regime == "exhaustive"
    assert rep.sources_checked == 6
    assert rep.max_error == Fraction(1, 2)


def test_flat_family_refuses_past_family_guard():
    # comb(64, 8) supports are past MAX_EXHAUSTIVE_FAMILIES: no maximum is
    # reported that was not taken over every support, and Ext is not run
    inner = toeplitz_extractor(6, 2, Fraction(1, 4))
    calls = []

    def counted(x, y):
        calls.append(1)
        return inner(x, y)

    ext = AdvertisedExtractor(counted, inner.n, inner.d, inner.m, inner.k, inner.eps)
    assert math.comb(64, 8) > harness.MAX_EXHAUSTIVE_FAMILIES
    with pytest.raises(SizeGuardError, match="flat-source search"):
        max_error_flat_sources(ext, 3)
    assert not calls


def test_flat_family_rejects_negative_k():
    with pytest.raises(ParameterError, match="k must be"):
        max_error_flat_sources(identity_extractor(2), -1)
    with pytest.raises(ParameterError, match="k must be"):
        max_error_flat_sources(identity_extractor(2), 3)


def test_flat_family_monotone_in_k():
    # flat sources of entropy k are the extreme points of the >= k polytope,
    # so the worst-case error cannot increase with k
    ext = identity_extractor(3)
    errs = [max_error_flat_sources(ext, k).max_error for k in range(4)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[3] == 0


def test_flat_family_k_exceeds_n():
    with pytest.raises(ParameterError):
        max_error_flat_sources(identity_extractor(2), k=3)


# -- hybrid decomposition ----------------------------------------------------


def test_hybrid_full_leak():
    # E is a copy of a uniform 2-bit Z
    J = JointDistribution(
        {(BitString(2, v), v): Fraction(1, 4) for v in range(4)}
    )
    rep = hybrid_gaps(J, 2)
    assert rep.total == Fraction(3, 4)
    assert rep.gaps[rep.argmax] >= Fraction(3, 8)
    assert sum(rep.gaps, Fraction(0)) >= rep.total


def test_hybrid_single_bit_gap_is_total():
    J = JointDistribution(
        {(BitString(1, 1), None): Fraction(7, 8), (BitString(1, 0), None): Fraction(1, 8)}
    )
    rep = hybrid_gaps(J, 1)
    assert rep.gaps == (rep.total,)
    assert rep.total == Fraction(3, 8)


def test_hybrid_uniform_independent_zero():
    J = JointDistribution(
        {(BitString(2, v), e): Fraction(1, 8) for v in range(4) for e in "ab"}
    )
    rep = hybrid_gaps(J, 2)
    assert rep.total == 0 and rep.gaps == (Fraction(0), Fraction(0))


def test_hybrid_random_joints_exact_bound():
    rng = random.Random(21)
    for _ in range(50):
        m = rng.randint(1, 4)
        w = {
            (BitString(m, v), e): rng.randint(0, 3)
            for v in range(1 << m)
            for e in range(2)
        }
        tot = sum(w.values())
        if tot == 0:
            continue
        J = JointDistribution({k: Fraction(v, tot) for k, v in w.items() if v})
        rep = hybrid_gaps(J, m)  # internal asserts cover the bound
        assert rep.gaps[rep.argmax] * m >= rep.total


def fraction_hybrid_gaps(J, m):
    """Reference: every hybrid as a Fraction distribution over all its
    tails, gaps and total by variational distance."""
    def sigma(i):
        out = {}
        pad = Fraction(1, 1 << (m - i))
        for (z, e), p in J.mass.items():
            head = z.prefix(i)
            for tail in range(1 << (m - i)):
                key = (head.concat(BitString(m - i, tail)), e)
                out[key] = out.get(key, Fraction(0)) + p * pad
        return Distribution(out)

    hybrids = [sigma(i) for i in range(m + 1)]
    gaps = tuple(variational_distance(hybrids[i], hybrids[i - 1])
                 for i in range(1, m + 1))
    return gaps, variational_distance(hybrids[m], hybrids[0])


def test_hybrid_matches_fraction_reference():
    rng = random.Random(4242)
    for _ in range(200):
        m = rng.randint(1, 7)
        support = [(BitString(m, rng.randrange(1 << m)), rng.randrange(4))
                   for _ in range(rng.randint(1, 12))]
        weights = [rng.randint(1, 9) for _ in support]
        tot = sum(weights) + rng.randint(0, 5)  # sub-normalised when > 0
        mass = {}
        for kv, w in zip(support, weights):
            mass[kv] = mass.get(kv, Fraction(0)) + Fraction(w, tot)
        J = JointDistribution(mass)
        rep = hybrid_gaps(J, m)
        gaps, total = fraction_hybrid_gaps(J, m)
        assert (rep.gaps, rep.total) == (gaps, total)
        assert rep.argmax == max(range(m), key=lambda i: (gaps[i], -i))


def test_hybrid_rejects_wrong_length_values():
    J = JointDistribution({(BitString(2, 1), None): Fraction(1)})
    with pytest.raises(ParameterError, match="m-bit"):
        hybrid_gaps(J, 3)


def test_hybrid_size_guard():
    J = JointDistribution({(BitString(13, 0), None): Fraction(1)})
    with pytest.raises(SizeGuardError):
        hybrid_gaps(J, 13)


# -- reduction witness -------------------------------------------------------


def fraction_witness(inst, source, seed, i):
    """Reference: (advantage, w) of the advice distinguisher at position i,
    every advice entry one extract_bit at a reassigned seed, in Fraction
    arithmetic."""
    sets = [[int(p) for p in row] for row in inst.design.sets]
    outside = [p for p in range(inst.d) if p not in sets[i]]
    overlaps = [[p for p in row if p in sets[i]] for row in sets[:i]]
    cells = {}
    for (x, e), px in source.mass.items():
        for y, py in seed.mass.items():
            advice = []
            for j, overlap in enumerate(overlaps):
                tab = 0
                for assign in range(1 << len(overlap)):
                    bits = list(y)
                    for a, p in enumerate(overlap):
                        bits[p] = (assign >> (len(overlap) - 1 - a)) & 1
                    y_j = _bit_seed(inst, BitString.from_bits(bits), j)
                    tab = (tab << 1) | extract_bit(inst.code, x, y_j)
                advice.append((len(overlap), tab))
            v = _bit_seed(inst, y, i)
            cell = cells.setdefault((v, y.substring(outside), tuple(advice), e), [0, 0])
            cell[extract_bit(inst.code, x, v)] += px * py
    # a bit's distance from uniform in a cell of masses (q0, q1) is |q0 - q1| / 2
    advantage = sum((abs(q0 - q1) for q0, q1 in cells.values()), Fraction(0)) / 2
    per_w = {}
    for (_v, w, _g, _e), (q0, q1) in cells.items():
        gap, mass = per_w.get(w, (0, 0))
        per_w[w] = (gap + abs(q0 - q1) / 2, mass + q0 + q1)
    best = max(sorted(per_w, key=lambda w: w.value),
               key=lambda w: per_w[w][0] / per_w[w][1])
    return advantage, best


def test_witness_matches_bit_serial_reference():
    # on random instances with side symbols and skewed seeds, the witness
    # built from the table equals the reference built from extract_bit
    rng = random.Random(31)
    reached = set()
    for trial in range(24):
        n, s, delta = _SMALL_CODES[1 + trial % 3]
        code = CodeSpec(n=n, s=s, delta=delta)
        d, m, size = rng.randint(code.t + 1, 8), rng.randint(2, 3), code.t + trial % 2
        inst = TrevisanInstance(
            WeakDesign.from_sets(d, [rng.sample(range(d), size) for _ in range(m)]), code)
        src = JointDistribution(_random_mass(rng, [
            (BitString(n, rng.randrange(1 << n)), rng.randrange(2)) for _ in range(4)]))
        seed = Distribution(_random_mass(
            rng, [BitString(d, yv) for yv in rng.sample(range(1 << d), 24)]))
        wit = reduction_witness(inst, src, seed)
        assert (wit.advantage, wit.w) == fraction_witness(inst, src, seed, wit.index)
        reached.add((m, wit.index))
    assert any(i < m - 1 for m, i in reached)  # not only the last output bit


def test_witness_low_entropy_source():
    inst = micro_instance()
    src = flat_source([BitString(4, 0), BitString(4, 1)])
    wit = reduction_witness(inst, src)
    assert wit.advantage >= wit.gap
    assert wit.gap * inst.m >= wit.total
    assert wit.advice_bits <= inst.design.r_certified * inst.m
    assert wit.advice_bits == advice_bits(inst, wit.index)
    assert wit.w.length == inst.d - len(inst.design.sets[wit.index])


def test_witness_point_mass():
    inst = micro_instance()
    wit = reduction_witness(inst, Distribution({BitString(4, 11): Fraction(1)}))
    assert wit.total > 0
    assert wit.advantage * inst.m >= wit.total


def test_witness_scores_w_per_unit_mass():
    # under a skewed seed the values of W carry unequal mass: w is chosen by
    # the advantage given W = w, not by that value's share of the total
    inst = micro_instance()
    weights = [y % 5 + 1 for y in range(64)]
    seed = Distribution({BitString(6, y): Fraction(w, sum(weights))
                         for y, w in enumerate(weights)})
    wit = reduction_witness(inst, flat_source([BitString(4, 0), BitString(4, 1)]), seed)
    assert (wit.index, wit.w, wit.advantage, wit.gap) == \
        (1, BitString(2, 1), Fraction(87, 190), Fraction(39, 95))


def test_witness_tabulates_once(monkeypatch):
    # the hybrid report and the advice read one table, under a uniform seed
    # and under a seed on a few values, whose reassignments it must add
    calls = []
    table = harness._table

    def spy(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(harness, "_table", spy)
    inst = micro_instance()
    src = flat_source([BitString(4, 0), BitString(4, 1), BitString(4, 6)])
    few = Distribution({BitString(6, y): Fraction(1, 3) for y in (0, 9, 46)})
    for seed in (None, few):
        calls.clear()
        wit = reduction_witness(inst, src, seed)
        assert len(calls) == 1
        seed = seed or Distribution({BitString(6, y): Fraction(1, 64) for y in range(64)})
        assert wit.total == extractor_error(inst, src, seed)
        assert wit.gap == hybrid_gaps(extraction_joint(inst, src, seed), inst.m).gaps[wit.index]


def test_advice_bits_formula():
    inst = micro_instance()
    assert advice_bits(inst, 0) == 0
    assert advice_bits(inst, 1) == 1 << 2  # |S_0 cap S_1| = 2
    # every set of a 16-set design, against the definition over Python sets
    inst = TrevisanInstance(block_design(4, 16), CodeSpec(n=4, s=2, delta=Fraction(3, 8)))
    rows = [set(map(int, s)) for s in inst.design.sets]
    for i in range(inst.m):
        assert advice_bits(inst, i) == sum(1 << len(rows[j] & rows[i]) for j in range(i))


def test_witness_size_guard():
    design = WeakDesign.from_sets(10, [tuple(range(8)), tuple(range(2, 10))])
    code = CodeSpec(n=16, s=4, delta=Fraction(1, 3))
    inst = TrevisanInstance(design, code)
    with pytest.raises(SizeGuardError):
        reduction_witness(inst, Distribution({BitString(16, 0): Fraction(1)}))


# -- majority predictor ------------------------------------------------------


def test_majority_deterministic_string():
    x = BitString(4, 0b1010)
    rep = majority_predictor(Distribution({x: Fraction(1)}), 4, Fraction(1, 4))
    assert rep.alpha == x
    assert rep.advantage == Fraction(1, 2)
    assert rep.success == 1
    assert rep.premise_holds


def test_majority_uniform_premise_fails():
    P = flat_source([BitString(3, v) for v in range(8)])
    rep = majority_predictor(P, 3, Fraction(1, 8))
    assert rep.advantage == 0
    assert not rep.premise_holds


def test_majority_refuses_empty_strings():
    for nbar in (0, -1):
        with pytest.raises(ParameterError, match="nbar must be >= 1"):
            majority_predictor(Distribution({BitString(0, 0): Fraction(1)}), nbar, Fraction(1, 4))


def test_majority_random_sources():
    rng = random.Random(33)
    for _ in range(100):
        nbar = rng.randint(2, 6)
        w = {BitString(nbar, v): rng.randint(0, 3) for v in range(1 << nbar)}
        tot = sum(w.values())
        if tot == 0:
            continue
        P = Distribution({k: Fraction(v, tot) for k, v in w.items() if v})
        rep = majority_predictor(P, nbar, Fraction(1, 16))
        if rep.premise_holds:  # implication asserted internally too
            assert rep.success > Fraction(1, 16)


# -- smoothing ----------------------------------------------------------------


def test_smoothing_identical_sources():
    ext = identity_extractor(2)
    P = flat_source([BitString(2, 0), BitString(2, 1)])
    rep = smoothing_robustness_check(ext, P, P)
    assert rep.distance == 0 and rep.error == rep.error_smoothed and rep.ok


def test_smoothing_spike_removal():
    ext = identity_extractor(2)
    P = Distribution(
        {BitString(2, 0): Fraction(5, 8)}
        | {BitString(2, v): Fraction(1, 8) for v in range(1, 4)}
    )
    P_tilde = flat_source([BitString(2, v) for v in range(4)])
    rep = smoothing_robustness_check(ext, P, P_tilde)
    assert rep.distance == Fraction(3, 8)
    assert rep.error_smoothed == 0
    assert rep.error <= rep.bound == Fraction(3, 4)


def test_smoothing_random_perturbations():
    ext = toeplitz_extractor(3, 1, Fraction(1, 2))
    rng = random.Random(7)
    for _ in range(50):
        w = [rng.randint(1, 5) for _ in range(8)]
        v = [max(1, x + rng.randint(-1, 1)) for x in w]
        P = Distribution({BitString(3, i): Fraction(x, sum(w)) for i, x in enumerate(w)})
        Q = Distribution({BitString(3, i): Fraction(x, sum(v)) for i, x in enumerate(v)})
        rep = smoothing_robustness_check(ext, P, Q)
        assert abs(rep.error - rep.error_smoothed) <= 2 * rep.distance


# -- weak seeds ---------------------------------------------------------------


def test_weak_seed_independent_side_info():
    # Z constant: Hmin(Y|Z) = d, premise holds, bound 2*eps is certified
    ext = toeplitz_extractor(2, 1, Fraction(1, 2))
    J_yz = JointDistribution(
        {(BitString(2, v), "z"): Fraction(1, 4) for v in range(4)}
    )
    src = flat_source([BitString(2, v) for v in range(4)])
    rep = weak_seed_split_check(ext, J_yz, src, s=1, eps=Fraction(1, 2))
    assert rep.premise_ok and rep.skipped_reason is None
    assert rep.error is not None and rep.error <= rep.bound == 1
    assert rep.error == fraction_extractor_error(ext, src)


def test_weak_seed_premise_failure_reported():
    # Z a copy of Y: Hmin(Y|Z) = 0, far below s + log2(1/eps)
    ext = toeplitz_extractor(2, 1, Fraction(1, 2))
    J_yz = JointDistribution(
        {(BitString(2, v), v): Fraction(1, 4) for v in range(4)}
    )
    src = flat_source([BitString(2, v) for v in range(4)])
    rep = weak_seed_split_check(ext, J_yz, src, s=1, eps=Fraction(1, 2))
    assert not rep.premise_ok
    assert rep.error is None
    assert "Hmin(Y|Z)" in rep.skipped_reason


def test_weak_seed_premise_decided_exactly():
    # pguess(Y|Z) = 1/2 + 2^-60 exceeds eps * 2^-s = 1/2, while the float
    # Hmin(Y|Z) rounds to exactly s + log2(1/eps) = 1
    ext = toeplitz_extractor(2, 1, Fraction(1, 2))
    tiny = Fraction(1, 1 << 60)
    J_yz = JointDistribution({(BitString(2, 0), "z"): Fraction(1, 2) + tiny,
                              (BitString(2, 1), "z"): Fraction(1, 2) - tiny})
    src = flat_source([BitString(2, v) for v in range(4)])
    rep = weak_seed_split_check(ext, J_yz, src, s=0, eps=Fraction(1, 2))
    assert rep.hmin_y_given_z == 1.0
    assert not rep.premise_ok and rep.error is None
    assert "Hmin(Y|Z)" in rep.skipped_reason


class _SideSeeded:
    """`ext` reading a seed key (y, z) as y, so that Z stays in the
    conditioning of the reference error."""

    def __init__(self, ext):
        self.ext, self.m = ext, ext.m

    def __call__(self, x, yz):
        return self.ext(x, yz[0])


def flat_seed_reference(ext, J_yz, source, s, eps):
    """Reference: premise (b) scored on every flat seed support of size 2^s
    with `extractor_error`, the correlated error summed term by term.
    Returns (premise_ok, error, kind of skip)."""
    d = ext.d
    if pguess_cond(J_yz) * 2**s > eps:
        return False, None, "Hmin(Y|Z)"
    size = 1 << s
    for sup in itertools.combinations(range(1 << d), size):
        seed = Distribution({BitString(d, v): Fraction(1, size) for v in sup})
        if extractor_error(ext, source, seed) > eps:
            return False, None, "exceeds eps"
    return True, fraction_extractor_error(_SideSeeded(ext), source, Distribution(J_yz.mass)), None


def _table_extractor(rng, n, d, m):
    table = [rng.randrange(1 << m) for _ in range(1 << (n + d))]
    return AdvertisedExtractor(
        lambda x, y: BitString(m, table[(x.value << d) | y.value]), n, d, m, 0, Fraction(1))


def test_weak_seed_matches_flat_seed_enumeration():
    # 240 micro instances, d <= 4, s <= 2, random eps, Z correlated with Y:
    # the per-seed decision and error equal the enumeration of every support
    rng = random.Random(26)
    kinds = {"certified": 0, "Hmin(Y|Z)": 0, "exceeds eps": 0}
    for _ in range(240):
        n, d, m = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2)
        ext = _table_extractor(rng, n, d, m)
        s = rng.randint(0, min(2, d))
        eps = Fraction(rng.randint(1, 16), 16)
        zs = rng.randint(1, 3)
        J_yz = JointDistribution(_random_mass(rng, [
            (BitString(d, y), z) for y in range(1 << d) for z in range(zs)
            if rng.random() < 0.8 or z == y % zs
        ]))
        src = JointDistribution(_random_mass(rng, [
            (BitString(n, x), e) for x in rng.sample(range(1 << n), rng.randint(1, 1 << n))
            for e in range(rng.randint(1, 2))
        ]))
        ok, err, kind = flat_seed_reference(ext, J_yz, src, s, eps)
        rep = weak_seed_split_check(ext, J_yz, src, s, eps)
        assert (rep.premise_ok, rep.error) == (ok, err)
        assert kind is None and rep.skipped_reason is None or kind in rep.skipped_reason
        kinds[kind or "certified"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_weak_seed_decided_past_enumeration():
    # d = 5, s = 2: C(32, 4) = 35 960 flat seed supports, one pass over seeds
    ext = toeplitz_extractor(4, 2, Fraction(1, 4))
    weights = {(BitString(5, y), y >> 4): 1 + y % 2 for y in range(32)}
    J_yz = JointDistribution({k: Fraction(w, 48) for k, w in weights.items()})
    src = flat_source([BitString(4, v) for v in range(16)])
    rep = weak_seed_split_check(ext, J_yz, src, s=2, eps=Fraction(5, 8))
    assert rep.premise_ok and rep.skipped_reason is None
    P_Y = Distribution({y: p for (y, _z), p in J_yz.mass.items()})
    assert rep.error == extractor_error(ext, src, P_Y) == Fraction(13, 192)


def test_weak_seed_guards():
    ext = toeplitz_extractor(4, 2, Fraction(1, 4))  # d = 5
    src = flat_source([BitString(4, 0)])
    for key in (BitString(3, 0), BitString(6, 0), 0):
        J = JointDistribution({(key, "z"): Fraction(1)})
        with pytest.raises(ParameterError, match="5-bit"):
            weak_seed_split_check(ext, J, src, 0, Fraction(1, 2))
    J = JointDistribution({(BitString(5, 0), "z"): Fraction(1)})
    for s in (-1, 6):
        with pytest.raises(ParameterError, match="s must be"):
            weak_seed_split_check(ext, J, src, s, Fraction(1, 2))


def test_weak_seed_eps_guard():
    ext = toeplitz_extractor(2, 1, Fraction(1, 2))
    J = JointDistribution({(BitString(3, 0), "z"): Fraction(1)})
    with pytest.raises(ParameterError):
        weak_seed_split_check(ext, J, flat_source([BitString(2, 0)]), 1, Fraction(0))


# -- test vectors -------------------------------------------------------------


def test_vector_round_trip():
    line = format_test_vector(
        "extractor_error", {"n": 4, "k": 2, "seed": "uniform"}, Fraction(3, 16)
    )
    assert line.startswith("TV1 extractor_error ")
    name, params, value = parse_test_vector(line)
    assert name == "extractor_error"
    assert params == {"n": "4", "k": "2", "seed": "uniform"}
    assert value == Fraction(3, 16)


@pytest.mark.parametrize("line", [
    "TV1 = 1/2",
    "TV1 x = 1",
    "TV1 x a = 1/2",
    "TV1 x = a/b",
    "TV1 x = 1/0",
], ids=["no-name", "no-slash", "field-without-equals", "not-integers", "zero-denominator"])
def test_vector_rejects_malformed_record(line):
    with pytest.raises(ParameterError, match="test-vector"):
        parse_test_vector(line)


def test_vector_rejects_unknown_version():
    with pytest.raises(ParameterError):
        parse_test_vector("TV9 thing a=1 = 1/2")
