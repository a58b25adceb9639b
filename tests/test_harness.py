import random
from fractions import Fraction

import pytest

from trevext.bitfield import BitString
from trevext.code_extractor import CodeSpec
from trevext.entropy import Distribution, JointDistribution, flat_source, variational_distance
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
from trevext.trevisan import TrevisanInstance, extract
from trevext.universal_hash import AdvertisedExtractor, toeplitz_extractor
from trevext.weak_design import WeakDesign


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


def test_error_matches_hybrid_total():
    inst = micro_instance()
    src = flat_source([BitString(4, 0), BitString(4, 5), BitString(4, 9)])
    err = extractor_error(inst, src)
    rep = hybrid_gaps(extraction_joint(inst, src), inst.m)
    assert rep.total == err


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


@pytest.mark.parametrize("ext, k, kwargs, max_error, regime, checked, worst", [
    (toeplitz_extractor(4, 2, Fraction(1, 4)), 2, {}, Fraction(21, 64),
     "exhaustive", 1820, [0, 1, 4, 5]),
    (toeplitz_extractor(4, 2, Fraction(1, 4)), 3, {}, Fraction(29, 128),
     "exhaustive", 12870, [0, 1, 2, 3, 4, 8, 13, 15]),
    (toeplitz_extractor(4, 2, Fraction(1, 4)), 4, {}, Fraction(9, 128),
     "exhaustive", 1, list(range(16))),
    (micro_instance(), 1, {}, Fraction(39, 64), "exhaustive", 120, [0, 1]),
    (toeplitz_extractor(6, 2, Fraction(1, 4)), 3, {"samples": 15}, Fraction(123, 512),
     "sampled", 212, [15, 21, 25, 30, 35, 58, 59, 63]),
], ids=["toeplitz-k2", "toeplitz-k3", "toeplitz-k4", "trevisan-k1", "toeplitz6-sampled"])
def test_flat_family_reports_pinned(ext, k, kwargs, max_error, regime, checked, worst):
    rep = max_error_flat_sources(ext, k, **kwargs)
    assert (rep.max_error, rep.regime, rep.sources_checked) == (max_error, regime, checked)
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


def test_flat_family_exhaustive_identity():
    rep = max_error_flat_sources(identity_extractor(2), k=1)
    assert rep.regime == "exhaustive"
    assert rep.sources_checked == 6
    assert rep.max_error == Fraction(1, 2)


def test_flat_family_sampled_regime():
    # first-bit projection of a 6-bit input; comb(64, 8) >> exhaustive limit
    ext = AdvertisedExtractor(lambda x, y: x.prefix(1), 6, 0, 1, 3, Fraction(0))
    rep = max_error_flat_sources(ext, k=3, samples=3, hillclimb_passes=1)
    assert rep.regime == "sampled"
    # a support contained in one half-space is the worst case
    assert 0 <= rep.max_error <= Fraction(1, 2)


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


def test_advice_bits_formula():
    inst = micro_instance()
    assert advice_bits(inst, 0) == 0
    assert advice_bits(inst, 1) == 1 << 2  # |S_0 cap S_1| = 2


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
    assert rep.seed_sources_checked > 0


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


def test_weak_seed_too_many_supports_skips():
    ext = toeplitz_extractor(2, 1, Fraction(1, 2))
    J_yz = JointDistribution(
        {(BitString(2, v), "z"): Fraction(1, 4) for v in range(4)}
    )
    src = flat_source([BitString(2, v) for v in range(4)])
    rep = weak_seed_split_check(
        ext, J_yz, src, s=1, eps=Fraction(1, 2), max_premise_checks=1
    )
    assert not rep.premise_ok and "too many" in rep.skipped_reason


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


def test_vector_rejects_unknown_version():
    with pytest.raises(ParameterError):
        parse_test_vector("TV9 thing a=1 = 1/2")
