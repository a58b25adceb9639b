import hashlib
from fractions import Fraction

import numpy as np
import pytest

from trevext.errors import ParameterError, VerificationError
from trevext.weak_design import (
    WeakDesign,
    _argmin_with_exact_ties,
    _expected_weight_exact,
    _score_deltas,
    block_design,
    block_layout,
    ceil_div_ln,
    deserialize_design,
    design_seed_length,
    greedy_basic_design,
    block_design_length_bound,
    overlap_sums,
    serialize_design,
    verify_design,
)


def overlap_sums_oracle(sets):
    """The definition, set by set: sum over j < i of 2^{|S_j ∩ S_i|}."""
    fsets = [frozenset(s) for s in sets]
    sums = []
    for i, si in enumerate(fsets):
        sums.append(sum(1 << len(sj & si) for sj in fsets[:i]))
    return tuple(sums)


def test_overlap_sums_definition():
    sets = [(0, 1), (1, 2), (2, 3)]
    # sums of 2^{|S_j cap S_i|} over j < i
    assert overlap_sums(sets) == (0, 2, 1 + 2)


def _random_families(rng):
    """Families of t-subsets of [d]: t = 1, t = d, m in {0, 1}, repeated
    sets, and random shapes in between."""
    for _ in range(300):
        d = int(rng.integers(1, 24))
        t = int(rng.choice([1, d, int(rng.integers(1, d + 1))]))
        m = int(rng.choice([0, 1, int(rng.integers(2, 40))]))
        sets = [tuple(sorted(rng.choice(d, t, replace=False).tolist())) for _ in range(m)]
        if m > 1 and rng.random() < 0.3:  # repeat some sets
            picks = rng.integers(0, m, m)
            sets = [sets[min(int(p), i)] for i, p in enumerate(picks)]
        yield sets


def test_overlap_sums_match_oracle_on_random_families():
    for sets in _random_families(np.random.default_rng(13)):
        assert overlap_sums(sets) == overlap_sums_oracle(sets), sets


def test_overlap_sums_match_oracle_in_small_chunks(monkeypatch):
    # a few pair keys per chunk: every pair (j, i) must still be counted in
    # one chunk, whole later sets at a time
    import trevext.weak_design as wd

    for chunk in (1, 5, 64):
        monkeypatch.setattr(wd, "_PAIR_CHUNK", chunk)
        for sets in list(_random_families(np.random.default_rng(chunk)))[:80]:
            assert overlap_sums(sets) == overlap_sums_oracle(sets), (chunk, sets)
        eq = [(0, 1, 2)] * 9
        assert overlap_sums(eq) == tuple(i << 3 for i in range(9))


def test_overlap_sums_general_sequences():
    # the definition holds for any integer sets: ragged, repeated elements,
    # negative or far-apart values
    for sets in (
        [(0, 1, 2), (1,), (), (2, 1, 1, 0), (5, 1)],
        [(-3, 7), (7, -3, 2**40), (2**40, 2**41), (2**41,)],
        [(2**62, 0), (0, 2**62), (1, 2**62)],
        [(-(2**62), 2**62), (2**62, 5), (-(2**62),)],
        [[3, 1], [1, 3], [3]],
    ):
        assert overlap_sums(sets) == overlap_sums_oracle(sets), sets
    assert overlap_sums([]) == ()
    assert overlap_sums([(), ()]) == (0, 1)


def test_overlap_sums_match_oracle_on_dense_greedy_families():
    for t, m, r in [(2, 40, 2), (3, 30, Fraction(3, 2)), (4, 64, 2), (6, 100, 3)]:
        sets = greedy_basic_design(t, m, r).sets
        assert overlap_sums(sets) == overlap_sums_oracle(sets)


def test_overlap_sums_equal_sets_closed_form():
    # m equal t-sets: each earlier set overlaps in t, so sums[i] = i·2^t;
    # t·m(m−1)/2 pair keys, counted in bounded chunks
    sets = [tuple(range(1000, 1064))] * 512
    assert overlap_sums(sets) == tuple(i << 64 for i in range(512))


def test_greedy_budget_sum_matches_kernel():
    # the greedy's own budget check reports its exact sum when it fails:
    # with the budget one below a set's kernel sum, the first set over it
    # must fail with exactly the kernel's value
    from trevext.errors import ConstructionError
    from trevext.weak_design import _greedy_sets

    for t, m, d in [(3, 12, 9), (4, 24, 12), (5, 30, 20), (8, 20, 24)]:
        sets = _greedy_sets(t, m, d, Fraction(1 << t), 0)
        sums = overlap_sums(sets)
        assert sums == overlap_sums_oracle(sets)
        for i in range(1, m):
            budget = sums[i] - 1
            k = next(j for j, s in enumerate(sums) if s > budget)
            with pytest.raises(
                ConstructionError, match=rf"at set {k}: {sums[k]} > {budget}$"
            ):
                _greedy_sets(t, i + 1, d, Fraction(budget, i + 1), 0)


def test_verify_design_certificate():
    d = WeakDesign.from_sets(4, [(0, 1), (1, 2), (2, 3)])
    cert = verify_design(d, 2)
    assert cert.ok and cert.violating_index is None
    assert cert.r_certified == Fraction(1)
    bad = verify_design(d, Fraction(1, 2))
    assert not bad.ok and bad.violating_index == 1  # first set over budget


def test_greedy_t2_m3():
    d = greedy_basic_design(2, 3, 2)
    assert d.d == 6
    assert overlap_sums(d.sets) == (0, 1, 2)
    assert verify_design(d, 2).ok


def test_greedy_t3_m8():
    d = greedy_basic_design(3, 8, 2)
    assert d.d == 15
    cert = verify_design(d, 2)
    assert cert.ok
    assert d.r_certified == Fraction(5, 4)


def test_greedy_deterministic():
    a = greedy_basic_design(4, 16, 2)
    b = greedy_basic_design(4, 16, 2)
    assert a.sets == b.sets


def test_expected_overlap_weight_example():
    # one fixed set {1,2} in universe of size 4, new set picks 2 elements:
    # E[2^{overlap}] over uniform 2-subsets = 13/6
    assert _expected_weight_exact(4, 2, 2) == Fraction(13, 6)


def test_covered_element_costs_more_than_free():
    # the lemma behind free elements first: at elemental step `step`, picking
    # an element of an earlier set whose overlap is o (so t - o of its
    # elements are unchosen) raises the expected 2^overlap cost strictly
    # more than picking an element outside it, whenever one exists (d > t)
    for t in range(1, 9):
        for d in range(t + 1, 4 * t + 1):
            for step in range(t):
                n_remaining, picks = d - step - 1, t - step - 1
                for o in range(min(step, t - 1) + 1):
                    a = t - o
                    if a > n_remaining:
                        continue  # no element outside the earlier set is left
                    cost = (1 << (o + 1)) * _expected_weight_exact(
                        n_remaining, picks, a - 1
                    ) - (1 << o) * _expected_weight_exact(n_remaining, picks, a)
                    assert cost > 0, (t, d, step, o)


def _per_set_argmin(scores, d, t, step, chosen, fsets, overlaps):
    """Reference tie-break: each near-tie candidate's exact cost summed set
    by set over the earlier sets holding it."""
    e = int(np.argmin(scores))
    best = scores[e]
    near = np.flatnonzero(scores <= best + 1e-9 * (abs(best) + 1e-30))
    if len(near) == 1 or len(near) > 256:
        return e
    n_remaining, picks = d - step - 1, t - step - 1
    pset = frozenset(chosen)

    def exact_delta(cand):
        acc = Fraction(0)
        for j, fs in enumerate(fsets):
            if cand in fs:
                o = overlaps[j]
                acc += (1 << (o + 1)) * _expected_weight_exact(
                    n_remaining, picks, len(fs - pset) - 1
                ) - (1 << o) * _expected_weight_exact(n_remaining, picks, len(fs - pset))
        return acc

    return min((exact_delta(int(c)), int(c)) for c in near)[1]


def test_exact_tie_break_matches_per_set_oracle():
    rng = np.random.default_rng(2024)
    resolved = 0  # states whose exact winner is not the float argmin
    for _ in range(1000):
        t = int(rng.integers(2, 9))
        d = t * int(rng.integers(2, 5))
        prev = np.sort(
            np.array([rng.choice(d, t, replace=False) for _ in range(rng.integers(1, 40))]),
            axis=1,
        )
        step = int(rng.integers(1, t))
        chosen = rng.choice(d, step, replace=False).tolist()
        fsets = [frozenset(row) for row in prev.tolist()]
        overlaps = np.array([len(fs.intersection(chosen)) for fs in fsets])
        weights = np.repeat(_score_deltas(d, t, step)[overlaps], t)
        scores = np.bincount(prev.ravel(), weights, minlength=d)
        scores[chosen] = np.inf
        # pull a few candidates onto the float minimum, within the tolerance
        open_ = np.flatnonzero(np.isfinite(scores))
        pulled = rng.choice(open_, min(len(open_), int(rng.integers(2, 12))), replace=False)
        scores[pulled] = scores[open_].min() * (1 + rng.uniform(0, 1e-10, len(pulled)))
        want = _per_set_argmin(scores, d, t, step, chosen, fsets, overlaps.tolist())
        assert _argmin_with_exact_ties(scores, d, t, step, prev, overlaps) == want
        resolved += want != int(np.argmin(scores))
    assert resolved > 0


# serialize_design digests of the designs built before elements outside every
# earlier set were taken without scoring; existing design caches stay valid
PINNED = {
    ("block", 124, 256): "89922768d94ac383bd54b394353f55ba3163342392fed2a83a5dd67b2c41fd62",
    ("block", 3, 7): "10e6c5eaf92e6bea21060024bd1ad5c85bef16471322d9830aeed778f5825c11",
    ("block", 4, 16): "4fb063bbe13c5ba8b3e813d876a2348a4b8b0c4c5db958d0c8c8592e1d2c7a8b",
    ("block", 8, 64): "e1069955f5b1761c0e17fc2138d3d2907061008d58cbd20f017a2c3b9ddfea78",
    ("greedy", 3, 8, 2): "16b4a1e0808d4aceb505c2b518d633a6adb32c7cd218dcda40817baee61a0975",
    ("greedy", 4, 16, 2): "f1c4929ff5a13de0754344cc74a1e1e55c906cabf933de5be23208117bfd545a",
    ("greedy", 8, 64, Fraction(3, 2)):
        "3ba2d42a1bdb59af665ddaa205c0de59b2b1d1cc4a4fc6c4fbed91d23a281d77",
}


@pytest.mark.parametrize("shape", list(PINNED), ids=str)
def test_design_bytes_pinned(shape):
    build = block_design if shape[0] == "block" else greedy_basic_design
    design = build(*shape[1:])
    data = serialize_design(design)
    assert hashlib.sha256(data).hexdigest() == PINNED[shape]
    sums = overlap_sums_oracle(design.sets)
    assert overlap_sums(design.sets) == sums
    assert design.r_certified == Fraction(max(sums), design.m)


def test_ceil_div_ln_values():
    import math

    assert ceil_div_ln(2, 2) == math.ceil(2 / math.log(2))
    assert ceil_div_ln(16, 2) == math.ceil(16 / math.log(2))
    assert ceil_div_ln(3, Fraction(3, 2)) == math.ceil(3 / math.log(1.5))


def test_ceil_div_ln_matches_high_precision_oracle():
    import random

    from mpmath import mp, mpf

    rng = random.Random(2)
    rs = [Fraction(2), Fraction(3, 2), Fraction(1001, 1000), 1 + Fraction(1, 10**12),
          1 + Fraction(1, 2**40), Fraction(7), Fraction(10**9)]
    for _ in range(8):
        den = rng.randrange(1, 10**6)
        rs.append(Fraction(den + rng.randrange(1, 10**6), den))
    ts = [*range(1, 300), 10**3, 4096, 10**6, 10**9]
    with mp.workdps(120):
        for r in rs:
            ln_r = mp.log(mpf(r.numerator) / r.denominator)
            for t in ts:
                q = mpf(t) / ln_r
                assert abs(q - mp.nint(q)) > mpf(10) ** -100  # the oracle's ceiling is sure
                assert ceil_div_ln(t, r) == int(mp.ceil(q)), (t, r)
    for r in (1, Fraction(1, 2), Fraction(0)):
        with pytest.raises(ParameterError, match="r must be > 1"):
            ceil_div_ln(3, r)


def test_design_seed_length_guards():
    with pytest.raises(ParameterError, match="greedy design needs r > 1"):
        design_seed_length(4, 2, "greedy", Fraction(1))
    with pytest.raises(ParameterError, match="unknown design kind 'grid'"):
        design_seed_length(4, 2, "grid", Fraction(2))


def test_block_layout():
    assert block_layout(7) == (4, 2, 1)
    assert block_layout(1) == (1,)
    assert sum(block_layout(256)) == 256
    assert sum(block_layout(512)) == 512


def test_block_t4_m2():
    d = block_design(4, 2)
    assert d.d == 48  # two size-1 blocks of width t*ceil(t/ln 2)
    assert d.d <= block_design_length_bound(4, 2) == 72
    assert verify_design(d, 1).ok


def test_block_t3_m7():
    d = block_design(3, 7)
    assert d.r_certified == Fraction(6, 7)
    assert verify_design(d, 1).ok


@pytest.mark.parametrize("t,m", [(2, 1), (3, 8), (4, 16), (8, 8)])
def test_block_within_length_bound(t, m):
    d = block_design(t, m)
    assert d.d <= block_design_length_bound(t, m)
    assert verify_design(d, 1).ok


@pytest.mark.parametrize("m", [17, 25, 33, 100])
def test_block_certifies_m_off_the_powers_of_two(m):
    d = block_design(32, m)
    assert d.m == m and d.r_certified <= 1
    assert verify_design(d, 1).ok


def test_sets_disjoint_across_blocks():
    # block b owns [b·d_block, (b+1)·d_block): its sets lie there, and sets
    # of different blocks share no element
    for t, m in [(3, 7), (4, 16), (8, 64)]:
        d = block_design(t, m)
        d_block = t * ceil_div_ln(t, Fraction(2))
        owner = {}  # element -> the block whose set holds it
        first = 0
        for b, size in enumerate(block_layout(m)):
            for s in d.sets[first:first + size]:
                assert len(set(s)) == d.t
                assert all(b * d_block <= p < (b + 1) * d_block for p in s)
                for p in s:
                    assert owner.setdefault(p, b) == b
            first += size
        assert first == d.m and d.d == len(block_layout(m)) * d_block


def test_serialize_round_trip():
    d = greedy_basic_design(3, 8, 2)
    data = serialize_design(d)
    back = deserialize_design(data)
    assert back.sets == d.sets
    assert back.t == d.t and back.m == d.m and back.d == d.d
    assert back.r_certified == d.r_certified


def test_serialize_detects_corruption():
    d = greedy_basic_design(3, 8, 2)
    data = bytearray(serialize_design(d))
    data[-1] ^= 1  # flip a bit in the last stored index
    with pytest.raises((VerificationError, ParameterError)):
        deserialize_design(bytes(data))
    for cut in (0, 5, 20):  # shorter than the 36-byte header
        with pytest.raises(ParameterError, match="length mismatch"):
            deserialize_design(bytes(data[:cut]))


def _with_index(data, k, value):
    """A serialized design with its k-th stored index replaced."""
    out = bytearray(data)
    out[36 + 4 * k: 40 + 4 * k] = value.to_bytes(4, "little")
    return bytes(out)


def test_deserialize_rejects_corrupt_indices():
    d = block_design(4, 16)
    data = serialize_design(d)
    repeated = _with_index(data, 1, d.sets[0][0])  # set 0 holds its first index twice
    with pytest.raises(VerificationError, match="t distinct indices"):
        deserialize_design(repeated)
    for value in (d.d, 2**32 - 1):  # an index outside [0, d)
        with pytest.raises(VerificationError, match="outside universe"):
            deserialize_design(_with_index(data, 4 * d.t - 1, value))


def test_deserialize_equal_sets_certified_exactly():
    # a payload of m equal sets is consistent, so it loads, with the r its
    # overlaps give: max sum (m - 1)·2^t over m
    t, m = 16, 300
    head = serialize_design(WeakDesign.from_sets(t, [tuple(range(t))]))[:36]
    head = head[:8] + (t).to_bytes(4, "little") + (m).to_bytes(4, "little") + head[16:]
    body = b"".join(i.to_bytes(4, "little") for i in range(t)) * m
    with pytest.raises(VerificationError, match="does not match recomputation"):
        deserialize_design(head + body)
    r = Fraction((m - 1) << t, m)
    head = head[:20] + r.numerator.to_bytes(8, "little") + r.denominator.to_bytes(8, "little")
    assert deserialize_design(head + body).r_certified == r


def test_from_sets_validation():
    with pytest.raises(ParameterError):
        WeakDesign.from_sets(3, [(0, 1), (1, 3)])  # index out of range
    with pytest.raises(ParameterError):
        WeakDesign.from_sets(4, [(0, 0, 1)])  # repeated element
    with pytest.raises(ParameterError):
        WeakDesign.from_sets(4, [(0, 1), (2,)])  # inconsistent set size


def test_from_sets_validates_before_certifying(monkeypatch):
    import trevext.weak_design as wd

    def never(sets):
        raise AssertionError("a malformed family reached overlap_sums")

    monkeypatch.setattr(wd, "overlap_sums", never)
    for d, sets in ((3, [(0, 1), (1, 3)]), (4, [(0, 0, 1)]), (4, [(0, 1), (2,)])):
        with pytest.raises(ParameterError):
            WeakDesign.from_sets(d, sets)
