import math
import random
from fractions import Fraction

import pytest

from trevext.entropy import (
    Distribution,
    JointDistribution,
    flat_source,
    h0_index,
    hmin,
    hmin_cond,
    hmin_indices,
    hmin_smooth_classical,
    marginalize,
    pguess_cond,
    smooth_clip_level,
    variational_distance,
)
from trevext.errors import ParameterError


def test_hmin_uniform():
    for n in (1, 3, 6):
        assert hmin(flat_source(range(1 << n))) == n


def test_hmin_point_mass():
    assert hmin(Distribution({"x": Fraction(1)})) == 0


def test_hmin_spike_plus_spread():
    # n = 8: one symbol with mass 1/8, the rest spread over 255 symbols
    n = 8
    rest = (1 - Fraction(1, n)) / 255
    mass = {0: Fraction(1, n)}
    mass.update({i: rest for i in range(1, 256)})
    P = Distribution(mass)
    assert hmin(P) == pytest.approx(math.log2(n), abs=1e-12)  # = 3


def test_smooth_removes_spike():
    # same source: removing the 1/n spike by eps = 1/n smoothing brings the
    # min-entropy back to nearly n
    n = 8
    rest = (1 - Fraction(1, n)) / 255
    mass = {0: Fraction(1, n)}
    mass.update({i: rest for i in range(1, 256)})
    P = Distribution(mass)
    smoothed = hmin_smooth_classical(P, Fraction(1, n))
    assert smoothed > n - 0.3
    assert smoothed >= hmin(P)


def test_smooth_examples():
    P = Distribution({0: Fraction(3, 4), 1: Fraction(1, 4)})
    assert smooth_clip_level(P, Fraction(1, 4)) == Fraction(1, 2)
    assert hmin_smooth_classical(P, Fraction(1, 4)) == 1
    assert hmin_smooth_classical(P, 0) == hmin(P)
    with pytest.raises(ParameterError):
        hmin_smooth_classical(P, 1)


def test_smooth_monotone_in_eps():
    rng = random.Random(0)
    for _ in range(50):
        w = [rng.randint(1, 10) for _ in range(rng.randint(2, 9))]
        tot = sum(w)
        P = Distribution({i: Fraction(v, tot) for i, v in enumerate(w)})
        values = [
            hmin_smooth_classical(P, Fraction(e, 32)) for e in range(0, 16)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == hmin(P)


def test_hmin_cond_independent():
    # X independent of E: conditioning changes nothing
    J = JointDistribution(
        {(x, e): Fraction(1, 8) * Fraction(1, 2) for x in range(8) for e in "ab"}
    )
    assert hmin_cond(J) == pytest.approx(3.0)


def test_hmin_cond_copy():
    J = JointDistribution({(x, x): Fraction(1, 8) for x in range(8)})
    assert hmin_cond(J) == 0


def test_hmin_cond_column_maxima():
    J = JointDistribution(
        {
            (0, "l"): Fraction(1, 4),
            (1, "l"): Fraction(1, 4),
            (0, "r"): Fraction(3, 8),
            (1, "r"): Fraction(1, 8),
        }
    )
    assert pguess_cond(J) == Fraction(1, 4) + Fraction(3, 8)
    assert hmin_cond(J) == pytest.approx(-math.log2(5 / 8))


def test_guessing_duality_micro():
    # 2^{-hmin_cond} equals the best exhaustive guessing strategy
    rng = random.Random(5)
    for _ in range(50):
        xs, es = range(4), range(3)
        w = {(x, e): rng.randint(0, 5) for x in xs for e in es}
        tot = sum(w.values())
        if tot == 0:
            continue
        J = JointDistribution(
            {k: Fraction(v, tot) for k, v in w.items() if v}
        )
        best = Fraction(0)
        for strategy in [(a, b, c) for a in xs for b in xs for c in xs]:
            p = sum(
                (J.mass.get((strategy[e], e), Fraction(0)) for e in es), Fraction(0)
            )
            best = max(best, p)
        assert pguess_cond(J) == best


def test_variational_examples():
    P = Distribution({0: Fraction(1, 2), 1: Fraction(1, 2)})
    Q = Distribution({0: Fraction(3, 4), 1: Fraction(1, 4)})
    assert variational_distance(P, P) == 0
    assert variational_distance(P, Q) == Fraction(1, 4)
    disjoint = Distribution({2: Fraction(1)})
    assert variational_distance(P, disjoint) == 1


def test_flat_source():
    assert hmin(flat_source(range(16))) == 4
    assert hmin(flat_source(["only"])) == 0
    with pytest.raises(ParameterError):
        flat_source([])


def test_marginal_consistency():
    J = JointDistribution(
        {(0, "a"): Fraction(1, 3), (1, "a"): Fraction(1, 3), (1, "b"): Fraction(1, 3)}
    )
    assert J.marginal_x().mass == {0: Fraction(1, 3), 1: Fraction(2, 3)}
    assert J.marginal_e().mass == {"a": Fraction(2, 3), "b": Fraction(1, 3)}


def test_joint_is_a_distribution():
    # a joint is validated, totalled and indexed as any distribution
    J = JointDistribution({(0, "a"): Fraction(1, 2), (1, "a"): 0, (1, "b"): Fraction(1, 4)})
    assert isinstance(J, Distribution)
    assert J.mass == {(0, "a"): Fraction(1, 2), (1, "b"): Fraction(1, 4)}
    assert J.total == Fraction(3, 4) and not J.is_normalized
    assert J[(1, "b")] == Fraction(1, 4) and J[(1, "a")] == 0
    with pytest.raises(ParameterError, match="negative"):
        JointDistribution({(0, "a"): Fraction(-1, 2)})
    with pytest.raises(ParameterError, match="exceeds 1"):
        JointDistribution({(0, "a"): Fraction(2, 3), (0, "b"): Fraction(2, 3)})


def test_joint_rejects_keys_that_are_not_pairs():
    # every joint routine reads its keys as (x, e); any other key is refused
    # when the joint is built, even at zero mass
    for key in (0, (0,), (0, "a", "b"), "ab"):
        with pytest.raises(ParameterError, match="not an \\(x, e\\) pair"):
            JointDistribution({key: Fraction(1, 2), (1, "a"): Fraction(1, 2)})
    with pytest.raises(ParameterError, match="not an \\(x, e\\) pair"):
        JointDistribution({(0, "a"): Fraction(1), (0, "a", "b"): 0})


def _random_triple(rng, sizes=(3, 3, 3)):
    w = {
        (a, b, c): rng.randint(0, 4)
        for a in range(sizes[0])
        for b in range(sizes[1])
        for c in range(sizes[2])
    }
    tot = sum(w.values())
    if tot == 0:
        w[(0, 0, 0)] = tot = 1
    return {k: Fraction(v, tot) for k, v in w.items() if v}


def test_chain_rule_side_information():
    # Hmin(A|BZ) >= Hmin(A|B) - H0(Z)
    rng = random.Random(11)
    for _ in range(300):
        j = _random_triple(rng)
        lhs = hmin_indices(j, (0,), (1, 2))
        rhs = hmin_indices(j, (0,), (1,)) - h0_index(j, 2)
        assert lhs >= rhs - 1e-9


def test_chain_rule_drop_from_target():
    # Hmin(A|BC) >= Hmin(AC|B) - H0(C)
    rng = random.Random(12)
    for _ in range(300):
        j = _random_triple(rng)
        lhs = hmin_indices(j, (0,), (1, 2))
        rhs = hmin_indices(j, (0, 2), (1,)) - h0_index(j, 2)
        assert lhs >= rhs - 1e-9


def test_chain_rule_enlarge_target():
    # Hmin(AZ|B) >= Hmin(A|B)
    rng = random.Random(13)
    for _ in range(300):
        j = _random_triple(rng)
        assert hmin_indices(j, (0, 2), (1,)) >= hmin_indices(j, (0,), (1,)) - 1e-9


def test_marginalize_helper():
    j = {(0, 1, 0): Fraction(1, 2), (1, 1, 0): Fraction(1, 2)}
    assert marginalize(j, (1,)) == {(1,): Fraction(1)}
    assert h0_index(j, 0) == 1


def test_subnormalized_guard():
    with pytest.raises(ParameterError):
        hmin(Distribution({0: Fraction(1, 2)}))
    with pytest.raises(ParameterError):
        Distribution({0: Fraction(3, 2)})
    with pytest.raises(ParameterError):
        Distribution({0: Fraction(-1, 2), 1: Fraction(3, 2)})
