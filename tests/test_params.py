import json
import math
from fractions import Fraction

import pytest

from trevext.errors import ParameterError
from trevext.params import (
    PINNED_CONSTANTS,
    REPORT_SCHEMA_VERSION,
    params_report_json,
    params_report_machine,
    params_report_text,
    preset,
    rt_upper_bound,
    smooth_budget,
    trevisan_params,
)
from trevext.weak_design import block_design, greedy_basic_design, grid_rows


def test_rt_bound_examples():
    b = rt_upper_bound(20, Fraction(1, 16))
    assert b.m_max == 12 and not b.infeasible
    b = rt_upper_bound(10, Fraction(1, 2))
    assert b.m_max == 8
    # additive constant is pinned to zero
    assert PINNED_CONSTANTS["rt_additive"] == 0


def test_rt_bound_infeasible_clamps():
    b = rt_upper_bound(2, Fraction(1, 8))
    assert b.m_max == 0 and b.infeasible


def test_rt_bound_rejects_negative_k():
    with pytest.raises(ParameterError):
        rt_upper_bound(-1, Fraction(1, 2))


def test_smooth_budget():
    assert smooth_budget(Fraction(1, 1024), Fraction(1, 4096)) == Fraction(3, 2048)
    assert smooth_budget(0, 0) == 0
    with pytest.raises(ParameterError):
        smooth_budget(Fraction(-1, 2), 0)


def test_uniform_seed_threshold_accounting():
    # k = m + 8 log2 m + 8 log2(1/eps) + 8 log2 3, exactly
    for n, m, le in [(1024, 64, 10), (1 << 16, 256, 3), (256, 1, 4)]:
        p = preset("cor1", n, Fraction(1, 1 << le), m)
        expected = m + 8 * math.log2(m) + 8 * le + PINNED_CONSTANTS["preset_cor1_additive"]
        assert p.k == pytest.approx(expected, rel=1e-12)


def test_uniform_seed_error_budget_split():
    p = preset("cor1", 1024, Fraction(1, 8), 4)
    assert p.eps_c == (Fraction(1, 8) / 12) ** 2
    assert p.delta == p.eps_c / 2
    assert p.t == 2 * p.s_bits
    # advertised error recombines exactly: 3m * sqrt(eps_c) = eps
    assert 3 * p.m * Fraction(1, 96) == Fraction(1, 8)


@pytest.mark.parametrize("n,eps,m", [(16, Fraction(1, 2), 2), (64, Fraction(1, 4), 3),
                                     (256, Fraction(1, 8), 7)])
def test_planned_seed_length_is_built_design_length(n, eps, m):
    p = preset("cor1", n, eps, m)
    assert p.d == block_design(p.t, p.m).d
    g = trevisan_params(n, eps, 2, design_kind="greedy", r=Fraction(2))
    assert g.d == greedy_basic_design(g.t, 2, 2).d


def test_greedy_design_kind():
    g = trevisan_params(1024, Fraction(1, 1024), 64, design_kind="greedy", r=Fraction(2))
    assert g.d == g.t * min(64, grid_rows(g.t, 2))
    assert g.r == 2
    # the overlap parameter enters the threshold linearly
    b = trevisan_params(1024, Fraction(1, 1024), 64)
    assert g.k == pytest.approx(b.k + 64, rel=1e-12)
    with pytest.raises(ParameterError):
        trevisan_params(64, Fraction(1, 4), 2, design_kind="greedy", r=Fraction(1))


def test_regression_pin_mid_size():
    p = preset("cor1", 1024, Fraction(1, 1024), 64)
    assert (p.s_bits, p.t, p.d) == (76, 152, 9728)
    assert p.eps_c == Fraction(1, 38654705664)
    assert p.k == pytest.approx(204.6797000057692, rel=1e-12)
    assert not p.constructible  # symbol size beyond the field table
    assert p.entropy_loss == pytest.approx(p.k - 64)
    assert p.rt_slack == pytest.approx(p.entropy_loss - 20)


def test_constructible_flag_small_instance():
    p = preset("cor1", 1 << 16, Fraction(1, 8), 256)
    assert p.constructible and p.s_bits == 62 and p.t == 124


def test_single_output_bit():
    p = preset("cor1", 64, Fraction(1, 4), 1)
    assert p.m == 1 and p.d == p.t  # one block of one row
    assert p.eps_c == Fraction(1, 144)


def test_parameter_guards():
    with pytest.raises(ParameterError):
        trevisan_params(64, Fraction(0), 4)
    with pytest.raises(ParameterError):
        trevisan_params(64, Fraction(2), 4)
    with pytest.raises(ParameterError):
        trevisan_params(64, Fraction(1, 4), 0)
    with pytest.raises(ParameterError):
        preset("nope", 64, Fraction(1, 4), 4)
    # the weak-seed preset planned only a uniform seed it could not build
    with pytest.raises(ParameterError, match="unknown preset 'cor4'"):
        preset("cor4", 1024, Fraction(1, 1024), 64)
    # the two-stage preset only relabelled cor1's plan: it planned no stage 2
    with pytest.raises(ParameterError, match="unknown preset 'cor2'"):
        preset("cor2", 1024, Fraction(1, 1024), 64)


def test_planned_k_above_n_is_noted():
    # a 16-bit block holds at most 16 bits of min-entropy
    p = preset("cor1", 16, Fraction(1, 2), 2)
    assert p.k > p.n == 16
    note = "required min-entropy k = 30.68 exceeds the block length n = 16"
    assert any(n.startswith(note) for n in p.notes)
    assert f"note: {note}" in params_report_text(p)
    assert any(n.startswith(note) for n in json.loads(params_report_json(p))["notes"])
    fits = preset("cor1", 1 << 16, Fraction(1, 8), 256)
    assert fits.k <= fits.n
    assert not any("exceeds the block length" in n for n in fits.notes)


def test_local_preset_unsupported():
    # the local-extractor preset was never built; it is an unknown name
    with pytest.raises(ParameterError, match="unknown preset 'cor3'"):
        preset("cor3", 1024, Fraction(1, 1024), 64)


def test_determinism():
    a = preset("cor1", 4096, Fraction(1, 4096), 128)
    b = preset("cor1", 4096, Fraction(1, 4096), 128)
    assert a == b
    assert params_report_json(a) == params_report_json(b)


def test_machine_report_schema():
    p = preset("cor1", 1024, Fraction(1, 1024), 64)
    doc = params_report_machine(p)
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    assert doc["eps"] == [1, 1024]
    assert doc["pinned_constants"] == PINNED_CONSTANTS
    round_tripped = json.loads(params_report_json(p))
    assert round_tripped["d"] == p.d and round_tripped["k"] == p.k


def test_text_report_mentions_key_fields():
    p = preset("cor1", 1024, Fraction(1, 1024), 64)
    text = params_report_text(p)
    assert "rt_slack" in text and "note:" in text
    assert f"d {' ' * 15}= {p.d}".replace(" ", "") in text.replace(" ", "")
