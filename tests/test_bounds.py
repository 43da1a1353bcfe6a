"""Bound calculators: example values, exact rounding, grid invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qlrc.bounds import (
    decode_radius_fqtb,
    decode_radius_qtb,
    entropy_q,
    fqtb_distance_lower,
    fqtb_distance_simple,
    fqtb_eps,
    fqtb_simple_below_lower,
    frs_e_prime,
    gv_ell,
    partition_cap_distance,
    qtb_distance_lower,
    qtb_distance_lower_ceil,
    qtb_distance_upper,
    singleton_classical,
    singleton_qlrc_general,
    singleton_qlrc_partition,
    singleton_quantum,
    surd_ceil,
    surd_floor,
    uncertainty_holds,
    verify_appendix_inequalities,
)
from qlrc.errors import CapExceeded, DomainError, HypothesisViolated


def test_singleton_examples():
    assert singleton_quantum(12, 2) == 6
    assert singleton_quantum(8, 8) == 1
    assert singleton_classical(12, 6) == 7
    with pytest.raises(DomainError):
        singleton_quantum(5, 0)


def test_singleton_qlrc_general_examples():
    assert singleton_qlrc_general(12, 3, 3) == 4
    n, r = 15, 3
    assert singleton_qlrc_general(n, 1, r) == n - n // r - (n - n // r) // r
    # consistency with a constructed code
    assert 2 <= singleton_qlrc_general(12, 3, 3)


def test_singleton_qlrc_partition_examples():
    assert singleton_qlrc_partition(6, 2, 3) == 2
    assert singleton_qlrc_partition(12, 3, 3) == 2
    assert singleton_qlrc_partition(12, 1, 3) == 4  # (1 - 2/r) n
    assert partition_cap_distance(12, 2, 3) == 4
    assert partition_cap_distance(6, 2, 3) == 2


def test_qtb_distance_examples():
    assert abs(qtb_distance_lower(7, 3, 4) - 1.3944) < 1e-3
    assert abs(qtb_distance_lower(13, 3, 8) - 2.2540) < 1e-3
    assert qtb_distance_lower_ceil(7, 3, 4) == 2
    assert qtb_distance_lower_ceil(13, 3, 8) == 3
    assert qtb_distance_upper(13, 3, 8) == Fraction(2, 3) * 5 + 5
    with pytest.raises(HypothesisViolated):
        qtb_distance_lower(31, 6, 16)  # composite locality refused


def test_decode_radius_examples():
    assert decode_radius_qtb(127, 3, 80) == 10
    assert decode_radius_qtb(13, 3, 8) == 0
    assert decode_radius_qtb(13, 3, 12) <= 0  # ell = q - 1 degenerates


def test_fqtb_eps_and_distance_examples():
    eps = fqtb_eps(13, 3, 8, 2)
    assert eps == Fraction(10, 36)
    assert fqtb_distance_lower(13, 3, 8, 2) == Fraction(5, 6)
    # attained at m = 3: evaluate the inner min at each m
    lam = 1 - Fraction(7, 12)
    branches = [min(lam * Fraction(m - 1, 3), Fraction(1, m) + Fraction(m - 1, 2))
                for m in (1, 2, 3)]
    assert branches == [0, Fraction(5, 36), Fraction(10, 36)]
    # boundary: ell - 1 = q - 1 makes the first branch vanish for all m
    assert fqtb_eps(13, 3, 12, 2) + 0 >= 0
    lam0 = 1 - Fraction(11, 12)
    assert max(min(lam0 * Fraction(m - 1, 3), Fraction(1, m) + Fraction(m - 1, 2))
               for m in (1, 2, 3)) == fqtb_eps(13, 3, 12, 2)


def test_fqtb_simple_form_requires_hypothesis():
    with pytest.raises(HypothesisViolated):
        fqtb_distance_simple(13, 3, 8, 2)  # s < 2 r^2


def test_fqtb_simple_below_lower_on_grid():
    # wherever s >= 2 r^2, the closed simple form never exceeds the max-min
    checked = 0
    for q, r, s in ((109, 3, 18), (109, 3, 36), (251, 5, 50), (1373, 7, 98)):
        for ell in ((q + 1) // 2, (q + 1) // 2 + (q - 1) // 4, q - 2):
            assert fqtb_simple_below_lower(q, r, ell, s), (q, r, ell, s)
            assert fqtb_distance_simple(q, r, ell, s) <= float(
                fqtb_distance_lower(q, r, ell, s)) + 1e-9
            checked += 1
    assert checked >= 12


def test_decode_radius_fqtb_uses_both_caps():
    val = decode_radius_fqtb(127, 3, 64, 2)
    d = fqtb_distance_lower(127, 3, 64, 2)
    assert val == min(math.floor(d / 2) - 1, math.floor(frs_e_prime(127, 3, 64, 2)))


def test_entropy_examples():
    assert entropy_q(0, 5) == 0.0
    assert entropy_q(0.5, 2) == 1.0
    assert abs(entropy_q(0.5, 13) - 0.7546) < 1e-3
    with pytest.raises(DomainError):
        entropy_q(1.5, 4)
    assert gv_ell(0.25, 0.1, 20, 16) == math.ceil((entropy_q(0.25, 16) + 0.1) * 20)


def test_uncertainty_examples():
    assert uncertainty_holds(13, 3)
    assert uncertainty_holds(7, 3)
    assert uncertainty_holds(7, 2)  # entries +-1; 2x2 determinant is -2
    assert uncertainty_holds(127, 3)
    with pytest.raises(HypothesisViolated):
        uncertainty_holds(13, 4)
    with pytest.raises(CapExceeded):
        uncertainty_holds(2 * 59 + 1, 59)  # locality beyond the minor cap


def test_uncertainty_vandermonde_determinant_value():
    # (3-1)(9-1)(9-3) = 96 = 5 mod 13: nonzero, as the example computes
    assert (3 - 1) * (9 - 1) * (9 - 3) % 13 == 5


def test_surd_rounding_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 9)))
        b = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 9)))
        rad = Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 9)))
        val = float(a) + float(b) * math.sqrt(float(rad))
        fl = surd_floor(a, b, rad)
        assert fl <= val + 1e-9
        assert val - 1 < fl + 1e-9
        ce = surd_ceil(a, b, rad)
        assert ce - 1 < val + 1e-9
        assert val <= ce + 1e-9
    # b*sqrt(rad) = a - floor > 0: the ceiling of 1/4 + sqrt(1/16) = 1/2 is 1
    assert surd_ceil(Fraction(1, 4), Fraction(1), Fraction(1, 16)) == 1


def test_two_e_below_certified_distance_on_grid():
    # 2 * decode_radius <= ceil(distance lower bound) - 1 wherever defined
    grid = []
    for q, r in ((13, 3), (31, 3), (61, 3), (127, 3), (31, 5), (61, 5), (127, 7)):
        if (q - 1) % r:
            continue
        for ell in range((q + 1) // 2, q):
            grid.append((q, r, ell))
    assert len(grid) >= 200
    for q, r, ell in grid:
        e = decode_radius_qtb(q, r, ell)
        d = qtb_distance_lower_ceil(q, r, ell)
        if e > 0:
            assert 2 * e <= d - 1, (q, r, ell, e, d)


def test_lower_below_upper_on_grid():
    for q, r in ((13, 3), (31, 3), (61, 3), (127, 3), (31, 5), (61, 5)):
        for ell in range((q + 1) // 2, q):
            assert qtb_distance_lower(q, r, ell) <= float(qtb_distance_upper(q, r, ell)) + 1e-9


def test_appendix_inequalities_zero_violations():
    rep = verify_appendix_inequalities(100)
    assert rep.ok
    assert rep.checked["loss_term"] >= 1000
    assert rep.checked["johnson_halving"] >= 10**4
    assert rep.checked["folded_vs_johnson"] >= 10**4
    with pytest.raises(DomainError):
        verify_appendix_inequalities(10)
