"""Support sets, evaluation, and modular reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc.errors import BadDegree, BadLocality, DegreeTooSmall, ZeroShift
from qlrc.gf import coset, field_from_order, field_new, matmul, rank
from qlrc.polycode import (
    coset_index_groups,
    element_powers,
    evaluate_values,
    mod_reduce,
    powers,
    support_piecewise,
    support_qtb,
    support_qtb_dual,
    support_tb,
)


def brute_tb(q, r, ell):
    return tuple(i for i in range(ell) if i % r != r - 1)


@pytest.mark.parametrize("q,r,ell,expected", [
    (13, 3, 8, (0, 1, 3, 4, 6, 7)),
    (7, 3, 4, (0, 1, 3)),
])
def test_support_tb_examples(q, r, ell, expected):
    assert support_tb(q, r, ell) == expected == brute_tb(q, r, ell)


def test_support_tb_degree_one():
    assert support_tb(13, 3, 1) == (0,)


def test_support_tb_size_formula():
    for q, r in ((13, 3), (127, 3), (16, 5), (31, 5)):
        for ell in range(1, q):
            assert len(support_tb(q, r, ell)) == ell - ell // r


@pytest.mark.parametrize("q,r,ell,expected", [
    (13, 3, 8, (0, 1, 3, 4, 6, 7, 10)),
    (7, 3, 4, (0, 1, 3, 4)),
])
def test_support_qtb_examples(q, r, ell, expected):
    assert support_qtb(q, r, ell) == expected


def test_support_qtb_127_by_direct_enumeration():
    s = support_qtb(127, 3, 80)
    brute = set(brute_tb(127, 3, 80)) | {i for i in range(126) if i % 3 == 1}
    assert set(s) == brute
    assert len(s) == 80 - 80 // 3 + len({i for i in range(126) if i % 3 == 1} - set(range(80)))


@pytest.mark.parametrize("q,r,ell,expected", [
    (13, 3, 8, (1, 3, 4, 7, 10)),
    (7, 3, 4, (1, 4)),
])
def test_support_qtb_dual_examples(q, r, ell, expected):
    assert support_qtb_dual(q, r, ell) == expected


@pytest.mark.parametrize("q,r", [(13, 3), (7, 3), (127, 3), (31, 3), (31, 5), (16, 3), (16, 5)])
def test_dual_support_complement_and_containment(q, r):
    for ell in range((q + 1) // 2, q):
        s, t = support_qtb(q, r, ell), support_qtb_dual(q, r, ell)
        assert len(s) + len(t) == q - 1
        assert set(t) <= set(s)


def test_qtb_requires_large_ell():
    with pytest.raises(DegreeTooSmall):
        support_qtb(13, 3, 6)
    with pytest.raises(BadLocality):
        support_qtb(13, 2, 8)
    with pytest.raises(BadDegree):
        support_tb(13, 3, 13)


def test_evaluate_constant_and_linear():
    f13 = field_new(13)
    assert evaluate_values(f13, [1]).tolist() == [1] * 12
    f7 = field_new(7)
    assert evaluate_values(f7, [0, 1]).tolist() == [1, 3, 2, 6, 4, 5]


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
def test_evaluate_injective_via_full_rank(q):
    # the (q-1)x(q-1) evaluation matrix of all monomials has full rank
    ctx = field_from_order(q)
    rows = np.zeros((q - 1, q - 1), dtype=np.int64)
    for i in range(q - 1):
        mono = np.zeros(i + 1, dtype=np.int64)
        mono[i] = 1
        rows[i] = evaluate_values(ctx, mono)
    assert rank(ctx, rows) == q - 1


@pytest.mark.parametrize("p,m", [(13, 1), (5, 2)])
def test_powers_and_evaluate_values_match_horner(p, m):
    ctx = field_new(p, m)
    n = ctx.q - 1
    units = ctx.units().tolist()

    def horner(coeffs):
        out = []
        for x in units:
            acc = 0
            for c in reversed(list(coeffs)):
                acc = ctx.add(ctx.mul(acc, x), int(c))
            out.append(acc)
        return out

    exps = np.arange(-n, 2 * n)  # x^e = x^(e mod n) on GF(q)*
    table = powers(ctx, exps)
    for e, row in zip(exps.tolist(), table.tolist()):
        assert row == horner([0] * (e % n) + [1]), e
    rng = np.random.default_rng(3)
    batch = rng.integers(0, ctx.q, size=(6, n + 3))
    got = evaluate_values(ctx, batch)
    assert got.shape == (6, n)
    for row, coeffs in zip(got.tolist(), batch):
        assert row == horner(coeffs)
        assert evaluate_values(ctx, coeffs).tolist() == row


def test_evaluate_injective_exhaustive_tiny():
    ctx = field_new(5)
    seen = set()
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    w = tuple(evaluate_values(ctx, np.array([a, b, c, d])).tolist())
                    assert w not in seen
                    seen.add(w)


def test_mod_reduce_monomial_example():
    # X^(r+1) = X * X^r = c X modulo X^r - c
    f13 = field_new(13)
    r = 3
    for c in (1, 5, 8):
        g = mod_reduce(f13, [0, 0, 0, 0, 1], r, c)  # X^4
        assert g.tolist() == [0, c, 0]


def test_mod_reduce_already_reduced():
    f13 = field_new(13)
    g = mod_reduce(f13, [1, 0, 1], 3, 8)  # X^2 + 1, degree < r
    assert g.tolist() == [1, 0, 1]


def _at(ctx, coeffs, x):
    """The polynomial ``coeffs`` evaluated at the element x."""
    return int(matmul(ctx, coeffs, element_powers(ctx, x, len(coeffs))))


@pytest.mark.parametrize("q", [13, 16, 25])
def test_mod_reduce_pointwise_oracle(q):
    ctx = field_from_order(q)
    rng = np.random.default_rng(4)
    for _ in range(40):
        coeffs = rng.integers(0, q, size=int(rng.integers(1, q - 1)))
        x0 = int(rng.integers(1, q))
        c = ctx.pow(x0, 3)
        g = mod_reduce(ctx, coeffs, 3, c)
        assert g.shape == (3,)  # degree < 3
        for x in coset(ctx, 3, x0):
            assert _at(ctx, coeffs, x) == _at(ctx, g, x)
    with pytest.raises(ZeroShift):
        mod_reduce(ctx, [1], 3, 0)


@pytest.mark.parametrize("q,r", [(13, 3), (7, 3), (16, 5)])
def test_piecewise_supports_evaluate_to_per_coset_linear_maps(q, r):
    # any polynomial supported on 1 + rZ has constant slope on each coset
    ctx = field_from_order(q)
    supp = support_piecewise(q, r)
    rng = np.random.default_rng(1)
    units = ctx.units()
    for _ in range(20):
        coeffs = np.zeros(q - 1, dtype=np.int64)
        for i in supp:
            coeffs[i] = rng.integers(0, q)
        vals = evaluate_values(ctx, coeffs)
        for group in coset_index_groups(q, r):
            slopes = {ctx.div(int(vals[j]), int(units[j])) for j in group.tolist()}
            assert len(slopes) == 1


def test_coset_index_groups_cover_and_stride():
    groups = coset_index_groups(13, 3)
    assert groups.shape == (4, 3)
    assert sorted(groups.reshape(-1).tolist()) == list(range(12))
    f13 = field_new(13)
    units = f13.units()
    for g in groups:
        elems = {int(units[j]) for j in g.tolist()}
        assert elems == set(coset(f13, 3, int(units[g[0]])))
