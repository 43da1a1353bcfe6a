"""Quantum Tamo-Barg constructors and structural predicates."""

import numpy as np
import pytest

from qlrc.classical import min_weight_excluding
from qlrc.errors import BadLocality, DegreeTooSmall, FoldNotDividing, SiblingErased
from qlrc.gf import field_new
from qlrc.polycode import evaluate_values
from qlrc.qtb import (
    FqtbCode,
    fqtb_new,
    fqtb_recover_block,
    qtb_dim,
    qtb_dim_window,
    qtb_new,
)
from qlrc.qtbdec import dist_to_piecewise

F13 = field_new(13)


@pytest.mark.parametrize("q,r,ell,n,k", [
    (13, 3, 8, 12, 2),
    (7, 3, 4, 6, 2),
    (127, 3, 80, 126, 12),
])
def test_qtb_new_examples(q, r, ell, n, k):
    code = qtb_new(q, r, ell)
    assert (code.n, code.k) == (n, k)


@pytest.mark.parametrize("q,r,ell,k", [(13, 3, 8, 2), (7, 3, 4, 2), (127, 3, 80, 12)])
def test_qtb_dim_examples(q, r, ell, k):
    assert qtb_dim(q, r, ell) == k


def test_qtb_dim_window_on_grid():
    # |k - (2l-q)(1-2/r)| <= 2 across a grid (provable for r in {3, 5})
    for q, r in ((13, 3), (31, 3), (31, 5), (127, 3), (61, 5)):
        if (q - 1) % r:
            continue
        for ell in range((q + 1) // 2, q):
            k, approx, eps = qtb_dim_window(q, r, ell)
            assert -2 <= eps <= 2, (q, r, ell, eps)


def test_qtb_dim_window_counterexample_at_larger_locality():
    # the stated window is violated from r = 7 on: the exact dimension sits
    # 15/7 above the linear approximation here (the exact formula stands)
    k, approx, eps = qtb_dim_window(127, 7, 69)
    assert k == 10
    assert eps > 2


def test_qtb_parameter_rejections():
    with pytest.raises(DegreeTooSmall):
        qtb_new(13, 3, 6)
    with pytest.raises(BadLocality):
        qtb_new(13, 4, 8)  # 4 does not divide 12... it does; composite
    with pytest.raises(BadLocality):
        qtb_new(31, 6, 16)  # composite r refused without the flag


def test_qtb_composite_locality_flag():
    code = qtb_new(31, 6, 16, allow_composite_locality=True)
    assert not code.prime_locality
    from qlrc.bounds import qtb_distance_lower
    from qlrc.errors import HypothesisViolated

    with pytest.raises(HypothesisViolated):
        qtb_distance_lower(31, 6, 16)


def test_bperp_rows_are_dual_checks():
    code = qtb_new(13, 3, 8)
    for row in code.bperp.basis:
        assert code.css.dual_x_space.contains(row)
        assert code.css.dual_z_space.contains(row)


def test_recovery_sets_partition_positions():
    code = qtb_new(13, 3, 8)
    groups = [rs.members for rs in code.css.recovery]
    assert all(len(g) == 3 for g in groups)
    flat = sorted(p for rs in code.css.recovery for p in [rs.position])
    assert flat == list(range(12))
    distinct = {g for g in groups}
    seen = set()
    for g in distinct:
        assert not (seen & set(g))
        seen |= set(g)
    assert seen == set(range(12))


@pytest.mark.parametrize("q,r,ell,s,blocks", [(13, 3, 8, 2, 6), (13, 3, 8, 4, 3)])
def test_fqtb_new_examples(q, r, ell, s, blocks):
    code = fqtb_new(q, r, ell, s)
    assert code.block_count == blocks
    assert code.k == qtb_dim(q, r, ell)


def test_fqtb_fold_must_divide():
    with pytest.raises(FoldNotDividing):
        fqtb_new(13, 3, 8, 3)


def test_folded_distance_sandwich_on_small_code():
    # folded brute distance between ceil(d/s) and d
    code = fqtb_new(7, 3, 4, 2)
    css = code.base.css
    from qlrc.classical import LinearCode

    sub = LinearCode(css.ctx, css.hx)
    d, _ = min_weight_excluding(css.cz, sub)
    d_folded, _ = min_weight_excluding(css.cz, sub, fold_s=2)
    assert (d + 1) // 2 <= d_folded <= d


def _is_piecewise(w):
    """Whether w is beta*x on every coset x*Omega_3: distance 0 to that space."""
    return dist_to_piecewise(F13, w, 3)[0] == 0


def test_is_piecewise_examples():
    assert _is_piecewise(evaluate_values(F13, [0, 1]))
    x4 = np.zeros(5, dtype=np.int64)
    x4[4] = 1
    assert _is_piecewise(evaluate_values(F13, x4))
    assert not _is_piecewise(evaluate_values(F13, [0, 0, 1]))


def test_is_piecewise_matches_membership():
    code = qtb_new(13, 3, 8)
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.integers(0, 13, size=12)
        assert _is_piecewise(w) == code.bperp.contains(w)
    piecewise = code.bperp.random_codeword(rng)
    assert _is_piecewise(piecewise)
    for i in range(12):  # piecewise on every coset but the one holding position i
        w = piecewise.copy()
        w[i] = (w[i] + 1) % 13
        assert not _is_piecewise(w)


def test_fqtb_recover_block_all_ones():
    code = fqtb_new(13, 3, 8, 2)
    ones = np.ones((6, 2), dtype=np.int64)
    for b in range(6):
        rec = fqtb_recover_block(code, ones, b)
        assert rec.tolist() == [1, 1]


def test_fqtb_recover_block_random_trials():
    code = fqtb_new(13, 3, 8, 2)
    rng = np.random.default_rng(9)
    lin = code.base.css.cx
    for _ in range(300):
        w = evaluate_values(F13, _random_message(rng, code)).reshape(-1, 2)
        b = int(rng.integers(6))
        rec = fqtb_recover_block(code, w, b, erased={b})
        assert np.array_equal(rec, w[b])


def _random_message(rng, code):
    coeffs = np.zeros(12, dtype=np.int64)
    for i in code.base.code.support:
        coeffs[i] = rng.integers(0, 13)
    return coeffs


def test_fqtb_recover_block_sibling_erased():
    code = fqtb_new(13, 3, 8, 2)
    sibs = code.siblings(0)
    assert len(sibs) == 2
    with pytest.raises(SiblingErased):
        fqtb_recover_block(code, np.ones((6, 2), dtype=np.int64), 0,
                           erased={0, sibs[0]})


def test_descriptors_round_trip():
    code = qtb_new(13, 3, 8)
    d = code.descriptor()
    assert d["family"] == "qtb" and d["n"] == 12 and d["k"] == 2
    fcode = fqtb_new(13, 3, 8, 2)
    fd = fcode.descriptor()
    assert fd["family"] == "fqtb" and fd["s"] == 2
    from qlrc.descriptor import build

    rebuilt = build(d)
    assert rebuilt.obj.k == 2
    rebuilt_f = build(fd)
    assert rebuilt_f.obj.block_count == 6
