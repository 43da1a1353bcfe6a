"""Classical codes: duals, exact weights, erasures, local recovery."""

import itertools
import math

import numpy as np
import pytest

from qlrc.classical import (
    LinearCode,
    block_weight,
    erasure_decode,
    eval_code,
    frs_code,
    local_recover_symbol,
    min_weight,
    min_weight_below,
    min_weight_excluding,
    rs_code,
    tb_code,
)
from qlrc.errors import (
    AmbiguousErasure,
    CapExceeded,
    CheckNotInDual,
    InconsistentErasure,
    NotASubcode,
    ZeroPivot,
)
from qlrc.gf import field_from_order, field_new, rank
from qlrc.polycode import (
    DensePoly,
    coset_index_groups,
    evaluate,
    evaluate_values,
    support_qtb,
    support_qtb_dual,
)

F7 = field_new(7)
F13 = field_new(13)


def test_dual_of_qtb_eval_code_matches_dual_support():
    c = eval_code(F13, support_qtb(13, 3, 8))
    d = eval_code(F13, support_qtb_dual(13, 3, 8))
    assert c.dual().same_row_space(d)


def test_dual_of_full_space_is_zero():
    full = LinearCode(F7, np.eye(6, dtype=np.int64))
    assert full.dual().dim == 0


def test_bidual_identity_random():
    rng = np.random.default_rng(3)
    for _ in range(15):
        rows = rng.integers(0, 7, size=(3, 8))
        if rank(F7, rows) < 3:
            continue
        c = LinearCode(F7, rows)
        assert c.dual().dual().same_row_space(c)


def test_min_weight_excluding_qtb734_sandwich():
    # forced to 2: the closed-form lower bound is 1.39..., the partition
    # Singleton bound at (n=6, k=2, r=3) caps it at 2; enumeration agrees
    c = eval_code(F7, support_qtb(7, 3, 4))
    d = eval_code(F7, support_qtb_dual(7, 3, 4))
    w, wit = min_weight_excluding(c, d)
    assert w == 2
    assert np.count_nonzero(wit) == 2 and c.contains(wit) and not d.contains(wit)


def test_min_weight_excluding_equal_codes_is_infinite():
    c = rs_code(F7, 3)
    w, wit = min_weight_excluding(c, c)
    assert w == math.inf and wit is None


def test_min_weight_excluding_requires_subcode():
    with pytest.raises(NotASubcode):
        min_weight_excluding(rs_code(F7, 3), rs_code(F7, 4))


def test_min_weight_cap():
    with pytest.raises(CapExceeded):
        min_weight(rs_code(F13, 8), cap=100)


def test_rs_13_8_distance_is_exactly_5():
    # [PAPER] d = q - ell. Lower bound: every 8 columns of the generator
    # have full rank (MDS property checked exhaustively); upper bound by a
    # degree-7 witness with 7 distinct nonzero roots.
    code = rs_code(F13, 8)
    for cols in itertools.combinations(range(12), 8):
        assert rank(F13, code.basis[:, cols]) == 8
    units = F13.units()
    coeffs = np.array([1], dtype=np.int64)
    for root in units[:7].tolist():
        new = np.zeros(len(coeffs) + 1, dtype=np.int64)
        new[1:] = F13.add(new[1:], coeffs)
        new[:-1] = F13.sub(new[:-1], F13.mul(root, coeffs))
        coeffs = new
    word = evaluate_values(F13, coeffs)
    assert code.contains(word)
    assert np.count_nonzero(word) == 5


def test_rs_7_4_distance_by_enumeration():
    w, _ = min_weight(rs_code(F7, 4))
    assert w == 3
    assert rs_code(F7, 4).dim == 4


def test_tb_13_3_8_dimension_and_distance():
    code = tb_code(F13, 3, 8)
    assert code.dim == 6
    w, _ = min_weight(code)
    assert w >= 13 - 8
    assert w == 5


def test_min_weight_below_matches_enumeration():
    code = rs_code(F7, 4)
    d_scan, word = min_weight_below(code.dual_basis, F7, 6)
    d_enum, _ = min_weight(code)
    assert d_scan == d_enum == 3
    assert code.contains(word)


def test_folded_rs_block_distance():
    # frs(13, 8, 2): blocks of 2; distance (q - ell)/s rounded up to 3,
    # achieved by a codeword whose 7 roots fill 3 blocks and half a fourth
    fc = frs_code(F13, 8, 2)
    assert fc.block_count == 6
    units = F13.units()
    coeffs = np.array([1], dtype=np.int64)
    for root in units[:7].tolist():  # positions 0..6 = blocks 0,1,2 + half of 3
        new = np.zeros(len(coeffs) + 1, dtype=np.int64)
        new[1:] = F13.add(new[1:], coeffs)
        new[:-1] = F13.sub(new[:-1], F13.mul(root, coeffs))
        coeffs = new
    word = evaluate_values(F13, coeffs)
    assert block_weight(word, 2) == 3
    # no codeword occupies fewer blocks: unfolded weight >= 5 forces >= ceil(5/2)
    assert math.ceil(5 / 2) == 3


def test_erasure_decode_noop_and_unique():
    code = rs_code(F13, 8)
    rng = np.random.default_rng(0)
    c = code.random_codeword(rng)
    none = np.zeros(12, dtype=bool)
    assert np.array_equal(erasure_decode(code, c, none), c)
    er = np.zeros(12, dtype=bool)
    er[[0, 3, 6, 9]] = True
    broken = c.copy()
    broken[er] = 0
    assert np.array_equal(erasure_decode(code, broken, er), c)


def test_erasure_decode_ambiguous_beyond_radius():
    code = rs_code(F13, 8)
    rng = np.random.default_rng(1)
    c = code.random_codeword(rng)
    er = np.zeros(12, dtype=bool)
    er[[0, 1, 2, 3, 4]] = True  # 5 erasures leave 7 < dim positions
    with pytest.raises(AmbiguousErasure):
        erasure_decode(code, c, er)


def test_erasure_decode_inconsistent():
    code = rs_code(F7, 2)
    word = np.array([1, 1, 1, 1, 1, 2])  # not a codeword, nothing erased
    with pytest.raises(InconsistentErasure):
        erasure_decode(code, word, np.zeros(6, dtype=bool))


def test_erasure_reapply_idempotent():
    code = tb_code(F13, 3, 8)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = code.random_codeword(rng)
        er = np.zeros(12, dtype=bool)
        er[rng.choice(12, size=4, replace=False)] = True
        rec = erasure_decode(code, np.where(er, 0, c), er)
        rec2 = erasure_decode(code, np.where(er, 0, rec), er)
        assert np.array_equal(rec, c) and np.array_equal(rec2, rec)


def test_local_recover_coset_sum_all_ones():
    # all-ones word: coset check with value = position; 2+5+6 = 13 = 0
    code = eval_code(F13, support_qtb(13, 3, 8))
    ones = np.ones(12, dtype=np.int64)
    assert code.contains(ones)
    units = F13.units()
    groups = coset_index_groups(13, 3)
    g = next(g for g in groups if {int(units[j]) for j in g.tolist()} == {2, 5, 6})
    check = np.zeros(12, dtype=np.int64)
    check[g] = units[g]
    pos = next(j for j in g.tolist() if units[j] == 2)
    assert local_recover_symbol(code, ones, pos, check) == 1


def test_local_recover_cube_example():
    # ev(X^3) takes value 8 on the whole coset {2,5,6}
    code = eval_code(F13, support_qtb(13, 3, 8))
    word = evaluate(DensePoly(F13, [0, 0, 0, 1])).values
    units = F13.units()
    groups = coset_index_groups(13, 3)
    g = next(g for g in groups if {int(units[j]) for j in g.tolist()} == {2, 5, 6})
    check = np.zeros(12, dtype=np.int64)
    check[g] = units[g]
    pos = next(j for j in g.tolist() if units[j] == 2)
    assert word[pos] == 8
    assert local_recover_symbol(code, word, pos, check) == 8


def test_local_recover_random_trials():
    code = eval_code(F13, support_qtb(13, 3, 8))
    units = F13.units()
    groups = coset_index_groups(13, 3)
    rng = np.random.default_rng(11)
    for _ in range(300):
        c = code.random_codeword(rng)
        g = groups[rng.integers(len(groups))]
        check = np.zeros(12, dtype=np.int64)
        check[g] = units[g]
        pos = int(g[rng.integers(3)])
        assert local_recover_symbol(code, c, pos, check) == c[pos]
        # only the check's other positions are read: blank out the rest
        seen = np.full(12, -1, dtype=np.int64)
        seen[g] = c[g]
        seen[pos] = -1
        assert local_recover_symbol(code, seen, pos, check) == c[pos]


def test_local_recover_rejections():
    code = eval_code(F13, support_qtb(13, 3, 8))
    word = np.ones(12, dtype=np.int64)
    with pytest.raises(CheckNotInDual):
        local_recover_symbol(code, word, 0, np.ones(12, dtype=np.int64))
    units = F13.units()
    g = coset_index_groups(13, 3)[0]
    check = np.zeros(12, dtype=np.int64)
    check[g] = units[g]
    outside = next(j for j in range(12) if j not in g.tolist())
    with pytest.raises(ZeroPivot):
        local_recover_symbol(code, word, outside, check)


def test_classical_singleton_consistency():
    # k <= n - d + 1 on every constructed evaluation code we can afford
    for ctx, builder, args in [
        (F7, rs_code, (F7, 4)),
        (F7, rs_code, (F7, 2)),
        (F13, tb_code, (F13, 3, 8)),
    ]:
        code = builder(*args)
        d, _ = min_weight(code)
        assert code.dim <= code.n - d + 1


def test_extension_field_enumeration_path():
    ctx = field_from_order(4)
    code = rs_code(ctx, 2)
    d, wit = min_weight(code)
    assert d == 2  # q - ell = 2
    assert np.count_nonzero(wit) == 2
