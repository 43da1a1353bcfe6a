"""Classical codes: duals, exact weights, erasures, local recovery."""

import itertools
import math

import numpy as np
import pytest

from qlrc import classical
from qlrc.classical import (
    FoldedCode,
    LinearCode,
    block_weight,
    erasure_decode,
    eval_code,
    frs_code,
    iter_codeword_chunks,
    local_recover_symbol,
    min_weight,
    min_weight_excluding,
    quotient_representatives,
    rs_code,
    tb_code,
)
from qlrc.errors import (
    AmbiguousErasure,
    CapExceeded,
    CheckNotInDual,
    FoldMismatch,
    InconsistentErasure,
    NotASubcode,
    ZeroPivot,
)
from qlrc.gf import field_from_order, field_new, kernel, matmul, rank, rref
from qlrc.polycode import (
    coset_index_groups,
    evaluate_values,
    support_qtb,
    support_qtb_dual,
)
from qlrc.qtb import qtb_new

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


def test_dual_swaps_the_two_spaces_without_an_elimination(monkeypatch):
    # the kernel read off H's pivot basis is G's RREF, pivots included
    rng = np.random.default_rng(8)
    for q in (2, 5, 8, 9, 13):
        ctx = field_from_order(q)
        for _ in range(8):
            n = int(rng.integers(1, 9))
            c = LinearCode(ctx, _random_rows(ctx, rng, int(rng.integers(0, n + 1)), n))
            r, pivots = kernel(ctx, c.dual_space.pivot_basis, c.dual_space.pivots)
            assert pivots == c.row_space.pivots.tolist()
            assert r.dtype == np.int64 and np.array_equal(r, c.row_space.pivot_basis)
    c, calls = rs_code(F13, 5), []
    monkeypatch.setattr(classical, "rref", lambda *args: calls.append(args))
    d = c.dual()
    assert calls == [] and np.array_equal(d.basis, d.row_space.pivot_basis)
    assert d.dim == 7 and d.row_space.dim == 7 and d.dual_space.dim == 5


def test_min_weight_excluding_qtb734_sandwich():
    # forced to 2: the closed-form lower bound is 1.39..., the partition
    # Singleton bound at (n=6, k=2, r=3) caps it at 2; enumeration agrees
    c = eval_code(F7, support_qtb(7, 3, 4))
    d = eval_code(F7, support_qtb_dual(7, 3, 4))
    w, wit = min_weight_excluding(c, d)
    assert w == 2
    assert np.count_nonzero(wit) == 2 and c.contains(wit) and not d.contains(wit)


def _lowest_min_weight_word(code, sub, fold_s):
    """Oracle: weigh all q^dim(code) words in message order over the basis
    [sub rows | quotient representatives] and keep the lowest-index word of
    minimum weight outside the subcode."""
    ctx = code.ctx
    basis = np.vstack([sub.basis, quotient_representatives(ctx, code.basis, sub.basis)])
    words = np.concatenate(list(iter_codeword_chunks(ctx, basis)))[ctx.q**sub.dim:]
    if len(words) == 0:
        return math.inf, None
    if fold_s is None:
        w = np.count_nonzero(words, axis=1)
    else:
        w = np.count_nonzero(np.any(words.reshape(len(words), -1, fold_s) != 0, axis=2), axis=1)
    i = int(np.argmin(w))
    return int(w[i]), words[i]


def _random_rows(ctx, rng, rows, cols):
    while True:
        m = rng.integers(0, ctx.q, size=(rows, cols))
        if rank(ctx, m) == rows:
            return m


def _greedy_quotient_representatives(ctx, basis, sub_basis):
    """Oracle: one rank per candidate row on a growing stack."""
    stacked, out = list(sub_basis), []
    for row in basis:
        if rank(ctx, np.vstack(stacked + [row])) == len(stacked) + 1:
            stacked.append(row)
            out.append(row)
    return np.asarray(out, dtype=np.int64).reshape(-1, basis.shape[1])


@pytest.mark.parametrize("q", [2, 3, 5, 7, 8, 9, 13])
def test_quotient_representatives_match_the_greedy_rank_loop(q):
    ctx = field_from_order(q)
    rng = np.random.default_rng(q)
    for _ in range(60):
        k, n = int(rng.integers(1, 6)), int(rng.integers(3, 9))
        gen = rng.integers(0, q, size=(k, n))
        # more rows than the span's dimension, plus a repeated row: dependent rows
        basis = matmul(ctx, rng.integers(0, q, size=(int(rng.integers(1, 8)), k)), gen)
        basis = np.vstack([basis, basis[:1]])
        # independent sub rows from the span of gen, inside span(basis) or not
        sub, pivots = rref(ctx, matmul(ctx, rng.integers(0, q, size=(int(rng.integers(0, 4)), k)), gen))
        sub = sub[: len(pivots)]
        got = quotient_representatives(ctx, basis, sub)
        assert np.array_equal(got, _greedy_quotient_representatives(ctx, basis, sub))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
def test_min_weight_excluding_matches_full_enumeration(q):
    # k x n: (4, 6) has a second information set of rank at most 2, (1, 6)
    # one set per nonzero column, and (3, 3) the RREF's pivots alone
    ctx = field_from_order(q)
    rng = np.random.default_rng(q)
    for k, n in ((4, 6), (4, 6), (1, 6), (3, 3)):
        code = LinearCode(ctx, _random_rows(ctx, rng, k, n))
        for sub_dim in range(k + 1):
            mix = _random_rows(ctx, rng, sub_dim, k)
            sub = LinearCode(ctx, matmul(ctx, mix, code.basis).reshape(sub_dim, n))
            for fold_s in (None, 2, 3):
                if fold_s is not None and n % fold_s:
                    continue
                d, wit = min_weight_excluding(code, sub, fold_s=fold_s)
                d_ref, wit_ref = _lowest_min_weight_word(code, sub, fold_s)
                assert d == d_ref
                if wit_ref is None:
                    assert wit is None
                else:
                    assert wit.dtype == np.int64 and np.array_equal(wit, wit_ref)


@pytest.fixture
def levels(monkeypatch):
    """The message weights the search weighs, in order, one per set and level."""
    seen, line_messages = [], classical._line_messages

    def record(q, k, weight, chunk):
        seen.append(weight)
        return line_messages(q, k, weight, chunk)

    monkeypatch.setattr(classical, "_line_messages", record)
    return seen


def test_min_weight_excluding_stops_once_the_lower_bound_passes_the_best_weight(levels):
    # C_Z of qTB(13,3,8) has n = 12, k = 7 and d = 4, and it and C_X-dual are
    # shift-invariant: the RREF set alone stops after level 2, at 12 * 3 > 7 * 4.
    # With the columns reordered the shift symmetry is gone. The information
    # sets have ranks 7 and 5; after level 2 in both the bound is 3 + 1 = 4,
    # and level 3 of the first set raises it to 5 > 4, so the second set's
    # level 3 is skipped.
    css = qtb_new(13, 3, 8).css
    assert [r for _, r in classical._information_sets(css.cz)] == [7, 5]
    d, _ = min_weight_excluding(css.cz, LinearCode(css.ctx, css.hx))
    assert d == 4 and levels == [1, 2]
    order = list(range(0, 12, 2)) + list(range(1, 12, 2))
    levels.clear()
    d, _ = min_weight_excluding(LinearCode(css.ctx, css.cz.basis[:, order]),
                                LinearCode(css.ctx, css.hx[:, order]))
    assert d == 4 and levels == [1, 1, 2, 2, 3]


@pytest.mark.parametrize("q", [7, 8, 9, 13])
def test_min_weight_excluding_on_shift_invariant_codes_matches_full_enumeration(q, levels):
    # RS codes, their RS subcodes and the zero code are invariant under every
    # shift of the omega^i order, so the RREF set alone is weighed: no level repeats
    ctx = field_from_order(q)
    zero = LinearCode(ctx, np.zeros((0, q - 1), dtype=np.int64))
    for ell in range(1, 5):
        code = rs_code(ctx, ell)
        for sub in [zero] + [rs_code(ctx, e) for e in range(1, ell)]:
            for fold_s in (None, 2, 3):
                if fold_s is not None and (q - 1) % fold_s:
                    continue
                levels.clear()
                d, wit = min_weight_excluding(code, sub, fold_s=fold_s)
                assert levels == list(range(1, len(levels) + 1))
                d_ref, wit_ref = _lowest_min_weight_word(code, sub, fold_s)
                assert d == d_ref and np.array_equal(wit, wit_ref)


def test_min_weight_excluding_keeps_the_disjoint_sets_for_a_subcode_without_the_symmetry(levels):
    # RS(8, 4) over GF(9) is shift-invariant and a random 2-dimensional subcode
    # is not, so both information sets of rank 4 are weighed level by level
    ctx = field_from_order(9)
    rng = np.random.default_rng(9)
    code = rs_code(ctx, 4)
    for _ in range(4):
        sub = LinearCode(ctx, matmul(ctx, _random_rows(ctx, rng, 2, 4), code.basis))
        assert not sub.contains(np.roll(sub.basis, 1, axis=1))
        for fold_s in (None, 2):
            levels.clear()
            d, wit = min_weight_excluding(code, sub, fold_s=fold_s)
            assert levels[:2] == [1, 1]
            d_ref, wit_ref = _lowest_min_weight_word(code, sub, fold_s)
            assert d == d_ref and np.array_equal(wit, wit_ref)


@pytest.fixture
def pools(monkeypatch):
    """The number of words each ``_lowest_index_word`` call is given."""
    seen, lowest = [], classical._lowest_index_word

    def record(code, subcode, words):
        seen.append(len(words))
        return lowest(code, subcode, words)

    monkeypatch.setattr(classical, "_lowest_index_word", record)
    return seen


def test_min_weight_excluding_bounds_its_pool_when_every_word_is_one_block(pools):
    # at fold_s = n every nonzero word of RS(12, 6) over GF(13) has weight 1 and
    # no stop fires before the last level: the unbounded pool held 402,234 words
    chunk = classical._CHUNK_CELLS // 12
    d, wit = min_weight(rs_code(field_new(13), 6), fold_s=12)
    assert d == 1 and wit.tolist() == [1] * 12  # as before the bound
    assert len(pools) > 1 and max(pools) <= 2 * chunk


@pytest.mark.parametrize("q", [7, 8, 9, 13])
def test_min_weight_excluding_with_a_small_pool_keeps_its_witness(q, pools, monkeypatch):
    # a chunk of one row makes the bound fire on the shift path (evaluation
    # codes) and the disjoint-set path (a random code); the witness cannot
    # move. On (1, 4, 5) over (1, 5) in GF(9) and (0, 2, 3, 4) over (2, 3, 4)
    # in GF(13) it moves if the pool is cut before its shifts are added.
    monkeypatch.setattr(classical, "_CHUNK_CELLS", q - 1)
    ctx = field_from_order(q)
    rng = np.random.default_rng(q)
    zero = LinearCode(ctx, np.zeros((0, q - 1), dtype=np.int64))
    cases = [(rs_code(ctx, ell), sub) for ell in (2, 4) for sub in (zero, rs_code(ctx, 1))]
    cases += [(eval_code(ctx, (1, 4, 5)), eval_code(ctx, (1, 5))),
              (eval_code(ctx, (0, 2, 3, 4)), eval_code(ctx, (2, 3, 4)))]
    code = LinearCode(ctx, _random_rows(ctx, rng, 3, q - 1))
    cases.append((code, LinearCode(ctx, matmul(ctx, _random_rows(ctx, rng, 1, 3), code.basis))))
    fired = False
    for code, sub in cases:
        for fold_s in (None, 2, 3):
            if fold_s is not None and (q - 1) % fold_s:
                continue
            pools.clear()
            d, wit = min_weight_excluding(code, sub, fold_s=fold_s)
            d_ref, wit_ref = _lowest_min_weight_word(code, sub, fold_s)
            assert d == d_ref and np.array_equal(wit, wit_ref)
            assert max(pools) <= 2 * ((q - 1) // (fold_s or 1))
            fired |= len(pools) > 1
    assert fired


@pytest.mark.parametrize("q", [7, 8, 9, 13])
def test_min_weight_excluding_finds_words_only_under_the_last_quotient_row(q):
    # words without the last quotient row are a + b*x_i on six distinct x_i,
    # of weight >= 5; the weight-2 words are exactly the multiples of `last`
    ctx = field_from_order(q)
    ones = np.ones(6, dtype=np.int64)
    last = np.array([0, 0, 0, 0, 1, 1], dtype=np.int64)
    code = LinearCode(ctx, np.vstack([ones, ctx.units()[:6], last]))
    sub = LinearCode(ctx, ones[None, :])
    for fold_s, d_ref in ((None, 2), (2, 1)):
        d, wit = min_weight_excluding(code, sub, fold_s=fold_s)
        assert (d, wit.tolist()) == (d_ref, last.tolist())
        assert _lowest_min_weight_word(code, sub, fold_s)[0] == d_ref


def test_min_weight_excluding_equal_codes_is_infinite():
    c = rs_code(F7, 3)
    w, wit = min_weight_excluding(c, c)
    assert w == math.inf and wit is None


def test_min_weight_excluding_requires_subcode():
    with pytest.raises(NotASubcode):
        min_weight_excluding(rs_code(F7, 3), rs_code(F7, 4))


@pytest.mark.parametrize("fold_s", [0, -3, 4, 5])
def test_min_weight_excluding_rejects_a_fold_that_does_not_divide_n(fold_s):
    code = rs_code(F7, 3)  # n = 6
    with pytest.raises(FoldMismatch):
        min_weight_excluding(code, rs_code(F7, 1), fold_s=fold_s)
    with pytest.raises(FoldMismatch):
        min_weight(code, fold_s=fold_s)


def test_min_weight_cap():
    # the cap counts words weighed: 8 at level 1, then C(8, 2) * 12 at level 2
    with pytest.raises(CapExceeded) as info:
        min_weight(rs_code(F13, 8), cap=100)
    assert info.value.required == 8 + 28 * 12


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
    code = rs_code(F7, 4)
    w, word = min_weight(code)
    assert w == 3
    assert code.dim == 4
    assert code.contains(word)
    assert np.count_nonzero(word) == 3


def test_tb_13_3_8_dimension_and_distance():
    code = tb_code(F13, 3, 8)
    assert code.dim == 6
    w, _ = min_weight(code)
    assert w >= 13 - 8
    assert w == 5


def test_folded_rs_block_distance():
    # frs(13, 8, 2): blocks of 2; distance (q - ell)/s rounded up to 3,
    # achieved by a codeword whose 7 roots fill 3 blocks and half a fourth
    fc = frs_code(F13, 8, 2)
    assert fc.block_count == 6
    with pytest.raises(FoldMismatch):  # 5 does not divide n = 12
        FoldedCode(rs_code(F13, 2), 5)
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
    word = evaluate_values(F13, [0, 0, 0, 1])
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
