"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines with timings). Every expected value is either
computed by an independent oracle inside the test or pinned from the
closed-form calculators with exact rounding.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qlrc import bounds
from qlrc.classical import eval_code, iter_codeword_chunks, local_recover_symbol
from qlrc.css import (
    PauliError,
    css_distance_brute,
    is_logical_identity,
    random_pauli,
    recover_pauli,
    residual_after_correction,
)
from qlrc.ensembles import (
    ael_locality_structure,
    ael_quantum_decode,
    ael_standard_build,
    random_block_pauli,
    random_qlrc,
    stream_rng,
)
from qlrc.errors import CapExceeded
from qlrc.gf import field_from_order, field_new
from qlrc.listdec import brute_list_decode, frs_achieved_radius, list_decode_frs, list_decode_rs
from qlrc.polycode import (
    coset_index_groups,
    evaluate_values,
    support_piecewise,
    support_qtb,
    support_qtb_dual,
)
from qlrc.qtb import fqtb_new, fqtb_recover_block, qtb_new
from qlrc.qtbdec import dist_to_piecewise, dist_to_piecewise_folded, quantum_decode
from qlrc.classical import rs_code
from qlrc.css import css_new


def _report(name: str, started: float, detail: str) -> None:
    print(f"\n[acceptance] {name}: PASS ({time.time() - started:.1f}s) {detail}")


def test_criterion_01_small_code_sandwich():
    started = time.time()
    code = qtb_new(7, 3, 4)
    lower = bounds.qtb_distance_lower(7, 3, 4)
    lower_int = bounds.qtb_distance_lower_ceil(7, 3, 4)
    upper = bounds.partition_cap_distance(code.n, code.k, 3)
    assert 1.39 < lower < 1.40
    assert lower_int == 2 and upper == 2
    d, _, _ = css_distance_brute(code.css)
    assert d == 2
    assert time.time() - started < 1.0
    _report("criterion 1 (qTB(7,3,4) distance = 2)", started, f"d={d}")


def test_criterion_02_mid_code_window():
    started = time.time()
    code = qtb_new(13, 3, 8)
    low = bounds.qtb_distance_lower_ceil(13, 3, 8)
    high = bounds.partition_cap_distance(code.n, code.k, 3)
    assert (low, high) == (3, 4)
    # one information set, 7 + C(7, 2) * 12 = 259 of the 13^7 words weighed: the cap counts them
    d, witness, _ = css_distance_brute(code.css, cap=259)
    assert low <= d <= high
    assert d == 4
    with pytest.raises(CapExceeded) as info:
        css_distance_brute(code.css, cap=258)
    assert info.value.required == 259
    assert np.count_nonzero(witness) == d
    elapsed = time.time() - started
    assert elapsed < 60
    _report("criterion 2 (qTB(13,3,8) distance in [3,4])", started, f"d={d}")


def _prime_power_grid(limit: int):
    for q in range(4, limit + 1):
        try:
            ctx = field_from_order(q)
        except Exception:
            continue
        for r in range(3, q):
            if (q - 1) % r == 0:
                yield q, r, ctx


def test_criterion_03_duality_identity_grid():
    started = time.time()
    checked = 0
    for q, r, ctx in _prime_power_grid(64):
        lo = (q + 1) // 2
        for ell in sorted({lo, (lo + q - 1) // 2, q - 1}):
            c = eval_code(ctx, support_qtb(q, r, ell))
            t = eval_code(ctx, support_qtb_dual(q, r, ell))
            assert c.dual().same_row_space(t), (q, r, ell)
            checked += 1
    elapsed = time.time() - started
    assert checked >= 100
    assert elapsed < 10
    _report("criterion 3 (duality identity, q <= 64)", started, f"{checked} tuples")


def test_criterion_04_local_recovery_thousand_trials():
    started = time.time()
    # qTB(13,3,8): classical symbol recovery from the coset checks
    f13 = field_new(13)
    qtb = qtb_new(13, 3, 8)
    lin = qtb.code
    units = f13.units()
    groups = coset_index_groups(13, 3)
    rng = stream_rng(40)
    for _ in range(1000):
        c = lin.random_codeword(rng)
        g = groups[rng.integers(len(groups))]
        check = np.zeros(12, dtype=np.int64)
        check[g] = units[g]
        pos = int(g[rng.integers(3)])
        assert local_recover_symbol(lin, c, pos, check) == c[pos]

    # fqTB(13,3,8,2): erased-block recovery from sibling blocks
    fq = fqtb_new(13, 3, 8, 2)
    rng = stream_rng(41)
    for _ in range(1000):
        c = lin.random_codeword(rng).reshape(6, 2)
        b = int(rng.integers(6))
        rec = fqtb_recover_block(fq, c, b, erased={b})
        assert np.array_equal(rec, c[b])

    # random qLRC(9,3,1,q=4): classical recovery on both sides via the
    # block checks, plus the symplectic single-qudit version
    code = random_qlrc(9, 3, 1, 4, seed=42)
    rng = stream_rng(42)
    for _ in range(1000):
        pos = int(rng.integers(9))
        rs = code.css.recovery[pos]
        cz = code.css.cz.random_codeword(rng)
        assert local_recover_symbol(code.css.cz, cz, pos, rs.check_z) == cz[pos]
        cx = code.css.cx.random_codeword(rng)
        assert local_recover_symbol(code.css.cx, cx, pos, rs.check_x) == cx[pos]
        pair = int(rng.integers(1, 16))
        bx = np.zeros(9, dtype=np.int64)
        bz = np.zeros(9, dtype=np.int64)
        bx[pos], bz[pos] = pair % 4, pair // 4
        err = PauliError(bx, bz)
        corr = recover_pauli(code.css, rs, err)
        assert residual_after_correction(code.ctx, err, corr).weight == 0
    elapsed = time.time() - started
    assert elapsed < 10
    _report("criterion 4 (3 x 1000 recovery trials)", started, "100% exact")


def test_criterion_05_decoder_radius_qtb127():
    started = time.time()
    assert bounds.decode_radius_qtb(127, 3, 80) == 10
    raw = 126 * 0.5 * (1 - 1 / 6 - math.sqrt(1 / 36 + (2 / 3) * 80 / 126))
    assert abs(raw - 10.19) < 5e-3
    code = qtb_new(127, 3, 80)
    successes = 0
    for t in range(200):
        rng = stream_rng(50, t)
        err = random_pauli(code.ctx, 126, 10, "mixed", rng)
        assert err.weight == 10
        _, resid = quantum_decode(code, err)
        successes += is_logical_identity(code.css, resid)
    assert successes == 200
    elapsed = time.time() - started
    assert elapsed < 300
    _report("criterion 5 (qTB(127,3,80) at weight 10)", started, "200/200")


def test_criterion_06_list_decoder_oracle_equivalence():
    started = time.time()
    # GF(7), ell = 2: every received word, every radius up to Johnson = 2
    f7 = field_new(7)
    code7 = rs_code(f7, 2)
    codebook = np.vstack(list(iter_codeword_chunks(f7, code7.basis)))
    assert bounds is not None
    from qlrc.listdec import johnson_radius_rs

    assert johnson_radius_rs(7, 2) == 2
    digits = np.arange(7**6, dtype=np.int64)
    powers = 7 ** np.arange(6, dtype=np.int64)
    words = (digits[:, None] // powers[None, :]) % 7
    dists = np.zeros((7**6, 49), dtype=np.int16)
    chunk = 1 << 13
    for s0 in range(0, 7**6, chunk):
        sl = words[s0:s0 + chunk]
        dists[s0:s0 + chunk] = (sl[:, None, :] != codebook[None, :, :]).sum(axis=2)
    # codeword j of the book is message g with j = g . [1, 7], so the table
    # dists[word, j] is the distance of each decoded message's codeword
    messages = np.arange(49)[:, None] // np.array([1, 7]) % 7
    assert np.array_equal(evaluate_values(f7, messages), codebook)
    found = np.zeros(dists.shape, dtype=bool)  # found[word, j]: decoder returned message j
    for idx in range(7**6):
        for g in list_decode_rs(f7, 2, words[idx], 2):
            found[idx, int(g @ [1, 7])] = True
    for e in (0, 1, 2):  # the decoded codewords within e are all those within e
        missed = (dists <= e) & ~found
        assert not missed.any(), (np.argwhere(missed)[:3], e)
    assert not (found & (dists > 2)).any()  # and none past the radius

    # folded GF(13), ell = 2, s = 2: exhaustive 169-polynomial oracle on
    # planted corruptions of every codeword on every block support of every
    # size up to the radius, plus random words
    f13 = field_new(13)
    from qlrc.classical import frs_code

    fc = frs_code(f13, 2, 2)
    assert frs_achieved_radius(13, 2, 2).e == 3
    fold_book = np.vstack(list(iter_codeword_chunks(f13, fc.code.basis)))
    rng = stream_rng(60)

    def check_folded(word):
        got = list_decode_frs(f13, 2, 2, word.reshape(6, 2), 3)
        got_set = {}
        for g in got:
            w = evaluate_values(f13, g)
            bd = int(np.count_nonzero(np.any(
                w.reshape(6, 2) != word.reshape(6, 2), axis=1)))
            got_set[tuple(w.tolist())] = bd
        diffs = (fold_book != word[None, :]).reshape(-1, 6, 2)
        brute_bd = np.count_nonzero(np.any(diffs, axis=2), axis=1)
        for e in (0, 1, 2, 3):
            want = {tuple(fold_book[j].tolist()) for j in np.nonzero(brute_bd <= e)[0]}
            have = {w for w, dd in got_set.items() if dd <= e}
            assert have == want, e

    for ci in range(169):
        base = fold_book[ci]
        for e in (0, 1, 2, 3):
            for blocks in itertools.combinations(range(6), e):
                w = base.copy()
                for b in blocks:
                    w[2 * b: 2 * b + 2] = rng.integers(0, 13, size=2)
                check_folded(w)
    for _ in range(400):
        check_folded(rng.integers(0, 13, size=12))
    elapsed = time.time() - started
    assert elapsed < 60
    _report("criterion 6 (list-decoder oracle equivalence)", started,
            f"7^6 RS words + folded trials in {elapsed:.0f}s")


def test_criterion_07_piecewise_distance_oracles():
    started = time.time()
    f13 = field_new(13)
    space = eval_code(f13, support_piecewise(13, 3))
    all_b = np.vstack(list(iter_codeword_chunks(f13, space.basis)))
    assert all_b.shape[0] == 13**4
    rng = stream_rng(70)
    for _ in range(100):
        w = rng.integers(0, 13, size=12)
        d, wit = dist_to_piecewise(f13, w, 3)
        brute = int(np.count_nonzero(all_b != w[None, :], axis=1).min())
        assert d == brute
        fd, _ = dist_to_piecewise_folded(f13, w.reshape(6, 2), 3)
        diffs = (all_b != w[None, :]).reshape(-1, 6, 2)
        fbrute = int(np.count_nonzero(np.any(diffs, axis=2), axis=1).min())
        assert fd == fbrute
    elapsed = time.time() - started
    assert elapsed < 30
    _report("criterion 7 (distance-to-piecewise oracles)", started, "100 words")


def test_criterion_08_random_ensemble():
    started = time.time()
    dists = []
    for seed in range(100):
        code = random_qlrc(9, 3, 1, 4, seed=seed)  # construction validates CSS
        assert code.k == 1
        d, _, _ = css_distance_brute(code.css)
        dists.append(int(d))
    freq = sum(d >= 2 for d in dists) / 100
    bound = bounds.gv_probability_bound(9, 1, 4, 2 / 9)
    sigma = math.sqrt(0.25 / 100)
    assert freq >= bound - 3 * sigma
    elapsed = time.time() - started
    assert elapsed < 60
    _report("criterion 8 (100 random qLRC samples)", started,
            f"freq(d>=2)={freq:.2f}, bound={bound:.1e}")


def test_criterion_09_ael_end_to_end():
    started = time.time()
    std = ael_standard_build(seed=90)
    code = std.code

    r_out = Fraction(code.outer.k, code.n_out)
    r_in = Fraction(code.inner.k, code.n_in)
    assert code.rate == r_out * r_in  # exact
    assert code.locality == code.delta * code.r_in
    structure = ael_locality_structure(code)  # raises on any collision
    assert len(structure) == code.n_qudits

    alpha = bounds_free_alpha = std.alpha
    assert alpha == float(std.alpha_in) - std.lam * math.sqrt(
        float(std.alpha_in) / float(std.alpha_out))
    radius = std.radius_blocks
    assert radius >= 1

    successes = 0
    for t in range(200):
        rng = stream_rng(91, t)
        weight = int(rng.integers(1, radius + 1))
        err = random_block_pauli(code.ctx, code.block_count, code.delta, weight, rng)
        _, resid = ael_quantum_decode(std, err)
        successes += is_logical_identity(code.css, resid)
    assert successes == 200
    elapsed = time.time() - started
    assert elapsed < 300
    _report("criterion 9 (AEL end-to-end)", started,
            f"{code.n_qudits} qudits, lambda={std.lam}, radius={radius} blocks, 200/200")


def test_criterion_10_bound_sweep():
    started = time.time()
    grid = []
    fold_grid = []
    uncertainty_cache = {}
    # Folded points take every divisor s of (q-1)/r with s >= 2r^2. Per ell that
    # gives (109,3): 18, 36; (127,3): 21, 42; (181,3): 20, 30, 60; (251,5): 50;
    # (601,5): 60, 120; (1373,7): 98, 196. (211,5) gives none: every divisor of
    # 42 is below 2r^2 = 50. The 200-point floor below must not be lowered.
    pairs = [(109, 3), (127, 3), (181, 3), (251, 5), (211, 5), (601, 5), (1373, 7)]
    for q, r in pairs:
        assert (q - 1) % r == 0
        if (q, r) not in uncertainty_cache:
            uncertainty_cache[(q, r)] = bounds.uncertainty_holds(q, r)
        assert uncertainty_cache[(q, r)]
        lo = (q + 1) // 2
        ells = sorted({lo + i * max((q - 1 - lo) // 11, 1) for i in range(12)} & set(range(lo, q)))
        m = (q - 1) // r
        for ell in ells:
            grid.append((q, r, ell))
            for s in range(2 * r * r, m + 1):
                if m % s == 0:
                    fold_grid.append((q, r, ell, s))
    folded_per_pair = {pr: sum(1 for p in fold_grid if p[:2] == pr) for pr in pairs}
    assert len(grid) + len(fold_grid) >= 200, (
        f"{len(grid)} qtb + {len(fold_grid)} fqtb points; folded per (q, r): {folded_per_pair}")

    for q, r, ell in grid:
        lower = bounds.qtb_distance_lower(q, r, ell)
        upper = float(bounds.qtb_distance_upper(q, r, ell))
        assert lower <= upper + 1e-9, (q, r, ell)
        e = bounds.decode_radius_qtb(q, r, ell)
        if e > 0:
            assert 2 * e <= bounds.qtb_distance_lower_ceil(q, r, ell) - 1, (q, r, ell)

    for q, r, ell, s in fold_grid:
        assert bounds.fqtb_simple_below_lower(q, r, ell, s), (q, r, ell, s)

    rep = bounds.verify_appendix_inequalities(100)
    assert rep.ok
    assert all(v >= 10**4 for k, v in rep.checked.items() if k != "loss_term")
    elapsed = time.time() - started
    assert elapsed < 60
    _report("criterion 10 (bound sweep)", started,
            f"{len(grid)} qtb + {len(fold_grid)} fqtb points, appendix grids clean")
