"""List decoders against the exhaustive oracle."""

from itertools import combinations

import numpy as np
import pytest

from qlrc import listdec
from qlrc.classical import frs_code, iter_codeword_chunks, rs_code
from qlrc.ensembles import rs_decode_errors_erasures
from qlrc.errors import CapExceeded, DecodingFailed, RadiusTooLarge
from qlrc.gf import field_new
from qlrc.listdec import (
    _scalar_ops,
    best_feasible_radius_rs,
    brute_list_decode,
    frs_achieved_radius,
    frs_paper_radius,
    gs_multiplicity,
    johnson_radius_rs,
    list_decode_frs,
    list_decode_rs,
)
from qlrc.polycode import evaluate_values

F7 = field_new(7)
F13 = field_new(13)
F127 = field_new(127)


def words_of(ctx, polys):
    return sorted(tuple(evaluate_values(ctx, c).tolist()) for c in polys)


def oracle_words(code, received, e):
    return sorted(tuple(w.tolist()) for w in brute_list_decode(code, received, e))


@pytest.mark.parametrize("q,ell,expected", [(7, 2, 2), (13, 2, 7), (127, 32, 62), (127, 80, 25)])
def test_johnson_radius(q, ell, expected):
    assert johnson_radius_rs(q, ell) == expected


def test_uncorrupted_codeword_radius_zero():
    rng = np.random.default_rng(0)
    coeffs = rng.integers(0, 13, size=8)
    w = evaluate_values(F13, coeffs)
    out = list_decode_rs(F13, 8, w, 0)
    assert len(out) == 1 and np.array_equal(out[0], coeffs)


def test_rs_oracle_equivalence_gf7_sample():
    # full-grid equality is the acceptance suite's job; a dense random
    # sample plus all codewords with planted errors exercises both paths
    code = rs_code(F7, 2)
    rng = np.random.default_rng(1)
    for _ in range(400):
        w = rng.integers(0, 7, size=6)
        got = words_of(F7, list_decode_rs(F7, 2, w, 2))
        assert got == oracle_words(code, w, 2)


def test_rs_oracle_equivalence_beyond_unique_radius():
    # GF(13), ell=2: unique radius 5, Johnson 7 -> the GS path with lists
    code = rs_code(F13, 2)
    rng = np.random.default_rng(2)
    saw_multi = False
    for _ in range(150):
        w = rng.integers(0, 13, size=12)
        got = list_decode_rs(F13, 2, w, 7)
        assert words_of(F13, got) == oracle_words(code, w, 7)
        saw_multi |= len(got) > 1
    assert saw_multi  # radius beyond unique decoding must produce real lists


def test_rs_oracle_equivalence_multiplicity_two():
    code = rs_code(F13, 4)
    assert gs_multiplicity(13, 4, 5)[0] >= 2
    rng = np.random.default_rng(3)
    for _ in range(40):
        w = rng.integers(0, 13, size=12)
        got = words_of(F13, list_decode_rs(F13, 4, w, 5))
        assert got == oracle_words(code, w, 5)


def test_rs_radius_too_large():
    with pytest.raises(RadiusTooLarge):
        list_decode_rs(F7, 2, np.zeros(6, dtype=np.int64), 3)


def test_rs_multiplicity_cap_reports_requirement():
    # the full Johnson radius on RS(127,32) needs multiplicity 11 (an
    # ~8300^2 interpolation system), far past any tractable solve here
    with pytest.raises(CapExceeded) as exc:
        gs_multiplicity(127, 32, 62)
    assert exc.value.required == 11


def test_rs_planted_beyond_unique_radius_large_field():
    # unique radius of RS(127,32) is 47; decode a planted error of 48 (m=2)
    rng = np.random.default_rng(4)
    coeffs = rng.integers(0, 127, size=32)
    w = evaluate_values(F127, coeffs)
    pos = rng.choice(126, size=48, replace=False)
    w2 = w.copy()
    for i in pos.tolist():
        w2[i] = (w2[i] + int(rng.integers(1, 127))) % 127
    got = list_decode_rs(F127, 32, w2, 48)
    assert any(np.array_equal(g, coeffs) for g in got)


def test_soundness_every_candidate_within_radius():
    rng = np.random.default_rng(5)
    for _ in range(60):
        w = rng.integers(0, 13, size=12)
        for e in (2, 5, 7):
            for g in list_decode_rs(F13, 2, w, e):
                dist = int(np.count_nonzero(evaluate_values(F13, g) != w))
                assert dist <= e


def test_best_feasible_radius():
    assert best_feasible_radius_rs(127, 80, 2) == 23  # unique-decoding bound
    assert best_feasible_radius_rs(7, 2, 8) == 2


def test_brute_list_decode_edges():
    code = rs_code(F7, 2)
    rng = np.random.default_rng(6)
    w = rng.integers(0, 7, size=6)
    assert len(brute_list_decode(code, w, 6)) == 49  # whole code
    cw = evaluate_values(F7, rng.integers(0, 7, size=2))
    assert oracle_words(code, cw, 0) == [tuple(cw.tolist())]
    not_cw = cw.copy()
    not_cw[0] = (not_cw[0] + 1) % 7
    if not code.contains(not_cw):
        assert brute_list_decode(code, not_cw, 0) == []


def test_frs_achieved_radius_values():
    assert frs_achieved_radius(13, 2, 2).e == 3
    p = frs_achieved_radius(127, 32, 14)
    assert p.e >= 4
    assert p.e >= frs_paper_radius(127, 32, 14)  # beats the asymptotic form here


def test_frs_oracle_equivalence():
    fc = frs_code(F13, 2, 2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = rng.integers(0, 13, size=12)
        got = list_decode_frs(F13, 2, 2, w.reshape(6, 2), 3)
        gotw = words_of(F13, got)
        assert gotw == sorted(tuple(x.tolist()) for x in brute_list_decode(fc, w, 3))


def test_frs_uncorrupted_and_planted():
    rng = np.random.default_rng(8)
    coeffs = rng.integers(0, 127, size=32)
    blocks = evaluate_values(F127, coeffs).reshape(9, 14)
    got = list_decode_frs(F127, 32, 14, blocks, 0)
    assert any(np.array_equal(g, coeffs) for g in got)
    e = frs_achieved_radius(127, 32, 14).e
    bad = rng.choice(9, size=e, replace=False)
    corrupted = blocks.copy()
    for b in bad.tolist():
        corrupted[b] = rng.integers(0, 127, size=14)
    got = list_decode_frs(F127, 32, 14, corrupted, e)
    assert any(np.array_equal(g, coeffs) for g in got)


def test_frs_radius_too_large():
    with pytest.raises(RadiusTooLarge):
        list_decode_frs(F13, 2, 2, np.zeros((6, 2), dtype=np.int64), 4)


# -- folded dispatch: Gao's decoder when s*e <= (n-ell)//2 ---------------------------

def _must_not_run(*args, **kwargs):
    raise AssertionError("the other decoding path ran")


def corrupt_blocks(ctx, blocks, support, rng):
    """A copy of blocks with every block in support changed in some symbol."""
    out = blocks.copy()
    for b in support:
        out[b] = rng.integers(0, ctx.q, size=out.shape[1])
        out[b, 0] = ctx.add(blocks[b, 0], int(rng.integers(1, ctx.q)))
    return out


def test_frs_within_unique_radius_skips_interpolation(monkeypatch):
    params = frs_achieved_radius(13, 3, 2)
    assert (params.v, params.e) == (1, 2) and 2 * params.e <= (12 - 3) // 2
    monkeypatch.setattr(listdec, "nullspace", _must_not_run)
    rng = np.random.default_rng(20)
    coeffs = rng.integers(0, 13, size=3)
    blocks = corrupt_blocks(F13, evaluate_values(F13, coeffs).reshape(6, 2), (1, 4), rng)
    got = list_decode_frs(F13, 3, 2, blocks, 2)
    assert len(got) == 1 and np.array_equal(got[0], coeffs)


def test_frs_beyond_unique_radius_interpolates(monkeypatch):
    params = frs_achieved_radius(13, 2, 2)
    assert (params.v, params.e) == (2, 3) and 2 * params.e > (12 - 2) // 2
    monkeypatch.setattr(listdec, "rs_unique_decode", _must_not_run)
    rng = np.random.default_rng(21)
    coeffs = rng.integers(0, 13, size=2)
    blocks = corrupt_blocks(F13, evaluate_values(F13, coeffs).reshape(6, 2), (0, 2, 5), rng)
    got = list_decode_frs(F13, 2, 2, blocks, 3)
    assert any(np.array_equal(g, coeffs) for g in got)


def test_frs_unique_path_matches_oracle_exhaustively():
    # GF(13), ell = 3, s = 2 takes the Gao path at every e <= 2: every block
    # support of size <= 3 is corrupted on random codewords, then random words
    fc = frs_code(F13, 3, 2)
    rng = np.random.default_rng(22)
    words = []
    for size in range(4):
        for support in combinations(range(6), size):
            for _ in range(4):
                cw = fc.code.random_codeword(rng).reshape(6, 2)
                words.append(corrupt_blocks(F13, cw, support, rng))
    words += [rng.integers(0, 13, size=(6, 2)) for _ in range(150)]
    for w in words:
        for e in range(3):
            got = words_of(F13, list_decode_frs(F13, 3, 2, w, e))
            assert got == oracle_words(fc, w, e), (w.tolist(), e)


@pytest.mark.slow
def test_rs_planted_multiplicity_four():
    # radius 56 on RS(127,32): multiplicity 4, a 1260-constraint system
    rng = np.random.default_rng(9)
    coeffs = rng.integers(0, 127, size=32)
    w = evaluate_values(F127, coeffs)
    pos = rng.choice(126, size=56, replace=False)
    w2 = w.copy()
    for i in pos.tolist():
        w2[i] = (w2[i] + int(rng.integers(1, 127))) % 127
    got = list_decode_rs(F127, 32, w2, 56, m_cap=4)
    assert any(np.array_equal(g, coeffs) for g in got)


# -- Gao's unique decoder ---------------------------------------------------------

F25 = field_new(5, 2)


def planted(ctx, ell, n_err, n_erase, rng):
    """A random codeword, a word with n_err symbol errors, and an erasure mask
    on n_erase other positions (erased values are scrambled too)."""
    n = ctx.q - 1
    coeffs = rng.integers(0, ctx.q, size=ell)
    word = evaluate_values(ctx, coeffs)
    pos = rng.choice(n, size=n_err + n_erase, replace=False)
    bad = word.copy()
    bad[pos[:n_err]] = ctx.add(word[pos[:n_err]], rng.integers(1, ctx.q, size=n_err))
    bad[pos[n_err:]] = rng.integers(0, ctx.q, size=n_erase)
    erased = np.zeros(n, dtype=bool)
    erased[pos[n_err:]] = True
    return coeffs, bad, erased


@pytest.mark.parametrize("ctx,ells", [(F7, range(1, 7)), (F13, range(1, 5))])
def test_unique_radius_matches_oracle_at_every_e(ctx, ells):
    n = ctx.q - 1
    rng = np.random.default_rng(10)
    for ell in ells:
        code = rs_code(ctx, ell)
        for e in range((n - ell) // 2 + 1):
            words = [rng.integers(0, ctx.q, size=n) for _ in range(8)]
            words += [planted(ctx, ell, int(rng.integers(0, e + 2)), 0, rng)[1] for _ in range(8)]
            for w in words:
                assert words_of(ctx, list_decode_rs(ctx, ell, w, e)) == oracle_words(code, w, e)


@pytest.mark.parametrize("ctx,ells", [(F7, (1, 2, 4)), (F13, (1, 4, 7)), (F25, (2, 13))])
def test_errors_and_erasures_every_pattern_within_radius(ctx, ells):
    n = ctx.q - 1
    rng = np.random.default_rng(11)
    for ell in ells:
        for n_erase in range(n - ell + 1):
            for n_err in range((n - ell - n_erase) // 2 + 1):
                for _ in range(3):
                    coeffs, bad, erased = planted(ctx, ell, n_err, n_erase, rng)
                    got = rs_decode_errors_erasures(ctx, ell, bad, erased)
                    assert np.array_equal(got, coeffs)


@pytest.mark.parametrize("ctx,ell", [(F7, 2), (F13, 3), (F25, 2)])
def test_errors_and_erasures_past_radius_fails_or_is_exact(ctx, ell):
    # a returned message must be the one codeword within the radius on the
    # unerased positions; a failure must mean no codeword is that close
    n = ctx.q - 1
    codewords = np.vstack(list(iter_codeword_chunks(ctx, rs_code(ctx, ell).basis)))
    rng = np.random.default_rng(12)
    outcomes = set()
    for _ in range(300):
        n_erase = int(rng.integers(0, n - ell + 2))  # n - ell + 1 leaves too few symbols
        n_err = int(rng.integers((n - ell - n_erase) // 2 + 1, n - n_erase + 1))
        _, bad, erased = planted(ctx, ell, n_err, n_erase, rng)
        radius = (n - n_erase - ell) // 2
        dist = np.count_nonzero((codewords != bad) & ~erased, axis=1)
        try:
            got = evaluate_values(ctx, rs_decode_errors_erasures(ctx, ell, bad, erased))
        except DecodingFailed:
            assert dist.min() > radius
            outcomes.add("failed")
            continue
        assert np.count_nonzero((got != bad) & ~erased) <= radius
        outcomes.add("decoded")
    assert outcomes == {"failed", "decoded"}


@pytest.mark.parametrize("p,m", [(5, 2), (2, 3), (3, 3)])
def test_extension_scalar_ops_match_field_exhaustively(p, m):
    ctx = field_new(p, m)
    ops = _scalar_ops(ctx)
    elems = np.arange(ctx.q, dtype=np.int64)
    for a in range(ctx.q):
        assert [ops.add(a, b) for b in range(ctx.q)] == ctx.add(a, elems).tolist()
        assert [ops.mul(a, b) for b in range(ctx.q)] == ctx.mul(a, elems).tolist()
        acc = elems.tolist()
        ops.sub_scaled(acc, a, elems.tolist(), 0)  # acc[b] = b - a*b
        assert acc == ctx.sub(elems, ctx.mul(a, elems)).tolist()
        if a:
            assert ops.inv(a) == ctx.inv(a)
