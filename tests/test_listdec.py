"""List decoders against the exhaustive oracle."""

import functools
import hashlib
import operator
from itertools import combinations

import numpy as np
import pytest

from qlrc import listdec
from qlrc.classical import frs_code, iter_codeword_chunks, rs_code
from qlrc.ensembles import rs_decode_errors_erasures
from qlrc.errors import CapExceeded, DecodingFailed, RadiusTooLarge
from qlrc.gf import field_from_order, field_new, matmul
from qlrc.listdec import (
    best_feasible_radius_rs,
    brute_list_decode,
    frs_achieved_radius,
    frs_paper_radius,
    gs_multiplicity,
    johnson_radius_rs,
    list_decode_frs,
    list_decode_rs,
    rs_unique_decode,
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


# -- folded dispatch: the unique decoder when s*e <= (n-ell)//2 ----------------------

def _must_not_run(*args, **kwargs):
    raise AssertionError("the other decoding path ran")


def corrupt_blocks(ctx, blocks, support, rng):
    """A copy of blocks with every block in support changed in some symbol."""
    out = blocks.copy()
    for b in support:
        out[b] = rng.integers(0, ctx.q, size=out.shape[1])
        out[b, 0] = ctx.add(blocks[b, 0], int(rng.integers(1, ctx.q)))
    return out


@pytest.mark.parametrize("q,ell,s", [(13, 2, 2), (13, 3, 3), (16, 3, 3), (127, 80, 2)])
def test_unique_branches_drop_a_decodable_word_past_the_radius(q, ell, s):
    # below the unique radius t the syndrome decoder still finds a codeword
    # e + 1 symbols (or blocks) away; the list decoders count its distance
    # from the decoder's error positions and drop it
    ctx = field_from_order(q)
    n, rng = q - 1, np.random.default_rng(q + ell)
    t = (n - ell) // 2
    for e in range(t):
        coeffs, bad, _ = planted(ctx, ell, e + 1, 0, rng)
        assert list_decode_rs(ctx, ell, bad, e) == []
        assert [f.tolist() for f in list_decode_rs(ctx, ell, bad, e + 1)] == [coeffs.tolist()]
    for e in range(min(frs_achieved_radius(q, ell, s).e, t // s)):
        blocks = evaluate_values(ctx, coeffs).reshape(-1, s)
        bad = corrupt_blocks(ctx, blocks, rng.choice(n // s, size=e + 1, replace=False), rng)
        assert s * (e + 1) <= t and list_decode_frs(ctx, ell, s, bad, e) == []
        if e + 1 <= frs_achieved_radius(q, ell, s).e:
            assert [f.tolist() for f in list_decode_frs(ctx, ell, s, bad, e + 1)] == [coeffs.tolist()]


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
    monkeypatch.setattr(listdec, "_syndrome_decode", _must_not_run)
    rng = np.random.default_rng(21)
    coeffs = rng.integers(0, 13, size=2)
    blocks = corrupt_blocks(F13, evaluate_values(F13, coeffs).reshape(6, 2), (0, 2, 5), rng)
    got = list_decode_frs(F13, 2, 2, blocks, 3)
    assert any(np.array_equal(g, coeffs) for g in got)


def test_frs_unique_path_matches_oracle_exhaustively():
    # GF(13), ell = 3, s = 2 takes the unique-decoder path at every e <= 2: every block
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


# -- the syndrome (Berlekamp-Massey) unique decoder ---------------------------------

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


@functools.lru_cache(maxsize=4)
def rs_codewords(ctx, ell):
    """Every codeword of RS(q, ell), read-only: the oracle's enumeration."""
    words = np.vstack(list(iter_codeword_chunks(ctx, rs_code(ctx, ell).basis)))
    words.flags.writeable = False
    return words


def unique_oracle(ctx, ell, word, erased=None):
    """The codeword within (N - ell)//2 errors on the N unerased positions, by
    enumerating RS(q, ell); None when there is none."""
    keep = np.ones(ctx.q - 1, dtype=bool) if erased is None else ~erased
    t = (int(keep.sum()) - ell) // 2
    words = rs_codewords(ctx, ell)
    hit = np.flatnonzero(np.count_nonzero((words != word) & keep, axis=1) <= t)
    return words[hit[0]] if hit.size else None


def assert_unique_matches_oracle(ctx, ell, word, erased=None):
    got = rs_unique_decode(ctx, ell, word, erased)
    want = unique_oracle(ctx, ell, word, erased)
    if want is None:
        assert got is None, (word.tolist(), ell)
    else:
        assert got is not None and len(got) == ell, (word.tolist(), ell)
        assert np.array_equal(evaluate_values(ctx, got), want), (word.tolist(), ell)
    return got


@pytest.mark.parametrize("q,ells", [(8, (1, 2, 3)), (9, (2, 3)), (16, (2, 3))])
def test_unique_decoder_errors_only_matches_oracle(q, ells):
    # characteristic 2 (GF(8), GF(16)) exercises the formal derivative, which
    # drops the even terms; an odd n - ell (RS(8,2), RS(9,3), RS(16,2)) leaves
    # one syndrome outside Berlekamp-Massey, checked only by the final test
    ctx = field_from_order(q)
    n = q - 1
    rng = np.random.default_rng(30)
    outcomes = set()
    for ell in ells:
        for n_err in range((n - ell) // 2 + 4):
            for _ in range(5):
                word = planted(ctx, ell, min(n_err, n), 0, rng)[1]
                outcomes.add(assert_unique_matches_oracle(ctx, ell, word) is None)
        for _ in range(10):
            assert_unique_matches_oracle(ctx, ell, rng.integers(0, q, size=n))
    assert outcomes == {True, False}


@pytest.mark.parametrize("q,ells", [(8, (1, 2, 3)), (27, (1, 2))])
def test_unique_decoder_with_erasures_matches_oracle_over_extension_fields(q, ells):
    # characteristic 2 (GF(8)) and degree 3 (GF(8), GF(27)): the extension-field
    # Berlekamp-Massey run from the erasure locator, up to and past the radius
    ctx = field_from_order(q)
    n = q - 1
    rng = np.random.default_rng(34)
    outcomes = set()
    for ell in ells:
        for n_erase in sorted({0, 1, 2, (n - ell) // 2, n - ell - 1, n - ell}):
            t = (n - n_erase - ell) // 2
            for n_err in sorted({0, t, t + 1, t + 2}):
                _, word, erased = planted(ctx, ell, min(n_err, n - n_erase), n_erase, rng)
                outcomes.add(assert_unique_matches_oracle(ctx, ell, word, erased) is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("ell", [1, 3])
def test_unique_decoder_odd_redundancy_exhaustive(ell):
    # GF(5) with n - ell odd, on every word of GF(5)^4
    ctx = field_new(5)
    for digits in range(5**4):
        assert_unique_matches_oracle(ctx, ell, np.array([digits // 5**i % 5 for i in range(4)]))


def test_unique_decoder_with_no_syndromes():
    # ell = n: every word is a codeword, and one erasure leaves N < ell
    rng = np.random.default_rng(31)
    for ctx in (F13, field_from_order(16)):
        n = ctx.q - 1
        w = rng.integers(0, ctx.q, size=n)
        assert np.array_equal(evaluate_values(ctx, rs_unique_decode(ctx, n, w)), w)
        erased = np.zeros(n, dtype=bool)
        erased[3] = True
        assert rs_unique_decode(ctx, n, w, erased) is None


def test_unique_decoder_too_few_unerased_symbols():
    rng = np.random.default_rng(32)
    coeffs, word, erased = planted(F13, 5, 0, 8, rng)  # N = 4 < ell = 5
    assert rs_unique_decode(F13, 5, word, erased) is None
    i = np.flatnonzero(erased)[0]
    word[i], erased[i] = evaluate_values(F13, coeffs)[i], False  # N = 5, no errors
    assert np.array_equal(rs_unique_decode(F13, 5, word, erased), coeffs)


@pytest.mark.parametrize("ctx", [F7, F13, F25, field_from_order(16)])
def test_unique_decoder_all_false_mask_matches_none(ctx):
    n = ctx.q - 1
    rng = np.random.default_rng(33)
    for _ in range(60):
        ell = int(rng.integers(1, n + 1))
        w = planted(ctx, ell, min(int(rng.integers(0, (n - ell) // 2 + 3)), n), 0, rng)[1]
        a = rs_unique_decode(ctx, ell, w)
        b = rs_unique_decode(ctx, ell, w, np.zeros(n, dtype=bool))
        assert (a is None and b is None) or np.array_equal(a, b)


def _berlekamp_massey_full(ctx, syn, gamma, t):
    """The register synthesis run over all 2t Forney syndromes, with no stop
    at Massey's bound: the reference for ``listdec._berlekamp_massey``."""
    ext, p = ctx.m > 1, ctx.p
    rho = len(gamma) - 1
    psi = gamma + [0] * (2 * t)
    prev, errs, shift, scale = gamma, 0, 0, 1
    rsyn, top = syn[::-1], len(syn) - 1 - rho
    for k in range(2 * t):
        shift += 1
        s = rsyn[top - k: top - k + rho + errs + 1]
        d = matmul(ctx, psi[:len(s)], s) if ext else sum(map(operator.mul, psi, s)) % p
        if d:
            lo, hi, c = shift, shift + len(prev), (ctx.mul(d, scale) if ext else d * scale % p)
            new = (ctx.sub(np.array(psi[lo:hi]), ctx.mul(c, prev[:len(psi) - lo])).tolist() if ext
                   else [(x - c * y) % p for x, y in zip(psi[lo:hi], prev)])
            if 2 * errs <= k:
                prev, errs, shift = psi[: rho + errs + 1], k + 1 - errs, 0
                scale = ctx.inv(d) if ext else pow(d, -1, p)
            psi[lo:hi] = new
    return psi[: rho + errs + 1], errs


@pytest.mark.parametrize("ctx,ells,stride", [(F127, (2,), 3), (F25, (2, 3), 1)])
def test_berlekamp_massey_stop_at_massey_bound_changes_no_decode(ctx, ells, stride, monkeypatch):
    # 0 to t + 3 errors (every stride-th count, and each of t - 2..t + 3) and
    # 0-2 erasures: the register matches the full run whenever that run ends
    # within t, and every decode matches the oracle
    real, stopped, outcomes = listdec._berlekamp_massey, set(), set()

    def both(ctx, syn, gamma, t):
        got, want = real(ctx, list(syn), list(gamma), t), _berlekamp_massey_full(ctx, syn, gamma, t)
        if want[1] <= t:
            assert got == want
        stopped.add(want[1] < t)  # the stop at step errs + t < 2t skipped steps
        return got

    monkeypatch.setattr(listdec, "_berlekamp_massey", both)
    n = ctx.q - 1
    rng = np.random.default_rng(35)
    for ell in ells:
        for n_erase in range(3):
            t = (n - n_erase - ell) // 2
            for n_err in sorted(set(range(0, t + 4, stride)) | set(range(t - 2, t + 4))):
                _, word, erased = planted(ctx, ell, n_err, n_erase, rng)
                got = assert_unique_matches_oracle(ctx, ell, word, erased if n_erase else None)
                outcomes.add(got is None)
    assert stopped == outcomes == {True, False}


def test_berlekamp_massey_stop_rejects_a_register_that_fails_late():
    # S_k = X^k (one error at X) up to S_(2t-2), then S_(2t-1) off by one: the
    # length-1 register stops at step t + 1, where the full run fails at the
    # last syndrome and ends with length 2t - 1; the decoder still says None
    ctx, ell = F127, 2
    n, x = ctx.q - 1, int(ctx.units()[5])
    t = (n - ell) // 2
    syn = [int(ctx.pow(x, k)) for k in range(2 * t)]
    syn[-1] = int(ctx.add(syn[-1], 1))
    assert listdec._berlekamp_massey(ctx, syn, [1], t)[1] == 1
    assert _berlekamp_massey_full(ctx, syn, [1], t)[1] == 2 * t - 1
    coeffs = np.concatenate([np.random.default_rng(36).integers(0, ctx.q, size=ell), syn])
    word = evaluate_values(ctx, coeffs)
    assert assert_unique_matches_oracle(ctx, ell, word) is None


# sha256 of seeded rs_unique_decode outputs (None included) over prime and
# extension fields, errors only and with erasures, computed with Gao's
# partial-Euclid decoder; the syndrome decoder must reproduce it byte for byte
RS_UNIQUE_SHA256 = "4c7ed4913062a592549b8a06547906125ecb315304575e2a6c89cef197276c36"


def test_seeded_unique_decodes_are_pinned():
    digest = hashlib.sha256()
    rng = np.random.default_rng(2026)
    outcomes = {True: 0, False: 0}
    for q in (7, 13, 16, 25, 127):
        ctx = field_from_order(q)
        n = q - 1
        for ell in sorted({1, 2, n // 3, n // 2 + 1, n - 1}):
            for t in range(12):
                n_erase = int(rng.integers(0, n - ell + 2)) if t % 2 else 0
                n_err = int(rng.integers(0, min((n - n_erase - ell) // 2 + 3, n - n_erase) + 1))
                _, bad, erased = planted(ctx, ell, n_err, n_erase, rng)
                f = rs_unique_decode(ctx, ell, bad, erased if t % 2 else None)
                outcomes[f is None] += 1
                digest.update(b"None" if f is None else f.tobytes())
                digest.update(b"|")
    assert outcomes == {True: 112, False: 176}
    assert digest.hexdigest() == RS_UNIQUE_SHA256


# sha256 of seeded list decodes, computed before the root search, the Y-shift
# and the folded interpolation were vectorised; they must reproduce it byte for
# byte. The GS part runs past the unique radius on a prime and two extension
# fields; the folded part names (q, ell, s, e) and includes the v >= 2 sets,
# where list_decode_frs interpolates instead of calling the unique decoder.
LIST_DECODE_SHA256 = "02bc83dc73f25fb4c16af2c094dc46fda564cb1333d6b45029f42d7131fa7e0c"
FOLDED_SETS = ((13, 2, 2, 3), (16, 3, 3, 2), (25, 4, 2, 5),
               (16, 4, 3, 2), (25, 4, 4, 3), (25, 2, 3, 5))


def test_seeded_list_decodes_are_pinned():
    digest = hashlib.sha256()
    rng = np.random.default_rng(2024)
    for q, ell in ((13, 2), (13, 3), (16, 3), (25, 5)):
        ctx = field_from_order(q)
        n = q - 1
        for e in range((n - ell) // 2 + 1, best_feasible_radius_rs(q, ell, 4) + 1):
            for t in range(4):
                word = evaluate_values(ctx, rng.integers(0, q, size=ell))
                bad = rng.choice(n, size=e if t < 3 else n // 2, replace=False)
                word[bad] = rng.integers(0, q, size=len(bad))
                for f in list_decode_rs(ctx, ell, word, e, m_cap=4):
                    digest.update(f.tobytes())
                digest.update(b"|")
    interpolated = 0
    for q, ell, s, e in FOLDED_SETS:
        ctx = field_from_order(q)
        n = q - 1
        params = frs_achieved_radius(q, ell, s)
        assert e == params.e
        interpolated += s * e > (n - ell) // 2 and params.v >= 2
        for t in range(6):
            blocks = evaluate_values(ctx, rng.integers(0, q, size=ell)).reshape(-1, s)
            bad = rng.choice(n // s, size=e if t < 4 else e + 2, replace=False)
            blocks[bad] = rng.integers(0, q, size=(len(bad), s))
            for f in list_decode_frs(ctx, ell, s, blocks, e):
                digest.update(f.tobytes())
            digest.update(b"|")
    assert interpolated == 4
    assert digest.hexdigest() == LIST_DECODE_SHA256
