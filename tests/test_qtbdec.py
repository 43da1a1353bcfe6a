"""The Tamo-Barg decoders and their quantum wrapper."""

import hashlib
from itertools import product

import numpy as np
import pytest

from qlrc import qtbdec
from qlrc.classical import eval_code, iter_codeword_chunks
from qlrc.css import PauliError, is_logical_identity, random_pauli
from qlrc.ensembles import random_block_pauli
from qlrc.errors import DecodeContractViolation, DecodingFailed, ValidationError
from qlrc.gf import field_from_order, field_new, root_of_unity
from qlrc.listdec import best_feasible_radius_rs
from qlrc.polycode import evaluate_values, support_piecewise
from qlrc.qtb import fqtb_new, qtb_new
from qlrc.qtbdec import (
    DecOutcome,
    _map_back,
    _piecewise_distance,
    _shift_difference,
    dec_c,
    dec_c_folded,
    dec_c_folded_radius,
    dec_c_radius,
    dist_to_piecewise,
    dist_to_piecewise_folded,
    quantum_decode,
    quantum_decode_radius,
)

F13 = field_new(13)


@pytest.fixture(scope="module")
def piecewise_words():
    space = eval_code(F13, support_piecewise(13, 3))
    return np.vstack(list(iter_codeword_chunks(F13, space.basis)))


def test_dist_to_piecewise_members_and_flip(piecewise_words):
    w = evaluate_values(F13, [0, 1])
    d, wit = dist_to_piecewise(F13, w, 3)
    assert d == 0 and np.array_equal(wit, w)
    w2 = w.copy()
    w2[5] = (w2[5] + 3) % 13
    d, _ = dist_to_piecewise(F13, w2, 3)
    assert d == 1


def test_dist_to_piecewise_matches_brute(piecewise_words):
    rng = np.random.default_rng(0)
    sq = evaluate_values(F13, [0, 0, 1])
    targets = [sq] + [rng.integers(0, 13, size=12) for _ in range(40)]
    for w in targets:
        d, wit = dist_to_piecewise(F13, w, 3)
        brute = int(np.count_nonzero(piecewise_words != w[None, :], axis=1).min())
        assert d == brute
        assert int(np.count_nonzero(wit != w)) == d


def test_dist_to_piecewise_folded_matches_brute(piecewise_words):
    rng = np.random.default_rng(1)
    w = evaluate_values(F13, [0, 1])
    folded_targets = [w] + [rng.integers(0, 13, size=12) for _ in range(40)]
    for t in folded_targets:
        d, wit = dist_to_piecewise_folded(F13, t.reshape(6, 2), 3)
        diffs = (piecewise_words != t[None, :]).reshape(-1, 6, 2)
        brute = int(np.count_nonzero(np.any(diffs, axis=2), axis=1).min())
        assert d == brute


def test_dist_to_piecewise_folded_one_block_corruption():
    w = evaluate_values(F13, [0, 1])
    blocks = w.reshape(6, 2).copy()
    blocks[2, 0] = (blocks[2, 0] + 1) % 13
    d, _ = dist_to_piecewise_folded(F13, blocks, 3)
    assert d == 1


def piecewise_oracle(ctx, blocks, r):
    """Distance and witness by trying every slope vector in GF(q)^s on every
    coset group; ties go to the first vector in lexicographic order."""
    n_blocks, s = blocks.shape
    units = ctx.units().reshape(n_blocks, s)
    stride = n_blocks // r
    betas = np.array(list(product(range(ctx.q), repeat=s)), dtype=np.int64)
    dist, witness = 0, np.zeros_like(blocks)
    for g in range(stride):
        group = [g + t * stride for t in range(r)]
        fits = ctx.mul(betas[:, None, :], units[group][None, :, :])  # (beta, block, s)
        counts = np.all(fits == blocks[group][None, :, :], axis=2).sum(axis=1)
        best = int(np.argmax(counts))
        dist += r - int(counts[best])
        witness[group] = fits[best]
    return dist, witness


@pytest.mark.parametrize("q,r,s", [(13, 3, 1), (13, 3, 2), (13, 2, 3), (16, 3, 1),
                                   (16, 5, 1), (25, 3, 1), (25, 3, 2)])
def test_piecewise_distance_matches_every_slope_oracle(q, r, s):
    ctx = field_from_order(q)
    n = q - 1
    rng = np.random.default_rng(q * r * s)
    units = ctx.units()
    words = [np.zeros(n, dtype=np.int64)]
    for _ in range(12):
        words.append(rng.integers(0, q, size=n))
        sparse = rng.integers(0, q, size=n)
        sparse[rng.random(n) < 0.6] = 0  # zero values and zero slopes
        words.append(sparse)
        # a piecewise word with a few symbols changed, so counts near r and ties occur
        slopes = rng.integers(0, q, size=(n // (r * s), s))
        near = ctx.mul(np.broadcast_to(slopes, (r,) + slopes.shape).reshape(-1), units)
        hit = rng.choice(n, size=int(rng.integers(1, n // 2)), replace=False)
        near[hit] = rng.integers(0, q, size=hit.size)
        words.append(near)
    for w in words:
        want = piecewise_oracle(ctx, w.reshape(-1, s), r)
        d, wit = dist_to_piecewise_folded(ctx, w.reshape(-1, s), r)
        assert d == want[0] and np.array_equal(wit, want[1])
        if s == 1:
            d, wit = dist_to_piecewise(ctx, w, r)
            assert d == want[0] and np.array_equal(wit, want[1].reshape(-1))


def test_shift_difference_kills_piecewise_part():
    # w^-i h(w_r^i x) = h(x) for piecewise-linear h
    space = eval_code(F13, support_piecewise(13, 3))
    rng = np.random.default_rng(2)
    for _ in range(30):
        h = space.random_codeword(rng)
        for i in (1, 2):
            assert not np.any(_shift_difference(F13, h, 3, i))


def test_dec_c_on_exact_codeword():
    code = qtb_new(13, 3, 8)
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = code.code.random_codeword(rng)
        out = dec_c(code, c, e=0)
        assert out.dual_distance == 0
        assert code.css.dual_x_space.contains(F13.sub(out.word, c))


def test_dec_c_radius_values():
    assert dec_c_radius(127, 3, 80) == 10
    assert dec_c_radius(13, 3, 8) == 0
    assert dec_c_folded_radius(127, 3, 64, 2) == 4
    assert dec_c_folded_radius(13, 3, 8, 2) == 0


def test_dec_c_trials_at_radius_127():
    code = qtb_new(127, 3, 80)
    ctx = code.ctx
    rng = np.random.default_rng(4)
    lin = code.code
    for _ in range(5):
        c = lin.random_codeword(rng)
        b = np.zeros(126, dtype=np.int64)
        pos = rng.choice(126, size=10, replace=False)
        for i in pos.tolist():
            b[i] = rng.integers(1, 127)
        out = dec_c(code, ctx.add(c, b), e=10)
        assert code.css.dual_x_space.contains(ctx.sub(out.word, c))


def test_dec_c_overload_never_silently_wrong():
    # far beyond radius: either a DecodingFailed or an output that still
    # satisfies the checked contract for its reported distance
    code = qtb_new(127, 3, 80)
    ctx = code.ctx
    rng = np.random.default_rng(5)
    lin = code.code
    failures = 0
    for _ in range(5):
        c = lin.random_codeword(rng)
        b = np.zeros(126, dtype=np.int64)
        pos = rng.choice(126, size=10 + 32, replace=False)
        for i in pos.tolist():
            b[i] = rng.integers(1, 127)
        try:
            out = dec_c(code, ctx.add(c, b), e=10)
            d, _ = dist_to_piecewise(ctx, ctx.sub(out.word, ctx.add(c, b)), 3)
            assert d <= 10  # the contract the return promised
        except DecodingFailed:
            failures += 1
    assert failures >= 0  # failures allowed, silence is not


def test_dec_c_folded_exact_and_planted():
    code = fqtb_new(127, 3, 64, 2)
    ctx = code.ctx
    rng = np.random.default_rng(6)
    lin = code.base.code
    e = dec_c_folded_radius(127, 3, 64, 2)
    assert e >= 1
    for _ in range(3):
        c = lin.random_codeword(rng)
        blocks = c.reshape(63, 2).copy()
        bad = rng.choice(63, size=e, replace=False)
        for b in bad.tolist():
            blocks[b] = rng.integers(0, 127, size=2)
        out = dec_c_folded(code, blocks, e=e)
        resid = ctx.sub(out.word.reshape(-1), c)
        assert code.base.css.dual_x_space.contains(resid)


@pytest.mark.parametrize("q,r,s", [(13, 3, 1), (13, 3, 2), (19, 3, 3), (16, 3, 1),
                                   (16, 5, 3), (25, 3, 2), (31, 5, 3)])
def test_distance_only_fit_matches_the_public_distances(q, r, s):
    # words at every distance from the piecewise-linear space, read through
    # _decode's distance-only fit and through the public fits with witness
    ctx = field_from_order(q)
    rng = np.random.default_rng(q * r + s)
    piecewise = eval_code(ctx, support_piecewise(q, r))
    for _ in range(30):
        word = piecewise.random_codeword(rng)
        hit = rng.random(q - 1) < rng.random()
        word[hit] = rng.integers(0, q, size=int(hit.sum()))
        d = _piecewise_distance(ctx, word.reshape(-1, s), r)[0]
        assert d == dist_to_piecewise_folded(ctx, word.reshape(-1, s), r)[0]
        if s == 1:
            assert d == dist_to_piecewise(ctx, word, r)[0]


@pytest.mark.parametrize("q,r", [(13, 3), (16, 3), (11, 5), (16, 5), (29, 7), (8, 7)])
def test_map_back_table_matches_the_per_coefficient_formula(q, r):
    # coefficient j maps to g_j / (w_r^((j-1)i) - 1); a candidate nonzero on
    # any exponent j = +-1 mod r is invalid, whatever the rest of it holds
    ctx = field_from_order(q)
    wr = root_of_unity(ctx, r)
    rng = np.random.default_rng(q * r)
    for ell in sorted({min(r + 2, q - 1), q - 2}):
        invalid = [j for j in range(ell) if j % r in (1, r - 1)]
        for i in range(1, r):
            for _ in range(4):
                g = rng.integers(0, q, size=ell)
                g[invalid] = 0
                want = [int(ctx.div(int(g[j]), ctx.sub(ctx.pow(wr, (j - 1) * i % r), 1)))
                        if g[j] else 0 for j in range(ell)]
                got = _map_back(ctx, g, r, i)
                assert got.dtype == np.int64 and got.tolist() == want
                g[rng.choice(invalid)] = rng.integers(1, q)
                assert _map_back(ctx, g, r, i) is None


@pytest.mark.parametrize("q,r", [(13, 3), (16, 5), (31, 5)])
def test_map_back_inverts_the_differencing(q, r):
    # coefficient j of the i-th differenced word is a_j (w_r^((j-1)i) - 1), a
    # zero factor only at j = 1 mod r; a candidate with a nonzero coefficient
    # at j = +-1 mod r is rejected
    ctx = field_from_order(q)
    wr = root_of_unity(ctx, r)
    rng = np.random.default_rng(q)
    ell = q - 2
    for _ in range(10):
        a = rng.integers(0, q, size=ell)
        a[[j for j in range(ell) if j % r in (1, r - 1)]] = 0
        for i in range(1, r):
            g = np.array([ctx.mul(int(a[j]), ctx.sub(ctx.pow(wr, (j - 1) * i % r), 1))
                          for j in range(ell)], dtype=np.int64)
            diff = _shift_difference(ctx, evaluate_values(ctx, a), r, i)
            assert np.array_equal(evaluate_values(ctx, g), diff)
            assert np.array_equal(_map_back(ctx, g, r, i), a)
            for j in (1, r - 1, r + 1, 2 * r - 1):
                bad = g.copy()
                bad[j] = 1
                assert _map_back(ctx, bad, r, i) is None


# sha256 of dec_c_folded's outputs on the seeded words below, computed when
# every folded list decode went through interpolation; a faster path must
# reproduce it byte for byte
FOLDED_DECODE_SHA256 = "0b4231b1cba8a8c6f922c296db5992d5dc575f6ebdebc32c0142943727a40e19"


def test_dec_c_folded_seeded_outputs_are_pinned():
    code = fqtb_new(127, 3, 64, 2)
    lin = code.base.code
    digest = hashlib.sha256()
    for t in range(20):
        rng = np.random.default_rng(500 + t)
        blocks = lin.random_codeword(rng).reshape(63, 2)
        bad = rng.choice(63, size=(0, 1, 2, 3, 4, 6, 8, 10, 12, 16)[t % 10], replace=False)
        blocks[bad] = rng.integers(0, 127, size=(len(bad), 2))
        try:
            out = dec_c_folded(code, blocks)
        except DecodingFailed:
            digest.update(b"failed")
            continue
        for a in (out.word, out.coeffs):
            digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
        digest.update(repr((out.dual_distance, out.candidates, out.list_sizes,
                            out.rs_radius)).encode())
    assert digest.hexdigest() == FOLDED_DECODE_SHA256


# sha256 of dec_c's outputs on the seeded words below, computed when every
# shift was list-decoded; settling later shifts by an earlier shift's
# candidate must reproduce it byte for byte
DEC_C_SHA256 = "d1911cc5b076a8a6ba665ac8b9e18b567369de2e14be03313e253efa8b002062"
DEC_C_WORDS = (((127, 3, 80), range(24)), ((61, 5, 31), range(16)), ((43, 7, 22), range(12)))


def test_dec_c_seeded_outputs_are_pinned():
    digest = hashlib.sha256()
    for (q, r, ell), n_errs in DEC_C_WORDS:
        code = qtb_new(q, r, ell)
        for n_err in n_errs:
            rng = np.random.default_rng(1000 * q + n_err)
            word = code.code.random_codeword(rng)
            bad = rng.choice(q - 1, size=n_err, replace=False)
            word[bad] = code.ctx.add(word[bad], rng.integers(1, q, size=n_err))
            try:
                out = dec_c(code, word)
            except DecodingFailed:
                digest.update(b"failed")
                continue
            for a in (out.word, out.coeffs):
                digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
            digest.update(repr((out.dual_distance, out.candidates, out.list_sizes,
                                out.rs_radius)).encode())
    assert digest.hexdigest() == DEC_C_SHA256


@pytest.mark.parametrize("q,r,ell,s", [(127, 3, 80, 1), (127, 3, 64, 2), (43, 7, 22, 1)])
def test_within_the_radius_only_the_first_shift_is_decoded(q, r, ell, s):
    # every later shift is settled by the first shift's candidate
    code = fqtb_new(q, r, ell, s) if s > 1 else qtb_new(q, r, ell)
    lin = code.base.code if s > 1 else code.code
    e = quantum_decode_radius(code)
    for t in range(8):
        rng = np.random.default_rng(700 + t)
        word = lin.random_codeword(rng)
        bad = rng.choice(len(word) // s, size=e, replace=False)
        blocks = word.reshape(-1, s)
        blocks[bad] = code.ctx.add(blocks[bad], rng.integers(1, q, size=(e, s)))
        out = dec_c_folded(code, blocks, e=e) if s > 1 else dec_c(code, word, e=e)
        assert out.decoded_shifts == (1,)
        assert out.list_sizes == (1,) * (r - 1)
        assert out.dual_distance <= e


def test_past_the_unique_radius_every_shift_is_decoded(monkeypatch):
    # at multiplicity 4 the list radius 8 exceeds the unique radius 7: GS lists
    # may hold several codewords, so no candidate settles another shift
    monkeypatch.setattr(qtbdec, "DEC_MULTIPLICITY_CAP", 4)
    assert best_feasible_radius_rs(31, 16, 4) == 8 > (30 - 16) // 2
    code = qtb_new(31, 3, 16)
    rng = np.random.default_rng(11)
    for n_err in (0, 3):
        word = code.code.random_codeword(rng)
        bad = rng.choice(30, size=n_err, replace=False)
        word[bad] = code.ctx.add(word[bad], rng.integers(1, 31, size=n_err))
        out = dec_c(code, word)  # not quantum_decode: dec_c_radius is cached
        assert out.decoded_shifts == (1, 2)
        assert out.rs_radius == 8 and out.dual_distance == n_err


def test_quantum_decode_runs_one_rs_decode_per_side(monkeypatch):
    from qlrc import listdec

    calls = []
    real = listdec._syndrome_decode
    monkeypatch.setattr(listdec, "_syndrome_decode",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    code = qtb_new(127, 3, 80)
    err = random_pauli(code.ctx, 126, 10, "mixed", np.random.default_rng(8))
    _, resid = quantum_decode(code, err)
    assert is_logical_identity(code.css, resid)
    assert len(calls) == 2


@pytest.mark.parametrize("folded", [False, True])
def test_quantum_decode_evaluates_one_candidate_per_side(monkeypatch, folded):
    # the unique list decoders count their own errors, so within the radius
    # each side evaluates only the candidate its one decoded shift maps back to
    from qlrc import listdec, polycode

    calls, real = [], polycode.evaluate_values
    for module in (polycode, listdec, qtbdec):
        monkeypatch.setattr(module, "evaluate_values",
                            lambda *args: calls.append(1) or real(*args))
    code = fqtb_new(127, 3, 64, 2) if folded else qtb_new(127, 3, 80)
    css, rng = (code.base.css if folded else code.css), np.random.default_rng(9)
    for _ in range(3):
        err = (random_block_pauli(code.ctx, 63, 2, 4, rng) if folded
               else random_pauli(code.ctx, 126, 10, "mixed", rng))
        calls.clear()
        _, resid = quantum_decode(code, err)
        assert is_logical_identity(css, resid)
        assert len(calls) == 2


@pytest.mark.parametrize("folded", [False, True])
def test_quantum_decode_rejects_a_malformed_error(folded):
    code = fqtb_new(13, 3, 8, 2) if folded else qtb_new(13, 3, 8)
    zero = np.zeros(12, dtype=np.int64)
    big, negative = zero.copy(), zero.copy()
    big[3], negative[5] = 20, -1  # 20 is not an element of GF(13)
    for err in (PauliError(zero[:10], zero[:10]), PauliError(big, zero),
                PauliError(zero, negative)):
        with pytest.raises(ValidationError):
            quantum_decode(code, err)


def test_quantum_decode_zero_error():
    code = qtb_new(13, 3, 8)
    zero = PauliError(np.zeros(12, dtype=np.int64), np.zeros(12, dtype=np.int64))
    corr, resid = quantum_decode(code, zero)
    assert is_logical_identity(code.css, resid)


def test_quantum_decode_radius_reporting():
    code = qtb_new(13, 3, 8)
    assert quantum_decode_radius(code) == 0
    code127 = qtb_new(127, 3, 80)
    assert quantum_decode_radius(code127) == 10


def test_quantum_decode_x_only_and_mixed():
    code = qtb_new(127, 3, 80)
    rng = np.random.default_rng(7)
    for model in ("x-only", "mixed"):
        for _ in range(3):
            err = random_pauli(code.ctx, 126, 10, model, rng)
            corr, resid = quantum_decode(code, err)
            assert is_logical_identity(code.css, resid)


def test_quantum_decode_stabilizer_error_invisible():
    code = qtb_new(13, 3, 8)
    css = code.css
    err = PauliError(css.hz[0], css.hx[0])
    corr, resid = quantum_decode(code, err)
    assert is_logical_identity(css, resid)


def _raise_decoding_failed(*args, **kwargs):
    raise DecodingFailed("injected")


@pytest.mark.parametrize("folded", [False, True])
def test_quantum_decode_failure_within_radius_is_contract_violation(monkeypatch, folded):
    code = fqtb_new(127, 3, 64, 2) if folded else qtb_new(13, 3, 8)
    monkeypatch.setattr(qtbdec, "dec_c_folded" if folded else "dec_c", _raise_decoding_failed)
    n = code.base.css.n if folded else code.css.n
    zero = PauliError(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
    with pytest.raises(DecodeContractViolation):
        quantum_decode(code, zero)


@pytest.mark.parametrize("folded", [False, True])
def test_quantum_decode_failure_beyond_radius_propagates(monkeypatch, folded):
    code = fqtb_new(127, 3, 64, 2) if folded else qtb_new(13, 3, 8)
    monkeypatch.setattr(qtbdec, "dec_c_folded" if folded else "dec_c", _raise_decoding_failed)
    s = code.s if folded else 1
    n = code.base.css.n if folded else code.css.n
    bx = np.zeros(n, dtype=np.int64)
    bx[: s * (quantum_decode_radius(code) + 1): s] = 1  # one qudit in each of radius+1 blocks
    with pytest.raises(DecodingFailed):  # not a DecodeContractViolation
        quantum_decode(code, PauliError(bx, np.zeros(n, dtype=np.int64)))
