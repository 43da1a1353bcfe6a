"""The Tamo-Barg decoders and their quantum wrapper."""

import numpy as np
import pytest

from qlrc import qtbdec
from qlrc.classical import eval_code, iter_codeword_chunks
from qlrc.css import PauliError, is_logical_identity, random_pauli
from qlrc.errors import DecodeContractViolation, DecodingFailed
from qlrc.gf import field_new, root_of_unity
from qlrc.polycode import (
    DensePoly,
    evaluate,
    evaluate_values,
    support_piecewise,
)
from qlrc.qtb import fqtb_new, qtb_new
from qlrc.qtbdec import (
    DecOutcome,
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
    w = evaluate(DensePoly(F13, [0, 1])).values
    d, wit = dist_to_piecewise(F13, w, 3)
    assert d == 0 and np.array_equal(wit, w)
    w2 = w.copy()
    w2[5] = (w2[5] + 3) % 13
    d, _ = dist_to_piecewise(F13, w2, 3)
    assert d == 1


def test_dist_to_piecewise_matches_brute(piecewise_words):
    rng = np.random.default_rng(0)
    sq = evaluate(DensePoly(F13, [0, 0, 1])).values
    targets = [sq] + [rng.integers(0, 13, size=12) for _ in range(40)]
    for w in targets:
        d, wit = dist_to_piecewise(F13, w, 3)
        brute = int(np.count_nonzero(piecewise_words != w[None, :], axis=1).min())
        assert d == brute
        assert int(np.count_nonzero(wit != w)) == d


def test_dist_to_piecewise_folded_matches_brute(piecewise_words):
    rng = np.random.default_rng(1)
    w = evaluate(DensePoly(F13, [0, 1])).values
    folded_targets = [w] + [rng.integers(0, 13, size=12) for _ in range(40)]
    for t in folded_targets:
        d, wit = dist_to_piecewise_folded(F13, t.reshape(6, 2), 3)
        diffs = (piecewise_words != t[None, :]).reshape(-1, 6, 2)
        brute = int(np.count_nonzero(np.any(diffs, axis=2), axis=1).min())
        assert d == brute


def test_dist_to_piecewise_folded_one_block_corruption():
    w = evaluate(DensePoly(F13, [0, 1])).values
    blocks = w.reshape(6, 2).copy()
    blocks[2, 0] = (blocks[2, 0] + 1) % 13
    d, _ = dist_to_piecewise_folded(F13, blocks, 3)
    assert d == 1


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
