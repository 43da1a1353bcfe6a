"""The four benchmark workloads.

Each workload stresses one layer that the others barely touch:

- ``qtb127-decode``: ``quantum_decode`` on qTB(127,3,80) at mixed Pauli
  weight 10, the certified radius. Berlekamp-Welch ``nullspace`` (``gf.rref``)
  does most of the work.
- ``fqtb127-decode``: ``quantum_decode`` on folded qTB(127,3,64,2) with 4
  corrupted blocks, the certified folded radius. Folded interpolation,
  ``solve_right`` and candidate enumeration; Berlekamp-Welch never runs.
- ``ael-decode``: ``ael_quantum_decode`` on the standard AEL code (seed 90)
  at ``radius_blocks``: extension-field arithmetic, the inner syndrome table
  and the outer errors-and-erasures decoder.
- ``qtb13-distance``: ``css_distance_brute`` on qTB(13,3,8), the exhaustive
  scan in ``classical.min_weight_excluding``; no decoder runs.

A workload imports ``qlrc`` in ``load`` and builds its code and runs one
warm-up call in ``build``; both count as set-up. Trials call into ``qlrc``
through module attributes, so a tracer installed between ``load`` and
``build`` sees them. Output checks use functions bound in ``load``, before
any tracer is installed, so the checks never appear in a trace.
"""

from __future__ import annotations

import numpy as np

WARMUP_SEED = 0
WARMUP_TRIAL = 1 << 31  # a stream index no trial reaches


class QtbDecode:
    """``quantum_decode`` on qTB(127,3,80), or on its 2-folded subcode at ell=64."""

    scaled = True  # trial times follow the calibration kernel's speed

    def __init__(self, folded: bool):
        self.folded = folded
        self.window = 4 if folded else 8  # traced trials whose counts are reported
        self.facts: dict = {}

    def load(self) -> None:
        from qlrc import css, ensembles, qtb, qtbdec

        self.css, self.ensembles, self.qtb, self.qtbdec = css, ensembles, qtb, qtbdec
        self.is_identity = css.is_logical_identity

    def build(self) -> None:
        if self.folded:
            self.code = self.qtb.fqtb_new(127, 3, 64, 2)
            self.css_code = self.code.base.css
            self.weight = 4  # whole blocks
        else:
            self.code = self.qtb.qtb_new(127, 3, 80)
            self.css_code = self.code.css
            self.weight = 10  # qudits
        radius = self.qtbdec.quantum_decode_radius(self.code)
        if self.weight > radius:
            raise RuntimeError(f"error weight {self.weight} exceeds the certified radius {radius}")
        self.facts = {"n": self.css_code.n, "k": self.code.k, "weight": self.weight,
                      "radius": radius}
        self.call(self.sample(WARMUP_SEED, WARMUP_TRIAL))

    def sample(self, seed: int, t: int):
        rng = self.ensembles.stream_rng(seed, t)
        if self.folded:
            return self.ensembles.random_block_pauli(self.code.ctx, self.code.block_count,
                                                     self.code.s, self.weight, rng)
        return self.css.random_pauli(self.code.ctx, self.css_code.n, self.weight, "mixed", rng)

    def call(self, err):
        return self.qtbdec.quantum_decode(self.code, err)[1]

    def check(self, err, residual) -> bool:
        return self.is_identity(self.css_code, residual)


class AelDecode:
    """``ael_quantum_decode`` on ``ael_standard_build(seed=90)`` at ``radius_blocks``.

    The code is built once per process. ``ensembles._INNER_DECODERS`` keys
    the inner syndrome tables by ``id(code)``, so a code built after another
    was freed can be handed the old code's table; one code per fresh
    interpreter keeps this workload clear of that until the cache is fixed.
    """

    window = 40
    scaled = True

    def __init__(self):
        self.facts: dict = {}

    def load(self) -> None:
        from qlrc import css, ensembles

        self.ensembles = ensembles
        self.is_identity = css.is_logical_identity

    def build(self) -> None:
        self.std = self.ensembles.ael_standard_build(seed=90)
        code = self.std.code
        if self.std.radius_blocks < 1:
            raise RuntimeError("the standard AEL code corrects no whole block")
        self.facts = {"n": code.n_qudits, "k": code.k_qudits, "weight": self.std.radius_blocks,
                      "radius": self.std.radius_blocks}
        self.call(self.sample(WARMUP_SEED, WARMUP_TRIAL))

    def sample(self, seed: int, t: int):
        code = self.std.code
        return self.ensembles.random_block_pauli(code.ctx, code.block_count, code.delta,
                                                 self.std.radius_blocks,
                                                 self.ensembles.stream_rng(seed, t))

    def call(self, err):
        return self.ensembles.ael_quantum_decode(self.std, err)[1]

    def check(self, err, residual) -> bool:
        return self.is_identity(self.std.code.css, residual)


class QtbDistance:
    """Exact CSS distance of qTB(13,3,8): 13^7 words, certified value 4.

    The code is fixed, so the seed changes nothing; there is no lazy state
    to warm, and set-up is the import plus the construction. Trial times are
    raw: one 13-second scan spans several host-speed phases that calibrations
    before and after it cannot see, and scaling by an elimination-only kernel
    spread ten runs more (13%) than raw times did (10%).
    """

    window = 1
    expected = 4
    scaled = False

    def __init__(self):
        self.facts: dict = {}

    def load(self) -> None:
        from qlrc import css, qtb

        self.css, self.qtb = css, qtb

    def build(self) -> None:
        self.code = self.qtb.qtb_new(13, 3, 8)
        self.facts = {"n": self.code.n, "k": self.code.k}

    def sample(self, seed: int, t: int):
        return None

    def call(self, _):
        return self.css.css_distance_brute(self.code.css)

    def check(self, _, out) -> bool:
        d, witness, side = out
        css_code = self.code.css
        code, dual = ((css_code.cz, css_code.dual_x_space) if side == "z"
                      else (css_code.cx, css_code.dual_z_space))
        self.facts["distance"] = int(d)
        return (d == self.expected and int(np.count_nonzero(witness)) == d
                and code.contains(witness) and not dual.contains(witness))


WORKLOADS = {
    "qtb127-decode": lambda: QtbDecode(folded=False),
    "fqtb127-decode": lambda: QtbDecode(folded=True),
    "ael-decode": AelDecode,
    "qtb13-distance": QtbDistance,
}
