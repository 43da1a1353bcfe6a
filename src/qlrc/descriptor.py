"""Code descriptors: the JSON interchange format and its constructors.

A descriptor is the single source of truth for a code: it pins the field
(p, m, modulus, omega), the family, and the family parameters, which is
enough to rebuild the object bit-exactly (including the position order,
which follows the canonical generator).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .classical import FoldedCode, rs_code, tb_code
from .errors import ValidationError
from .gf import field_from_order
from .qtb import fqtb_new, qtb_new

FAMILIES = ("qtb", "fqtb", "rs", "tb", "frs", "random_qlrc", "ael")


@dataclass(frozen=True)
class Built:
    family: str
    obj: Any
    descriptor: dict


def build(desc: dict) -> Built:
    """Construct the code a descriptor names, validating its fields.

    Every key the descriptor shares with the rebuilt code's own descriptor
    (the field's p, m, modulus and omega among them) must match it.
    """
    built = _construct(desc)
    for key in sorted(desc.keys() & built.descriptor.keys()):
        if desc[key] != built.descriptor[key]:
            raise ValidationError(f"descriptor has {key}={desc[key]!r}, "
                                  f"but the rebuilt code has {built.descriptor[key]!r}")
    return built


def _construct(desc: dict) -> Built:
    family = desc.get("family")
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "ael":
        from .ensembles import ael_standard_build

        keys = ("q_in", "n_in", "r_in", "ell_in", "ell_out", "delta")  # a missing key: the default
        std = ael_standard_build(int(desc.get("seed", 0)),
                                 **{k: int(desc[k]) for k in keys if k in desc})
        return Built(family, std, std.descriptor())
    q = desc.get("q")
    if q is None:
        p, m = desc.get("p"), desc.get("m", 1)
        if p is None:
            raise ValidationError("descriptor needs q or (p, m)")
        q = p**m
    q = int(q)

    if family == "qtb":
        code = qtb_new(q, int(desc["r"]), int(desc["ell"]))
        return Built(family, code, code.descriptor())
    if family == "fqtb":
        code = fqtb_new(q, int(desc["r"]), int(desc["ell"]), int(desc["s"]))
        return Built(family, code, code.descriptor())
    if family == "rs":
        ctx = field_from_order(q)
        code = rs_code(ctx, int(desc["ell"]))
        d = ctx.descriptor()
        d.update(family="rs", ell=int(desc["ell"]), n=code.n, k=code.dim)
        return Built(family, code, d)
    if family == "tb":
        ctx = field_from_order(q)
        code = tb_code(ctx, int(desc["r"]), int(desc["ell"]))
        d = ctx.descriptor()
        d.update(family="tb", r=int(desc["r"]), ell=int(desc["ell"]), n=code.n, k=code.dim)
        return Built(family, code, d)
    if family == "frs":
        ctx = field_from_order(q)
        code = FoldedCode(rs_code(ctx, int(desc["ell"])), int(desc["s"]))
        d = ctx.descriptor()
        d.update(family="frs", ell=int(desc["ell"]), s=int(desc["s"]),
                 n=code.block_count, k=code.code.dim)
        return Built(family, code, d)
    from .ensembles import random_qlrc

    code = random_qlrc(int(desc["n"]), int(desc["r"]), int(desc["ell"]), q,
                       int(desc.get("seed", 0)))
    return Built(family, code, code.descriptor())


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        desc = json.load(f)
    if not isinstance(desc, dict):
        raise ValidationError("descriptor file must hold a JSON object")
    return desc
