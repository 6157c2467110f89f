"""corpus-verify: one operation runs one acceptance criterion in process.

This is the release gate users run (``antinef corpus verify``), with the
workload seed.  The numpy box enumerations of ``oracle`` dominate it and
hundreds of small ideals run beside them; without it the ``oracle`` layer
would go unmeasured.
"""

from __future__ import annotations

import random
import re

from reference import require

MODULES = ["antinef.verify"]


def label(criterion: str) -> str:
    """'3 colon/core vs oracle' -> '3_colon_core_vs_oracle'."""
    return re.sub(r"[^A-Za-z0-9]+", "_", criterion).strip("_")


class CorpusVerify:
    def __init__(self, prog, seed: int):
        self.prog = prog
        self.seed = seed
        self.ops = list(prog.verify.CRITERIA)
        random.Random(f"corpus-verify:{seed}").shuffle(self.ops)
        self.later: list = []

    def run(self, op: str):
        return self.prog.verify.CRITERIA[op](seed=self.seed)

    def summary(self, op: str, raw) -> dict:
        return {"ok": raw.ok, "detail": raw.detail}

    def check(self, op: str, s: dict, raw=None) -> bool:
        require(s["ok"], f"criterion {op!r} fails: {s['detail']}")
        return True


def plan(seed: int, work_dir=None) -> int:
    return seed


def prepare(prog, seed: int) -> None:
    """Set-up is the import of ``verify`` alone."""


def build(prog, seed: int, made=None) -> CorpusVerify:
    return CorpusVerify(prog, seed)
