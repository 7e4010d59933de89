"""Brute-force walk enumeration, the ground truth for every series here.

Walks of length n over the doubled alphabet S union S^{-1} are binned by the
winding number m of their endpoint (the Delta-exponent of its normal form).
Rather than enumerating (2k)^n words, a layer-by-layer dynamic program keeps
exact counts per normal-form state.  A state reached after n letters is
dropped when groups.delta_distance says it needs more than max_len - n
letters to get back into <Delta>: it adds to no count at any length up to
max_len, so the tables stay exact.  The state cap counts the distinct states
kept over all layers.
"""
from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    GroupSpec,
    NormalForm,
    IDENTITY,
    STAR_POLYGON,
    alphabet,
    apply_generator,
    delta_distance,
    one_sided_allowed,
)

DEFAULT_MAX_LEN = 14
DEFAULT_STATE_CAP = 10**7


@dataclass
class WalkCountTable:
    spec: GroupSpec
    max_len: int
    counts: dict[tuple[int, int], int]  # (n, m) -> f_{n,m}

    def at(self, n: int, m: int) -> int:
        return self.counts.get((n, m), 0)

    def row(self, n: int) -> dict[int, int]:
        return {m: f for (nn, m), f in self.counts.items() if nn == n and f}

    def rows_json(self) -> list[dict]:
        # decimal strings: counts outgrow 53-bit floats quickly
        items = sorted((n, m, f) for (n, m), f in self.counts.items() if f)
        return [{"n": n, "m": m, "f": str(f)} for n, m, f in items]


class StateCapExceeded(RuntimeError):
    pass


def _walk_table(
    spec: GroupSpec,
    max_len: int,
    keep,
    max_len_cap: int,
    state_cap: int,
) -> dict[tuple[int, int], int]:
    if max_len > max_len_cap:
        raise ValueError(f"max_len {max_len} exceeds cap {max_len_cap}")
    letters = alphabet(spec)
    layer: dict[NormalForm, int] = {IDENTITY: 1}
    seen: set[NormalForm] = {IDENTITY}
    counts: dict[tuple[int, int], int] = {}
    for nf, c in layer.items():
        if nf.in_delta_subgroup():
            counts[(0, nf.delta_exp)] = c
    for n in range(1, max_len + 1):
        nxt: dict[NormalForm, int] = {}
        for nf, c in layer.items():
            for g in letters:
                nf2, _ = apply_generator(spec, nf, g)
                if not keep(nf2) or delta_distance(spec, nf2) > max_len - n:
                    continue
                nxt[nf2] = nxt.get(nf2, 0) + c
        seen.update(nxt)
        if len(seen) > state_cap:
            raise StateCapExceeded(
                f"visited {len(seen)} normal forms, cap is {state_cap}"
            )
        layer = nxt
        for nf, c in layer.items():
            if nf.in_delta_subgroup():
                counts[(n, nf.delta_exp)] = c
    return counts


def count_closed_walks(
    spec: GroupSpec,
    max_len: int,
    max_len_cap: int = DEFAULT_MAX_LEN,
    state_cap: int = DEFAULT_STATE_CAP,
) -> WalkCountTable:
    """f_{n,m} = number of length-n words over S∪S^{-1} equal to Delta^m."""
    counts = _walk_table(
        spec,
        max_len,
        keep=lambda nf: True,
        max_len_cap=max_len_cap,
        state_cap=state_cap,
    )
    return WalkCountTable(spec, max_len, counts)


def count_one_sided_walks(
    spec: GroupSpec,
    facet: int,
    max_len: int,
    max_len_cap: int = DEFAULT_MAX_LEN,
    state_cap: int = DEFAULT_STATE_CAP,
) -> WalkCountTable:
    """Walks confined to the facet's one-sided subtree, returning to the root."""
    if spec.variant != STAR_POLYGON:
        raise ValueError("one-sided walks are defined for star-polygon specs")
    counts = _walk_table(
        spec,
        max_len,
        keep=lambda nf: one_sided_allowed(spec, nf, facet),
        max_len_cap=max_len_cap,
        state_cap=state_cap,
    )
    return WalkCountTable(spec, max_len, counts)
