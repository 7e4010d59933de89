"""Brute-force walk enumeration, the ground truth for every series here.

Walks of length n over the doubled alphabet S union S^{-1} are binned by the
winding number m of their endpoint (the Delta-exponent of its normal form),
and the counts f_{n,m} come back as a QZSeries: row n holds sum_m f_{n,m} q^m.
Rather than enumerating (2k)^n words, a layer-by-layer dynamic program keeps
exact counts per normal-form state.  A state reached after n letters is
dropped when groups.delta_distance says it needs more than max_len - n
letters to get back into <Delta>: it adds to no count at any length up to
max_len, so the rows stay exact.  The state cap, the one resource guard,
counts the distinct states kept over all layers.
"""
from __future__ import annotations

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
from .qseries import QPolynomial, QZSeries

DEFAULT_STATE_CAP = 10**7


class StateCapExceeded(RuntimeError):
    pass


def _walk_table(spec: GroupSpec, max_len: int, keep, state_cap: int) -> QZSeries:
    letters = alphabet(spec)
    layer: dict[NormalForm, int] = {IDENTITY: 1}
    seen: set[NormalForm] = {IDENTITY}
    rows = QZSeries.one(max_len)
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
        rows.coeffs[n] = QPolynomial.from_pairs(
            (nf.delta_exp, c) for nf, c in layer.items() if nf.in_delta_subgroup()
        )
    return rows


def count_closed_walks(
    spec: GroupSpec, max_len: int, state_cap: int = DEFAULT_STATE_CAP
) -> QZSeries:
    """f_{n,m} = number of length-n words over S∪S^{-1} equal to Delta^m."""
    return _walk_table(spec, max_len, lambda nf: True, state_cap)


def count_one_sided_walks(
    spec: GroupSpec, facet: int, max_len: int, state_cap: int = DEFAULT_STATE_CAP
) -> QZSeries:
    """Walks confined to the facet's one-sided subtree, returning to the root."""
    if spec.variant != STAR_POLYGON:
        raise ValueError("one-sided walks are defined for star-polygon specs")
    return _walk_table(
        spec, max_len, lambda nf: one_sided_allowed(spec, nf, facet), state_cap
    )
