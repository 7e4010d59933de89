"""Normal forms for the group presentations under study.

Every group here has a distinguished element Delta whose powers index the
"winding" of a word: star-polygon groups G(p_1,...,p_k) = <a_1,...,a_k |
a_1^{p_1} = ... = a_k^{p_k}> with Delta = a_i^{p_i} central, and two
presentations of the three-strand braid group where Delta is aba (standard)
or x^3 (axa).  Elements are stored as Delta^m * suffix with the suffix in a
canonical reduced form, so multiplying by a generator is a constant-time
suffix rewrite that also reports how m moved.  Walk counting elsewhere in the
package keys its dynamic programming on these normal forms.
"""
from __future__ import annotations

from dataclasses import dataclass


STAR_POLYGON = "StarPolygon"
BRAID_STANDARD = "BraidStandard"
BRAID_AXA = "BraidAXA"


@dataclass(frozen=True)
class GroupSpec:
    variant: str
    periods: tuple[int, ...] = ()  # StarPolygon only

    @property
    def generator_count(self) -> int:
        # a and x for the axa form, a and b for the standard form
        return len(self.periods) if self.variant == STAR_POLYGON else 2

    def __post_init__(self) -> None:
        if self.variant == STAR_POLYGON:
            if len(self.periods) < 2:
                raise ValueError("need at least two periods")
            if any(p < 2 for p in self.periods):
                raise ValueError("periods must be at least 2")
        elif self.variant in (BRAID_STANDARD, BRAID_AXA):
            if self.periods:
                raise ValueError("braid presentations carry no periods")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    def describe(self) -> str:
        if self.variant == STAR_POLYGON:
            return "G(" + ",".join(str(p) for p in self.periods) + ")"
        return "B3-standard" if self.variant == BRAID_STANDARD else "B3-axa"


@dataclass(frozen=True)
class SignedGenerator:
    index: int  # 1-based
    sign: int  # +1 or -1

    def inverse(self) -> "SignedGenerator":
        return SignedGenerator(self.index, -self.sign)


@dataclass(frozen=True)
class NormalForm:
    """Delta^m times a canonical suffix.

    StarPolygon suffixes are syllable tuples ((i, e), ...) with 1 <= e <=
    p_i - 1 and adjacent i distinct.  BraidStandard suffixes are positive
    words over "ab" avoiding the factors "aba" and "bab" (stored as a str).
    The axa presentation reuses StarPolygon(2,3) suffixes; see apply_generator.
    """

    delta_exp: int = 0
    suffix: tuple = ()
    word: str = ""  # BraidStandard only; suffix stays ()

    def in_delta_subgroup(self) -> bool:
        return not self.suffix and not self.word


IDENTITY = NormalForm()


def parse_group_spec(text: str) -> GroupSpec:
    """Parse "G(p1,...,pk)", "B3-standard", "B3-axa" or "B3-trefoil"."""
    text = text.strip()
    if text == "B3-standard":
        return GroupSpec(BRAID_STANDARD)
    if text == "B3-axa":
        return GroupSpec(BRAID_AXA)
    if text == "B3-trefoil":
        return GroupSpec(STAR_POLYGON, (2, 3))
    if text.startswith("G(") and text.endswith(")"):
        body = text[2:-1]
        try:
            periods = tuple(int(part) for part in body.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed group spec {text!r}") from exc
        return GroupSpec(STAR_POLYGON, periods)
    raise ValueError(f"malformed group spec {text!r}")


# The axa generators ride on the StarPolygon(2,3) presentation <c,x | c^2=x^3>
# obtained from <a,x | axa=x^2> by the substitution c = ax, so a = c x^{-1}.
# Index 1 is a (two carrier steps), index 2 is x (one carrier step).
_AXA_CARRIER = GroupSpec(STAR_POLYGON, (2, 3))


def _star_apply(spec: GroupSpec, nf: NormalForm, g: SignedGenerator) -> tuple[NormalForm, int]:
    i = g.index
    p = spec.periods[i - 1]
    m = nf.delta_exp
    suffix = nf.suffix
    last = suffix[-1] if suffix else None
    if g.sign > 0:
        if last is not None and last[0] == i:
            e = last[1]
            if e == p - 1:
                # a_i^{p_i} = Delta, which is central: close the polygon
                return NormalForm(m + 1, suffix[:-1]), 1
            return NormalForm(m, suffix[:-1] + ((i, e + 1),)), 0
        return NormalForm(m, suffix + ((i, 1),)), 0
    if last is not None and last[0] == i:
        e = last[1]
        if e == 1:
            return NormalForm(m, suffix[:-1]), 0
        return NormalForm(m, suffix[:-1] + ((i, e - 1),)), 0
    # a_i^{-1} = Delta^{-1} a_i^{p_i-1}
    return NormalForm(m - 1, suffix + ((i, p - 1),)), -1


_SWAP = str.maketrans("ab", "ba")


def _braid_append_positive(m: int, v: str, letter: str) -> tuple[int, str]:
    # completing aba or bab turns the tail into Delta; pushing Delta to the
    # front swaps the letters it passes (w Delta = Delta phi(w))
    if letter == "a" and v.endswith("ab"):
        return m + 1, v[:-2].translate(_SWAP)
    if letter == "b" and v.endswith("ba"):
        return m + 1, v[:-2].translate(_SWAP)
    return m, v + letter


def _braid_apply(nf: NormalForm, g: SignedGenerator) -> tuple[NormalForm, int]:
    letter = "ab"[g.index - 1]
    m, v = nf.delta_exp, nf.word
    if g.sign > 0:
        m2, v2 = _braid_append_positive(m, v, letter)
        return NormalForm(m2, (), v2), m2 - m
    if v.endswith(letter):
        return NormalForm(m, (), v[:-1]), 0
    # v g^{-1} = Delta^{-1} phi(v) (Delta g^{-1}), and Delta a^{-1} = ab,
    # Delta b^{-1} = ba; the two appended letters never re-reduce here but
    # they go through the generic append anyway
    m2, v2 = m - 1, v.translate(_SWAP)
    for w in ("ab" if letter == "a" else "ba"):
        m2, v2 = _braid_append_positive(m2, v2, w)
    return NormalForm(m2, (), v2), m2 - m


_AXA_STEPS = {
    # a = c x^{-1}, a^{-1} = x c^{-1}, x = carrier generator 2
    (1, 1): (SignedGenerator(1, 1), SignedGenerator(2, -1)),
    (1, -1): (SignedGenerator(2, 1), SignedGenerator(1, -1)),
    (2, 1): (SignedGenerator(2, 1),),
    (2, -1): (SignedGenerator(2, -1),),
}


def apply_generator(spec: GroupSpec, nf: NormalForm, g: SignedGenerator) -> tuple[NormalForm, int]:
    """Multiply nf by g on the right; return the new form and the change in m."""
    if not 1 <= g.index <= spec.generator_count:
        raise ValueError(f"generator index {g.index} out of range")
    if spec.variant == STAR_POLYGON:
        return _star_apply(spec, nf, g)
    if spec.variant == BRAID_STANDARD:
        return _braid_apply(nf, g)
    delta = 0
    for step in _AXA_STEPS[(g.index, g.sign)]:
        nf, d = _star_apply(_AXA_CARRIER, nf, step)
        delta += d
    return nf, delta


def evaluate_word(spec: GroupSpec, word) -> NormalForm:
    """Left-to-right product of the letters of word, starting from identity."""
    nf = IDENTITY
    for g in word:
        nf, _ = apply_generator(spec, nf, g)
    return nf


def one_sided_allowed(spec: GroupSpec, nf: NormalForm, facet: int) -> bool:
    """Whether nf lies in the one-sided subtree hanging off generator `facet`.

    The Schreier graph of a star-polygon group is a tree of polygons glued at
    the Delta-coset vertex; the facet-i one-sided graph keeps the root and
    everything reached through an a_i edge first.
    """
    if spec.variant != STAR_POLYGON:
        raise ValueError("one-sided graphs are defined for star-polygon specs")
    if not 1 <= facet <= spec.generator_count:
        raise ValueError(f"facet {facet} out of range")
    return not nf.suffix or nf.suffix[0][0] == facet


def alphabet(spec: GroupSpec) -> list[SignedGenerator]:
    """S plus S^{-1}, in a fixed deterministic order."""
    letters = []
    for i in range(1, spec.generator_count + 1):
        letters.append(SignedGenerator(i, 1))
        letters.append(SignedGenerator(i, -1))
    return letters


def normal_form_to_json(spec: GroupSpec, nf: NormalForm) -> dict:
    if spec.variant == BRAID_STANDARD:
        return {"m": nf.delta_exp, "word": nf.word}
    return {"m": nf.delta_exp, "suffix": [[i, e] for i, e in nf.suffix]}
