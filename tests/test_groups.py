import pytest
from hypothesis import given, settings, strategies as st

from cogrowth.groups import (
    BRAID_AXA,
    BRAID_STANDARD,
    IDENTITY,
    STAR_POLYGON,
    GroupSpec,
    NormalForm,
    SignedGenerator,
    alphabet,
    apply_generator,
    delta_distance,
    evaluate_word,
    one_sided_allowed,
    parse_group_spec,
)

G34 = GroupSpec(STAR_POLYGON, (3, 4))
G22 = GroupSpec(STAR_POLYGON, (2, 2))
G23 = GroupSpec(STAR_POLYGON, (2, 3))
BRAID = GroupSpec(BRAID_STANDARD)
AXA = GroupSpec(BRAID_AXA)

ALL_SPECS = [G34, G22, G23, BRAID, AXA, GroupSpec(STAR_POLYGON, (2, 2, 2))]


def gen(i, sign=1):
    return SignedGenerator(i, sign)


def letters(spec, text):
    """abA -> a1 a2 a1^{-1}; uppercase marks the inverse."""
    out = []
    for ch in text:
        out.append(gen(ord(ch.lower()) - ord("a") + 1, -1 if ch.isupper() else 1))
    return out


class TestParse:
    def test_star(self):
        assert parse_group_spec("G(3,4)") == G34

    def test_trefoil_alias(self):
        assert parse_group_spec("B3-trefoil") == G23

    def test_braids(self):
        assert parse_group_spec("B3-standard").variant == BRAID_STANDARD
        assert parse_group_spec("B3-axa").variant == BRAID_AXA

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_group_spec("G(5)")
        with pytest.raises(ValueError):
            parse_group_spec("G(3,1)")
        with pytest.raises(ValueError):
            parse_group_spec("G(3,x)")
        with pytest.raises(ValueError):
            parse_group_spec("H(2,3)")


class TestStarPolygonSteps:
    def test_close_polygon(self):
        nf, d = apply_generator(G34, NormalForm(0, ((1, 2),)), gen(1))
        assert nf == NormalForm(1, ()) and d == 1

    def test_inverse_from_identity(self):
        nf, d = apply_generator(G34, IDENTITY, gen(1, -1))
        assert nf == NormalForm(-1, ((1, 2),)) and d == -1

    def test_exponent_bump(self):
        nf, d = apply_generator(G34, NormalForm(0, ((2, 1),)), gen(2))
        assert nf == NormalForm(0, ((2, 2),)) and d == 0

    def test_delta_squared(self):
        assert evaluate_word(G22, letters(G22, "aa")) == NormalForm(1, ())

    def test_free_cancellation(self):
        assert evaluate_word(G23, letters(G23, "aAbB")) == IDENTITY

    def test_bad_index(self):
        with pytest.raises(ValueError):
            apply_generator(G34, IDENTITY, gen(3))


class TestBraidSteps:
    def test_strip_to_delta(self):
        nf, d = apply_generator(BRAID, NormalForm(0, (), "ab"), gen(1))
        assert nf == NormalForm(1, (), "") and d == 1

    def test_inverse_from_identity(self):
        # a^{-1} = Delta^{-1} (Delta a^{-1}) and Delta a^{-1} = aba a^{-1} = ab
        nf, d = apply_generator(BRAID, IDENTITY, gen(1, -1))
        assert nf == NormalForm(-1, (), "ab") and d == -1

    def test_abab(self):
        assert evaluate_word(BRAID, letters(BRAID, "abab")) == NormalForm(1, (), "b")

    def test_pop_trailing_letter(self):
        nf, d = apply_generator(BRAID, NormalForm(2, (), "ba"), gen(1, -1))
        assert nf == NormalForm(2, (), "b") and d == 0

    def test_swap_propagates(self):
        # bb·ab·a ends in Delta, so the prefix letters swap
        assert evaluate_word(BRAID, letters(BRAID, "bbaba")) == NormalForm(1, (), "aa")

    def test_length_two_identities(self):
        for text in ["aA", "Aa", "bB", "Bb"]:
            assert evaluate_word(BRAID, letters(BRAID, text)) == IDENTITY


class TestAxaSteps:
    def test_a_from_identity(self):
        # a = c x^{-1} on the carrier: c lands on (1,1), x^{-1} appends (2,2)
        nf, d = apply_generator(AXA, IDENTITY, gen(1))
        assert nf == NormalForm(-1, ((1, 1), (2, 2))) and d == -1

    def test_a_roundtrip(self):
        nf, d = apply_generator(AXA, IDENTITY, gen(1))
        nf, d2 = apply_generator(AXA, nf, gen(1, -1))
        assert nf == IDENTITY and d + d2 == 0

    def test_x_cubed_is_delta(self):
        assert evaluate_word(AXA, [gen(2)] * 3) == NormalForm(1, ())

    def test_relation_axa_equals_xx(self):
        lhs = evaluate_word(AXA, [gen(1), gen(2), gen(1)])
        rhs = evaluate_word(AXA, [gen(2), gen(2)])
        assert lhs == rhs

    def test_delta_central_via_x(self):
        # x^3 a x^{-3} a^{-1} is trivial
        word = [gen(2)] * 3 + [gen(1)] + [gen(2, -1)] * 3 + [gen(1, -1)]
        assert evaluate_word(AXA, word) == IDENTITY


class TestOneSided:
    def test_root_all_facets(self):
        assert one_sided_allowed(G34, NormalForm(5, ()), 1)
        assert one_sided_allowed(G34, NormalForm(5, ()), 2)

    def test_first_syllable(self):
        assert one_sided_allowed(G34, NormalForm(0, ((1, 1),)), 1)
        assert not one_sided_allowed(G34, NormalForm(0, ((2, 1),)), 1)

    def test_errors(self):
        with pytest.raises(ValueError):
            one_sided_allowed(G34, IDENTITY, 3)
        with pytest.raises(ValueError):
            one_sided_allowed(BRAID, IDENTITY, 1)


@st.composite
def spec_and_word(draw, max_len=50):
    spec = draw(st.sampled_from(ALL_SPECS))
    n = draw(st.integers(0, max_len))
    word = [
        SignedGenerator(draw(st.integers(1, spec.generator_count)), draw(st.sampled_from([1, -1])))
        for _ in range(n)
    ]
    return spec, word


def check_valid(spec, nf):
    if spec.variant == BRAID_STANDARD:
        assert "aba" not in nf.word and "bab" not in nf.word
        return
    periods = spec.periods if spec.variant == STAR_POLYGON else (2, 3)
    for j, (i, e) in enumerate(nf.suffix):
        assert 1 <= e <= periods[i - 1] - 1
        if j:
            assert nf.suffix[j - 1][0] != i


class TestProperties:
    @settings(max_examples=300)
    @given(spec_and_word())
    def test_roundtrip_every_generator(self, sw):
        spec, word = sw
        nf = evaluate_word(spec, word)
        for g in alphabet(spec):
            stepped, d = apply_generator(spec, nf, g)
            back, d2 = apply_generator(spec, stepped, g.inverse())
            assert back == nf
            assert d + d2 == 0

    @settings(max_examples=300)
    @given(spec_and_word())
    def test_word_inverse(self, sw):
        spec, word = sw
        inverse = [g.inverse() for g in reversed(word)]
        assert evaluate_word(spec, word + inverse) == IDENTITY

    @settings(max_examples=300)
    @given(spec_and_word())
    def test_suffix_stays_valid(self, sw):
        spec, word = sw
        nf = IDENTITY
        for g in word:
            nf, _ = apply_generator(spec, nf, g)
            check_valid(spec, nf)

    @settings(max_examples=300)
    @given(spec_and_word())
    def test_inverting_letters_negates_winding(self, sw):
        spec, word = sw
        if spec.variant != STAR_POLYGON:
            return
        nf = evaluate_word(spec, word)
        if not nf.in_delta_subgroup():
            return
        flipped = evaluate_word(spec, [g.inverse() for g in word])
        assert flipped.in_delta_subgroup()
        assert flipped.delta_exp == -nf.delta_exp

    @settings(max_examples=200)
    @given(spec_and_word(max_len=30))
    def test_single_letter_delta_range(self, sw):
        spec, word = sw
        lo, hi = (-2, 2) if spec.variant == BRAID_AXA else (-1, 1)
        nf = IDENTITY
        for g in word:
            nf, d = apply_generator(spec, nf, g)
            assert lo <= d <= hi


def ball(spec, radius):
    """Every normal form within radius letters of the identity, with the
    number of letters from <Delta> to it (breadth-first over the suffixes)."""
    forms, depth = {IDENTITY}, {IDENTITY.suffix: 0}
    frontier = [IDENTITY]
    for r in range(1, radius + 1):
        nxt = []
        for nf in frontier:
            for g in alphabet(spec):
                nf2, _ = apply_generator(spec, nf, g)
                depth.setdefault(nf2.suffix, r)
                if nf2 not in forms:
                    forms.add(nf2)
                    nxt.append(nf2)
        frontier = nxt
    return forms, depth


class TestDeltaDistance:
    @pytest.mark.parametrize(
        "text", ["G(2,3)", "G(3,4)", "G(2,2,2)", "B3-standard", "B3-axa"]
    )
    def test_bound_within_eight_letters(self, text):
        spec = parse_group_spec(text)
        forms, depth = ball(spec, 8)
        for nf in forms:
            d = delta_distance(spec, nf)
            assert (d == 0) == nf.in_delta_subgroup(), nf
            if spec.variant == STAR_POLYGON:
                # Delta is central, so <Delta> is reached in exactly d letters
                assert d == depth[nf.suffix], nf
            for g in alphabet(spec):
                step = delta_distance(spec, apply_generator(spec, nf, g)[0]) - d
                # the lower-bound property: a letter lowers d by at most one
                assert step >= -1, (nf, g)
                if spec.variant == STAR_POLYGON:
                    assert abs(step) <= 1, (nf, g)
                    if all(p % 2 == 0 for p in spec.periods):
                        assert abs(step) == 1, (nf, g)
