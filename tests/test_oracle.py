from collections import Counter
from itertools import product

import pytest

from cogrowth.groups import (
    GroupSpec,
    STAR_POLYGON,
    alphabet,
    evaluate_word,
    one_sided_allowed,
    parse_group_spec,
)
from cogrowth.oracle import StateCapExceeded, count_closed_walks, count_one_sided_walks
from cogrowth.qseries import QPolynomial, QZSeries

G22 = GroupSpec(STAR_POLYGON, (2, 2))
G23 = GroupSpec(STAR_POLYGON, (2, 3))
G34 = GroupSpec(STAR_POLYGON, (3, 4))


def enumerate_words(spec, length, allowed=lambda nf: True) -> QZSeries:
    """Rows n <= length: the number of words of length n equal to Delta^m
    whose every nonempty proper prefix is allowed, evaluating each word
    separately (an endpoint in <Delta> is always allowed)."""
    rows = []
    for n in range(length + 1):
        counts = Counter()
        for word in product(alphabet(spec), repeat=n):
            if all(allowed(evaluate_word(spec, word[:j])) for j in range(1, n)):
                nf = evaluate_word(spec, word)
                if nf.in_delta_subgroup():
                    counts[nf.delta_exp] += 1
        rows.append(QPolynomial.from_pairs(counts.items()))
    return QZSeries(length, rows)


class TestClosedWalks:
    def test_empty_walk(self):
        for text in ["G(2,2)", "G(3,4)", "B3-standard", "B3-axa"]:
            table = count_closed_walks(parse_group_spec(text), 0)
            assert dict(table.coeffs[0].pairs()) == {0: 1}

    def test_g22_length_two(self):
        table = count_closed_walks(G22, 2)
        assert dict(table.coeffs[2].pairs()) == {0: 4, 1: 2, -1: 2}

    def test_g23_length_two(self):
        table = count_closed_walks(G23, 2)
        assert dict(table.coeffs[2].pairs()) == {0: 4, 1: 1, -1: 1}

    def test_g22_binomial_square(self):
        # j=0 column of G(2,2) counts pairs of matched lattice steps
        table = count_closed_walks(G22, 4)
        assert table.coeff(4, 0) == 36

    def test_braid_small(self):
        table = count_closed_walks(parse_group_spec("B3-standard"), 4)
        assert dict(table.coeffs[1].pairs()) == {}
        assert dict(table.coeffs[2].pairs()) == {0: 4}
        assert dict(table.coeffs[3].pairs()) == {1: 2, -1: 2}

    def test_row_symmetry_and_bounds(self):
        for text in ["G(2,2)", "G(2,3)", "G(3,4)", "G(2,2,2)", "B3-standard", "B3-axa"]:
            spec = parse_group_spec(text)
            table = count_closed_walks(spec, 6)
            k = spec.generator_count
            for n in range(7):
                row = dict(table.coeffs[n].pairs())
                assert sum(row.values()) <= (2 * k) ** n
                for m, f in row.items():
                    assert abs(m) <= n
                    assert row.get(-m) == f

    def test_parity_all_even(self):
        table = count_closed_walks(G22, 5)
        for n in (1, 3, 5):
            assert dict(table.coeffs[n].pairs()) == {}

    def test_parity_all_odd(self):
        table = count_closed_walks(GroupSpec(STAR_POLYGON, (3, 3)), 7)
        for n in range(8):
            for m in dict(table.coeffs[n].pairs()):
                assert (n - m) % 2 == 0

    def test_state_cap(self):
        with pytest.raises(StateCapExceeded):
            count_closed_walks(G34, 8, state_cap=100)

    @pytest.mark.parametrize(
        "text, length",
        [("G(2,2)", 7), ("G(3,4)", 7), ("B3-standard", 7), ("B3-axa", 7), ("G(2,2,2)", 6)],
    )
    def test_matches_word_enumeration(self, text, length):
        spec = parse_group_spec(text)
        assert count_closed_walks(spec, length) == enumerate_words(spec, length)


class TestOneSidedWalks:
    def test_empty_walk(self):
        table = count_one_sided_walks(G34, 1, 0)
        assert dict(table.coeffs[0].pairs()) == {0: 1}

    def test_g34_facet1(self):
        table = count_one_sided_walks(G34, 1, 3)
        assert dict(table.coeffs[2].pairs()) == {0: 2}
        assert dict(table.coeffs[3].pairs()) == {1: 1, -1: 1}

    def test_facet_errors(self):
        with pytest.raises(ValueError):
            count_one_sided_walks(G34, 3, 2)
        with pytest.raises(ValueError):
            count_one_sided_walks(parse_group_spec("B3-standard"), 1, 2)

    def test_dominated_by_closed(self):
        closed = count_closed_walks(G23, 8)
        sided = count_one_sided_walks(G23, 2, 8)
        for n, row in enumerate(sided.coeffs):
            for m, f in row.pairs():
                assert f <= closed.coeff(n, m)

    @pytest.mark.parametrize("facet", [1, 2])
    def test_matches_word_enumeration(self, facet):
        words = enumerate_words(G34, 7, lambda nf: one_sided_allowed(G34, nf, facet))
        assert count_one_sided_walks(G34, facet, 7) == words
