"""Word algebra tests; expected values come from independent oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from commsol import catalog, commensurations, lattices, stallings
from commsol.errors import ParseError, PreconditionError
from commsol.freewords import (
    Alphabet,
    Word,
    _join,
    _reduce,
    concat,
    cyclic_decompose,
    identity,
    inline,
    invert,
    parse_word,
    primitive_root,
    text_lines,
)
from commsol.groups import group

from oracles import SETTINGS, random_word

A2 = Alphabet(2)


def naive_reduce(s: str) -> str:
    """Oracle: repeated adjacent-cancellation scan to a fixpoint."""
    changed = True
    while changed:
        changed = False
        for i in range(len(s) - 1):
            if s[i] != s[i + 1] and s[i].lower() == s[i + 1].lower():
                s = s[:i] + s[i + 2 :]
                changed = True
                break
    return s


def test_parse_examples():
    assert parse_word("ab", A2).letters == "ab"
    assert parse_word("aA", A2).letters == ""
    assert parse_word("abBA", A2).letters == naive_reduce("abBA") == ""
    assert parse_word("1", A2) == identity(2)


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_word("abc", A2)
    with pytest.raises(ParseError):
        Alphabet(0)
    with pytest.raises(ParseError):
        Alphabet(27)


def test_concat_examples():
    assert str(concat(parse_word("ab", A2), parse_word("BA", A2))) == "1"
    assert str(concat(parse_word("a", A2), parse_word("b", A2))) == "ab"
    got = concat(parse_word("abA", A2), parse_word("aba", A2))
    assert got.letters == naive_reduce("abA" + "aba") == "abba"


def test_concat_alphabet_mismatch():
    with pytest.raises(PreconditionError):
        concat(Word(2, "a"), Word(3, "c"))


@st.composite
def word_pairs(draw):
    k = draw(st.integers(1, 3))
    letters = "abc"[:k] + "ABC"[:k]
    u, v = (Word(k, draw(st.text(letters, max_size=10))) for _ in range(2))
    return u, v


@settings(SETTINGS, max_examples=300)
@given(word_pairs())
def test_word_distance_is_length_of_quotient(pair):
    u, v = pair
    assert group("F", u.rank).dist(u, v) == len(concat(invert(u), v))
    assert group("F", u.rank).dist(u, identity(u.rank)) == len(u)


def test_word_distance_alphabet_mismatch():
    with pytest.raises(PreconditionError):
        group("F", 2).dist(Word(2, "a"), Word(3, "c"))


@settings(SETTINGS, max_examples=500)
@given(word_pairs())
def test_join_is_the_reduced_concatenation(pair):
    # the strings join as they are unless the junction cancels, and then
    # only there
    a, b = (w.letters for w in pair)
    assert _join(a, b) == _reduce(a + b) == naive_reduce(a + b)


def test_invert_examples():
    assert str(invert(parse_word("ab", A2))) == "BA"
    assert str(invert(identity(2))) == "1"
    assert str(invert(parse_word("aBa", A2))) == "AbA"


def test_cyclic_decompose_examples():
    u, c = cyclic_decompose(parse_word("Aba", A2))
    assert (str(u), str(c)) == ("A", "b")
    u, c = cyclic_decompose(parse_word("ab", A2))
    assert (str(u), str(c)) == ("1", "ab")
    u, c = cyclic_decompose(parse_word("Bab", A2))
    assert (str(u), str(c)) == ("B", "a")
    with pytest.raises(PreconditionError):
        cyclic_decompose(identity(2))


def test_cyclic_decompose_reconstructs():
    rng = random.Random(7)
    for _ in range(300):
        w = random_word(rng, 2, 10)
        if not w:
            continue
        u, c = cyclic_decompose(w)
        assert c
        assert c.letters[0] != c.letters[-1].swapcase() or len(c) == 1
        assert concat(u, concat(c, invert(u))) == w


def all_words_up_to(k, max_len):
    letters = "abcdefghijklmnopqrstuvwxyz"[:k]
    alphabet = letters + letters.upper()
    out = [""]
    frontier = [""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for ch in alphabet:
                if w and w[-1] != ch and w[-1].lower() == ch.lower():
                    continue
                nxt.append(w + ch)
        out.extend(nxt)
        frontier = nxt
    return [Word(k, w, _reduced=True) for w in out]


def oracle_primitive_root(w: Word):
    """Oracle: try every reduced word r with |r| <= |w| and every exponent."""
    best = (w, 1)
    for r in all_words_up_to(w.rank, len(w)):
        if not r:
            continue
        power = r
        m = 1
        while len(power) <= len(w):
            if power == w and m > best[1]:
                best = (r, m)
            power = concat(power, r)
            m += 1
    return best


@pytest.mark.parametrize("text", ["abab", "a", "aabaab", "abbA", "Ababa"])
def test_primitive_root_against_oracle(text):
    w = parse_word(text, A2)
    r, m = primitive_root(w)
    oracle_r, oracle_m = oracle_primitive_root(w)
    assert m == oracle_m
    assert (r, m) == (oracle_r, oracle_m) or concat(r, invert(oracle_r)) == identity(2)
    # frozen expected values, computed with the oracle above
    expected = {
        "abab": ("ab", 2),
        "a": ("a", 1),
        "aabaab": ("aab", 2),
        "abbA": ("abA", 2),
    }
    if text in expected:
        assert (str(r), m) == expected[text]


def test_primitive_root_properties():
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng, 2, 8)
        if not w:
            with pytest.raises(PreconditionError):
                primitive_root(w)
            continue
        r, m = primitive_root(w)
        assert r**m == w
        assert primitive_root(r)[1] == 1


def test_group_laws_random():
    rng = random.Random(3)
    for _ in range(400):
        u = random_word(rng, 3, 8)
        v = random_word(rng, 3, 8)
        w = random_word(rng, 3, 8)
        assert concat(concat(u, v), w) == concat(u, concat(v, w))
        assert concat(u, invert(u)) == identity(3)
        assert parse_word(str(u), Alphabet(3)) == u


def test_unique_roots_at_desk_scale():
    rng = random.Random(5)
    seen = 0
    while seen < 200:
        u = random_word(rng, 2, 6)
        v = random_word(rng, 2, 6)
        if not u or not v or u == v:
            continue
        seen += 1
        for m in (2, 3):
            assert u**m != v**m


# -- header-and-lines text ------------------------------------------------------


def _lattice_cases():
    subs = [lat for n in (1, 2, 3) for lat in lattices.enumerate_lattices(n, 4)]
    return [(lattices.format_lattice(lat), lat) for lat in subs]


def _subgroup_cases():
    cases = [(stallings.format_subgroup(g), g) for g in stallings.enumerate_subgroups(2, 3)]
    gens = [Word(2, w) for w in ("aa", "b", "abA")]
    cases.append(("F 2\naa\nb\nabA", stallings.from_generators(gens, 2)))
    return cases


def _comm_cases():
    comms = list(catalog.f2_catalog().values())
    rng = random.Random(7)
    comms += [commensurations.make_zn(catalog.random_zn_matrix(rng, n)) for n in (1, 2, 3) * 3]
    return [(commensurations.format_comm(c), c) for c in comms]


@pytest.mark.parametrize(
    "parse,cases",
    [
        (lattices.parse_lattice, _lattice_cases),
        (stallings.parse_subgroup, _subgroup_cases),
        (commensurations.parse_comm, _comm_cases),
    ],
    ids=["lattices", "subgroups", "commensurations"],
)
def test_text_round_trip_in_every_layout(parse, cases):
    for text, x in cases():
        one_line = inline(text)
        assert ":" in one_line and "\n" not in one_line
        assert text_lines(one_line) == text.splitlines()
        assert parse(text) == parse(one_line) == parse(";".join(text.splitlines())) == x


def test_text_lines_rejects_empty_text():
    for text in ("", "  \n ", " ; ; "):
        with pytest.raises(ParseError):
            text_lines(text)
