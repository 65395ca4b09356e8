"""Exact word algebra for finitely generated free groups.

Elements of F_k are freely reduced words over the first k lowercase ASCII
letters; an uppercase letter is the inverse of its lowercase partner.  The
empty word is the identity and is written "1" in text form.  Words are
immutable and reduced at construction, so every downstream invariant can
assume reducedness.

Elements of Z^n are plain tuples of ints (see parse_vector).

The text layout shared by lattices, subgroups and commensurations is read
and written here too: a header line and body lines, given either as lines,
as ';'-separated lines, or in the one-line form "header : line ; line".
"""

from __future__ import annotations

from .errors import ParseError, PreconditionError

_LOWER = "abcdefghijklmnopqrstuvwxyz"


class Alphabet:
    """The generating set {a, b, ...} of F_k, 1 <= k <= 26."""

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        if not isinstance(rank, int) or not 1 <= rank <= 26:
            raise ParseError(f"alphabet rank must be an integer in 1..26, got {rank!r}")
        self.rank = rank

    def __contains__(self, ch: str) -> bool:
        return ch.lower() in _LOWER[: self.rank]

    def __eq__(self, other):
        return isinstance(other, Alphabet) and other.rank == self.rank

    def __hash__(self):
        return hash(("Alphabet", self.rank))

    def __repr__(self):
        return f"Alphabet({self.rank})"


def _reduce(s: str) -> str:
    """Free reduction: repeatedly delete adjacent inverse pairs."""
    out: list[str] = []
    for ch in s:
        if out and out[-1] != ch and out[-1].lower() == ch.lower():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


class Word:
    """A freely reduced word in F_k.  Immutable value; operators follow
    group conventions (u * v, ~u, u ** n)."""

    __slots__ = ("rank", "letters", "_hash")

    def __init__(self, rank: int, letters: str, _reduced: bool = False):
        if not 1 <= rank <= 26:
            raise ParseError(f"word rank must be in 1..26, got {rank!r}")
        if not _reduced:
            for ch in letters:
                if ch.lower() not in _LOWER[:rank]:
                    raise ParseError(f"letter {ch!r} outside alphabet of rank {rank}")
            letters = _reduce(letters)
        self.rank = rank
        self.letters = letters
        self._hash = hash((rank, letters))

    # -- basics -------------------------------------------------------------

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and other.rank == self.rank
            and other.letters == self.letters
        )

    def __lt__(self, other):
        # length-lexicographic; the deterministic tie-break order used
        # everywhere a "least word" is needed
        if len(self.letters) != len(other.letters):
            return len(self.letters) < len(other.letters)
        return self.letters < other.letters

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Word({self.rank}, {self.letters or '1'!r})"

    def __str__(self):
        return self.letters or "1"

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word(self.rank, "", _reduced=True)
        base = self if n > 0 else invert(self)
        out = base
        for _ in range(abs(n) - 1):
            out = concat(out, base)
        return out


def identity(rank: int) -> Word:
    return Word(rank, "", _reduced=True)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a word literal; "1" (or the empty string) is the identity."""
    if text == "1":
        text = ""
    for ch in text:
        if ch not in alphabet:
            raise ParseError(f"letter {ch!r} outside alphabet of rank {alphabet.rank}")
    return Word(alphabet.rank, text)


def _join(a: str, b: str) -> str:
    """The reduced product of two reduced letter strings: letters cancel
    at the junction only, so the strings are concatenated as they are
    unless the last letter of `a` is the inverse of the first of `b`."""
    if not a or not b or a[-1] != b[0].swapcase():
        return a + b
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1] == b[j].swapcase():
        i -= 1
        j += 1
    return a[:i] + b[j:]


def concat(u: Word, v: Word) -> Word:
    """Reduced product u*v."""
    if u.rank != v.rank:
        raise PreconditionError(f"alphabet mismatch: rank {u.rank} vs {v.rank}")
    return Word(u.rank, _join(u.letters, v.letters), _reduced=True)


def invert(u: Word) -> Word:
    return Word(u.rank, u.letters[::-1].swapcase(), _reduced=True)


def cyclic_decompose(w: Word) -> tuple[Word, Word]:
    """Write w = u * c * u^-1 with c cyclically reduced and u maximal.

    The identity has no such decomposition and is rejected.
    """
    if not w:
        raise PreconditionError("identity word has no cyclic decomposition")
    s = w.letters
    i, j = 0, len(s) - 1
    while i < j and s[i] != s[j] and s[i].lower() == s[j].lower():
        i += 1
        j -= 1
    return Word(w.rank, s[:i], _reduced=True), Word(w.rank, s[i : j + 1], _reduced=True)


def primitive_root(w: Word) -> tuple[Word, int]:
    """Return (r, m) with w = r**m, m maximal (so r is not a proper power).

    Powers of a word u c u^-1 are u c^m u^-1 with no further cancellation
    (c cyclically reduced), so the search reduces to string periodicity of
    the cyclically reduced core.
    """
    if not w:
        raise PreconditionError("identity word has no primitive root")
    u, c = cyclic_decompose(w)
    s = c.letters
    n = len(s)
    for d in range(1, n + 1):
        if n % d == 0 and s[:d] * (n // d) == s:
            root = Word(w.rank, s[:d], _reduced=True)
            m = n // d
            if m == 1:
                return w, 1
            return concat(u, concat(root, invert(u))), m
    raise AssertionError("unreachable: every string has period n")


# -- Z^n elements -------------------------------------------------------------


def parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad integer {tok!r}") from None


def parse_vector(text: str, n: int) -> tuple[int, ...]:
    """Parse a Z^n element: comma- or space-separated integers."""
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ParseError(f"expected {n} integers, got {len(parts)} in {text!r}")
    return tuple(map(parse_int, parts))


def serialize_vector(v: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in v)


# -- header-and-lines text --------------------------------------------------------


def text_lines(text: str) -> list[str]:
    """[header, *body] of a text written with newlines, with ';' for
    newlines, or as "header : line ; line": the first ':' and every ';'
    break lines, and blank lines are dropped."""
    lines = [ln.strip() for ln in text.replace(":", ";", 1).replace(";", "\n").splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError("empty text")
    return lines


def inline(text: str) -> str:
    """The one-line form "header : line ; line" of a multi-line text."""
    head, *body = text.splitlines()
    return f"{head} : {' ; '.join(body)}"
