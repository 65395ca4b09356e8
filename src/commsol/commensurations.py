"""Partial automorphisms of Z^n and F_k, and the group they generate.

A commensuration is an isomorphism between two finite-index subgroups,
stored the same way on both families: by its domain and the images of
`group.basis(domain)` (HNF columns, or the canonical Stallings basis).  A
map is its value: all else read of it is derived from these, such as the
matrix of one of Z^n, and the endomorphism of F_k extending one of F_k
when there is one (groups.Fk.ambient, which the covering lift reads), so
equal maps give equal results.  The steps that depend on the family are
methods of the group objects (groups.Zn, groups.Fk), so each operation
here has one path.  The injectivity rule is: the images generate a
finite-index subgroup whose basis is as long as the domain's (a surjection
between free groups or lattices of equal finite rank is an isomorphism).
The constructor `_make` checks it at once for images a caller gives
(make_zn, make_fk, from_ambient).  A composite or restriction is an
isomorphism by construction, so compose and restriction store no codomain
unless they know it: it is generated from the images (a fold on F_k, an
HNF on Z^n), and the rule checked, on the first read of `codomain`.

equivalent() decides equality in the commensurator group: since both
group families have the unique root property, two partial automorphisms
represent the same class exactly when they agree on the full intersection
of their domains.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import groups, lattices, ratmat, stallings
from .errors import InfiniteIndexError, ParseError, PreconditionError
from .freewords import Alphabet, Word, inline, parse_int, parse_word, text_lines


class Commensuration:
    """An isomorphism between finite-index subgroups of `group`, stored as
    its domain and the images of `group.basis(domain)`; a codomain of None
    is generated from the images when read."""

    __slots__ = ("group", "domain", "_codomain", "images", "_matrix", "_hash")

    def __init__(self, group, domain, codomain, images):
        self.group = group
        self.domain = domain
        self._codomain = codomain
        self.images = images
        self._matrix = None
        self._hash = hash((domain, images))

    @property
    def codomain(self):
        """The image of the domain, generated from the images on first read
        when it was not given, and checked by the injectivity rule then."""
        if self._codomain is None:
            self._codomain = _generated_image(self.group, self.domain, self.images)
        return self._codomain

    def __eq__(self, other):
        """Structural equality of representatives (not class equality;
        use equivalent() for that)."""
        return (
            isinstance(other, Commensuration)
            and other.group == self.group
            and other.domain == self.domain
            and other.images == self.images
        )

    def __hash__(self):
        return self._hash

    tag = property(lambda self: self.group.tag)
    rank = property(lambda self: self.group.rank)

    @property
    def matrix(self):
        """The rational matrix extending a Z^n commensuration, derived from
        the images on first read; None on F_k."""
        if self._matrix is None:
            self._matrix = self.group.matrix(self.domain, self.images)
        return self._matrix

    def __repr__(self):
        return f"Commensuration({self.domain!r}, {self.images!r})"


# -- constructors ---------------------------------------------------------------


def _generated_image(grp, domain, images):
    """The subgroup the images generate, which must pass the injectivity
    rule: finite index, and a basis as long as the domain's."""
    try:
        codomain = grp.generated(images)
        rank = grp.basis_size(codomain)
    except InfiniteIndexError:
        raise PreconditionError("images generate an infinite-index subgroup") from None
    if rank != len(images):
        raise PreconditionError(
            f"not injective: domain has index {grp.index(domain)}, "
            f"image has index {grp.index(codomain)}"
        )
    return codomain


def _make(grp, domain, images, codomain=None) -> Commensuration:
    """The commensuration sending basis(domain) to `images`, one per basis
    element.  Images a caller gives pass the injectivity rule here, unless
    the caller knows the codomain; compose and restriction, whose maps are
    injective by construction, build theirs directly and leave the
    codomain to be generated on first read."""
    images = tuple(images)
    if len(images) != grp.basis_size(domain):
        raise PreconditionError("need one image per basis element of the domain")
    if codomain is None:
        codomain = _generated_image(grp, domain, images)
    return Commensuration(grp, domain, codomain, images)


def make_zn(matrix, domain: lattices.Lattice | None = None) -> Commensuration:
    """Commensuration of Z^n given by a nonsingular rational matrix M, on
    the given domain (default: the maximal one, {v : M v integral})."""
    n = len(matrix)
    matrix = ratmat.from_rows(matrix)
    grp = groups.group("Z", n)
    if domain is None:
        # M = P/q, and M v is integral iff P v lies in q Z^n
        p, q = ratmat.common_denominator(matrix)
        scaled = lattices.Lattice(n, [[q * x for x in c] for c in grp.whole.cols])
        domain = lattices.preimage(grp.whole, list(zip(*p)), scaled)
    images = []
    for col in domain.cols:
        img = ratmat.mul_vec(matrix, col)
        if any(x.denominator != 1 for x in img):
            raise PreconditionError(
                f"matrix does not map the domain into Z^{n}: image of {col} is {img}"
            )
        images.append(tuple(int(x) for x in img))
    return _make(grp, domain, images)


def to_matrix(comm: Commensuration):
    if comm.matrix is None:
        raise PreconditionError("to_matrix requires a Z^n commensuration")
    return comm.matrix


def make_fk(k, gens, images) -> Commensuration:
    """F_k commensuration from generator words `gens` (a free basis of the
    domain) and their images, re-expressed on the canonical basis."""
    gens = list(gens)
    images = list(images)
    if len(gens) != len(images):
        raise PreconditionError("need one image per generator")
    graph, exprs = stallings.fold_with_expressions(gens, k)
    canon_images = [stallings.substitute(e, images) for e in exprs]
    return _make(groups.group("F", k), graph, canon_images)


def from_ambient(k, letter_images) -> Commensuration:
    """The map a_i -> letter_images[i] on all of F_k, which must be
    injective."""
    grp = groups.group("F", k)
    return _make(grp, grp.whole, letter_images)


def inner(tag: str, rank: int, g=None) -> Commensuration:
    """Conjugation by g (default: the identity) on the whole group."""
    grp = groups.group(tag, rank)
    if g is None:
        g = grp.identity
    images = tuple(grp.mul(grp.mul(g, b), grp.inv(g)) for b in grp.basis(grp.whole))
    return _make(grp, grp.whole, images, codomain=grp.whole)


def identity_comm(tag: str, rank: int) -> Commensuration:
    return inner(tag, rank)


# -- evaluation and the group operations -----------------------------------------


def evaluate(comm: Commensuration, elem):
    """Apply the commensuration to an element of its domain."""
    return comm.group.evaluate(comm.domain, comm.images, elem)


def images_on(comm: Commensuration, sub) -> tuple:
    """comm's images of the basis of `sub`, a subgroup of the domain: the
    stored images when `sub` is the domain.

    A walk is memoized by value, so a hit may come from an equal but
    distinct map; its result shares that map's stored images, so for any
    map whose images are not the stored owner's, each image equal to one
    of its own is replaced by that one, as its own walk would share."""
    if sub == comm.domain:
        return comm.images
    owner, result = _images_on(comm, sub)
    if owner is not comm.images:
        own = {x: x for x in comm.images}
        return tuple([own.get(x, x) for x in result])
    return result


@lru_cache(maxsize=4096)
def _images_on(comm: Commensuration, sub):
    """(comm.images, the images of basis(sub)): one covering walk per map
    and subgroup, which check_strict asks again after restriction_onto."""
    return comm.images, comm.group.images_on(comm.domain, comm.images, sub)


@lru_cache(maxsize=4096)
def preimage_subgroup(comm: Commensuration, sub):
    """The subgroup comm^-1(sub) of the domain, for sub a finite-index
    subgroup of the codomain: the domain itself when sub is the codomain."""
    if sub == comm.codomain:
        return comm.domain
    return comm.group.preimage(comm.domain, comm.images, sub)


@lru_cache(maxsize=4096)
def compose(phi: Commensuration, psi: Commensuration) -> Commensuration:
    """[phi] o [psi]: apply psi first, restricted to where the composite is
    defined, psi^-1(meet) for meet = image(psi) ∩ domain(phi).

    psi maps that preimage onto the meet, so when the meet is all of phi's
    domain the composite's image is phi's codomain; otherwise it is
    generated from the images when first read."""
    grp = phi.group
    if psi.group != grp:
        raise PreconditionError("cannot compose commensurations of different groups")
    meet = grp.intersect(psi.codomain, phi.domain)
    dom = preimage_subgroup(psi, meet)
    images = grp.evaluate_all(phi.domain, phi.images, images_on(psi, dom))
    codomain = phi.codomain if meet == phi.domain else None
    return Commensuration(grp, dom, codomain, images)


def invert(comm: Commensuration) -> Commensuration:
    """The inverse isomorphism codomain -> domain."""
    grp = comm.group
    images = grp.inverse_images(comm.domain, comm.images, comm.codomain)
    return _make(grp, comm.codomain, images, codomain=comm.domain)


def restriction(comm: Commensuration, sub) -> Commensuration:
    """Restrict to a finite-index subgroup of the domain (an equivalent
    commensuration, whose codomain is generated when first read)."""
    grp = comm.group
    grp.check_rank(sub)
    try:
        images = images_on(comm, sub)  # one walk, which refuses a target outside the domain
    except PreconditionError:
        raise PreconditionError("restriction target is not inside the domain") from None
    grp.index(sub)  # raises InfiniteIndexError for an infinite-index target
    return Commensuration(grp, sub, None, images)


@lru_cache(maxsize=4096)
def restriction_onto(comm: Commensuration, target) -> Commensuration:
    """Restrict to comm^-1(target), for target a finite-index subgroup of
    the codomain: an equivalent commensuration onto target, comm itself
    when target is the codomain."""
    if target == comm.codomain:
        return comm
    grp = comm.group
    src = preimage_subgroup(comm, target)
    images = images_on(comm, src)
    # Instead of generating the codomain: comm maps H onto K injectively,
    # so [K : comm(src)] = [H : src], and comm(src), inside target once the
    # images are, is target exactly when [K : target] = [H : src] too.
    if not all(grp.contains(target, w) for w in images):
        raise PreconditionError("restriction_onto: an image leaves the target")
    if grp.index(target) * grp.index(comm.domain) != grp.index(comm.codomain) * grp.index(src):
        raise PreconditionError(
            f"restriction_onto: the target (index {grp.index(target)}) is not the image "
            f"of the preimage (index {grp.index(src)}) inside the codomain"
        )
    return _make(grp, src, images, codomain=target)


@lru_cache(maxsize=4096)
def equivalent(phi: Commensuration, psi: Commensuration) -> bool:
    """Equality in Comm(G): agreement on the intersection of the domains
    (complete for Z^n and F_k by the unique root property)."""
    if phi == psi:
        return True
    if psi.group != phi.group:
        return False
    meet = phi.group.intersect(phi.domain, psi.domain)
    return images_on(phi, meet) == images_on(psi, meet)


# -- Z^1 <-> F_1 translation (cycle covers of the circle) --------------------------


def zn1_to_f1(comm: Commensuration) -> Commensuration:
    """Translate a Z^1 commensuration to the equivalent F_1 one (mZ becomes
    the m-cycle cover); used by the covering-lift layer (groups.Zn.on_rose)."""
    if comm.group != groups.group("Z", 1):
        raise PreconditionError("zn1_to_f1 needs a Z^1 commensuration")
    h = comm.domain.cols[0][0]
    img = comm.images[0][0]
    a = Word(1, "a")
    return make_fk(1, [a**h], [a**img])


# -- text format ----------------------------------------------------------------
#
#   comm Z <n>            comm F <k>
#   <n rows of p/q>       [domain generator words]
#                         <basisword -> imageword> lines
#
# read through freewords.text_lines, so ';' and the colon form work too


def _format_fraction(x: Fraction) -> str:
    # always p/q, per the wire format ("2/1" rather than "2")
    return f"{x.numerator}/{x.denominator}"


def _parse_fraction(tok: str) -> Fraction:
    num, slash, den = tok.partition("/")
    q = parse_int(den) if slash else 1
    if q == 0:
        raise ParseError(f"zero denominator in {tok!r}")
    return Fraction(parse_int(num), q)


def format_comm(comm: Commensuration) -> str:
    if comm.tag == "Z":
        lines = [f"comm Z {comm.rank}"]
        for row in comm.matrix:
            lines.append(" ".join(_format_fraction(x) for x in row))
        return "\n".join(lines)
    lines = [f"comm F {comm.rank}"]
    for b, img in zip(stallings.basis(comm.domain), comm.images):
        lines.append(f"{b} -> {img}")
    return "\n".join(lines)


def format_comm_inline(comm: Commensuration) -> str:
    return inline(format_comm(comm))


def parse_comm(text: str) -> Commensuration:
    head, *body = text_lines(text)
    parts = head.split()
    if len(parts) != 3 or parts[0] != "comm" or parts[1] not in ("Z", "F"):
        raise ParseError(f"expected 'comm Z <n>' or 'comm F <k>' header, got {head!r}")
    rank = parse_int(parts[2])
    if parts[1] == "Z":
        if len(body) != rank:
            raise ParseError(f"expected {rank} matrix rows, got {len(body)}")
        rows = []
        for ln in body:
            row = [_parse_fraction(tok) for tok in ln.split()]
            if len(row) != rank:
                raise ParseError(f"expected {rank} entries per row, got {ln!r}")
            rows.append(row)
        return make_zn(rows)
    alphabet = Alphabet(rank)
    dom_gens = []
    gens = []
    images = []
    for ln in body:
        if "->" in ln:
            left, _, right = ln.partition("->")
            gens.append(parse_word(left.strip(), alphabet))
            images.append(parse_word(right.strip(), alphabet))
        else:
            dom_gens.append(parse_word(ln, alphabet))
    if not gens:
        raise ParseError("no 'word -> imageword' lines")
    comm = make_fk(rank, gens, images)
    if dom_gens:
        declared = stallings.from_generators(dom_gens, rank)
        if declared != comm.domain:
            raise ParseError("declared domain block does not match the basis words")
    return comm
