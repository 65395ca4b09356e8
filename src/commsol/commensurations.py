"""Partial automorphisms of Z^n and F_k, and the group they generate.

A commensuration is an isomorphism between two finite-index subgroups.
For Z^n it is stored as the unique rational matrix extending it; for F_k
it is stored by the images of the canonical Stallings basis of its domain
(a partial automorphism need not extend to F_k, so storage on ambient
generators would be unsound).

equivalent() decides equality in the commensurator group: since both
group families have the unique root property, two partial automorphisms
represent the same class exactly when they agree on the full intersection
of their domains.

F_k commensurations may carry an optional ambient extension (images of
the ambient generators) as provenance; it is used by the covering-lift
layer and propagated through compose/restriction when available.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps

from . import groups, lattices, limits, ratmat, stallings
from .errors import ParseError, PreconditionError
from .freewords import (
    _LOWER,
    Alphabet,
    Word,
    _join,
    inline,
    parse_int,
    parse_word,
    text_lines,
)


class Commensuration:
    __slots__ = ("tag", "rank", "domain", "codomain", "matrix", "images", "ambient")

    def __init__(self, tag, rank, domain, codomain, matrix=None, images=None, ambient=None):
        self.tag = tag  # "Z" or "F"
        self.rank = rank
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.images = images
        self.ambient = ambient

    def __eq__(self, other):
        """Structural equality of representatives (not class equality;
        use equivalent() for that)."""
        return (
            isinstance(other, Commensuration)
            and other.tag == self.tag
            and other.rank == self.rank
            and other.domain == self.domain
            and other.matrix == self.matrix
            and other.images == self.images
        )

    def __hash__(self):
        return hash((self.tag, self.rank, self.domain, self.matrix, self.images))

    @property
    def group(self):
        return groups.group(self.tag, self.rank)

    def __repr__(self):
        if self.tag == "Z":
            return f"Commensuration(Z^{self.rank}, {self.matrix})"
        imgs = ",".join(str(w) for w in self.images)
        return f"Commensuration(F_{self.rank}, index {self.domain.m} -> {self.codomain.m}, [{imgs}])"


# -- constructors ---------------------------------------------------------------


def make_zn(matrix, domain: lattices.Lattice | None = None) -> Commensuration:
    """Commensuration of Z^n given by a nonsingular rational matrix, on the
    given domain (default: the maximal one, M^-1(Z^n) ∩ Z^n)."""
    n = len(matrix)
    matrix = ratmat.from_rows(matrix)
    if ratmat.det(matrix) == 0:
        raise PreconditionError("matrix is singular")
    if domain is None:
        domain = _integral_preimage(matrix, lattices.whole_group(n))
    cod_cols = []
    for col in domain.cols:
        img = ratmat.mul_vec(matrix, col)
        if any(x.denominator != 1 for x in img):
            raise PreconditionError(
                f"matrix does not map the domain into Z^{n}: image of {col} is {img}"
            )
        cod_cols.append(tuple(int(x) for x in img))
    return Commensuration("Z", n, domain, lattices.Lattice(n, cod_cols), matrix=matrix)


def to_matrix(comm: Commensuration):
    if comm.tag != "Z":
        raise PreconditionError("to_matrix requires a Z^n commensuration")
    return comm.matrix


def _integral_preimage(matrix, target: lattices.Lattice) -> lattices.Lattice:
    """The lattice {v in Z^n : M v in target}."""
    n = target.n
    rel = ratmat.mul(ratmat.inverse(ratmat.from_int_columns(target.cols)), matrix)
    p, q = ratmat.common_denominator(rel)
    cols = [tuple(p[i][j] for i in range(n)) for j in range(n)]
    cols += [tuple(q if i == r else 0 for i in range(n)) for r in range(n)]
    gens = []
    for kvec in lattices.integer_kernel(cols, n):
        gens.append(kvec[:n])
    return lattices.Lattice(n, gens)


def _make_fk(domain, images, ambient=None) -> Commensuration:
    """Build an F_k commensuration from images of the canonical basis,
    validating that the assignment is an isomorphism onto its image."""
    k = domain.k
    images = tuple(images)
    if len(images) != len(stallings.basis(domain)):
        raise PreconditionError("need one image per canonical basis element")
    codomain = stallings.from_generators(images, k)
    if not codomain.complete:
        raise PreconditionError("images generate an infinite-index subgroup")
    if k >= 2 and codomain.m != domain.m:
        # surjections of free groups of equal finite rank are isomorphisms,
        # so rank (equivalently index) must be preserved
        raise PreconditionError(
            f"not injective: domain has index {domain.m}, image has index {codomain.m}"
        )
    if k == 1 and not images[0]:
        raise PreconditionError("not injective: generator maps to the identity")
    return Commensuration("F", k, domain, codomain, images=images, ambient=ambient)


def make_fk(k, gens, images, ambient=None) -> Commensuration:
    """F_k commensuration from generator words `gens` (a free basis of the
    domain) and their images.  Internally re-expressed on the canonical
    basis of the folded domain."""
    gens = list(gens)
    images = list(images)
    if len(gens) != len(images):
        raise PreconditionError("need one image per generator")
    graph, exprs = stallings.fold_with_expressions(gens, k)
    canon_images = [stallings.substitute(e, images) for e in exprs]
    return _make_fk(graph, canon_images, ambient=ambient)


def from_ambient(k, letter_images, domain=None) -> Commensuration:
    """Restriction of the ambient map a_i -> letter_images[i] to `domain`
    (default: all of F_k); the ambient images must define an injective
    endomorphism when restricted."""
    letter_images = tuple(letter_images)
    if len(letter_images) != k:
        raise PreconditionError(f"need {k} letter images")
    if domain is None:
        domain = stallings.whole_group(k)
    images = [apply_ambient(letter_images, b) for b in stallings.basis(domain)]
    return _make_fk(domain, images, ambient=letter_images)


def apply_ambient(letter_images, w: Word) -> Word:
    """The image of w under the ambient map a_i -> letter_images[i]: its
    path in the rose read through the petals' images."""
    _, img = stallings.path_image(
        stallings.whole_group(len(letter_images)), w.letters, lambda v, x: letter_images[x].letters
    )
    return Word(letter_images[0].rank, img, _reduced=True)


def identity_comm(tag: str, rank: int) -> Commensuration:
    if tag == "Z":
        return make_zn(ratmat.identity(rank))
    gens = [Word(rank, _LOWER[i]) for i in range(rank)]
    return from_ambient(rank, gens)


def inner(tag: str, rank: int, g=None) -> Commensuration:
    """Conjugation by g on the whole group (the identity for Z^n)."""
    if tag == "Z":
        return identity_comm("Z", rank)
    if g is None:
        raise PreconditionError("inner() for F_k needs a group element")
    gens = [g * Word(rank, _LOWER[i]) * ~g for i in range(rank)]
    return from_ambient(rank, gens)


# -- evaluation and the group operations -----------------------------------------


def evaluate(comm: Commensuration, elem):
    """Apply the commensuration to an element of its domain.  On F_k the
    image is that of elem's loop in the domain graph, whose nontree edges
    carry their basis elements' images (stallings.path_image); a basis
    element's image is the stored image's own Word."""
    if comm.tag == "Z":
        if not lattices.contains(comm.domain, elem):
            raise PreconditionError(f"{elem} is not in the domain lattice")
        img = ratmat.mul_vec(comm.matrix, elem)
        return tuple(int(x) for x in img)
    nontree = stallings._tree_data(comm.domain).nontree_index
    crossed = []

    def label(v, x):
        i = nontree.get((v, x))
        if i is None:
            return ""
        crossed.append(i)
        return comm.images[i].letters

    letters = elem.letters
    end, img = stallings.path_image(comm.domain, letters, label)
    if end is None:
        raise PreconditionError(f"{letters!r} leaves the subgroup graph")
    if end != 0:
        raise PreconditionError(f"{letters!r} is not in the subgroup")
    if len(crossed) == 1 and img == comm.images[crossed[0]].letters:
        # share the image itself: cached results then hold no copies of it
        return comm.images[crossed[0]]
    return Word(comm.rank, img, _reduced=True)


def edge_image(comm: Commensuration, v: int, x: int) -> str:
    """The image letters of the x-edge out of vertex v of an F_k
    commensuration's domain graph: its basis element's image on a nontree
    edge, nothing on a tree edge."""
    i = stallings._tree_data(comm.domain).nontree_index.get((v, x))
    return "" if i is None else comm.images[i].letters


def images_on(comm: Commensuration, sub) -> tuple:
    """comm's images of the basis of `sub`, a subgroup of the domain: the
    stored images when `sub` is the domain.  On F_k each loop of X_sub
    maps to the product of the images of the domain edges below its edges
    (stallings.cover_vertices), and is a stored image's own Word when it
    spells one."""
    if comm.tag == "Z":
        return tuple([evaluate(comm, b) for b in sub.cols])
    if sub == comm.domain:
        return comm.images
    below = stallings.cover_vertices(sub, comm.domain)
    if below is None:
        raise PreconditionError("images_on: the subgroup is not inside the domain")
    shared = {w.letters: w for w in comm.images}
    imgs = stallings.tree_products(
        sub, lambda v, x: edge_image(comm, below[v], x), "", _join, lambda s: s[::-1].swapcase()
    )
    return tuple(shared.get(s) or Word(comm.rank, s, _reduced=True) for s in imgs)


@lru_cache(maxsize=4096)
def preimage_subgroup(comm: Commensuration, sub):
    """The subgroup comm^-1(sub) of the domain, for sub a finite-index
    subgroup of the codomain.

    On F_k the preimage's graph is the coset-action graph of F_k on pairs
    (coset of the domain, coset of sub) (J. Stallings, Topology of finite
    graphs, 1983), which `stallings.orbit_graph` searches from the base
    pair and labels canonically; no word is built or folded.  The search
    is guarded by the number of pairs times k.
    """
    if comm.tag == "Z":
        return _integral_preimage(comm.matrix, sub)
    k, dom = comm.rank, comm.domain
    if sub.k != k or not sub.complete:
        raise PreconditionError("preimage_subgroup needs a finite-index subgroup of F_k")
    ms = sub.m
    limits.guard(
        dom.m * ms * k,
        f"preimage_subgroup(domain index {dom.m}, subgroup index {ms}, k={k})",
    )
    # The cover of comm^-1(sub) is the coset action of F_k on pairs (v, c),
    # v a vertex of the domain graph and c a coset of sub, from (0, 0): a
    # letter moves v along its edge and, on the nontree edge of basis
    # element i, moves c by the permutation that images[i] induces on the
    # cosets of sub (tree edges leave c in place).  A pair is stored as
    # v * ms + c.
    perms = [[stallings.trace(sub, w, c) for c in range(ms)] for w in comm.images]
    inverses = []
    for p in perms:
        q = [0] * ms
        for c, t in enumerate(p):
            q[t] = c
        inverses.append(q)
    nontree = stallings._tree_data(dom).nontree_index

    def step(node, x, back):
        v, c = divmod(node, ms)
        if back:
            s = dom.bwd[x][v]
            i = nontree.get((s, x))
            return s * ms + (c if i is None else inverses[i][c])
        i = nontree.get((v, x))
        return dom.fwd[x][v] * ms + (c if i is None else perms[i][c])

    return stallings.orbit_graph(k, 0, step)[0]


def provenance_cache(maxsize: int):
    """An lru_cache whose key also holds each argument's `ambient`
    provenance: Commensuration equality ignores it, and the results of the
    functions cached this way carry it.  The wrapper exposes the cache's
    cache_clear and cache_info."""

    def decorate(fn):
        # one flat key, the arguments then their provenance: a nested pair
        # would hold two more tuples per entry
        @lru_cache(maxsize=maxsize)
        def cached(*key):
            return fn(*key[: len(key) // 2])

        @wraps(fn)
        def wrapper(*args):
            return cached(*args, *[getattr(a, "ambient", None) for a in args])

        wrapper.cache_clear = cached.cache_clear
        wrapper.cache_info = cached.cache_info
        return wrapper

    return decorate


@provenance_cache(maxsize=4096)
def compose(phi: Commensuration, psi: Commensuration) -> Commensuration:
    """[phi] o [psi]: apply psi first, restricted to where the composite is
    defined, psi^-1(image(psi) ∩ domain(phi))."""
    if (phi.tag, phi.rank) != (psi.tag, psi.rank):
        raise PreconditionError("cannot compose commensurations of different groups")
    dom = preimage_subgroup(psi, phi.group.intersect(psi.codomain, phi.domain))
    if phi.tag == "Z":
        return make_zn(ratmat.mul(phi.matrix, psi.matrix), domain=dom)
    images = [evaluate(phi, w) for w in images_on(psi, dom)]
    ambient = None
    if phi.ambient is not None and psi.ambient is not None:
        ambient = tuple(apply_ambient(phi.ambient, w) for w in psi.ambient)
    return _make_fk(dom, images, ambient=ambient)


@lru_cache(maxsize=4096)
def invert(comm: Commensuration) -> Commensuration:
    """The inverse isomorphism codomain -> domain."""
    if comm.tag == "Z":
        return make_zn(ratmat.inverse(comm.matrix), domain=comm.codomain)
    graph, exprs = stallings.fold_with_expressions(list(comm.images), comm.rank)
    assert graph == comm.codomain, "image fold must reproduce the codomain"
    dom_basis = stallings.basis(comm.domain)
    inv_images = [stallings.substitute(e, dom_basis) for e in exprs]
    return _make_fk(comm.codomain, inv_images)


@provenance_cache(maxsize=4096)
def restriction(comm: Commensuration, sub) -> Commensuration:
    """Restrict to a finite-index subgroup of the domain (an equivalent
    commensuration)."""
    if not comm.group.is_subgroup(sub, comm.domain):
        raise PreconditionError("restriction target is not inside the domain")
    if comm.tag == "Z":
        return make_zn(comm.matrix, domain=sub)
    return _make_fk(sub, images_on(comm, sub), ambient=comm.ambient)


@provenance_cache(maxsize=4096)
def restriction_onto(comm: Commensuration, target) -> Commensuration:
    """Restrict to comm^-1(target), for target a finite-index subgroup of
    the codomain: an equivalent commensuration onto target."""
    src = preimage_subgroup(comm, target)
    if comm.tag == "Z":
        return make_zn(comm.matrix, domain=src)
    images = images_on(comm, src)
    # Instead of folding the images: they lie in target iff comm(src) does,
    # and comm maps the domain H onto the codomain K injectively, so
    # [K : comm(src)] = [H : src]; comm(src) is then target exactly when
    # [K : target] = [H : src] as well.
    if not all(stallings.contains(target, w) for w in images):
        raise PreconditionError("restriction_onto: an image leaves the target")
    if target.m * comm.domain.m != comm.codomain.m * src.m:
        raise PreconditionError(
            f"restriction_onto: the target (index {target.m}) is not the image "
            f"of the preimage (index {src.m}) inside the codomain"
        )
    return Commensuration("F", comm.rank, src, target, images=images, ambient=comm.ambient)


@lru_cache(maxsize=4096)
def equivalent(phi: Commensuration, psi: Commensuration) -> bool:
    """Equality in Comm(G): agreement on the intersection of the domains
    (complete for Z^n and F_k by the unique root property)."""
    if (phi.tag, phi.rank) != (psi.tag, psi.rank):
        return False
    meet = phi.group.intersect(phi.domain, psi.domain)
    return images_on(phi, meet) == images_on(psi, meet)


# -- Z^1 <-> F_1 translation (cycle covers of the circle) --------------------------


def zn1_to_f1(comm: Commensuration) -> Commensuration:
    """Translate a Z^1 commensuration to the equivalent F_1 one (mZ becomes
    the m-cycle cover); used by the covering-lift layer."""
    if comm.tag != "Z" or comm.rank != 1:
        raise PreconditionError("zn1_to_f1 needs a Z^1 commensuration")
    h = comm.domain.cols[0][0]
    scale = comm.matrix[0][0]
    img = scale * h
    assert img.denominator == 1
    a = Word(1, "a")
    ambient = (a ** int(scale),) if scale.denominator == 1 else None
    return make_fk(1, [a**h], [a ** int(img)], ambient=ambient)


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
