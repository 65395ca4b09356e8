"""Command-line front end: every library operation behind a stable
line-oriented text interface.

Inputs that name subgroups or commensurations accept either a file path
or inline text (use ';' for newlines, or the one-line colon forms that
the machine-readable mode emits).  Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache

from . import acceptance, lattices, prosystems, solenoid, stallings
from . import commensurations as comm_mod
from . import geometry
from .errors import CommsolError, ParseError, PreconditionError
from .freewords import _LOWER, Alphabet, inline, parse_int, parse_word
from .groups import group, of_subgroup


def _read_arg(text: str) -> str:
    if os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            return fh.read()
    return text


def _parse_subgroup_arg(text: str):
    """(group, subgroup) parsed from a lattice or subgroup-graph text."""
    body = _read_arg(text)
    parse = lattices.parse_lattice if body.lstrip().startswith("Z") else stallings.parse_subgroup
    sub = parse(body)
    return of_subgroup(sub), sub


def _parse_comm_arg(text: str):
    return comm_mod.parse_comm(_read_arg(text))


def _emit(text: str, lines_mode: bool) -> str:
    return inline(text) if lines_mode else text


def _solpoint_line(p) -> str:
    """The line of a baseleaf point, whose leaf is a group element."""
    fam = ",".join(map(p.group.format_coset, p.family()))
    leaf = p.group.format_element(p.leaf)
    return f"solpoint {p.tag} {p.rank} N={p.depth} cosets=[{fam}] leaf={leaf}"


@cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="commsol",
        description="exact commensurators of Z^n and F_k with truncated solenoid models",
    )
    ap.add_argument("--format", choices=["text", "lines"], default="text")
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(name, help, *arg_specs):
        """A verb; each argument is a name, or a (name, add_argument keywords) pair."""
        p = sub.add_parser(name, help=help)
        for spec in arg_specs:
            arg, kwargs = spec if isinstance(spec, tuple) else (spec, {})
            p.add_argument(arg, **kwargs)

    def number(flag, default):
        return flag, {"type": int, "default": default}

    tag_rank = ("tag", {"choices": ["Z", "F"]}), ("rank", {"type": int})
    max_index = "--max-index", {"type": int, "required": True}
    add("parse", "canonicalize a group element", *tag_rank, "element")
    add("index", "index of a subgroup", "subgroup")
    add("intersect", "intersection of subgroups", "sub1", "sub2")
    add("basis", "free basis of an F_k subgroup", "subgroup")
    add("enumerate", "count subgroups per index", *tag_rank, max_index)
    add("kernel", "intersection of all subgroups of index <= N", *tag_rank, max_index)
    add("compose", "compose commensurations", "comm1", "comm2")
    add("invert", "invert a commensuration", "comm")
    add("equiv", "test Comm(G) equality", "comm1", "comm2")
    add("tomatrix", "rational matrix of a Z^n commensuration", "comm")
    add("zeta", "system morphism of a commensuration", "comm", number("--depth", 2))
    add("reconstruct", "round-trip a commensuration through zeta", "comm", number("--depth", 2))
    where = "--where", {"default": "even", "help": "even | all | index:3,5"}
    add("cofinal", "restrict to a cofinal subsystem", *tag_rank, number("--depth", 4), where)
    add("cover", "the cover attached to a subgroup", "subgroup")
    add("lift", "lift a commensuration through covers", "comm", ("--target", {"default": None}))
    add("baseleaf", "depth-N baseleaf point", *tag_rank, "element", number("--depth", 2))
    pair = *tag_rank, "elem1", "elem2", number("--depth", 5)
    add("dpro", "profinite pseudometric", *pair)
    add("sigma", "solenoid metric between baseleaf points", *pair)
    add(
        "ball",
        "component structure of a sigma-ball",
        *tag_rank,
        "element",
        number("--depth", 2),
        ("--epsilon", {"default": "0.1"}),
    )
    add("qi", "certified quasi-isometry constants", "comm", number("--radius", 4))
    add(
        "bounded",
        "bounded-distance report for two baseleaf maps",
        "comm1",
        "comm2",
        number("--radius", 6),
    )
    add(
        "factor",
        "compare the covering lift with the baseleaf map",
        "comm",
        number("--depth", 2),
        number("--radius", 5),
    )
    sign = "--sign", {"choices": ["+", "-"], "default": "+"}
    add("fixpoint", "boundary fixed point of a group element", *tag_rank, "element", sign)
    add("baction", "boundary action on g+", "comm", "element")
    add("selftest", "run the acceptance criteria end to end")
    return ap


def _where_predicate(grp, where: str):
    if where == "all":
        return lambda obj: True
    if where == "even":
        return lambda obj: grp.index(obj) % 2 == 0
    if where.startswith("index:"):
        wanted = {parse_int(x) for x in where[len("index:") :].split(",")}
        return lambda obj: grp.index(obj) in wanted
    raise ParseError(f"unknown --where value {where!r}")


def run(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    lines_mode = args.format == "lines"
    out = []
    verb = args.verb

    grp = group(args.tag, args.rank) if "tag" in args else None
    if verb == "parse":
        out.append(grp.format_element(grp.parse_element(args.element)))
    elif verb == "index":
        grp, sub = _parse_subgroup_arg(args.subgroup)
        out.append(str(grp.index(sub)))
    elif verb == "intersect":
        grp, s1 = _parse_subgroup_arg(args.sub1)
        grp2, s2 = _parse_subgroup_arg(args.sub2)
        if grp2 != grp:
            raise ParseError("cannot intersect subgroups of different groups")
        out.append(_emit(grp.format(grp.intersect(s1, s2)), lines_mode))
    elif verb == "basis":
        grp, sub = _parse_subgroup_arg(args.subgroup)
        out.extend(grp.format_element(b) for b in grp.basis(sub))
    elif verb == "enumerate":
        counts = {}
        for sub in grp.enumerate(args.max_index):
            counts[grp.index(sub)] = counts.get(grp.index(sub), 0) + 1
        out.append(" ".join(f"{m}:{counts.get(m, 0)}" for m in range(1, args.max_index + 1)))
    elif verb == "kernel":
        ker = solenoid.kernel(args.tag, args.rank, args.max_index)
        out.append(_emit(grp.format(ker), lines_mode))
    elif verb == "compose":
        c = comm_mod.compose(_parse_comm_arg(args.comm1), _parse_comm_arg(args.comm2))
        out.append(_emit(comm_mod.format_comm(c), lines_mode))
    elif verb == "invert":
        c = comm_mod.invert(_parse_comm_arg(args.comm))
        out.append(_emit(comm_mod.format_comm(c), lines_mode))
    elif verb == "equiv":
        eq = comm_mod.equivalent(_parse_comm_arg(args.comm1), _parse_comm_arg(args.comm2))
        out.append("equivalent" if eq else "inequivalent")
    elif verb == "tomatrix":
        mat = comm_mod.to_matrix(_parse_comm_arg(args.comm))
        for row in mat:
            out.append(" ".join(comm_mod._format_fraction(x) for x in row))
    elif verb == "zeta":
        m = prosystems.zeta(_parse_comm_arg(args.comm), args.depth)
        out.append(prosystems.format_morphism(m))
    elif verb == "reconstruct":
        c = _parse_comm_arg(args.comm)
        back = prosystems.reconstruct(prosystems.zeta(c, args.depth))
        out.append(_emit(comm_mod.format_comm(back), lines_mode))
        out.append(
            "equivalent to input" if comm_mod.equivalent(back, c) else "NOT equivalent"
        )
    elif verb == "cofinal":
        system = prosystems.build_system(args.tag, args.rank, args.depth)
        subsys, restr, inv = prosystems.cofinal_restrict(
            system, _where_predicate(grp, args.where)
        )
        out.append(prosystems.format_system(subsys))
        ident_round = prosystems.morphisms_equivalent(
            prosystems.compose_morphisms(inv, restr), prosystems.identity_morphism(system)
        ) and prosystems.morphisms_equivalent(
            prosystems.compose_morphisms(restr, inv), prosystems.identity_morphism(subsys)
        )
        out.append("isomorphism verified" if ident_round else "round trip FAILED")
    elif verb == "cover":
        grp, sub = _parse_subgroup_arg(args.subgroup)
        grp.on_rose()
        if not sub.complete:
            raise PreconditionError("a finite-sheeted cover needs a complete graph")
        out.append(f"cover sheets={sub.m}")
        out.append(_emit(grp.format(sub), lines_mode))
    elif verb == "lift":
        target = _parse_subgroup_arg(args.target)[1] if args.target else None
        gm = solenoid.lift_through_covers(_parse_comm_arg(args.comm), target=target)
        out.append("vertices " + " ".join(str(v + 1) for v in gm.vertex_map))
        for v in range(gm.src.m):
            for ch in _LOWER[: gm.src.k]:
                out.append(f"edge {v + 1} {ch} -> {gm.labels[ch][v] or '1'}")
    elif verb == "baseleaf":
        g = grp.parse_element(args.element)
        out.append(_solpoint_line(solenoid.baseleaf(g, args.depth)))
    elif verb in ("dpro", "sigma"):
        g = grp.parse_element(args.elem1)
        h = grp.parse_element(args.elem2)
        if verb == "dpro":
            val = solenoid.d_pro(args.tag, args.rank, g, h, args.depth)
        else:
            val = solenoid.sigma(
                solenoid.baseleaf(g, args.depth), solenoid.baseleaf(h, args.depth)
            )
        out.append(val.render())
    elif verb == "ball":
        g = grp.parse_element(args.element)
        p = solenoid.baseleaf(g, args.depth)
        try:
            epsilon = Fraction(args.epsilon)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad --epsilon {args.epsilon!r}") from None
        report = solenoid.ball_structure(p, epsilon)
        out.append(report.render())
    elif verb == "qi":
        est = geometry.qi_estimate(
            geometry.baseleaf_map(_parse_comm_arg(args.comm)), args.radius
        )
        out.append(est.render())
    elif verb == "bounded":
        rep = geometry.bounded_distance(
            geometry.baseleaf_map(_parse_comm_arg(args.comm1)),
            geometry.baseleaf_map(_parse_comm_arg(args.comm2)),
            args.radius,
        )
        out.append(rep.render())
    elif verb == "factor":
        rep = geometry.factorization_check(
            _parse_comm_arg(args.comm), args.depth, args.radius
        )
        out.append(rep.render())
        if not rep.passed:
            raise CommsolError("factorization check failed")
    elif verb == "fixpoint":
        grp.on_rose()
        g = grp.parse_element(args.element)
        out.append(geometry.fixed_point(g, args.sign).render())
    elif verb == "baction":
        c = _parse_comm_arg(args.comm)
        g = parse_word(args.element, Alphabet(c.rank))
        out.append(geometry.boundary_action(c, geometry.fixed_point(g)).render())
    elif verb == "selftest":
        ok = acceptance.run_all(write=lambda s: print(s))
        return 0 if ok else 1
    else:  # pragma: no cover
        raise ParseError(f"unknown verb {verb!r}")

    print("\n".join(out))
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except CommsolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
