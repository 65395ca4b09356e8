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
from .freewords import Alphabet, parse_word, serialize_vector
from .groups import group


def _read_arg(text: str) -> str:
    if os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            return fh.read()
    if ":" in text.splitlines()[0]:
        return text
    return text.replace(";", "\n")


def _parse_subgroup_arg(text: str):
    """(group, subgroup) parsed from a lattice or subgroup-graph text."""
    body = _read_arg(text)
    if body.lstrip().startswith("Z"):
        lat = lattices.parse_lattice(body)
        return group("Z", lat.n), lat
    graph = stallings.parse_subgroup(body)
    return group("F", graph.k), graph


def _parse_comm_arg(text: str):
    return comm_mod.parse_comm(_read_arg(text))


def _emit_comm(comm, lines_mode: bool) -> str:
    return comm_mod.format_comm_inline(comm) if lines_mode else comm_mod.format_comm(comm)


def _solpoint_line(p) -> str:
    fam = ",".join(
        str(v) if isinstance(v, int) else serialize_vector(v) for v in p.family()
    )
    if isinstance(p.leaf, solenoid.EdgePoint):
        leaf = f"{p.leaf.tail or '1'}:{p.leaf.letter}:{p.leaf.t}"
    else:
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

    def add(name, *arg_specs, **kw):
        p = sub.add_parser(name, **kw)
        for args, kwargs in arg_specs:
            p.add_argument(*args, **kwargs)
        return p

    group_args = [
        ((["tag"], {"choices": ["Z", "F"]})),
        ((["rank"], {"type": int})),
    ]
    add("parse", *group_args, ((["element"], {})), help="canonicalize a group element")
    add("index", ((["subgroup"], {})), help="index of a subgroup")
    add("intersect", ((["sub1"], {})), ((["sub2"], {})), help="intersection of subgroups")
    add("basis", ((["subgroup"], {})), help="free basis of an F_k subgroup")
    add(
        "enumerate",
        *group_args,
        ((["--max-index"], {"type": int, "required": True})),
        help="count subgroups per index",
    )
    add(
        "kernel",
        *group_args,
        ((["--max-index"], {"type": int, "required": True})),
        help="intersection of all subgroups of index <= N",
    )
    add("compose", ((["comm1"], {})), ((["comm2"], {})), help="compose commensurations")
    add("invert", ((["comm"], {})), help="invert a commensuration")
    add("equiv", ((["comm1"], {})), ((["comm2"], {})), help="test Comm(G) equality")
    add("tomatrix", ((["comm"], {})), help="rational matrix of a Z^n commensuration")
    add(
        "zeta",
        ((["comm"], {})),
        ((["--depth"], {"type": int, "default": 2})),
        help="system morphism of a commensuration",
    )
    add(
        "reconstruct",
        ((["comm"], {})),
        ((["--depth"], {"type": int, "default": 2})),
        help="round-trip a commensuration through zeta",
    )
    add(
        "cofinal",
        *group_args,
        ((["--depth"], {"type": int, "default": 4})),
        ((["--where"], {"default": "even", "help": "even | all | index:3,5"})),
        help="restrict to a cofinal subsystem",
    )
    add("cover", ((["subgroup"], {})), help="the cover attached to a subgroup")
    add(
        "lift",
        ((["comm"], {})),
        ((["--target"], {"default": None})),
        help="lift a commensuration through covers",
    )
    add(
        "baseleaf",
        *group_args,
        ((["element"], {})),
        ((["--depth"], {"type": int, "default": 2})),
        help="depth-N baseleaf point",
    )
    add(
        "dpro",
        *group_args,
        ((["elem1"], {})),
        ((["elem2"], {})),
        ((["--depth"], {"type": int, "default": 5})),
        help="profinite pseudometric",
    )
    add(
        "sigma",
        *group_args,
        ((["elem1"], {})),
        ((["elem2"], {})),
        ((["--depth"], {"type": int, "default": 5})),
        help="solenoid metric between baseleaf points",
    )
    add(
        "ball",
        *group_args,
        ((["element"], {})),
        ((["--depth"], {"type": int, "default": 2})),
        ((["--epsilon"], {"default": "0.1"})),
        help="component structure of a sigma-ball",
    )
    add(
        "qi",
        ((["comm"], {})),
        ((["--radius"], {"type": int, "default": 4})),
        help="certified quasi-isometry constants",
    )
    add(
        "bounded",
        ((["comm1"], {})),
        ((["comm2"], {})),
        ((["--radius"], {"type": int, "default": 6})),
        help="bounded-distance report for two baseleaf maps",
    )
    add(
        "factor",
        ((["comm"], {})),
        ((["--depth"], {"type": int, "default": 2})),
        ((["--radius"], {"type": int, "default": 5})),
        help="compare the covering lift with the baseleaf map",
    )
    add(
        "fixpoint",
        *group_args,
        ((["element"], {})),
        ((["--sign"], {"choices": ["+", "-"], "default": "+"})),
        help="boundary fixed point of a group element",
    )
    add("baction", ((["comm"], {})), ((["element"], {})), help="boundary action on g+")
    add("selftest", help="run the acceptance criteria end to end")
    return ap


def _where_predicate(grp, where: str):
    if where == "all":
        return lambda obj: True
    if where == "even":
        return lambda obj: grp.index(obj) % 2 == 0
    if where.startswith("index:"):
        wanted = {int(x) for x in where[len("index:") :].split(",")}
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
        if grp.tag != grp2.tag:
            raise ParseError("cannot intersect subgroups of different groups")
        out.append(grp.format(grp.intersect(s1, s2), inline=lines_mode))
    elif verb == "basis":
        grp, sub = _parse_subgroup_arg(args.subgroup)
        out.extend(grp.format_element(b) for b in grp.basis(sub))
    elif verb == "enumerate":
        counts = {}
        for sub in grp.enumerate(args.max_index):
            counts[grp.index(sub)] = counts.get(grp.index(sub), 0) + 1
        out.append(" ".join(f"{m}:{counts.get(m, 0)}" for m in range(1, args.max_index + 1)))
    elif verb == "kernel":
        out.append(grp.format(grp.kernel(args.max_index), inline=lines_mode))
    elif verb == "compose":
        c = comm_mod.compose(_parse_comm_arg(args.comm1), _parse_comm_arg(args.comm2))
        out.append(_emit_comm(c, lines_mode))
    elif verb == "invert":
        out.append(_emit_comm(comm_mod.invert(_parse_comm_arg(args.comm)), lines_mode))
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
        out.append(_emit_comm(back, lines_mode))
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
        if grp.tag != "F":
            raise ParseError("covers are computed over the rose (F tag)")
        if not sub.complete:
            raise PreconditionError("a finite-sheeted cover needs a complete graph")
        out.append(f"cover sheets={sub.m}")
        out.append(grp.format(sub, inline=lines_mode))
    elif verb == "lift":
        c = _parse_comm_arg(args.comm)
        if c.tag == "Z":
            c = comm_mod.zn1_to_f1(c)
        target = None
        if args.target:
            tgrp, target = _parse_subgroup_arg(args.target)
            if tgrp.tag != "F":
                raise ParseError("lift target must be an F subgroup")
        gm = solenoid.lift_through_covers(c, target=target)
        out.append(
            "vertices " + " ".join(str(v + 1) for v in gm.vertex_map)
        )
        for (v, x) in sorted(gm.edge_words):
            w = gm.edge_words[(v, x)]
            out.append(f"edge {v + 1} {'abcdefghijklmnopqrstuvwxyz'[x]} -> {w or '1'}")
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
        report = solenoid.ball_structure(p, Fraction(args.epsilon))
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
        if args.tag != "F":
            raise ParseError("boundary points are the F_k instance")
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
