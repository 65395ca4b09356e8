"""CLI tests: every verb, exit codes, and machine-readable round trips
(criterion 12 lives here together with the selftest wrapper)."""

import os
import subprocess
import sys
import time

import pytest

import commsol
from commsol import lattices, stallings
from commsol.cli import main, run
from commsol.commensurations import equivalent, parse_comm
from commsol.errors import PreconditionError
from commsol.groups import group


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip()


def test_parse_verb(capsys):
    code, out = cli(capsys, "parse", "F", "2", "abBA")
    assert code == 0 and out == "1"
    code, out = cli(capsys, "parse", "Z", "2", "3,-4")
    assert code == 0 and out == "3,-4"


def test_index_and_intersect(capsys):
    code, out = cli(capsys, "index", "F 2; aa; b; abA")
    assert code == 0 and out == "2"
    code, out = cli(capsys, "--format", "lines", "intersect", "F 2; aa; b; abA", "F 2; bb; a; baB")
    assert code == 0
    assert stallings.parse_subgroup(out).m == 4
    code, out = cli(capsys, "intersect", "Z 1; 2", "Z 1; 3")
    assert code == 0 and lattices.parse_lattice(out).cols == ((6,),)


def test_basis_and_enumerate(capsys):
    code, out = cli(capsys, "basis", "F 2; aa; b; abA")
    assert code == 0 and len(out.splitlines()) == 3
    code, out = cli(capsys, "enumerate", "F", "2", "--max-index", "3")
    assert code == 0 and out == "1:1 2:3 3:13"
    code, out = cli(capsys, "enumerate", "Z", "1", "--max-index", "4")
    assert code == 0 and out == "1:1 2:1 3:1 4:1"


def test_enumerate_low_index_and_guard(capsys, monkeypatch):
    monkeypatch.delenv("COMMSOL_MAX_WORK", raising=False)
    code, out = cli(capsys, "enumerate", "F", "2", "--max-index", "7")
    assert code == 0 and out == "1:1 2:3 3:13 4:71 5:461 6:3447 7:29093"
    code = main(["enumerate", "F", "2", "--max-index", "9"])
    err = capsys.readouterr().err
    assert code == 1
    assert "enumerate_subgroups(k=2, N=9): estimated work 27877637 exceeds cap 20000000" in err


def test_malformed_max_work_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("COMMSOL_MAX_WORK", "1e6")
    code = main(["enumerate", "F", "2", "--max-index", "3"])
    err = capsys.readouterr().err
    assert code == 1 and "COMMSOL_MAX_WORK='1e6'" in err


def test_kernel_verb(capsys):
    code, out = cli(capsys, "kernel", "Z", "1", "--max-index", "4")
    assert code == 0 and lattices.parse_lattice(out).cols == ((12,),)
    code, out = cli(capsys, "--format", "lines", "kernel", "F", "2", "--max-index", "2")
    assert code == 0 and stallings.parse_subgroup(out).m == 4


def test_comm_verbs(capsys):
    two = "comm Z 1 : 2/1"
    three = "comm Z 1 : 3/1"
    code, out = cli(capsys, "--format", "lines", "compose", two, three)
    assert code == 0 and out == "comm Z 1 : 6/1"
    code, out = cli(capsys, "--format", "lines", "invert", two)
    assert code == 0 and parse_comm(out).matrix[0][0] == 0.5
    code, out = cli(capsys, "equiv", two, "comm Z 1 : 3/1")
    assert code == 0 and out == "inequivalent"
    code, out = cli(capsys, "tomatrix", two)
    assert code == 0 and out == "2/1"


def test_swap_comm_round_trip(capsys):
    swap = "comm F 2; a -> b; b -> a"
    code, out = cli(capsys, "--format", "lines", "compose", swap, swap)
    assert code == 0
    assert equivalent(parse_comm(out), parse_comm("comm F 2; a -> a; b -> b"))


def test_zeta_and_reconstruct(capsys):
    code, out = cli(capsys, "zeta", "comm Z 1 : 2/1", "--depth", "2")
    assert code == 0 and "comp 0:" in out and "idx=0 index=1" in out
    code, out = cli(capsys, "reconstruct", "comm F 2; a -> b; b -> a", "--depth", "2")
    assert code == 0 and out.endswith("equivalent to input")


def test_cofinal_verb(capsys):
    code, out = cli(capsys, "cofinal", "Z", "1", "--depth", "6", "--where", "even")
    assert code == 0 and out.endswith("isomorphism verified")
    code = main(["cofinal", "Z", "1", "--depth", "4", "--where", "index:3"])
    assert code == 1  # 2Z is not covered


def test_cover_and_lift(capsys):
    code, out = cli(capsys, "cover", "F 2; aa; b; abA")
    assert code == 0 and out.splitlines()[0] == "cover sheets=2"
    code = main(["cover", "F 2; a"])
    assert code == 1 and "needs a complete graph" in capsys.readouterr().err
    code, out = cli(capsys, "lift", "comm Z 1 : 2/1")
    assert code == 0 and out.splitlines()[0] == "vertices 1"
    assert "edge 1 a -> aa" in out


ROSE_ONLY = "error: this step runs on the rose: it takes F_k (a covering lift also a map of Z^1)\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["lift", "comm Z 2 : 0 1 ; 1 0"], ROSE_ONLY),
        (["factor", "comm Z 2 : 0 1 ; 1 0"], ROSE_ONLY),
        (["baction", "comm Z 1 : 2/1", "a"], ROSE_ONLY),
        (["cover", "Z 1; 2"], ROSE_ONLY),
        (["fixpoint", "Z", "1", "1"], ROSE_ONLY),
        (
            ["intersect", "Z 2; 1 0; 0 1", "Z 3; 1 0 0; 0 1 0; 0 0 1"],
            "error: cannot intersect subgroups of different groups\n",
        ),
        (
            ["lift", "comm Z 1 : 2/1", "--target", "F 2; a; b"],
            "error: the lift target is a subgroup of another group than phi's\n",
        ),
        (
            ["lift", "comm F 2; a -> b; b -> a", "--target", "Z 1; 2"],
            "error: the lift target is a subgroup of another group than phi's\n",
        ),
    ],
)
def test_refusals_name_the_group_not_an_internal_step(capsys, argv, err):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_lift_takes_a_target_in_phis_group(capsys):
    # the Z^1 map lifts as its F_1 equivalent, so an F_1 target is its group
    code, out = cli(capsys, "lift", "comm Z 1 : 2/1", "--target", "F 1; a")
    assert (code, out) == (0, "vertices 1\nedge 1 a -> aa")


def test_parser_keeps_no_state_between_runs(capsys):
    # run() reuses one parser; a flag given to one call must not leak
    subs = ("F 2; aa; b; abA", "F 2; bb; a; baB")
    code, lines = cli(capsys, "--format", "lines", "intersect", *subs)
    assert code == 0 and lines.startswith("F 2 graph 4 : ")
    code, text = cli(capsys, "intersect", *subs)
    assert code == 0 and text.splitlines()[0] == "F 2 graph 4"
    assert stallings.parse_subgroup(text) == stallings.parse_subgroup(lines)


def test_baseleaf_dpro_sigma(capsys):
    code, out = cli(capsys, "baseleaf", "Z", "1", "1", "--depth", "3")
    # cosets of 1 in Z, 2Z, 3Z; the canonical leaf sits at the base point
    assert code == 0 and out == "solpoint Z 1 N=3 cosets=[0,1,1] leaf=0"
    code, out = cli(capsys, "dpro", "Z", "1", "0", "12", "--depth", "5")
    assert code == 0 and out.startswith("exp(-4) = 0.0183156")
    code, out = cli(capsys, "sigma", "Z", "1", "0", "12", "--depth", "5")
    assert code == 0 and out.startswith("exp(-4)")


def test_dpro_at_depth_6(capsys):
    # the commutator abAB first leaves an index-3 subgroup, so the metric
    # path lists no subgroup of index above 3 and builds no system
    code, out = cli(capsys, "dpro", "F", "2", "ab", "ba", "--depth", "6")
    assert code == 0 and out.startswith("exp(-2) = 0.1353352832")


def test_dpro_at_depth_7(capsys):
    # depth 7: the same index-3 subgroup decides it
    code, out = cli(capsys, "dpro", "F", "2", "ab", "ba", "--depth", "7")
    assert code == 0 and out.startswith("exp(-2) = 0.1353352832")


def test_metric_verbs_past_the_depth_n_listing(capsys):
    # the F_3 depth-6 listing is refused by the work guard and the F_2
    # depth-8 one takes seconds; the least separating index, 3, needs
    # neither
    for argv in (("dpro", "F", "3", "ab", "ba", "--depth", "6"),
                 ("sigma", "F", "2", "ab", "ba", "--depth", "8")):
        code, out = cli(capsys, *argv)
        assert code == 0 and out == "exp(-2) = 0.1353352832"


def test_metric_verbs_at_depth_4(capsys):
    # the metric path reads subgroups of index <= 4, not K_4
    code, out = cli(capsys, "dpro", "F", "2", "ab", "ba", "--depth", "4")
    assert code == 0 and out.startswith("exp(-2)")
    code, out = cli(capsys, "sigma", "F", "2", "ab", "ba", "--depth", "4")
    assert code == 0 and out.startswith("exp(-2)")
    code, out = cli(capsys, "baseleaf", "F", "2", "abAB", "--depth", "4")
    assert code == 0 and out.startswith("solpoint F 2 N=4 cosets=[0,")


def test_ball_at_depth_4_lists_sheets_under_the_guard(capsys, monkeypatch):
    # the point needs the depth-4 enumeration (work 330); its sheets need K_4
    monkeypatch.setenv("COMMSOL_MAX_WORK", "10000")
    code = main(["ball", "F", "2", "ab", "--depth", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert (
        "profinite_kernel(k=2, N=4): partial index reached 57: "
        "estimated work 10032 exceeds cap 10000"
    ) in err


def test_ball_verb(capsys):
    code, out = cli(capsys, "ball", "F", "2", "1", "--depth", "2", "--epsilon", "0.1")
    assert code == 0 and "components=1" in out
    code, out = cli(capsys, "ball", "F", "2", "1", "--depth", "1", "--epsilon", "0.4")
    assert code == 0 and "degenerate" in out
    code = main(["ball", "F", "2", "1", "--depth", "2", "--epsilon", "0.4"])
    assert code == 1


def test_ball_refuses_a_bad_epsilon_before_any_kernel(capsys):
    # epsilon <= 0, and epsilon >= injrad/4 at a depth whose kernel K_4 the
    # work guard would refuse only after seconds: exit 1 with one error line
    # at once, on either family
    for tag in ("F", "Z"):
        for option, message in (
            ("--epsilon=-1", "epsilon -1 must be > 0"),
            ("--epsilon=0", "epsilon 0 must be > 0"),
            ("--epsilon=0.2", "epsilon 1/5 violates the bound"),
        ):
            t0 = time.perf_counter()
            assert main(["ball", tag, "2", "1" if tag == "F" else "1,0", "--depth", "4", option]) == 1
            assert time.perf_counter() - t0 < 0.5
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith(f"error: {message}")


def test_qi_bounded_factor(capsys):
    ident = "comm F 2; a -> a; b -> b"
    swap = "comm F 2; a -> b; b -> a"
    code, out = cli(capsys, "qi", ident, "--radius", "3")
    assert code == 0 and "L=1" in out and "C=0" in out
    code, out = cli(capsys, "bounded", swap, ident, "--radius", "5")
    assert code == 0 and out.startswith("inequivalent")
    code, out = cli(capsys, "factor", swap, "--depth", "2", "--radius", "4")
    assert code == 0 and "exact agreement" in out


def test_a_negative_radius_is_refused_before_any_work(capsys):
    # every verb that takes a radius, on F_2 and Z^2: exit 1 with one error
    # line (factor runs on the rose, which refuses Z^2 first), and radius 0
    # still runs; the one check is the family's ball_size, which the ball
    # of either family reads too
    for tag, comm in (("F", "comm F 2; a -> b; b -> a"), ("Z", "comm Z 2 : 1/1 0/1 ; 0/1 1/1")):
        for verb in (["qi", comm], ["bounded", comm, comm], ["factor", comm]):
            off_rose = verb[0] == "factor" and tag == "Z"
            assert main([*verb, "--radius", "-1"]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert ("runs on the rose" if off_rose else "error: radius must be >= 0\n") in captured.err
            assert main([*verb, "--radius", "0"]) == int(off_rose)
            capsys.readouterr()
        grp = group(tag, 2)
        for refused in (grp.ball_size, grp.ball):
            with pytest.raises(PreconditionError, match="^radius must be >= 0$"):
                refused(-1)
        assert grp.ball_size(0) == len(grp.ball(0)) == 1


def test_fixpoint_and_baction(capsys):
    code, out = cli(capsys, "fixpoint", "F", "2", "Aba")
    assert code == 0 and out == "u=A c=b"
    code, out = cli(capsys, "fixpoint", "F", "2", "a", "--sign", "-")
    assert code == 0 and out == "u=1 c=A"
    # conjugation by a, applied to the attracting point of b
    code, out = cli(capsys, "baction", "comm F 2; a -> a; b -> abA", "b")
    assert code == 0 and out == "u=a c=b"


def test_domain_error_exit_code():
    assert main(["index", "F 2; aa"]) == 1  # infinite index
    assert main(["tomatrix", "comm F 2; a -> b; b -> a"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "Z x : 1"],
        ["index", "Z 1 : 1 x"],
        ["index", "F 2 graph 2 : 1 x ; 1 2"],
        ["invert", "comm F x : a -> b"],
        ["invert", "comm Z 1 : 1/0"],
        ["cofinal", "F", "2", "--where", "index:x"],
        ["ball", "F", "2", "ab", "--epsilon", "1/0"],
    ],
)
def test_malformed_numbers_are_domain_errors(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["qi", "comm Z 0"],
        ["bounded", "comm Z 0", "comm Z 0"],
        ["index", "Z 0"],
        ["parse", "Z", "0", ""],
    ],
)
def test_rank_zero_is_a_domain_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["unknown-verb"])
    assert exc.value.code == 2


def test_machine_round_trips(capsys):
    # every value printed in lines mode re-parses to an equal value
    code, out = cli(capsys, "--format", "lines", "kernel", "F", "2", "--max-index", "2")
    assert stallings.parse_subgroup(out) == stallings.profinite_kernel(2, 2)
    comm_text = "comm F 2; aa -> b; b -> aa; abA -> abA"
    code, out = cli(capsys, "--format", "lines", "invert", comm_text)
    twice = run(["--format", "lines", "invert", out])
    assert twice == 0
    back = capsys.readouterr().out.strip()
    assert equivalent(parse_comm(back), parse_comm(comm_text))


def test_selftest_subprocess_hermetic():
    # criterion 12: the full acceptance suite through the CLI, exit code 0;
    # the child imports the same package as this test, installed or not
    src = os.path.dirname(os.path.dirname(commsol.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "commsol.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=360,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 12  # 11 criteria + total
    assert all(ln.startswith("PASS") for ln in lines)
