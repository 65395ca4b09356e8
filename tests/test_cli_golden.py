"""Golden CLI transcripts: exact stdout and exit code of every verb
except selftest, on Z and F inputs wherever the verb takes both, in both
output formats.  The table was captured before the group-protocol
refactor; any change to it is a change of the CLI surface."""

import pytest

from commsol.cli import main

GOLDEN = [
    (
        ["--format", "text", "parse", "F", "2", "abBA"],
        0,
        "1\n",
    ),
    (
        ["--format", "lines", "parse", "F", "2", "abBA"],
        0,
        "1\n",
    ),
    (
        ["--format", "text", "parse", "F", "2", "aBBabA"],
        0,
        "aBBabA\n",
    ),
    (
        ["--format", "lines", "parse", "F", "2", "aBBabA"],
        0,
        "aBBabA\n",
    ),
    (
        ["--format", "text", "parse", "Z", "2", "3,-4"],
        0,
        "3,-4\n",
    ),
    (
        ["--format", "lines", "parse", "Z", "2", "3,-4"],
        0,
        "3,-4\n",
    ),
    (
        ["--format", "text", "parse", "F", "2", "abc"],
        1,
        "",
    ),
    (
        ["--format", "lines", "parse", "F", "2", "abc"],
        1,
        "",
    ),
    (
        ["--format", "text", "index", "F 2; aa; b; abA"],
        0,
        "2\n",
    ),
    (
        ["--format", "lines", "index", "F 2; aa; b; abA"],
        0,
        "2\n",
    ),
    (
        ["--format", "text", "index", "Z 2; 2 0; 1 3"],
        0,
        "6\n",
    ),
    (
        ["--format", "lines", "index", "Z 2; 2 0; 1 3"],
        0,
        "6\n",
    ),
    (
        ["--format", "text", "index", "F 2; aa"],
        1,
        "",
    ),
    (
        ["--format", "lines", "index", "F 2; aa"],
        1,
        "",
    ),
    (
        ["--format", "text", "intersect", "F 2; aa; b; abA", "F 2; bb; a; baB"],
        0,
        "F 2 graph 4\n"
        "2 1 4 3\n"
        "3 4 1 2\n",
    ),
    (
        ["--format", "lines", "intersect", "F 2; aa; b; abA", "F 2; bb; a; baB"],
        0,
        "F 2 graph 4 : 2 1 4 3 ; 3 4 1 2\n",
    ),
    (
        ["--format", "text", "intersect", "Z 1; 2", "Z 1; 3"],
        0,
        "Z 1\n"
        "6\n",
    ),
    (
        ["--format", "lines", "intersect", "Z 1; 2", "Z 1; 3"],
        0,
        "Z 1 : 6\n",
    ),
    (
        ["--format", "text", "intersect", "Z 2; 2 0; 0 1", "Z 2; 1 1; 0 3"],
        0,
        "Z 2\n"
        "2 2\n"
        "0 3\n",
    ),
    (
        ["--format", "lines", "intersect", "Z 2; 2 0; 0 1", "Z 2; 1 1; 0 3"],
        0,
        "Z 2 : 2 2 ; 0 3\n",
    ),
    (
        ["--format", "text", "intersect", "Z 1; 2", "F 2; aa; b; abA"],
        1,
        "",
    ),
    (
        ["--format", "lines", "intersect", "Z 1; 2", "F 2; aa; b; abA"],
        1,
        "",
    ),
    (
        ["--format", "text", "basis", "F 2; aa; b; abA"],
        0,
        "b\n"
        "aa\n"
        "abA\n",
    ),
    (
        ["--format", "lines", "basis", "F 2; aa; b; abA"],
        0,
        "b\n"
        "aa\n"
        "abA\n",
    ),
    (
        ["--format", "text", "basis", "Z 2; 2 1; 0 3"],
        0,
        "2,1\n"
        "0,3\n",
    ),
    (
        ["--format", "lines", "basis", "Z 2; 2 1; 0 3"],
        0,
        "2,1\n"
        "0,3\n",
    ),
    (
        ["--format", "text", "enumerate", "F", "2", "--max-index", "3"],
        0,
        "1:1 2:3 3:13\n",
    ),
    (
        ["--format", "lines", "enumerate", "F", "2", "--max-index", "3"],
        0,
        "1:1 2:3 3:13\n",
    ),
    (
        ["--format", "text", "enumerate", "Z", "1", "--max-index", "4"],
        0,
        "1:1 2:1 3:1 4:1\n",
    ),
    (
        ["--format", "lines", "enumerate", "Z", "1", "--max-index", "4"],
        0,
        "1:1 2:1 3:1 4:1\n",
    ),
    (
        ["--format", "text", "enumerate", "Z", "2", "--max-index", "4"],
        0,
        "1:1 2:3 3:4 4:7\n",
    ),
    (
        ["--format", "lines", "enumerate", "Z", "2", "--max-index", "4"],
        0,
        "1:1 2:3 3:4 4:7\n",
    ),
    (
        ["--format", "text", "kernel", "F", "2", "--max-index", "2"],
        0,
        "F 2 graph 4\n"
        "2 1 4 3\n"
        "3 4 1 2\n",
    ),
    (
        ["--format", "lines", "kernel", "F", "2", "--max-index", "2"],
        0,
        "F 2 graph 4 : 2 1 4 3 ; 3 4 1 2\n",
    ),
    (
        ["--format", "text", "kernel", "Z", "1", "--max-index", "4"],
        0,
        "Z 1\n"
        "12\n",
    ),
    (
        ["--format", "lines", "kernel", "Z", "1", "--max-index", "4"],
        0,
        "Z 1 : 12\n",
    ),
    (
        ["--format", "text", "kernel", "Z", "2", "--max-index", "3"],
        0,
        "Z 2\n"
        "6 0\n"
        "0 6\n",
    ),
    (
        ["--format", "lines", "kernel", "Z", "2", "--max-index", "3"],
        0,
        "Z 2 : 6 0 ; 0 6\n",
    ),
    (
        ["--format", "text", "compose", "comm Z 1 : 2/1", "comm Z 1 : 3/1"],
        0,
        "comm Z 1\n"
        "6/1\n",
    ),
    (
        ["--format", "lines", "compose", "comm Z 1 : 2/1", "comm Z 1 : 3/1"],
        0,
        "comm Z 1 : 6/1\n",
    ),
    (
        ["--format", "text", "compose", "comm Z 2 : 1/2 1/3 ; 0 1", "comm Z 2 : 0 1 ; 1 0"],
        0,
        "comm Z 2\n"
        "1/3 1/2\n"
        "1/1 0/1\n",
    ),
    (
        ["--format", "lines", "compose", "comm Z 2 : 1/2 1/3 ; 0 1", "comm Z 2 : 0 1 ; 1 0"],
        0,
        "comm Z 2 : 1/3 1/2 ; 1/1 0/1\n",
    ),
    (
        ["--format", "text", "compose", "comm F 2; a -> b; b -> a", "comm F 2; a -> b; b -> a"],
        0,
        "comm F 2\n"
        "a -> a\n"
        "b -> b\n",
    ),
    (
        ["--format", "lines", "compose", "comm F 2; a -> b; b -> a", "comm F 2; a -> b; b -> a"],
        0,
        "comm F 2 : a -> a ; b -> b\n",
    ),
    (
        ["--format", "text", "compose", "comm F 2; aa -> b; b -> aa; abA -> abA", "comm F 2; a -> a; b -> abA"],
        0,
        "comm F 2\n"
        "b -> abA\n"
        "aa -> b\n"
        "abA -> baaB\n",
    ),
    (
        ["--format", "lines", "compose", "comm F 2; aa -> b; b -> aa; abA -> abA", "comm F 2; a -> a; b -> abA"],
        0,
        "comm F 2 : b -> abA ; aa -> b ; abA -> baaB\n",
    ),
    (
        ["--format", "text", "compose", "comm Z 1 : 2/1", "comm F 2; a -> b; b -> a"],
        1,
        "",
    ),
    (
        ["--format", "lines", "compose", "comm Z 1 : 2/1", "comm F 2; a -> b; b -> a"],
        1,
        "",
    ),
    (
        ["--format", "text", "invert", "comm Z 1 : 2/1"],
        0,
        "comm Z 1\n"
        "1/2\n",
    ),
    (
        ["--format", "lines", "invert", "comm Z 1 : 2/1"],
        0,
        "comm Z 1 : 1/2\n",
    ),
    (
        ["--format", "text", "invert", "comm Z 2 : 1/2 1/3 ; 0 1"],
        0,
        "comm Z 2\n"
        "2/1 -2/3\n"
        "0/1 1/1\n",
    ),
    (
        ["--format", "lines", "invert", "comm Z 2 : 1/2 1/3 ; 0 1"],
        0,
        "comm Z 2 : 2/1 -2/3 ; 0/1 1/1\n",
    ),
    (
        ["--format", "text", "invert", "comm F 2; aa -> b; b -> aa; abA -> abA"],
        0,
        "comm F 2\n"
        "b -> aa\n"
        "aa -> b\n"
        "abA -> abA\n",
    ),
    (
        ["--format", "lines", "invert", "comm F 2; aa -> b; b -> aa; abA -> abA"],
        0,
        "comm F 2 : b -> aa ; aa -> b ; abA -> abA\n",
    ),
    (
        ["--format", "text", "equiv", "comm Z 1 : 2/1", "comm Z 1 : 3/1"],
        0,
        "inequivalent\n",
    ),
    (
        ["--format", "lines", "equiv", "comm Z 1 : 2/1", "comm Z 1 : 3/1"],
        0,
        "inequivalent\n",
    ),
    (
        ["--format", "text", "equiv", "comm Z 2 : 0 1 ; 1 0", "comm Z 2 : 0 1 ; 1 0"],
        0,
        "equivalent\n",
    ),
    (
        ["--format", "lines", "equiv", "comm Z 2 : 0 1 ; 1 0", "comm Z 2 : 0 1 ; 1 0"],
        0,
        "equivalent\n",
    ),
    (
        ["--format", "text", "equiv", "comm F 2; a -> b; b -> a", "comm F 2; a -> a; b -> b"],
        0,
        "inequivalent\n",
    ),
    (
        ["--format", "lines", "equiv", "comm F 2; a -> b; b -> a", "comm F 2; a -> a; b -> b"],
        0,
        "inequivalent\n",
    ),
    (
        ["--format", "text", "equiv", "comm F 2; aa -> aa; b -> b; abA -> abA", "comm F 2; a -> a; b -> b"],
        0,
        "equivalent\n",
    ),
    (
        ["--format", "lines", "equiv", "comm F 2; aa -> aa; b -> b; abA -> abA", "comm F 2; a -> a; b -> b"],
        0,
        "equivalent\n",
    ),
    (
        ["--format", "text", "tomatrix", "comm Z 2 : 1/2 1/3 ; 0 1"],
        0,
        "1/2 1/3\n"
        "0/1 1/1\n",
    ),
    (
        ["--format", "lines", "tomatrix", "comm Z 2 : 1/2 1/3 ; 0 1"],
        0,
        "1/2 1/3\n"
        "0/1 1/1\n",
    ),
    (
        ["--format", "text", "tomatrix", "comm F 2; a -> b; b -> a"],
        1,
        "",
    ),
    (
        ["--format", "lines", "tomatrix", "comm F 2; a -> b; b -> a"],
        1,
        "",
    ),
    (
        ["--format", "text", "zeta", "comm Z 1 : 2/1", "--depth", "2"],
        0,
        "idx=0 index=1 subgroup=Z 1 : 1\n"
        "idx=1 index=2 subgroup=Z 1 : 2\n"
        "bond 0 1\n"
        "comp 0: 1 -> 2\n"
        "comp 1: 1 -> 2\n",
    ),
    (
        ["--format", "lines", "zeta", "comm Z 1 : 2/1", "--depth", "2"],
        0,
        "idx=0 index=1 subgroup=Z 1 : 1\n"
        "idx=1 index=2 subgroup=Z 1 : 2\n"
        "bond 0 1\n"
        "comp 0: 1 -> 2\n"
        "comp 1: 1 -> 2\n",
    ),
    (
        ["--format", "text", "zeta", "comm Z 2 : 0 1 ; 1 0", "--depth", "2"],
        0,
        "idx=0 index=1 subgroup=Z 2 : 1 0 ; 0 1\n"
        "idx=1 index=2 subgroup=Z 2 : 1 0 ; 0 2\n"
        "idx=2 index=2 subgroup=Z 2 : 1 1 ; 0 2\n"
        "idx=3 index=2 subgroup=Z 2 : 2 0 ; 0 1\n"
        "bond 0 1\n"
        "bond 0 2\n"
        "bond 0 3\n"
        "comp 0: 1,0 -> 0,1\n"
        "comp 0: 0,1 -> 1,0\n"
        "comp 1: 2,0 -> 0,2\n"
        "comp 1: 0,1 -> 1,0\n"
        "comp 2: 1,1 -> 1,1\n"
        "comp 2: 0,2 -> 2,0\n"
        "comp 3: 1,0 -> 0,1\n"
        "comp 3: 0,2 -> 2,0\n",
    ),
    (
        ["--format", "lines", "zeta", "comm Z 2 : 0 1 ; 1 0", "--depth", "2"],
        0,
        "idx=0 index=1 subgroup=Z 2 : 1 0 ; 0 1\n"
        "idx=1 index=2 subgroup=Z 2 : 1 0 ; 0 2\n"
        "idx=2 index=2 subgroup=Z 2 : 1 1 ; 0 2\n"
        "idx=3 index=2 subgroup=Z 2 : 2 0 ; 0 1\n"
        "bond 0 1\n"
        "bond 0 2\n"
        "bond 0 3\n"
        "comp 0: 1,0 -> 0,1\n"
        "comp 0: 0,1 -> 1,0\n"
        "comp 1: 2,0 -> 0,2\n"
        "comp 1: 0,1 -> 1,0\n"
        "comp 2: 1,1 -> 1,1\n"
        "comp 2: 0,2 -> 2,0\n"
        "comp 3: 1,0 -> 0,1\n"
        "comp 3: 0,2 -> 2,0\n",
    ),
    (
        ["--format", "text", "zeta", "comm F 2; a -> b; b -> a", "--depth", "2"],
        0,
        "idx=0 index=1 subgroup=F 2 graph 1 : 1 ; 1\n"
        "idx=1 index=2 subgroup=F 2 graph 2 : 1 2 ; 2 1\n"
        "idx=2 index=2 subgroup=F 2 graph 2 : 2 1 ; 1 2\n"
        "idx=3 index=2 subgroup=F 2 graph 2 : 2 1 ; 2 1\n"
        "bond 0 1\n"
        "bond 0 2\n"
        "bond 0 3\n"
        "comp 0: a -> b\n"
        "comp 0: b -> a\n"
        "comp 1: b -> a\n"
        "comp 1: aa -> bb\n"
        "comp 1: abA -> baB\n"
        "comp 2: a -> b\n"
        "comp 2: baB -> abA\n"
        "comp 2: bb -> aa\n"
        "comp 3: bA -> aB\n"
        "comp 3: aa -> bb\n"
        "comp 3: ab -> ba\n",
    ),
    (
        ["--format", "lines", "zeta", "comm F 2; a -> b; b -> a", "--depth", "2"],
        0,
        "idx=0 index=1 subgroup=F 2 graph 1 : 1 ; 1\n"
        "idx=1 index=2 subgroup=F 2 graph 2 : 1 2 ; 2 1\n"
        "idx=2 index=2 subgroup=F 2 graph 2 : 2 1 ; 1 2\n"
        "idx=3 index=2 subgroup=F 2 graph 2 : 2 1 ; 2 1\n"
        "bond 0 1\n"
        "bond 0 2\n"
        "bond 0 3\n"
        "comp 0: a -> b\n"
        "comp 0: b -> a\n"
        "comp 1: b -> a\n"
        "comp 1: aa -> bb\n"
        "comp 1: abA -> baB\n"
        "comp 2: a -> b\n"
        "comp 2: baB -> abA\n"
        "comp 2: bb -> aa\n"
        "comp 3: bA -> aB\n"
        "comp 3: aa -> bb\n"
        "comp 3: ab -> ba\n",
    ),
    (
        ["--format", "text", "reconstruct", "comm Z 2 : 1/2 1/3 ; 0 1", "--depth", "2"],
        0,
        "comm Z 2\n"
        "1/2 1/3\n"
        "0/1 1/1\n"
        "equivalent to input\n",
    ),
    (
        ["--format", "lines", "reconstruct", "comm Z 2 : 1/2 1/3 ; 0 1", "--depth", "2"],
        0,
        "comm Z 2 : 1/2 1/3 ; 0/1 1/1\n"
        "equivalent to input\n",
    ),
    (
        ["--format", "text", "reconstruct", "comm F 2; a -> b; b -> a", "--depth", "2"],
        0,
        "comm F 2\n"
        "a -> b\n"
        "b -> a\n"
        "equivalent to input\n",
    ),
    (
        ["--format", "lines", "reconstruct", "comm F 2; a -> b; b -> a", "--depth", "2"],
        0,
        "comm F 2 : a -> b ; b -> a\n"
        "equivalent to input\n",
    ),
    (
        ["--format", "text", "cofinal", "Z", "1", "--depth", "6", "--where", "even"],
        0,
        "idx=0 index=2 subgroup=Z 1 : 2\n"
        "idx=1 index=4 subgroup=Z 1 : 4\n"
        "idx=2 index=6 subgroup=Z 1 : 6\n"
        "bond 0 1\n"
        "bond 0 2\n"
        "isomorphism verified\n",
    ),
    (
        ["--format", "lines", "cofinal", "Z", "1", "--depth", "6", "--where", "even"],
        0,
        "idx=0 index=2 subgroup=Z 1 : 2\n"
        "idx=1 index=4 subgroup=Z 1 : 4\n"
        "idx=2 index=6 subgroup=Z 1 : 6\n"
        "bond 0 1\n"
        "bond 0 2\n"
        "isomorphism verified\n",
    ),
    (
        ["--format", "text", "cofinal", "Z", "2", "--depth", "4", "--where", "index:2,4"],
        1,
        "",
    ),
    (
        ["--format", "lines", "cofinal", "Z", "2", "--depth", "4", "--where", "index:2,4"],
        1,
        "",
    ),
    (
        ["--format", "text", "cofinal", "F", "2", "--depth", "2", "--where", "all"],
        0,
        "idx=0 index=1 subgroup=F 2 graph 1 : 1 ; 1\n"
        "idx=1 index=2 subgroup=F 2 graph 2 : 1 2 ; 2 1\n"
        "idx=2 index=2 subgroup=F 2 graph 2 : 2 1 ; 1 2\n"
        "idx=3 index=2 subgroup=F 2 graph 2 : 2 1 ; 2 1\n"
        "bond 0 1\n"
        "bond 0 2\n"
        "bond 0 3\n"
        "isomorphism verified\n",
    ),
    (
        ["--format", "lines", "cofinal", "F", "2", "--depth", "2", "--where", "all"],
        0,
        "idx=0 index=1 subgroup=F 2 graph 1 : 1 ; 1\n"
        "idx=1 index=2 subgroup=F 2 graph 2 : 1 2 ; 2 1\n"
        "idx=2 index=2 subgroup=F 2 graph 2 : 2 1 ; 1 2\n"
        "idx=3 index=2 subgroup=F 2 graph 2 : 2 1 ; 2 1\n"
        "bond 0 1\n"
        "bond 0 2\n"
        "bond 0 3\n"
        "isomorphism verified\n",
    ),
    (
        ["--format", "text", "cofinal", "F", "2", "--depth", "3", "--where", "index:2"],
        1,
        "",
    ),
    (
        ["--format", "lines", "cofinal", "F", "2", "--depth", "3", "--where", "index:2"],
        1,
        "",
    ),
    (
        ["--format", "text", "cofinal", "F", "2", "--depth", "2", "--where", "even"],
        0,
        "idx=0 index=2 subgroup=F 2 graph 2 : 1 2 ; 2 1\n"
        "idx=1 index=2 subgroup=F 2 graph 2 : 2 1 ; 1 2\n"
        "idx=2 index=2 subgroup=F 2 graph 2 : 2 1 ; 2 1\n"
        "isomorphism verified\n",
    ),
    (
        ["--format", "lines", "cofinal", "F", "2", "--depth", "2", "--where", "even"],
        0,
        "idx=0 index=2 subgroup=F 2 graph 2 : 1 2 ; 2 1\n"
        "idx=1 index=2 subgroup=F 2 graph 2 : 2 1 ; 1 2\n"
        "idx=2 index=2 subgroup=F 2 graph 2 : 2 1 ; 2 1\n"
        "isomorphism verified\n",
    ),
    (
        ["--format", "text", "cofinal", "Z", "2", "--depth", "4", "--where", "even"],
        0,
        "idx=0 index=2 subgroup=Z 2 : 1 0 ; 0 2\n"
        "idx=1 index=2 subgroup=Z 2 : 1 1 ; 0 2\n"
        "idx=2 index=2 subgroup=Z 2 : 2 0 ; 0 1\n"
        "idx=3 index=4 subgroup=Z 2 : 1 0 ; 0 4\n"
        "idx=4 index=4 subgroup=Z 2 : 1 1 ; 0 4\n"
        "idx=5 index=4 subgroup=Z 2 : 1 2 ; 0 4\n"
        "idx=6 index=4 subgroup=Z 2 : 1 3 ; 0 4\n"
        "idx=7 index=4 subgroup=Z 2 : 2 0 ; 0 2\n"
        "idx=8 index=4 subgroup=Z 2 : 2 1 ; 0 2\n"
        "idx=9 index=4 subgroup=Z 2 : 4 0 ; 0 1\n"
        "bond 0 3\n"
        "bond 0 5\n"
        "bond 0 7\n"
        "bond 1 4\n"
        "bond 1 6\n"
        "bond 1 7\n"
        "bond 2 7\n"
        "bond 2 8\n"
        "bond 2 9\n"
        "isomorphism verified\n",
    ),
    (
        ["--format", "lines", "cofinal", "Z", "2", "--depth", "4", "--where", "even"],
        0,
        "idx=0 index=2 subgroup=Z 2 : 1 0 ; 0 2\n"
        "idx=1 index=2 subgroup=Z 2 : 1 1 ; 0 2\n"
        "idx=2 index=2 subgroup=Z 2 : 2 0 ; 0 1\n"
        "idx=3 index=4 subgroup=Z 2 : 1 0 ; 0 4\n"
        "idx=4 index=4 subgroup=Z 2 : 1 1 ; 0 4\n"
        "idx=5 index=4 subgroup=Z 2 : 1 2 ; 0 4\n"
        "idx=6 index=4 subgroup=Z 2 : 1 3 ; 0 4\n"
        "idx=7 index=4 subgroup=Z 2 : 2 0 ; 0 2\n"
        "idx=8 index=4 subgroup=Z 2 : 2 1 ; 0 2\n"
        "idx=9 index=4 subgroup=Z 2 : 4 0 ; 0 1\n"
        "bond 0 3\n"
        "bond 0 5\n"
        "bond 0 7\n"
        "bond 1 4\n"
        "bond 1 6\n"
        "bond 1 7\n"
        "bond 2 7\n"
        "bond 2 8\n"
        "bond 2 9\n"
        "isomorphism verified\n",
    ),
    (
        ["--format", "text", "cofinal", "Z", "1", "--depth", "4", "--where", "index:3"],
        1,
        "",
    ),
    (
        ["--format", "lines", "cofinal", "Z", "1", "--depth", "4", "--where", "index:3"],
        1,
        "",
    ),
    (
        ["--format", "text", "cover", "F 2; aa; b; abA"],
        0,
        "cover sheets=2\n"
        "F 2 graph 2\n"
        "2 1\n"
        "1 2\n",
    ),
    (
        ["--format", "lines", "cover", "F 2; aa; b; abA"],
        0,
        "cover sheets=2\n"
        "F 2 graph 2 : 2 1 ; 1 2\n",
    ),
    (
        ["--format", "text", "cover", "Z 1; 2"],
        1,
        "",
    ),
    (
        ["--format", "lines", "cover", "Z 1; 2"],
        1,
        "",
    ),
    (
        ["--format", "text", "lift", "comm Z 1 : 2/1"],
        0,
        "vertices 1\n"
        "edge 1 a -> aa\n",
    ),
    (
        ["--format", "lines", "lift", "comm Z 1 : 2/1"],
        0,
        "vertices 1\n"
        "edge 1 a -> aa\n",
    ),
    (
        ["--format", "text", "lift", "comm F 2; a -> b; b -> a"],
        0,
        "vertices 1\n"
        "edge 1 a -> b\n"
        "edge 1 b -> a\n",
    ),
    (
        ["--format", "lines", "lift", "comm F 2; a -> b; b -> a"],
        0,
        "vertices 1\n"
        "edge 1 a -> b\n"
        "edge 1 b -> a\n",
    ),
    (
        ["--format", "text", "lift", "comm F 2; aa -> b; b -> aa; abA -> abA"],
        0,
        "vertices 1 1\n"
        "edge 1 a -> 1\n"
        "edge 1 b -> aa\n"
        "edge 2 a -> b\n"
        "edge 2 b -> abA\n",
    ),
    (
        ["--format", "lines", "lift", "comm F 2; aa -> b; b -> aa; abA -> abA"],
        0,
        "vertices 1 1\n"
        "edge 1 a -> 1\n"
        "edge 1 b -> aa\n"
        "edge 2 a -> b\n"
        "edge 2 b -> abA\n",
    ),
    (
        ["--format", "text", "lift", "comm F 2; aa -> bb; b -> a; abA -> baB"],
        0,
        "vertices 1 2\n"
        "edge 1 a -> b\n"
        "edge 1 b -> a\n"
        "edge 2 a -> b\n"
        "edge 2 b -> a\n",
    ),
    (
        ["--format", "lines", "lift", "comm F 2; aa -> bb; b -> a; abA -> baB"],
        0,
        "vertices 1 2\n"
        "edge 1 a -> b\n"
        "edge 1 b -> a\n"
        "edge 2 a -> b\n"
        "edge 2 b -> a\n",
    ),
    (
        ["--format", "text", "lift", "comm F 2; a -> b; b -> a", "--target", "F 2; aa; b; abA"],
        1,
        "",
    ),
    (
        ["--format", "lines", "lift", "comm F 2; a -> b; b -> a", "--target", "F 2; aa; b; abA"],
        1,
        "",
    ),
    (
        ["--format", "text", "lift", "comm F 2; aa -> b; b -> aa; abA -> abA", "--target", "F 2; a; b"],
        0,
        "vertices 1 1\n"
        "edge 1 a -> 1\n"
        "edge 1 b -> aa\n"
        "edge 2 a -> b\n"
        "edge 2 b -> abA\n",
    ),
    (
        ["--format", "lines", "lift", "comm F 2; aa -> b; b -> aa; abA -> abA", "--target", "F 2; a; b"],
        0,
        "vertices 1 1\n"
        "edge 1 a -> 1\n"
        "edge 1 b -> aa\n"
        "edge 2 a -> b\n"
        "edge 2 b -> abA\n",
    ),
    (
        ["--format", "text", "lift", "comm F 2; a -> b; b -> a", "--target", "Z 1; 2"],
        1,
        "",
    ),
    (
        ["--format", "lines", "lift", "comm F 2; a -> b; b -> a", "--target", "Z 1; 2"],
        1,
        "",
    ),
    (
        ["--format", "text", "baseleaf", "Z", "1", "1", "--depth", "3"],
        0,
        "solpoint Z 1 N=3 cosets=[0,1,1] leaf=0\n",
    ),
    (
        ["--format", "lines", "baseleaf", "Z", "1", "1", "--depth", "3"],
        0,
        "solpoint Z 1 N=3 cosets=[0,1,1] leaf=0\n",
    ),
    (
        ["--format", "text", "baseleaf", "Z", "2", "1,-2", "--depth", "2"],
        0,
        "solpoint Z 2 N=2 cosets=[0,0,0,0,0,1,1,0] leaf=0,0\n",
    ),
    (
        ["--format", "lines", "baseleaf", "Z", "2", "1,-2", "--depth", "2"],
        0,
        "solpoint Z 2 N=2 cosets=[0,0,0,0,0,1,1,0] leaf=0,0\n",
    ),
    (
        ["--format", "text", "baseleaf", "F", "2", "abA", "--depth", "2"],
        0,
        "solpoint F 2 N=2 cosets=[0,1,0,1] leaf=1\n",
    ),
    (
        ["--format", "lines", "baseleaf", "F", "2", "abA", "--depth", "2"],
        0,
        "solpoint F 2 N=2 cosets=[0,1,0,1] leaf=1\n",
    ),
    (
        ["--format", "text", "dpro", "Z", "1", "0", "12", "--depth", "5"],
        0,
        "exp(-4) = 0.0183156389\n",
    ),
    (
        ["--format", "lines", "dpro", "Z", "1", "0", "12", "--depth", "5"],
        0,
        "exp(-4) = 0.0183156389\n",
    ),
    (
        ["--format", "text", "dpro", "Z", "2", "0,0", "2,6", "--depth", "3"],
        0,
        "exp(-2) = 0.1353352832\n",
    ),
    (
        ["--format", "lines", "dpro", "Z", "2", "0,0", "2,6", "--depth", "3"],
        0,
        "exp(-2) = 0.1353352832\n",
    ),
    (
        ["--format", "text", "dpro", "F", "2", "a", "bab", "--depth", "2"],
        0,
        "0  [pseudometric at depth 2]\n",
    ),
    (
        ["--format", "lines", "dpro", "F", "2", "a", "bab", "--depth", "2"],
        0,
        "0  [pseudometric at depth 2]\n",
    ),
    (
        ["--format", "text", "dpro", "F", "2", "ab", "ab", "--depth", "2"],
        0,
        "0  [pseudometric at depth 2]\n",
    ),
    (
        ["--format", "lines", "dpro", "F", "2", "ab", "ab", "--depth", "2"],
        0,
        "0  [pseudometric at depth 2]\n",
    ),
    (
        ["--format", "text", "sigma", "Z", "1", "0", "12", "--depth", "5"],
        0,
        "exp(-4) = 0.0183156389\n",
    ),
    (
        ["--format", "lines", "sigma", "Z", "1", "0", "12", "--depth", "5"],
        0,
        "exp(-4) = 0.0183156389\n",
    ),
    (
        ["--format", "text", "sigma", "Z", "2", "0,0", "1,2", "--depth", "2"],
        0,
        "exp(-1) = 0.3678794412\n",
    ),
    (
        ["--format", "lines", "sigma", "Z", "2", "0,0", "1,2", "--depth", "2"],
        0,
        "exp(-1) = 0.3678794412\n",
    ),
    (
        ["--format", "text", "sigma", "F", "2", "a", "b", "--depth", "2"],
        0,
        "exp(-1) = 0.3678794412\n",
    ),
    (
        ["--format", "lines", "sigma", "F", "2", "a", "b", "--depth", "2"],
        0,
        "exp(-1) = 0.3678794412\n",
    ),
    (
        ["--format", "text", "ball", "F", "2", "1", "--depth", "2", "--epsilon", "0.1"],
        0,
        "ball depth=2 eps=1/10 components=1\n"
        "  component at fiber 1: d_pro 0  [pseudometric at depth 2]\n"
        "  each component isometric to the leaf ball: nontrivial deck translations displace leaf points by >= 2*injrad = 1 > 4*eps = 2/5\n",
    ),
    (
        ["--format", "lines", "ball", "F", "2", "1", "--depth", "2", "--epsilon", "0.1"],
        0,
        "ball depth=2 eps=1/10 components=1\n"
        "  component at fiber 1: d_pro 0  [pseudometric at depth 2]\n"
        "  each component isometric to the leaf ball: nontrivial deck translations displace leaf points by >= 2*injrad = 1 > 4*eps = 2/5\n",
    ),
    (
        ["--format", "text", "ball", "F", "2", "ab", "--depth", "1", "--epsilon", "0.4"],
        0,
        "ball depth=1 eps=2/5 components=1  [depth-1 degenerate: d_pro identically 0]\n"
        "  component at fiber 1: d_pro 0  [pseudometric at depth 1]\n"
        "  depth-1 pseudometric is identically 0: single component, leaf-ball isometry not certified at this epsilon\n",
    ),
    (
        ["--format", "lines", "ball", "F", "2", "ab", "--depth", "1", "--epsilon", "0.4"],
        0,
        "ball depth=1 eps=2/5 components=1  [depth-1 degenerate: d_pro identically 0]\n"
        "  component at fiber 1: d_pro 0  [pseudometric at depth 1]\n"
        "  depth-1 pseudometric is identically 0: single component, leaf-ball isometry not certified at this epsilon\n",
    ),
    (
        ["--format", "text", "ball", "Z", "1", "3", "--depth", "3", "--epsilon", "0.1"],
        0,
        "ball depth=3 eps=1/10 components=1\n"
        "  component at fiber (3,): d_pro 0  [pseudometric at depth 3]\n"
        "  each component isometric to the leaf ball: nontrivial deck translations displace leaf points by >= 2*injrad = 1 > 4*eps = 2/5\n",
    ),
    (
        ["--format", "lines", "ball", "Z", "1", "3", "--depth", "3", "--epsilon", "0.1"],
        0,
        "ball depth=3 eps=1/10 components=1\n"
        "  component at fiber (3,): d_pro 0  [pseudometric at depth 3]\n"
        "  each component isometric to the leaf ball: nontrivial deck translations displace leaf points by >= 2*injrad = 1 > 4*eps = 2/5\n",
    ),
    (
        ["--format", "text", "ball", "Z", "2", "1,1", "--depth", "2", "--epsilon", "0.05"],
        0,
        "ball depth=2 eps=1/20 components=1\n"
        "  component at fiber (1, 1): d_pro 0  [pseudometric at depth 2]\n"
        "  each component isometric to the leaf ball: nontrivial deck translations displace leaf points by >= 2*injrad = 1 > 4*eps = 1/5\n",
    ),
    (
        ["--format", "lines", "ball", "Z", "2", "1,1", "--depth", "2", "--epsilon", "0.05"],
        0,
        "ball depth=2 eps=1/20 components=1\n"
        "  component at fiber (1, 1): d_pro 0  [pseudometric at depth 2]\n"
        "  each component isometric to the leaf ball: nontrivial deck translations displace leaf points by >= 2*injrad = 1 > 4*eps = 1/5\n",
    ),
    (
        ["--format", "text", "ball", "F", "2", "1", "--depth", "2", "--epsilon", "0.4"],
        1,
        "",
    ),
    (
        ["--format", "lines", "ball", "F", "2", "1", "--depth", "2", "--epsilon", "0.4"],
        1,
        "",
    ),
    (
        ["--format", "text", "qi", "comm F 2; a -> a; b -> b", "--radius", "3"],
        0,
        "R=3 L=1 (1.0000) C=0 (0.0000) upper=1 lower=1 pairs=1378\n",
    ),
    (
        ["--format", "lines", "qi", "comm F 2; a -> a; b -> b", "--radius", "3"],
        0,
        "R=3 L=1 (1.0000) C=0 (0.0000) upper=1 lower=1 pairs=1378\n",
    ),
    (
        ["--format", "text", "qi", "comm F 2; aa -> b; b -> aa; abA -> abA", "--radius", "3"],
        0,
        "R=3 L=4 (4.0000) C=1/2 (0.5000) upper=4 lower=4 pairs=1378\n",
    ),
    (
        ["--format", "lines", "qi", "comm F 2; aa -> b; b -> aa; abA -> abA", "--radius", "3"],
        0,
        "R=3 L=4 (4.0000) C=1/2 (0.5000) upper=4 lower=4 pairs=1378\n",
    ),
    (
        ["--format", "text", "qi", "comm Z 1 : 2/1", "--radius", "4"],
        0,
        "R=4 L=2 (2.0000) C=0 (0.0000) upper=2 lower=1 pairs=36\n",
    ),
    (
        ["--format", "lines", "qi", "comm Z 1 : 2/1", "--radius", "4"],
        0,
        "R=4 L=2 (2.0000) C=0 (0.0000) upper=2 lower=1 pairs=36\n",
    ),
    (
        ["--format", "text", "qi", "comm Z 2 : 1/2 1/3 ; 0 1", "--radius", "3"],
        0,
        "R=3 L=5 (5.0000) C=3/5 (0.6000) upper=4 lower=5 pairs=300\n",
    ),
    (
        ["--format", "lines", "qi", "comm Z 2 : 1/2 1/3 ; 0 1", "--radius", "3"],
        0,
        "R=3 L=5 (5.0000) C=3/5 (0.6000) upper=4 lower=5 pairs=300\n",
    ),
    (
        ["--format", "text", "bounded", "comm F 2; a -> b; b -> a", "comm F 2; a -> a; b -> b", "--radius", "5"],
        0,
        "inequivalent: growth report (running maxima: 0 2 4 6 8 10)\n",
    ),
    (
        ["--format", "lines", "bounded", "comm F 2; a -> b; b -> a", "comm F 2; a -> a; b -> b", "--radius", "5"],
        0,
        "inequivalent: growth report (running maxima: 0 2 4 6 8 10)\n",
    ),
    (
        ["--format", "text", "bounded", "comm F 2; a -> a; b -> abA", "comm F 2; a -> a; b -> b", "--radius", "5"],
        0,
        "inequivalent: growth report (running maxima: 0 4 6 8 10 12)\n",
    ),
    (
        ["--format", "lines", "bounded", "comm F 2; a -> a; b -> abA", "comm F 2; a -> a; b -> b", "--radius", "5"],
        0,
        "inequivalent: growth report (running maxima: 0 4 6 8 10 12)\n",
    ),
    (
        ["--format", "text", "bounded", "comm Z 1 : 2/1", "comm Z 1 : 3/1", "--radius", "5"],
        0,
        "inequivalent: growth report (running maxima: 0 1 2 3 4 5)\n",
    ),
    (
        ["--format", "lines", "bounded", "comm Z 1 : 2/1", "comm Z 1 : 3/1", "--radius", "5"],
        0,
        "inequivalent: growth report (running maxima: 0 1 2 3 4 5)\n",
    ),
    (
        ["--format", "text", "bounded", "comm Z 2 : 0 1 ; 1 0", "comm Z 2 : 0 1 ; 1 0", "--radius", "3"],
        0,
        "equivalent: bound 0, stabilized at R=0 (running maxima: 0 0 0 0)\n",
    ),
    (
        ["--format", "lines", "bounded", "comm Z 2 : 0 1 ; 1 0", "comm Z 2 : 0 1 ; 1 0", "--radius", "3"],
        0,
        "equivalent: bound 0, stabilized at R=0 (running maxima: 0 0 0 0)\n",
    ),
    (
        ["--format", "text", "factor", "comm F 2; a -> b; b -> a", "--depth", "2", "--radius", "4"],
        0,
        "factorization: exact agreement on 161 points\n",
    ),
    (
        ["--format", "lines", "factor", "comm F 2; a -> b; b -> a", "--depth", "2", "--radius", "4"],
        0,
        "factorization: exact agreement on 161 points\n",
    ),
    (
        ["--format", "text", "factor", "comm Z 1 : 2/1", "--depth", "3", "--radius", "6"],
        0,
        "factorization: exact agreement on 13 points\n",
    ),
    (
        ["--format", "lines", "factor", "comm Z 1 : 2/1", "--depth", "3", "--radius", "6"],
        0,
        "factorization: exact agreement on 13 points\n",
    ),
    (
        ["--format", "text", "factor", "comm Z 2 : 0 1 ; 1 0"],
        1,
        "",
    ),
    (
        ["--format", "lines", "factor", "comm Z 2 : 0 1 ; 1 0"],
        1,
        "",
    ),
    (
        ["--format", "text", "fixpoint", "F", "2", "Aba"],
        0,
        "u=A c=b\n",
    ),
    (
        ["--format", "lines", "fixpoint", "F", "2", "Aba"],
        0,
        "u=A c=b\n",
    ),
    (
        ["--format", "text", "fixpoint", "F", "2", "a", "--sign", "-"],
        0,
        "u=1 c=A\n",
    ),
    (
        ["--format", "lines", "fixpoint", "F", "2", "a", "--sign", "-"],
        0,
        "u=1 c=A\n",
    ),
    (
        ["--format", "text", "fixpoint", "Z", "1", "1"],
        1,
        "",
    ),
    (
        ["--format", "lines", "fixpoint", "Z", "1", "1"],
        1,
        "",
    ),
    (
        ["--format", "text", "baction", "comm F 2; a -> a; b -> abA", "b"],
        0,
        "u=a c=b\n",
    ),
    (
        ["--format", "lines", "baction", "comm F 2; a -> a; b -> abA", "b"],
        0,
        "u=a c=b\n",
    ),
    (
        ["--format", "text", "baction", "comm F 2; aa -> b; b -> aa; abA -> abA", "ab"],
        0,
        "u=1 c=abAbaa\n",
    ),
    (
        ["--format", "lines", "baction", "comm F 2; aa -> b; b -> aa; abA -> abA", "ab"],
        0,
        "u=1 c=abAbaa\n",
    ),
    (
        ["--format", "text", "baction", "comm Z 1 : 2/1", "a"],
        1,
        "",
    ),
    (
        ["--format", "lines", "baction", "comm Z 1 : 2/1", "a"],
        1,
        "",
    ),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[" ".join(g[0][1:]) for g in GOLDEN])
def test_cli_golden(capsys, argv, code, stdout):
    assert main(argv) == code
    assert capsys.readouterr().out == stdout
