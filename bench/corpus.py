"""The pinned corpus: unit orbits of companion matrices of contracting chi.

Every chi is x^m + g(x)/2, written as the integer tuple g (constant first).
Each size class holds two chi whose orbit of e1 in c(A, e1) has the same
size; for most classes they are sign mirrors, chi(x) and +-chi(-x).  A
workload's seed picks one chi per class, so different seeds exercise
different machines of one size.

The pins below were computed once with the library and checked against the
oracles in `oracles.py`; set-up asserts every orbit size it builds, so a
drifting corpus fails before anything is timed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

# size class -> (g, g') pair of equal orbit size
CLASSES = {
    "o7": ((1, 2), (1, -2)),
    "o21": ((1, 1, 1, 1), (1, -1, 1, -1)),
    "o23": ((1, 0, -2), (-1, 0, 2)),
    "o29": ((1, 0, 1, -1), (1, 0, 1, 1)),
    "o31": ((1, 0, -1, -1), (1, 0, -1, 1)),
    "o33": ((-1, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0)),
    "o61": ((1, -2, 3, -3), (1, 2, 3, 3)),
    "o823": ((1, 1, 1, 2, 1), (-1, 1, -1, 2, -1)),
    "o1179": ((1, 1, 0, 1, 0), (-1, 1, 0, 1, 0)),
    "o23555": ((1, -1, 0, 1, 0, 0), (1, 1, 0, -1, 0, 0)),
    "o55275": ((-1, 0, 1, 0, 0, -1), (-1, 0, 1, 0, 0, 1)),
}

# chi = 1/2 - x + 3/2x^2 - 3/2x^3 + x^4: 61 orbit states, the slow case of
# check_abelian / build_principal; probes time one identity test on it.
CHI61 = (1, -2, 3, -3)
# chi = 1/2 + x + x^2 + x^3 + x^4 (21 states): no witness up to degree 12,
# so `witness` walks the whole 3^12 tree before printing "none".
CHI_NO_WITNESS = (1, 2, 2, 2)
# A 23-state chi whose orbit machine `infer` cannot place with its default
# bounds: it tries every candidate matrix, classifying the machine again for
# each, and exits 1.  (Its mirror (-1, 0, 2) is placed after about twice the
# time; a later `infer` that places this one too must still verify.)
CHI_INFER23 = (1, 0, -2)

# Minimal monic {-1,0,1} witness of degree <= 12 for each chi*, or None.
WITNESS = {
    (1, 2): "1 + x^2 + x^3 + x^4",
    (1, -2): "1 - x^2 + x^3",
    (1, 1, 1, 1): "1 + x + x^2 + x^3 + x^4",
    (1, -1, 1, -1): "1 - x + x^2 - x^3 + x^4",
    (1, 2, 2, 2): None,
    (1, 0, -2): "1 - x^3 + x^4 + x^5",
    (-1, 0, 2): "1 - x^3 - x^4 - x^5 + x^6",
    (1, 0, 1, -1): "1 - x + x^2 + x^4",
    (1, 0, 1, 1): "1 + x + x^2 + x^4",
    (1, 0, -1, -1): "1 - x - x^2 + x^4",
    (1, 0, -1, 1): "1 + x - x^2 + x^4",
    (-1, 0, 1, 0, 0, 0): "1 - x^4 - x^6 - x^8 + x^10",
    (1, 0, 1, 0, 0, 0): "1 + x^4 + x^6",
    (1, -2, 3, -3): "1 - x + x^3 - x^4 + x^5",
    (1, 2, 3, 3): "1 - x - x^2 - x^3 + x^6",
    (1, 1, 1, 2, 1): "1 - x - x^2 - x^4 + x^5 - x^6 + x^8",
    (-1, 1, -1, 2, -1): "1 - x - x^4 - x^6 + x^7",
    (1, 1, 0, 1, 0): "1 + x^2 + x^4 + x^5",
    (-1, 1, 0, 1, 0): "1 - x^2 - x^5 - x^6 + x^7",
    (1, -1, 0, 1, 0, 0): "1 + x^3 - x^5 + x^6",
    (1, 1, 0, -1, 0, 0): "1 - x^3 + x^5 + x^6",
    (-1, 0, 1, 0, 0, -1): "1 - x - x^4 + x^5 - x^6 - x^8 + x^10",
    (-1, 0, 1, 0, 0, 1): "1 - x - x^2 + x^4 - x^5 - x^6 + x^7",
}

# `scc` pins: (states in orbit(e1) | orbit(-e1), components, single nontrivial).
SCC = {
    (1, 2): (7, 2, True),
    (1, -2): (7, 2, True),
    (1, 1, 0, 1, 0): (1179, 2, True),
    (-1, 1, 0, 1, 0): (1179, 2, True),
    (1, -1, 0, 1, 0, 0): (23555, 2, True),
    (1, 1, 0, -1, 0, 0): (23555, 2, True),
}

# The three-state figure machine and its matrix (chi = 1/2 + x + x^2).
FIGURE_AUT = """\
aut a32
states f f0 f1
trans f 0 1 f0
trans f 1 0 f1
trans f0 0 0 f
trans f0 1 1 f
trans f1 0 0 f0
trans f1 1 1 f0
"""
FIGURE_MATRIX = "dim 2\n-1 1\n-1/2 0\n"
FIGURE_INFER = """\
chi: 1/2 + x + x^2
dim 2
-1 1
-1/2 0
p: 3 + 2x
e: (3,2)
state f -> (1,0)
state f0 -> (0,1)
state f1 -> (-2,-2)
"""


def size_of(g) -> int:
    for name, pair in CLASSES.items():
        if tuple(g) in pair:
            return int(name[1:])
    if tuple(g) == CHI_NO_WITNESS:
        return 21
    raise KeyError(g)


def pick(rng: random.Random, cls: str):
    return CLASSES[cls][rng.randrange(2)]


def key(g) -> str:
    """File-name form of g: '1_-2_3_-3'."""
    return "_".join(str(c) for c in g)


def chi_arg(g) -> str:
    """chi as the CLI's --chi argument: rational coefficients, constant first."""
    return " ".join(str(Fraction(c, 2)) for c in g) + " 1"


def build(lib, g):
    """Orbit machine and companion matrix of chi(g), built by the library."""
    chi = lib.RationalPolynomial([Fraction(c, 2) for c in g] + [Fraction(1)])
    A = lib.companion_from_chi(chi)
    e1 = lib.unit_vector(A.dim)
    machine = lib.orbit_automaton(lib.CompleteConfig(A, e1), [e1])
    want = size_of(g)
    if len(machine.states) != want:
        raise RuntimeError(
            f"corpus drift: chi {g} has {len(machine.states)} orbit states, pinned {want}")
    return machine, A


def write(lib, workdir: Path, items) -> dict:
    """Build every (g, needs_aut) item and write g.aut / g.mat; returns paths."""
    paths = {}
    for g, needs_aut in items:
        machine, A = build(lib, g)
        mat = workdir / f"chi_{key(g)}.mat"
        mat.write_text(lib.serialize_matrix(A), encoding="utf-8")
        paths[(g, "mat")] = mat
        if needs_aut:
            aut = workdir / f"chi_{key(g)}.aut"
            aut.write_text(machine.serialize(), encoding="utf-8")
            paths[(g, "aut")] = aut
    return paths
