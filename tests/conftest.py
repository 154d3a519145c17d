"""Shared machines and matrices used across the suite.

Every fixture is a frozen, hand-checked artifact; tests assert against
these rather than re-deriving them with library code.
"""

import functools

import pytest

import abmealy
import abmealy.analysis
import abmealy.cli
import abmealy.complete
from abmealy import (
    HalfIntegralMatrix,
    MealyAutomaton,
    RationalMatrix,
    find_location_mismatch,
    parse_automaton,
    parse_matrix,
    poly_to_vector,
    unit_vector,
)

A32_TEXT = """\
aut a32
states f f0 f1
trans f 0 1 f0
trans f 1 0 f1
trans f0 0 0 f
trans f0 1 1 f
trans f1 0 0 f0
trans f1 1 1 f0
"""

XYZ_TEXT = """\
aut xyz
states x y z
trans x 0 1 z
trans x 1 0 y
trans y 0 0 x
trans y 1 1 x
trans z 0 0 x
trans z 1 1 x
"""

LAMPLIGHTER_TEXT = """\
aut lamplighter
states alpha beta
trans alpha 0 1 beta
trans alpha 1 0 alpha
trans beta 0 0 beta
trans beta 1 1 alpha
"""

IDENTITY_TEXT = """\
aut identity
states I
copy I I
"""

FLIP_TEXT = """\
aut flip
states t
trans t 0 1 t
trans t 1 0 t
"""

# The seven-state principal machine of a32, transitions derived by hand from
# the residuation rules; the state names are the canonical difference labels.
PRINCIPAL_FIGURE_TEXT = """\
aut principal_a32
states I f-f0 f-f1 f0-f f0-f1 f1-f f1-f0
copy I I
trans f-f0 0 1 f0-f
trans f-f0 1 0 f1-f
trans f-f1 0 1 I
trans f-f1 1 0 f1-f0
trans f0-f 0 1 f-f1
trans f0-f 1 0 f-f0
copy f0-f1 f-f0
trans f1-f 0 1 f0-f1
trans f1-f 1 0 I
copy f1-f0 f0-f
"""

# Half-integral matrix with characteristic polynomial 1/2 + x + x^2.
MAT_A_TEXT = """\
# contracting, irreducible characteristic polynomial
dim 2
-1 1
-1/2 0
"""


@pytest.fixture(scope="session")
def a32():
    return parse_automaton(A32_TEXT)


@pytest.fixture(scope="session")
def xyz():
    return parse_automaton(XYZ_TEXT)


@pytest.fixture(scope="session")
def lamplighter():
    return parse_automaton(LAMPLIGHTER_TEXT)


@pytest.fixture(scope="session")
def identity_machine():
    return parse_automaton(IDENTITY_TEXT)


@pytest.fixture(scope="session")
def flip():
    return parse_automaton(FLIP_TEXT)


@pytest.fixture(scope="session")
def principal_figure():
    return parse_automaton(PRINCIPAL_FIGURE_TEXT)


@pytest.fixture(scope="session")
def mat_a():
    return parse_matrix(MAT_A_TEXT)


def union_machine():
    """Two disjoint relabelled copies of the three-state machine."""
    base = parse_automaton(A32_TEXT)
    ren = {"f": "g", "f0": "g0", "f1": "g1"}
    trans = dict(base.transitions)
    for (s, b), (d, o) in base.transitions.items():
        trans[(ren[s], b)] = (ren[d], o)
    return MealyAutomaton(trans, name="union")


def verify_location(aut, A, locmap, max_len=10):
    """Brute-force oracle for a location map.

    Runs every non-empty word up to max_len from every state through both
    machines; it shares no code with `locate` or `LocationMap.validate`,
    which decide the same question exactly, transition by transition.
    """
    return find_location_mismatch(aut, A, locmap, max_len) is None


def cycle_solution_by_powers(A, sigmas):
    """Oracle for the cycle equation `locate` solves in Q[x]/chi*.

    A cycle through e1 with signs sigma_0..sigma_(L-1) forces
    sum sigma_i A^(L-i) e = (I - A^L) e1.  This solves that system over
    Fraction matrix powers of A itself and returns e, or None when the left
    side is singular.
    """
    L, M = len(sigmas), A.inner
    eye = RationalMatrix.identity(A.dim)
    powers = [eye]
    for _ in range(L):
        powers.append(M @ powers[-1])
    lhs = None
    for i, sig in enumerate(sigmas):
        if sig:
            term = powers[L - i].scale(sig)
            lhs = term if lhs is None else lhs + term
    if lhs is None:
        return None
    return lhs.solve_unique((eye - powers[L]).apply(unit_vector(A.dim)))


_locate = abmealy.complete.locate


@functools.wraps(_locate)
def checked_locate(aut, A, **kwargs):
    """`locate`, checking that p names e: p(A^-1) e1 == e.

    Bound in place of `locate` in every module that exposes it, before any
    test module imports it, so every locate the suite runs is checked.
    """
    locmap = _locate(aut, A, **kwargs)
    A = A if isinstance(A, HalfIntegralMatrix) else HalfIntegralMatrix(A)
    assert poly_to_vector(locmap.p, A) == locmap.e
    checked_locate.checked += 1
    return locmap


checked_locate.checked = 0
for _module in (abmealy, abmealy.complete, abmealy.analysis, abmealy.cli):
    _module.locate = checked_locate
