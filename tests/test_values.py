"""The nine value types: construction, validation, equality, hash, repr and
immutability, each as a frozen dataclass had them, and none a tuple."""

import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from abmealy import (
    AbelianReport,
    AbelianVerdict,
    CompleteConfig,
    GroupElement,
    GTildeElement,
    HalfIntegralMatrix,
    InferResult,
    LocationMap,
    MatrixError,
    Mismatch,
    Polynomial,
    SccDecomposition,
    SccInstanceReport,
    parse_automaton,
)
from abmealy.group import IdentityResult, Verdict
from conftest import XYZ_TEXT

A = HalfIntegralMatrix([[-1, 1], [Fraction(-1, 2), 0]])
A_REPR = "HalfIntegralMatrix(RationalMatrix([['-1', '1'], ['-1/2', '0']]))"
GAMMA = GroupElement(parse_automaton(XYZ_TEXT), {"x": 1, "y": -1})
DEC = SccDecomposition(((0,), (1, 2)), frozenset({(1, 0)}), (False, True))
DEC_REPR = ("SccDecomposition(components=((0,), (1, 2)), edges=frozenset({(1, 0)}), "
            "cyclic=(False, True))")
LOC = LocationMap((3, 2), [3, 2], {"f": [1, 0]})
LOC_REPR = "LocationMap(p=Polynomial([3, 2]), e=(3, 2), assignment={'f': (1, 0)})"
P32 = Polynomial([3, 2])

# (type, positional arguments, the same as keywords, an instance that differs
# in one field, repr as a frozen dataclass printed it, whether it hashes)
CASES = [
    (CompleteConfig, (A, [3, 2]), dict(A=A.rows, e=(3, 2)), CompleteConfig(A, (1, 0)),
     f"CompleteConfig(A={A_REPR}, e=(3, 2))", True),
    (LocationMap, ((3, 2), (3, 2), {"f": (1, 0)}), dict(p=P32, e=[3, 2], assignment={"f": [1, 0]}),
     LocationMap((3, 2), (3, 2), {"f": (1, 1)}), LOC_REPR, False),
    (Mismatch, ("f", "01", "10", "11"),
     dict(state="f", word="01", automaton_output="10", vector_output="11"),
     Mismatch("f", "01", "10", "10"),
     "Mismatch(state='f', word='01', automaton_output='10', vector_output='11')", True),
    (GTildeElement, ([1, 0], (3, 2)), dict(v=(1, 0), p=P32), GTildeElement((1, 0), (1,)),
     "GTildeElement(v=(1, 0), p=Polynomial([3, 2]))", True),
    (IdentityResult, (Verdict.NOT_IDENTITY, "01"),
     dict(verdict=Verdict.NOT_IDENTITY, witness_path="01"), IdentityResult(Verdict.NOT_IDENTITY, ""),
     "IdentityResult(verdict=<Verdict.NOT_IDENTITY: 'NotIdentity'>, witness_path='01')", True),
    (AbelianReport, (AbelianVerdict.BOOLEAN_CANDIDATE, GAMMA),
     dict(verdict=AbelianVerdict.BOOLEAN_CANDIDATE, gamma=GAMMA, witness=None),
     AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE, GAMMA),
     "AbelianReport(verdict=<AbelianVerdict.BOOLEAN_CANDIDATE: 'BooleanCandidate'>, "
     "gamma=GroupElement(x - y), witness=None)", True),
    (SccDecomposition, (((0,), (1, 2)), frozenset({(1, 0)}), (False, True)),
     dict(components=((0,), (1, 2)), edges=frozenset({(1, 0)}), cyclic=(False, True)),
     SccDecomposition(((0,), (1, 2)), frozenset(), (False, True)), DEC_REPR, True),
    (SccInstanceReport, (P32, P32, ((0, 0),), DEC, (1,), True, None),
     dict(chi=P32, chi_star=P32, states=((0, 0),), decomposition=DEC, nontrivial_components=(1,),
          single_nontrivial=True, witness=None),
     SccInstanceReport(P32, P32, ((0, 0),), DEC, (1,), True, P32),
     "SccInstanceReport(chi=Polynomial([3, 2]), chi_star=Polynomial([3, 2]), "
     f"states=((0, 0),), decomposition={DEC_REPR}, nontrivial_components=(1,), "
     "single_nontrivial=True, witness=None)", True),
    (InferResult, (A, A.chi, LOC), dict(matrix=A, chi=A.chi, location=LOC),
     InferResult(A, Polynomial([1]), LOC),
     f"InferResult(matrix={A_REPR}, chi=Polynomial([Fraction(1, 2), 1, 1]), "
     f"location={LOC_REPR})", False),
]


@pytest.mark.parametrize("cls, args, kwargs, other, text, hashable", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_value_types_behave_as_frozen_dataclasses(cls, args, kwargs, other, text, hashable):
    x, y = cls(*args), cls(**kwargs)
    fields = tuple(getattr(x, name) for name in x.__match_args__)
    assert x.__match_args__ == tuple(kwargs)
    assert x == y and not x != y and x == copy.copy(x)
    assert x != other and not x == other
    assert x != fields and not isinstance(x, tuple)
    assert x.__eq__(fields) is NotImplemented
    assert repr(x) == repr(y) == text
    if hashable:
        assert hash(x) == hash(y) == hash(fields)
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
    name = x.__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(x, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert repr(x) == text


def test_value_type_defaults():
    assert IdentityResult(Verdict.IS_IDENTITY).witness_path is None
    report = AbelianReport(AbelianVerdict.TRIVIAL_GROUP)
    assert (report.gamma, report.witness) == (None, None)
    assert AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=("b", "why")).witness == ("b", "why")


@pytest.mark.parametrize("make, error, message", [
    (lambda: CompleteConfig(A, (2, 2)), MatrixError,
     "translation vector (2,2) must have odd first coordinate"),
    (lambda: CompleteConfig(A, (1,)), MatrixError, "vector (1) has length 1, need 2"),
    (lambda: CompleteConfig([[1, 0], [0, 1]], (1, 0)), MatrixError,
     "determinant 1 must have absolute value 1/2"),
    (lambda: LocationMap((Fraction(1, 2),), (1,), {}), TypeError,
     "integer coefficient expected, got Fraction(1, 2)"),
    (lambda: LocationMap((1,), (1, "a"), {}), ValueError,
     "invalid literal for int() with base 10: 'a'"),
    (lambda: LocationMap((1,), (1,), {"f": (Fraction(1, 2),)}), MatrixError,
     "vector (1/2) has non-integer entry 1/2"),
    (lambda: GTildeElement((1,), (2, 1)), MatrixError,
     "denominator polynomial 2 + x must have odd constant term"),
    (lambda: GTildeElement((1,), "x"), TypeError, "integer polynomial expected, got 'x'"),
    (lambda: AbelianReport(AbelianVerdict.BOOLEAN_CANDIDATE), ValueError,
     "a report with verdict BooleanCandidate needs gamma"),
    (lambda: AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE), ValueError,
     "a report with verdict AbelianFreeCandidate needs gamma"),
    (lambda: AbelianReport(AbelianVerdict.NOT_ABELIAN, GAMMA), ValueError,
     "a report with verdict NotAbelian takes no gamma"),
    (lambda: AbelianReport(AbelianVerdict.UNKNOWN, GAMMA), ValueError,
     "a report with verdict Unknown takes no gamma"),
    (lambda: Mismatch("a", "b", "c"), TypeError,
     "Mismatch.__init__() missing 1 required positional argument: 'vector_output'"),
    (lambda: IdentityResult(), TypeError,
     "IdentityResult.__init__() missing 1 required positional argument: 'verdict'"),
])
def test_value_type_validation_messages(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def test_scc_decomposition_builds_component_of_once():
    dec = SccDecomposition(((0,), (1, 2)), frozenset({(1, 0)}), (False, True))
    assert dec.component_of == {0: 0, 1: 1, 2: 1}
    assert dec.component_of is dec.component_of
    assert dec == SccDecomposition(((0,), (1, 2)), frozenset({(1, 0)}), (False, True))
    assert dec.terminal_indices == (0,)


def test_importing_the_cli_loads_no_dataclasses():
    """In a fresh process: what `import abmealy.cli` adds to sys.modules."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; before = set(sys.modules); import abmealy.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out == "[]\n"
