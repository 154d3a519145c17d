"""Formal Z-linear combinations of states and the abelian residuation calculus.

States of an invertible machine generate a group of word functions; in the
abelian case the group operation is written additively and residuation
extends from states to combinations by the rules

    d0(f + g) = d0 f + d1 g   if f and g are both odd, else d0 f + d0 g
    d1(f + g) = d1 f + d0 g   if f and g are both odd, else d1 f + d1 g
    d0(-f)    = -d1 f
    d1(-f)    = -d0 f

A combination is expanded into signed unit terms in lexicographic state
order and folded left, flipping the bit passed to each new term exactly when
the accumulated partial sum and the term are both odd.

These rules are only meaningful on machines whose group is abelian; callers
are responsible for that (check_abelian provides the criterion).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import (
    BoundExceededError,
    NoOddStateError,
    NotAbelianError,
    NotInvertibleError,
    UnknownStateError,
)
from .mealy import MealyAutomaton, Parity

DEFAULT_BOUND = 100000


class GroupElement:
    """Immutable formal Z-combination of the states of one machine."""

    __slots__ = ("aut", "coeffs", "_hash")

    def __init__(self, aut: MealyAutomaton, coeffs: dict[str, int]):
        self.aut = aut
        self.coeffs = {s: c for s, c in coeffs.items() if c != 0}
        self._hash = None

    @classmethod
    def identity(cls, aut: MealyAutomaton) -> "GroupElement":
        return cls(aut, {})

    @classmethod
    def unit(cls, aut: MealyAutomaton, state: str) -> "GroupElement":
        if state not in aut.states:
            raise UnknownStateError(f"unknown state {state!r}")
        return cls(aut, {state: 1})

    @classmethod
    def of(cls, aut: MealyAutomaton, coeffs: dict[str, int]) -> "GroupElement":
        for s in coeffs:
            if s not in aut.states:
                raise UnknownStateError(f"unknown state {s!r}")
        return cls(aut, coeffs)

    def _require_same(self, other: "GroupElement"):
        if self.aut != other.aut:
            raise ValueError("elements belong to different automata")

    def __add__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        self._require_same(other)
        merged = dict(self.coeffs)
        for s, c in other.coeffs.items():
            merged[s] = merged.get(s, 0) + c
        return GroupElement(self.aut, merged)

    def __sub__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GroupElement(self.aut, {s: -c for s, c in self.coeffs.items()})

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return GroupElement(self.aut, {s: k * c for s, c in self.coeffs.items()})

    __rmul__ = __mul__

    def is_formally_identity(self) -> bool:
        return not self.coeffs

    def parity(self) -> Parity:
        return element_parity(self)

    def residual(self, bit: int) -> "GroupElement":
        return residuate_element(self, bit)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.aut == other.aut and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.aut, tuple(sorted(self.coeffs.items()))))
        return self._hash

    def __str__(self):
        return format_combination(self.coeffs)

    def __repr__(self):
        return f"GroupElement({self})"


def format_combination(coeffs: dict[str, int], compact: bool = False) -> str:
    """Signed sum, positive terms then negative, each lexicographic; the
    empty sum prints as I."""
    if not coeffs:
        return "I"
    parts = []
    for s in sorted(coeffs, key=lambda s: (coeffs[s] < 0, s)):
        c = coeffs[s]
        mag = f"{abs(c)}{s}" if abs(c) != 1 else s
        if not parts:
            parts.append(mag if c > 0 else "-" + mag)
        elif compact:
            parts.append(("+" if c > 0 else "-") + mag)
        else:
            parts.append(("+ " if c > 0 else "- ") + mag)
    return ("" if compact else " ").join(parts)


# -- the residuation fold ----------------------------------------------------
#
# Generator tables make the fold reusable beyond machine states: each
# generator has a parity and, per input bit, a residual given as a coefficient
# map.  build_principal uses this to adjoin the fresh delta generator.

@dataclass(frozen=True)
class GenInfo:
    odd: bool
    res0: tuple[tuple[str, int], ...]
    res1: tuple[tuple[str, int], ...]


@lru_cache(maxsize=128)
def _gen_table(aut: MealyAutomaton) -> dict[str, GenInfo]:
    if not aut.is_invertible():
        raise NotInvertibleError(
            f"automaton {aut.name!r} is not invertible; residuation is undefined"
        )
    table = {}
    for s in aut.states:
        d0, _ = aut.step(s, 0)
        d1, _ = aut.step(s, 1)
        table[s] = GenInfo(aut._odd(s), ((d0, 1),), ((d1, 1),))
    return table


def _coeffs_parity(gens: dict[str, GenInfo], coeffs: dict[str, int]) -> bool:
    p = 0
    for s, c in coeffs.items():
        if gens[s].odd:
            p ^= c & 1
    return bool(p)


def _expand_terms(coeffs: dict[str, int]):
    """Signed unit terms in lexicographic state order."""
    for s in sorted(coeffs):
        c = coeffs[s]
        sign = 1 if c > 0 else -1
        for _ in range(abs(c)):
            yield s, sign


def _fold_terms(gens: dict[str, GenInfo], terms, bit: int) -> dict[str, int]:
    """Left fold of the four residuation rules over signed unit terms.

    Tracks the parity of the accumulated partial sum; the bit handed to each
    new term is flipped exactly when that parity and the term are both odd.
    """
    acc: dict[str, int] = {}
    acc_odd = False
    for label, sign in terms:
        info = gens[label]
        b = bit ^ 1 if (acc_odd and info.odd) else bit
        if sign > 0:
            src = info.res0 if b == 0 else info.res1
            mult = 1
        else:
            # d0(-f) = -d1 f and d1(-f) = -d0 f
            src = info.res1 if b == 0 else info.res0
            mult = -1
        for s2, c2 in src:
            new = acc.get(s2, 0) + mult * c2
            if new:
                acc[s2] = new
            else:
                acc.pop(s2, None)
        acc_odd ^= info.odd
    return acc


def _residuate_coeffs(gens, coeffs: dict[str, int], bit: int) -> dict[str, int]:
    return _fold_terms(gens, _expand_terms(coeffs), bit)


def element_parity(e: GroupElement) -> Parity:
    """Parity of the combination: sum of coefficients on odd states, mod 2."""
    gens = _gen_table(e.aut)
    return Parity.ODD if _coeffs_parity(gens, e.coeffs) else Parity.EVEN


def residuate_element(e: GroupElement, bit: int) -> GroupElement:
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    gens = _gen_table(e.aut)
    return GroupElement(e.aut, _residuate_coeffs(gens, e.coeffs, bit))


# -- identity testing ---------------------------------------------------------

class Verdict(Enum):
    IS_IDENTITY = "IsIdentity"
    NOT_IDENTITY = "NotIdentity"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class IdentityResult:
    verdict: Verdict
    witness_path: str | None = None  # bit string to the first odd element found

    def __bool__(self):
        return self.verdict is Verdict.IS_IDENTITY


def _key(coeffs: dict[str, int]):
    return tuple(sorted(coeffs.items()))


def _identity_test_coeffs(gens, coeffs, bound: int) -> IdentityResult:
    if bound < 1:
        raise ValueError("bound must be positive")
    if _coeffs_parity(gens, coeffs):
        return IdentityResult(Verdict.NOT_IDENTITY, "")
    visited = {_key(coeffs)}
    queue = deque([(coeffs, "")])
    while queue:
        cur, path = queue.popleft()
        for bit in (0, 1):
            child = _residuate_coeffs(gens, cur, bit)
            if _coeffs_parity(gens, child):
                return IdentityResult(Verdict.NOT_IDENTITY, path + str(bit))
            k = _key(child)
            if k not in visited:
                if len(visited) >= bound:
                    return IdentityResult(Verdict.UNKNOWN)
                visited.add(k)
                queue.append((child, path + str(bit)))
    return IdentityResult(Verdict.IS_IDENTITY)


def identity_test(e: GroupElement, bound: int = DEFAULT_BOUND) -> IdentityResult:
    """Breadth-first residuation closure of e.

    An element of an abelian group of word functions is the identity iff
    every element of its residuation closure is even.  The search answers
    NotIdentity (with the bit path to the first odd element found),
    IsIdentity when the closure completes within `bound` distinct elements,
    and Unknown when the bound is exceeded.
    """
    gens = _gen_table(e.aut)
    return _identity_test_coeffs(gens, e.coeffs, bound)


# -- abelianness criterion ----------------------------------------------------

class AbelianVerdict(Enum):
    TRIVIAL_GROUP = "TrivialGroup"
    ABELIAN_FREE_CANDIDATE = "AbelianFreeCandidate"
    BOOLEAN_CANDIDATE = "BooleanCandidate"
    NOT_ABELIAN = "NotAbelian"
    UNKNOWN = "Unknown"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AbelianReport:
    verdict: AbelianVerdict
    gamma: GroupElement | None = None
    witness: tuple[str, str] | None = None  # (state, explanation)

    def __post_init__(self):
        expects_gamma = self.verdict in (
            AbelianVerdict.ABELIAN_FREE_CANDIDATE,
            AbelianVerdict.BOOLEAN_CANDIDATE,
        )
        if (self.gamma is not None) != expects_gamma:
            need = "needs" if expects_gamma else "takes no"
            raise ValueError(f"a report with verdict {self.verdict} {need} gamma")


def gamma_of(aut: MealyAutomaton) -> GroupElement:
    """d1(o) - d0(o) for the lexicographically least odd state o."""
    if not aut.is_invertible():
        raise NotInvertibleError(f"automaton {aut.name!r} is not invertible")
    odd_states = [s for s in aut.states if aut._odd(s)]
    if not odd_states:
        raise NoOddStateError(f"automaton {aut.name!r} has no odd state")
    return _residual_difference(aut, odd_states[0])


def _residual_difference(aut: MealyAutomaton, s: str) -> GroupElement:
    d0, _ = aut.step(s, 0)
    d1, _ = aut.step(s, 1)
    return GroupElement.of(aut, {d1: 1}) - GroupElement.of(aut, {d0: 1})


def check_abelian(aut: MealyAutomaton, bound: int = DEFAULT_BOUND) -> AbelianReport:
    """Classify the group generated by the machine's states.

    The criterion: the group is abelian iff even states have equal residuals
    (d1 f - d0 f = I) and all odd states share one residual difference gamma;
    gamma = I separates the boolean case from the free one.  Each odd state
    is compared with the least one, whose difference is gamma.  Identity
    checks are bounded, so the answer can be Unknown; a NotAbelian verdict
    always carries a definite witness.
    """
    if not aut.is_invertible():
        raise NotInvertibleError(f"automaton {aut.name!r} is not invertible")
    odd_states = [s for s in aut.states if aut._odd(s)]
    even_states = [s for s in aut.states if not aut._odd(s)]
    if not odd_states:
        return AbelianReport(AbelianVerdict.TRIVIAL_GROUP)

    saw_unknown = False
    for s in even_states:
        diff = _residual_difference(aut, s)
        res = identity_test(diff, bound)
        if res.verdict is Verdict.NOT_IDENTITY:
            why = (
                f"d1({s}) - d0({s}) = {diff} is not the identity "
                f"(odd element along path {res.witness_path!r})"
            )
            return AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=(s, why))
        if res.verdict is Verdict.UNKNOWN:
            saw_unknown = True

    f = odd_states[0]
    gamma = _residual_difference(aut, f)
    for g in odd_states[1:]:
        diff = gamma - _residual_difference(aut, g)
        res = identity_test(diff, bound)
        if res.verdict is Verdict.NOT_IDENTITY:
            why = (
                f"odd states {f} and {g} have different residual differences "
                f"({diff} is odd along path {res.witness_path!r})"
            )
            return AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=(f, why))
        if res.verdict is Verdict.UNKNOWN:
            saw_unknown = True

    res = identity_test(gamma, bound)
    if saw_unknown or res.verdict is Verdict.UNKNOWN:
        return AbelianReport(AbelianVerdict.UNKNOWN)
    if res.verdict is Verdict.IS_IDENTITY:
        return AbelianReport(AbelianVerdict.BOOLEAN_CANDIDATE, gamma=gamma)
    return AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE, gamma=gamma)


# -- principal machine ---------------------------------------------------------

# Cached: infer_matrix locates one machine against many candidate matrices.
@lru_cache(maxsize=32)
def _require_abelian_free(aut: MealyAutomaton, bound: int) -> AbelianReport:
    report = check_abelian(aut, bound)
    if report.verdict is not AbelianVerdict.ABELIAN_FREE_CANDIDATE:
        detail = ""
        if report.witness:
            detail = f": {report.witness[1]}"
        raise NotAbelianError(
            f"automaton {aut.name!r} classified {report.verdict}{detail}; "
            "need AbelianFreeCandidate"
        )
    return report


def _principal_nodes(aut: MealyAutomaton, bound: int):
    """Closure data for the principal machine.

    Returns (delta_label, gens, nodes) where nodes maps each coefficient-map
    key to (coeffs, odd, child key on 0, child key on 1).  The node set is the
    residuation closure of {gamma}, plus the identity, plus the fresh delta
    generator and the negations of everything, closed again.
    """
    report = _require_abelian_free(aut, bound)
    gamma = report.gamma

    delta_label = "delta"
    while delta_label in aut.states:
        delta_label += "_"
    gens = dict(_gen_table(aut))
    gens[delta_label] = GenInfo(
        True, (), tuple(sorted(gamma.coeffs.items()))
    )  # d0(delta) = I, d1(delta) = gamma

    nodes: dict[tuple, tuple[dict, bool, tuple, tuple]] = {}
    queue = deque()

    def add(coeffs: dict[str, int]):
        k = _key(coeffs)
        if k not in nodes:
            if len(nodes) >= bound:
                raise BoundExceededError(
                    f"principal closure exceeded bound {bound}"
                )
            nodes[k] = None  # reserve; filled when popped
            queue.append(coeffs)
        return k

    add(gamma.coeffs)
    add({})
    add({delta_label: 1})
    while queue:
        cur = queue.popleft()
        k = _key(cur)
        if nodes[k] is not None:
            continue
        c0 = _residuate_coeffs(gens, cur, 0)
        c1 = _residuate_coeffs(gens, cur, 1)
        k0, k1 = add(c0), add(c1)
        nodes[k] = (cur, _coeffs_parity(gens, cur), k0, k1)
        # adjoin the negation and close it too
        add({s: -c for s, c in cur.items()})
    return delta_label, gens, nodes


def _principal_classes(aut: MealyAutomaton, bound: int):
    """Classes of the principal closure's nodes that are equal as functions.

    The nodes form a finite Mealy machine whose output is fixed by parity, so
    two nodes are equal as functions exactly when Moore refinement keeps them
    together: start from the partition by parity and split by (block, block of
    the 0-child, block of the 1-child) until no block splits.  Each class is
    labelled by the least compact print of a member without delta (of any
    member when all have delta); classes are visited in order of their
    greatest member key, and a label already taken gets `_` suffixes.

    Returns (nodes, label of every node key, label -> least key of the
    members the label is drawn from).
    """
    delta_label, _gens, nodes = _principal_nodes(aut, bound)
    block = {k: odd for k, (_, odd, _, _) in nodes.items()}
    count = len(set(block.values()))
    while True:
        ids: dict[tuple, int] = {}
        # the right-hand side reads the previous round's blocks
        block = {
            k: ids.setdefault((block[k], block[k0], block[k1]), len(ids))
            for k, (_, _, k0, k1) in nodes.items()
        }
        if len(ids) == count:
            break
        count = len(ids)

    members: dict[int, list[tuple]] = {}
    for k in sorted(nodes):
        members.setdefault(block[k], []).append(k)
    label_of: dict[tuple, str] = {}
    reps: dict[str, tuple] = {}
    for ms in sorted(members.values(), key=lambda ms: ms[-1]):
        pool = [m for m in ms if all(s != delta_label for s, _ in m)] or ms
        lbl = min(format_combination(dict(m), compact=True) for m in pool)
        while lbl in reps:
            lbl += "_"
        reps[lbl] = pool[0]
        label_of.update(dict.fromkeys(ms, lbl))
    return nodes, label_of, reps


def build_principal(aut: MealyAutomaton, bound: int = DEFAULT_BOUND) -> MealyAutomaton:
    """Smallest residuation-closed machine holding gamma, delta and negations.

    Closes {gamma} under residuation, adjoins a fresh generator delta with
    d0(delta) = I and d1(delta) = gamma, adjoins negations of everything,
    closes again, and merges states that are equal as functions.  The classes
    come from Moore refinement of that closure, which always finishes, so the
    closure size is the only bound.  Labels are the compact prints of class
    representatives (`f1-f0`, `I`, ...).
    """
    nodes, label_of, reps = _principal_classes(aut, bound)
    transitions = {}
    for src, rep in reps.items():
        _, odd, k0, k1 = nodes[rep]
        transitions[(src, 0)] = (label_of[k0], int(odd))
        transitions[(src, 1)] = (label_of[k1], int(not odd))
    return MealyAutomaton(transitions, name=f"principal_{aut.name}")


def principal_class_elements(
    aut: MealyAutomaton, bound: int = DEFAULT_BOUND
) -> dict[str, dict[str, int]]:
    """Label -> representative coefficient map for build_principal's states.

    The special generator (if its class merged with no plain combination)
    appears under its own label with a coefficient on the fresh symbol.
    Mostly useful for testing the closure's group structure.
    """
    _, _, reps = _principal_classes(aut, bound)
    return {lbl: dict(rep) for lbl, rep in reps.items()}
