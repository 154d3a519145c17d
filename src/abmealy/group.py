"""Formal Z-linear combinations of states and the abelian residuation calculus.

States of an invertible machine generate a group of word functions; in the
abelian case the group operation is written additively and residuation
extends from states to combinations by the rules

    d0(f + g) = d0 f + d1 g   if f and g are both odd, else d0 f + d0 g
    d1(f + g) = d1 f + d0 g   if f and g are both odd, else d1 f + d1 g
    d0(-f)    = -d1 f
    d1(-f)    = -d0 f

A combination is the left fold of its signed unit terms in lexicographic
state order, flipping the bit passed to each new term exactly when the
accumulated partial sum and the term are both odd; the fold takes each
state's run of equal terms in one step.

These rules are only meaningful on machines whose group is abelian; callers
are responsible for that (check_abelian provides the criterion).  One Moore
refinement decides the Boolean case, then the even states' identity tests,
a certificate if one is given (in `complete.classify`, a constructed chi),
and else the odd states' comparisons decide the rest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import eq

from .errors import (
    BoundExceededError,
    NoOddStateError,
    NotAbelianError,
    NotInvertibleError,
    UnknownStateError,
)
from .mealy import MealyAutomaton, Parity, _moore_classes

DEFAULT_BOUND = 100000


class GroupElement:
    """Immutable formal Z-combination of the states of one machine."""

    __slots__ = ("aut", "coeffs", "_hash", "_key")

    def __init__(self, aut: MealyAutomaton, coeffs: dict[str, int]):
        self.aut = aut
        self.coeffs = {s: c for s, c in coeffs.items() if c != 0}
        self._hash = None
        self._key = None  # the table key, set on first use by _keyed

    @classmethod
    def identity(cls, aut: MealyAutomaton) -> "GroupElement":
        return cls(aut, {})

    @classmethod
    def unit(cls, aut: MealyAutomaton, state: str) -> "GroupElement":
        return cls.of(aut, {state: 1})

    @classmethod
    def of(cls, aut: MealyAutomaton, coeffs: dict[str, int]) -> "GroupElement":
        for s in coeffs:
            if s not in aut._index:
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
# A table indexes generators: a machine's in its own order and index, and
# build_principal's, with a fresh delta generator, in label order.  Generator i
# has a parity odd[i] and, per input bit, a residual given as a key with its
# parity.  A key is the sorted tuple of (index, coefficient) pairs with nonzero
# coefficients; every closure below works on keys, and labels appear only at
# the API edge.

class _Table:
    __slots__ = ("labels", "index", "odd", "residuals", "res")

    def __init__(self, labels: tuple, index: dict, odd: tuple, residuals: tuple):
        """Labels in index order, label -> index, parities, residual keys on 0 and 1."""
        self.labels, self.index, self.odd, self.residuals = labels, index, odd, residuals
        self.res = ()  # per generator, each residual's key and parity: keyed() at the first fold

    def keyed(self) -> tuple:
        self.res = tuple(tuple((k, self.parity(k)) for k in r) for r in self.residuals)
        return self.res

    def key(self, coeffs: dict[str, int]) -> tuple:
        return tuple(sorted([(self.index[s], c) for s, c in coeffs.items() if c]))

    def coeffs(self, key: tuple) -> dict[str, int]:
        return {self.labels[i]: c for i, c in key}

    def parity(self, key: tuple) -> bool:
        """Sum of the coefficients on odd generators, mod 2."""
        return bool(sum(c for i, c in key if self.odd[i]) & 1)


@lru_cache(maxsize=128)
def _table(aut: MealyAutomaton) -> _Table:
    """The machine's table: state i is odd when its output on 0 is 1, and its
    residuals are the unit keys of its two successors."""
    if not aut.is_invertible():
        raise NotInvertibleError(f"automaton {aut.name!r} is not invertible")
    units = [((t, 1),) for t in aut._succ]
    return _Table(aut.states, aut._index, tuple(map(bool, aut._out[0::2])),
                  tuple(zip(units[0::2], units[1::2])))


def _keyed(e: GroupElement) -> tuple[_Table, tuple]:
    """The table of e's machine and e's key in it, computed once per element."""
    table = _table(e.aut)
    if e._key is None:
        e._key = table.key(e.coeffs)
    return table, e._key


def _element(aut: MealyAutomaton, table: _Table, key: tuple) -> GroupElement:
    e = GroupElement(aut, table.coeffs(key))
    e._key = key
    return e


def _fold(table: _Table, key: tuple, bit: int) -> tuple[tuple, bool]:
    """(child key, child parity) of the combination `key` on input `bit`.

    The combination is the left fold of its signed unit terms in index order:
    the bit handed to each term is flipped exactly when the partial sum and
    the term are both odd, and d0(-f) = -d1 f, d1(-f) = -d0 f.  So c copies
    of an even generator add c times one residual: d_bit for c > 0, d_(1-bit)
    for c < 0.  The terms of an odd generator alternate between its two
    residuals; with b = bit xor the running parity, d_b gets c - floor(c/2)
    and d_(1-b) gets floor(c/2), for either sign of c.
    """
    odd, res = table.odd, table.res or table.keyed()
    acc: dict[int, int] = {}
    get = acc.get
    acc_odd = child_odd = 0
    for i, c in key:
        r = res[i]
        if odd[i]:
            b = bit ^ acc_odd
            acc_odd ^= c & 1
            lo = c >> 1  # floor(c/2)
            if lo:
                entries, par = r[b ^ 1]
                child_odd ^= par & lo
                for j, m in entries:
                    acc[j] = get(j, 0) + lo * m
            entries, par = r[b]
            c -= lo
        else:
            entries, par = r[bit ^ (c < 0)]
        if c:
            child_odd ^= par & c
            for j, m in entries:
                acc[j] = get(j, 0) + c * m
    return tuple(sorted([kv for kv in acc.items() if kv[1]])), bool(child_odd)


def _combine(a: tuple, b: tuple, k: int) -> tuple:
    """The key of a + k*b."""
    acc = dict(a)
    for j, c in b:
        acc[j] = acc.get(j, 0) + k * c
    return tuple(sorted([kv for kv in acc.items() if kv[1]]))


def element_parity(e: GroupElement) -> Parity:
    """Parity of the combination: sum of coefficients on odd states, mod 2."""
    table, key = _keyed(e)
    return Parity.ODD if table.parity(key) else Parity.EVEN


def residuate_element(e: GroupElement, bit: int) -> GroupElement:
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    table, key = _keyed(e)
    return _element(e.aut, table, _fold(table, key, bit)[0])


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


def _identity_test_coeffs(table: _Table, key: tuple, bound: int) -> IdentityResult:
    if bound < 1:
        raise ValueError("bound must be positive")
    if not key:
        return IdentityResult(Verdict.IS_IDENTITY)
    if table.parity(key):
        return IdentityResult(Verdict.NOT_IDENTITY, "")
    visited = {key}
    queue = deque([(key, "")])
    while queue:
        cur, path = queue.popleft()
        for bit, ch in ((0, "0"), (1, "1")):
            child, odd = _fold(table, cur, bit)
            if odd:
                return IdentityResult(Verdict.NOT_IDENTITY, path + ch)
            if child not in visited:
                if len(visited) >= bound:
                    return IdentityResult(Verdict.UNKNOWN)
                visited.add(child)
                queue.append((child, path + ch))
    return IdentityResult(Verdict.IS_IDENTITY)


def identity_test(e: GroupElement, bound: int = DEFAULT_BOUND) -> IdentityResult:
    """Breadth-first residuation closure of e.

    An element of an abelian group of word functions is the identity iff
    every element of its residuation closure is even.  The search answers
    NotIdentity (with the bit path to the first odd element found),
    IsIdentity when the closure completes within `bound` distinct elements,
    and Unknown when the bound is exceeded.
    """
    return _identity_test_coeffs(*_keyed(e), bound)


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


def _residual_difference(table: _Table, i: int) -> tuple:
    """The key of d1(s) - d0(s) for the state s of index i."""
    r0, r1 = table.residuals[i]
    return () if r0 == r1 else _combine(r1, r0, -1)


def gamma_of(aut: MealyAutomaton) -> GroupElement:
    """d1(o) - d0(o) for the lexicographically least odd state o."""
    table = _table(aut)
    if True not in table.odd:
        raise NoOddStateError(f"automaton {aut.name!r} has no odd state")
    return _element(aut, table, _residual_difference(table, table.odd.index(True)))


def check_abelian(aut: MealyAutomaton, bound: int = DEFAULT_BOUND) -> AbelianReport:
    """Classify the group generated by the machine's states (`_decide`).

    One Moore refinement decides BooleanCandidate at any bound.  Otherwise
    the group is abelian, and then free abelian, iff even states have equal
    residuals (d1 f - d0 f = I) and every odd state's residual difference is
    gamma, the least odd state's.  These identity tests are bounded, so the
    answer can be Unknown; a NotAbelian verdict always carries a witness.
    """
    return _decide(aut, bound)


def _decide(aut: MealyAutomaton, bound: int, certified=None) -> AbelianReport:
    """`check_abelian`'s criterion, in order: TrivialGroup with no odd state;
    BooleanCandidate if the refinement puts each state's two successors in one
    class; the even states' tests; AbelianFreeCandidate if `certified(aut)`.
    Else the odd states are tested against the least one.

    The refinement decides Boolean exactly.  If every state's two residuals
    are equal functions, each state XORs a fixed mask into the word (the
    parities along its one residual path), and such masks commute and are
    involutions.  Conversely, let the group be abelian with gamma = I: for an
    odd f that is d0 f = d1 f, and conjugating an even f by an odd state swaps
    its sections, so d0 f = d1 f again.  So a machine that fails the refinement
    and passes the tests has gamma != I, and gamma needs no identity test.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    table = _table(aut)
    odd = [i for i, o in enumerate(table.odd) if o]
    if not odd:
        return AbelianReport(AbelianVerdict.TRIVIAL_GROUP)
    f = table.labels[odd[0]]
    gamma = _residual_difference(table, odd[0])
    at, succ = _moore_classes(aut._succ, aut._out).__getitem__, aut._succ
    if all(map(eq, map(at, succ[0::2]), map(at, succ[1::2]))):
        return AbelianReport(AbelianVerdict.BOOLEAN_CANDIDATE, gamma=_element(aut, table, gamma))
    saw_unknown = False
    for i in (j for j, o in enumerate(table.odd) if not o):
        diff = _residual_difference(table, i)
        res = _identity_test_coeffs(table, diff, bound)
        if res.verdict is Verdict.NOT_IDENTITY:
            s = table.labels[i]
            why = (f"d1({s}) - d0({s}) = {format_combination(table.coeffs(diff))} is not "
                   f"the identity (odd element along path {res.witness_path!r})")
            return AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=(s, why))
        saw_unknown |= res.verdict is Verdict.UNKNOWN

    if certified is None or not certified(aut):
        for i in odd[1:]:
            diff = _combine(gamma, _residual_difference(table, i), -1)
            res = _identity_test_coeffs(table, diff, bound)
            if res.verdict is Verdict.NOT_IDENTITY:
                why = (f"odd states {f} and {table.labels[i]} have different residual "
                       f"differences ({format_combination(table.coeffs(diff))} is odd "
                       f"along path {res.witness_path!r})")
                return AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=(f, why))
            saw_unknown |= res.verdict is Verdict.UNKNOWN
        if saw_unknown:
            return AbelianReport(AbelianVerdict.UNKNOWN)
    return AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE, gamma=_element(aut, table, gamma))


# -- principal machine ---------------------------------------------------------

def _require_abelian_free(aut: MealyAutomaton, bound: int, report: AbelianReport) -> AbelianReport:
    """The report if AbelianFreeCandidate; BoundExceededError for Unknown, else NotAbelianError."""
    if report.verdict is AbelianVerdict.UNKNOWN:
        raise BoundExceededError(
            f"abelian check of automaton {aut.name!r} reached an identity-test "
            f"closure of {bound + 1} elements, over the bound {bound}; raise the bound"
        )
    if report.verdict is not AbelianVerdict.ABELIAN_FREE_CANDIDATE:
        detail = f": {report.witness[1]}" if report.witness else ""
        raise NotAbelianError(
            f"automaton {aut.name!r} classified {report.verdict}{detail}; "
            "need AbelianFreeCandidate"
        )
    return report


def _principal_nodes(aut: MealyAutomaton, bound: int):
    """Closure data for the principal machine.

    Returns (table, delta, keys, succ, out): the machine's table with the
    fresh delta generator adjoined, delta's index in it, the node keys in
    the order found, and their index table in `mealy`'s form.  The nodes are
    the residuation closure of {gamma}, I, delta and all their negations.
    """
    report = _require_abelian_free(aut, bound, check_abelian(aut, bound))
    base = _table(aut)
    gens = {s: (odd, *map(base.coeffs, r)) for s, odd, r in zip(base.labels, base.odd,
                                                                base.residuals)}
    label = "delta"
    while label in gens:
        label += "_"
    gens[label] = (True, {}, report.gamma.coeffs)  # d0(delta) = I, d1(delta) = gamma
    labels = tuple(sorted(gens))  # each residual is keyed once the index is built
    table = _Table(labels, {s: i for i, s in enumerate(labels)},
                   tuple(gens[s][0] for s in labels), ())
    table.residuals = tuple(tuple(map(table.key, gens[s][1:])) for s in labels)

    keys: list[tuple] = []
    number: dict[tuple, int] = {}

    def add(key: tuple) -> int:
        if key not in number:
            if len(keys) >= bound:
                raise BoundExceededError(
                    f"principal closure reached {len(keys) + 1} elements, over the "
                    f"bound {bound}; raise the bound"
                )
            number[key] = len(keys)
            keys.append(key)
        return number[key]

    add(table.key(report.gamma.coeffs))  # not gamma's key: this table has delta too
    add(())
    add(((table.index[label], 1),))
    succ, out = [], []
    for cur in keys:  # breadth first: add appends behind the node being read
        odd = int(table.parity(cur))
        succ += add(_fold(table, cur, 0)[0]), add(_fold(table, cur, 1)[0])
        out += odd, odd ^ 1
        add(tuple((j, -c) for j, c in cur))  # adjoin the negation and close it too
    return table, table.index[label], keys, succ, out


def _principal_classes(aut: MealyAutomaton, bound: int):
    """Classes of the principal closure's nodes that are equal as functions.

    The classes are `mealy._moore_classes` of the closure's index table.
    Each class is labelled by the least compact print of a member without
    delta (of any member when all have delta); classes are visited in order
    of their greatest member key, and a label already taken gets `_` suffixes.

    Returns (table, keys, succ, out, node -> label, label -> the least node
    of the members the label is drawn from).
    """
    table, delta, keys, succ, out = _principal_nodes(aut, bound)
    cls = _moore_classes(succ, out)
    members: dict[int, list[int]] = {}
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        members.setdefault(cls[i], []).append(i)
    label_of, reps = {}, {}  # node -> label, label -> node
    for ms in sorted(members.values(), key=lambda ms: keys[ms[-1]]):
        pool = [m for m in ms if all(j != delta for j, _ in keys[m])] or ms
        lbl = min(format_combination(table.coeffs(keys[m]), compact=True) for m in pool)
        while lbl in reps:
            lbl += "_"
        reps[lbl] = pool[0]
        label_of.update(dict.fromkeys(ms, lbl))
    return table, keys, succ, out, label_of, reps


def build_principal(aut: MealyAutomaton, bound: int = DEFAULT_BOUND) -> MealyAutomaton:
    """Smallest residuation-closed machine holding gamma, delta and negations.

    Closes {gamma} under residuation, adjoins a fresh generator delta with
    d0(delta) = I and d1(delta) = gamma, adjoins negations of everything,
    closes again, and merges states that are equal as functions.  The classes
    come from Moore refinement of that closure, which always finishes, so the
    closure size is the only bound.  Labels are the compact prints of class
    representatives (`f1-f0`, `I`, ...).

    The machine is classified by `check_abelian`'s closures, not by a fit as
    in `locate`: a fast `principal --aut` would push the benchmark, which
    keeps every pass's output, past its peak-memory bound (ROADMAP item 1).
    """
    _, _, succ, out, label_of, reps = _principal_classes(aut, bound)
    states = sorted(reps)
    index = {s: k for k, s in enumerate(states)}
    nodes = [2 * reps[s] + b for s in states for b in (0, 1)]  # each row's entry in the closure
    return MealyAutomaton._indexed(f"principal_{aut.name}", states, index,
                                   [index[label_of[succ[j]]] for j in nodes],
                                   list(map(out.__getitem__, nodes)))


def principal_class_elements(
    aut: MealyAutomaton, bound: int = DEFAULT_BOUND
) -> dict[str, dict[str, int]]:
    """Label -> representative coefficient map for build_principal's states.

    The special generator (if its class merged with no plain combination)
    appears under its own label with a coefficient on the fresh symbol.
    Mostly useful for testing the closure's group structure.
    """
    table, keys, _, _, _, reps = _principal_classes(aut, bound)
    return {lbl: table.coeffs(keys[i]) for lbl, i in reps.items()}
