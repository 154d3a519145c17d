"""Binary Mealy transducers: construction, AUT text format, simulation.

A machine is a finite set of states, each with exactly two transitions
(state, bit) -> (state, bit).  There is no distinguished start state: every
state is the root of a length-preserving function on binary words, and the
group-theoretic layers treat states as generators.

A machine is one indexed table: `states`, the labels sorted, `_index`, each
label's position i, and `_succ[2 i + b]` and `_out[2 i + b]`, the target index
and output bit of state i on input b.  The constructor converts a dict table
for callers outside the package; `parse`, `complete.orbit_automaton` and
`group.build_principal` fill the index form directly, and `parse` reads the
text in one pass over its lines.

Words are plain strings over '0'/'1'; bits are the ints 0 and 1.  Machines
are immutable after construction and safe to share across threads.

The AUT text format (version 1)::

    aut <name>
    states <label> <label> ...
    trans <src> <in-bit> <out-bit> <dst>
    copy <src> <dst>            # shorthand: both bits pass through unchanged

'#' starts a comment; blank lines are ignored.  Labels match
[A-Za-z0-9_+-]+.  Every state needs exactly one transition per input bit.
"""

from __future__ import annotations

import re
from collections import deque
from enum import Enum
from itertools import islice, product
from operator import itemgetter, lt, ne

from .errors import (
    AutomatonError,
    FormatError,
    NotInvertibleError,
    UnknownStateError,
    content_lines,
)

LABEL_RE = re.compile(r"[A-Za-z0-9_+-]+\Z")
# sorted distinct labels joined by "\n": only the first can be empty
_LABELS_RE = re.compile(r"[A-Za-z0-9_+-][A-Za-z0-9_+\n-]*\Z")
_SHAPES = {"trans": "expected 'trans <src> <in> <out> <dst>'",
           "copy": "expected 'copy <src> <dst>'"}  # a line of the wrong length
_INT_BIT = {0: 0, 1: 1}.__getitem__  # True and 1.0 to 1; KeyError for any other bit
_second = itemgetter(1)


class Parity(Enum):
    EVEN = "Even"
    ODD = "Odd"

    def __str__(self) -> str:
        return self.value


def _check_bit(b) -> int:
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return int(b)


def _fits(states, succ, out) -> bool:
    """The index table's facts, in whole-array passes: at least one label, all
    valid, sorted and distinct; 2n targets in range(n); 2n bits, each 0 or 1."""
    n = len(states)
    return bool(n and len(succ) == len(out) == 2 * n
                and _LABELS_RE.match(joined := "\n".join(states))
                and joined.count("\n") == n - 1  # no label holds a "\n"
                and all(map(lt, states, islice(states, 1, None)))
                and min(succ) >= 0 and max(succ) < n and {*out} <= {0, 1})


class MealyAutomaton:
    """Immutable binary Mealy machine.

    transitions maps (state, input bit) -> (next state, output bit) and must
    be total over the declared states; every bit is stored as the int 0 or 1.
    """

    __slots__ = ("name", "states", "_index", "_succ", "_out", "_hash", "_invertible")

    def __init__(self, transitions, name: str = "machine", states=None):
        delta = transitions if type(transitions) is dict else dict(transitions)  # only read
        given = None if states is None else list(states)  # states may be an iterator
        try:  # 2n lookups, and 2n keys: every source is declared
            states = sorted(dict(delta.keys()) if given is None else given)
            index = {s: i for i, s in enumerate(states)}
            rows = list(map(delta.__getitem__, product(states, (0, 1))))
            succ, out = [index[t] for t, _ in rows], list(map(_INT_BIT, map(_second, rows)))
            fits = len(delta) == len(succ) and _fits(states, succ, out)
        except (KeyError, TypeError, ValueError):
            fits = False
        if not fits:
            _name_fault(delta, given, name)
        self._take(name, states, index, succ, out)

    @classmethod
    def _indexed(cls, name: str, states, index: dict, succ: list, out: list) -> "MealyAutomaton":
        """The machine of an index table (the module docstring's form), or None
        where a `_fits` pass refuses the table."""
        if _fits(states, succ, out):
            return cls.__new__(cls)._take(name, states, index, succ, out)
        return None

    def _take(self, name, states, index, succ, out) -> "MealyAutomaton":
        if not LABEL_RE.match(name):
            raise AutomatonError(f"bad automaton name {name!r}")
        self.name, self.states = name, tuple(states)
        self._index, self._succ, self._out = index, succ, out
        self._hash = self._invertible = None
        return self

    # -- basic queries -----------------------------------------------------

    def _position(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise UnknownStateError(f"unknown state {state!r}") from None

    def step(self, state: str, bit: int) -> tuple[str, int]:
        """One transition: returns (next state, output bit)."""
        j = _check_bit(bit) + 2 * self._position(state)  # the bit is checked first
        return self.states[self._succ[j]], self._out[j]

    def transduce(self, state: str, word: str) -> str:
        """Run the machine from `state` over `word`; length-preserving."""
        succ, out = self._succ, self._out
        i, res = 2 * self._position(state), []
        for ch in word:
            if ch == "1":
                i += 1
            elif ch != "0":
                raise FormatError(f"word must be over '0'/'1', got {ch!r}")
            res.append("1" if out[i] else "0")
            i = 2 * succ[i]
        return "".join(res)

    def output(self, state: str, bit: int) -> int:
        return self.step(state, bit)[1]

    def residual(self, state: str, bit: int) -> str:
        return self.step(state, bit)[0]

    def is_invertible(self) -> bool:
        """True iff every state outputs different bits on inputs 0 and 1."""
        if self._invertible is None:
            self._invertible = all(map(ne, self._out[0::2], self._out[1::2]))
        return self._invertible

    def state_parity(self, state: str) -> Parity:
        """Odd states flip the first input bit; requires an invertible machine."""
        if not self.is_invertible():
            raise NotInvertibleError(
                f"automaton {self.name!r} is not invertible; parity is undefined")
        return Parity.ODD if self._out[2 * self._position(state)] else Parity.EVEN

    @property
    def transitions(self) -> dict[tuple[str, int], tuple[str, int]]:
        """The transition table as a fresh dict, in `states` order."""
        return dict(zip(product(self.states, (0, 1)),
                        zip(map(self.states.__getitem__, self._succ), self._out)))

    # -- text format ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "MealyAutomaton":
        """The machine of an AUT text, in one pass over its content lines.

        The `states` line fixes the sorted labels, their index and two tables
        of 2n entries at -1.  Each `trans` or `copy` line is checked in turn
        (token count, bits, source, target, then a duplicate: an entry no
        longer at -1) and written straight into the tables.  The first fault
        raises FormatError with its line number; missing transitions are
        named last, in declared-state order.
        """
        lines = content_lines(text)
        n, line = next(lines, (None, ""))
        if n is None:
            raise FormatError("empty input: missing 'aut <name>' header")
        toks = line.split()
        if toks[0] != "aut" or len(toks) != 2:
            raise FormatError("expected 'aut <name>' header", n)
        name = toks[1]
        if not LABEL_RE.match(name):
            raise FormatError(f"bad automaton name {name!r}", n)
        n, line = next(lines, (None, ""))
        if n is None:
            raise FormatError("missing 'states' line")
        kind, *declared = line.split()
        if kind != "states" or not declared:
            raise FormatError("expected 'states <label> ...' after header", n)
        states = sorted(declared)
        index = {s: i for i, s in enumerate(states)}
        if len(index) != len(states):
            raise FormatError("duplicate state label", n)
        if not _LABELS_RE.match("\n".join(declared)):  # split leaves no label empty or with "\n"
            bad = next(s for s in declared if not LABEL_RE.match(s))
            raise FormatError(f"bad state label {bad!r}", n)
        succ, out = [-1] * (2 * len(states)), [-1] * (2 * len(states))
        bit, at = {"0": 0, "1": 1}.get, index.get
        for n, line in lines:
            toks = line.split()
            if toks[0] == "trans" and len(toks) == 5:
                _, src, a, o, dst = toks
                a, o, copy = bit(a), bit(o), False
                if a is None or o is None:
                    raise FormatError("bits must be 0 or 1", n)
            elif toks[0] == "copy" and len(toks) == 3:  # both bits pass through
                _, src, dst = toks
                a = o = 0
                copy = True
            else:
                raise FormatError(_SHAPES.get(toks[0], f"unknown directive {toks[0]!r}"), n)
            if (i := at(src)) is None:
                raise FormatError(f"unknown source state {src!r}", n)
            if (t := at(dst)) is None:
                raise FormatError(f"unknown target state {dst!r}", n)
            j = 2 * i + a
            if succ[j] >= 0 or copy and succ[j + 1] >= 0:
                a = a if succ[j] >= 0 else 1
                raise FormatError(f"duplicate transition for state {src!r} on input {a}", n)
            succ[j], out[j] = t, o
            if copy:
                succ[j + 1], out[j + 1] = t, 1
        if -1 in succ:  # name the first gap in declared-state order
            s, a = next((s, a) for s in declared for a in (0, 1) if succ[2 * index[s] + a] < 0)
            raise FormatError(f"state {s!r} has no transition on input {a}")
        return cls._indexed(name, states, index, succ, out)

    def aut_lines(self):
        """The lines of `serialize`'s text, each ending in a newline, made one
        at a time, so that a large machine is written without one joined text."""
        states = self.states
        yield f"aut {self.name}\n"
        yield "states " + " ".join(states) + "\n"
        for j, (t, o) in enumerate(zip(self._succ, self._out)):
            yield f"trans {states[j >> 1]} {j & 1} {o} {states[t]}\n"

    def serialize(self) -> str:
        """Canonical AUT text: states sorted, two `trans` lines per state."""
        return "".join(self.aut_lines())

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MealyAutomaton):
            return NotImplemented
        return self is other or (self.name, self.states, self._succ, self._out) == (
            other.name, other.states, other._succ, other._out)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.name, self.states, tuple(self._succ), tuple(self._out)))
        return self._hash

    def __repr__(self):
        return f"MealyAutomaton({self.name!r}, {len(self.states)} states)"


def _name_fault(table: dict, states: list | None, name: str):
    """Raise the first fault of a dict table, entry by entry: the bits, the states
    sorted (the sources if states is None), the transitions in order, the name."""
    delta = {}
    for (src, a), (dst, out) in table.items():
        delta[src, _check_bit(a)] = (dst, _check_bit(out))
    states = sorted(dict(delta.keys()) if states is None else states)
    stateset = set(states)
    if len(stateset) != len(states):
        raise AutomatonError("duplicate state label")
    if not states:
        raise AutomatonError("automaton needs at least one state")
    for s in states:
        if not LABEL_RE.match(s):
            raise AutomatonError(f"bad state label {s!r}")
        for a in (0, 1):
            if (s, a) not in delta:
                raise AutomatonError(f"state {s!r} has no transition on input {a}")
    for (src, _a), (dst, _out) in delta.items():
        if src not in stateset:
            raise AutomatonError(f"transition from undeclared state {src!r}")
        if dst not in stateset:
            raise AutomatonError(f"transition into unknown state {dst!r}")
    raise AutomatonError(f"bad automaton name {name!r}")  # the one fact left


def parse_automaton(text: str) -> MealyAutomaton:
    return MealyAutomaton.parse(text)


def _moore_rounds(succ: list, out: list):
    """Moore refinement of an index table, one round at a time: yield each
    state's class, numbered by least state, first by its output pair (so any
    table will do), then split by (class, class on 0, class on 1) until none
    splits.  Each round refines the one before; the last yielded is the
    fixpoint, where two states share a class iff they are equal functions."""
    ids, count = {}, -1  # an empty table yields its one empty row too
    cls = [ids.setdefault(pair, len(ids)) for pair in zip(out[0::2], out[1::2])]
    while count != len(ids):
        yield cls
        count, ids, at = len(ids), {}, cls.__getitem__  # the new row reads the old one
        cls = [ids.setdefault(t, len(ids))
               for t in zip(cls, map(at, succ[0::2]), map(at, succ[1::2]))]


def _moore_classes(succ: list, out: list) -> list[int]:
    """The fixpoint of `_moore_rounds`: equal classes are equal functions."""
    return deque(_moore_rounds(succ, out), maxlen=1)[0]


def find_isomorphism(a: MealyAutomaton, b: MealyAutomaton) -> dict[str, str] | None:
    """Transition- and output-preserving bijection between state sets, or None.

    Deterministic transitions mean one matched pair forces its whole reachable
    set, so the search is: repeatedly pick the least unmatched state of `a`,
    try every still-free compatible state of `b`, and propagate.  Backtracking
    runs on an explicit stack of choices, each with the pairs it forced.
    States are matched by index.
    """
    n = len(a.states)
    if n != len(b.states):
        return None
    sa, oa, sb, ob = a._succ, a._out, b._succ, b._out
    fwd: dict[int, int] = {}  # in insertion order, so undo takes the last pairs matched first
    used, free = [False] * n, 0  # every state of b below free is used

    def undo(size: int) -> None:
        nonlocal free
        while len(fwd) > size:
            y = fwd.popitem()[1]
            used[y] = False
            free = min(free, y)

    def extend(sx: int, sy: int) -> bool:
        """Match sx with sy and every pair that forces, or match nothing."""
        size, queue = len(fwd), deque([(sx, sy)])
        while queue:
            x, y = queue.popleft()
            if x in fwd:
                if fwd[x] == y:
                    continue
            elif not used[y] and oa[2 * x:2 * x + 2] == ob[2 * y:2 * y + 2]:
                fwd[x], used[y] = y, True
                queue.extend(zip(sa[2 * x:2 * x + 2], sb[2 * y:2 * y + 2]))
                continue
            undo(size)
            return False
        return True

    choices: list[tuple[int, int, int]] = []  # (cursor, candidate, size of fwd before)
    cursor = candidate = 0
    while True:
        while cursor < n and cursor in fwd:
            cursor += 1
        if cursor == n:
            return {a.states[x]: b.states[y] for x, y in fwd.items()}
        while free < n and used[free]:
            free += 1
        size = len(fwd)
        for j in range(max(candidate, free), n):
            if not used[j] and extend(cursor, j):
                choices.append((cursor, j, size))
                candidate = 0
                break
        else:
            if not choices:
                return None
            cursor, candidate, size = choices.pop()
            undo(size)
            candidate += 1
