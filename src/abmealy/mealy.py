"""Binary Mealy transducers: construction, AUT text format, simulation.

A machine is a finite set of states, each with exactly two transitions
(state, bit) -> (state, bit).  There is no distinguished start state: every
state is the root of a length-preserving function on binary words, and the
group-theoretic layers treat states as generators.

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
from itertools import product
from operator import itemgetter

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
# an AUT text in `serialize`'s form: header, states, then trans lines only
_SERIAL_RE = re.compile(r"aut ([A-Za-z0-9_+-]+)\nstates((?: [A-Za-z0-9_+-]+)+)\n"
                        r"((?:trans [A-Za-z0-9_+-]+ [01] [01] [A-Za-z0-9_+-]+\n)*)")
_first, _second = itemgetter(0), itemgetter(1)

Transition = tuple[str, int]  # (target state, output bit)


class Parity(Enum):
    EVEN = "Even"
    ODD = "Odd"

    def __str__(self) -> str:
        return self.value


def _check_bit(b) -> int:
    if b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return int(b)


class MealyAutomaton:
    """Immutable binary Mealy machine.

    transitions maps (state, input bit) -> (next state, output bit) and must
    be total over the declared states; every bit is stored as the int 0 or 1.
    """

    def __init__(self, transitions, name: str = "machine", states=None):
        delta = dict(transitions)
        keys, values = delta.keys(), delta.values()
        # whole-table passes: keys and values are 2-tuples, bits are the ints 0 and 1
        whole = ({*map(type, keys), *map(type, values)} == {tuple}
                 and {*map(len, keys), *map(len, values)} == {2})
        if whole:
            bits = [*map(_second, keys), *map(_second, values)]
            whole = {*map(type, bits)} == {int} and {*bits} <= {0, 1}
        if not whole:  # entry by entry: names the first fault, or normalises the table
            table, delta = delta, {}
            for (src, a), (dst, out) in table.items():
                delta[src, _check_bit(a)] = (dst, _check_bit(out))
        if states is None:  # the sources, in table order: distinct, and each one declared
            stateset = dict(delta.keys())  # source -> a bit, from the 2-tuple keys
            states, declared = sorted(stateset), True
        else:
            states = sorted(states)  # states may be an iterator
            stateset = set(states)
            if len(stateset) != len(states):
                raise AutomatonError("duplicate state label")
            declared = stateset.issuperset(map(_first, delta))
        if not states:
            raise AutomatonError("automaton needs at least one state")
        # keys lie in stateset x {0, 1} once every source is declared, and 2n
        # keys fill it; the loops below only name the first fault
        if not (declared and len(delta) == 2 * len(states)
                and all(map(stateset.__contains__, map(_first, delta.values())))
                and _LABELS_RE.match(joined := "\n".join(states))
                and joined.count("\n") == len(states) - 1):  # no label holds a "\n"
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
        if not LABEL_RE.match(name):
            raise AutomatonError(f"bad automaton name {name!r}")
        self.name = name
        self.states: tuple[str, ...] = tuple(states)
        self._delta = delta
        self._hash: int | None = None
        self._invertible: bool | None = None

    # -- basic queries -----------------------------------------------------

    def step(self, state: str, bit: int) -> tuple[str, int]:
        """One transition: returns (next state, output bit)."""
        _check_bit(bit)
        try:
            return self._delta[(state, bit)]
        except KeyError:
            raise UnknownStateError(f"unknown state {state!r}") from None

    def transduce(self, state: str, word: str) -> str:
        """Run the machine from `state` over `word`; length-preserving."""
        if (state, 0) not in self._delta:
            raise UnknownStateError(f"unknown state {state!r}")
        delta = self._delta
        out = []
        s = state
        for ch in word:
            if ch == "0":
                a = 0
            elif ch == "1":
                a = 1
            else:
                raise FormatError(f"word must be over '0'/'1', got {ch!r}")
            s, b = delta[(s, a)]
            out.append("1" if b else "0")
        return "".join(out)

    def output(self, state: str, bit: int) -> int:
        return self.step(state, bit)[1]

    def residual(self, state: str, bit: int) -> str:
        return self.step(state, bit)[0]

    def is_invertible(self) -> bool:
        """True iff every state outputs different bits on inputs 0 and 1."""
        if self._invertible is None:
            self._invertible = all(
                self._delta[(s, 0)][1] != self._delta[(s, 1)][1] for s in self.states
            )
        return self._invertible

    def _odd(self, state: str) -> bool:
        # internal: parity without the invertibility guard
        return self._delta[(state, 0)][1] == 1

    def state_parity(self, state: str) -> Parity:
        """Odd states flip the first input bit; requires an invertible machine."""
        if not self.is_invertible():
            raise NotInvertibleError(
                f"automaton {self.name!r} is not invertible; parity is undefined"
            )
        if (state, 0) not in self._delta:
            raise UnknownStateError(f"unknown state {state!r}")
        return Parity.ODD if self._odd(state) else Parity.EVEN

    @property
    def transitions(self) -> dict[tuple[str, int], tuple[str, int]]:
        """Copy of the transition table."""
        return dict(self._delta)

    # -- text format ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "MealyAutomaton":
        """`serialize`'s form in whole-text passes, else the line loop: it names the first fault."""
        m = _SERIAL_RE.fullmatch(text if text.endswith("\n") else text + "\n")
        if m:
            toks, bit = m[3].split(), {"0": 0, "1": 1}.__getitem__
            delta = dict(zip(zip(toks[1::5], map(bit, toks[2::5])),
                             zip(toks[4::5], map(bit, toks[3::5]))))
            if len(delta) == len(toks) // 5:  # no duplicate transition
                try:
                    return cls(delta, name=m[1], states=m[2].split())
                except AutomatonError:
                    pass  # a state without a transition, an unknown one or a duplicate
        name = None
        states: list[str] | None = None
        delta: dict[tuple[str, int], tuple[str, int]] = {}

        def fail(msg, n):
            raise FormatError(msg, line=n)

        for n, line in content_lines(text):
            toks = line.split()
            kind = toks[0]
            if name is None:
                if kind != "aut" or len(toks) != 2:
                    fail("expected 'aut <name>' header", n)
                name = toks[1]
                if not LABEL_RE.match(name):
                    fail(f"bad automaton name {name!r}", n)
                continue
            if states is None:
                if kind != "states" or len(toks) < 2:
                    fail("expected 'states <label> ...' after header", n)
                states = toks[1:]
                stateset = set(states)
                if len(stateset) != len(states):
                    fail("duplicate state label", n)
                for s in states:
                    if not LABEL_RE.match(s):
                        fail(f"bad state label {s!r}", n)
                continue
            if kind == "trans":
                if len(toks) != 5:
                    fail("expected 'trans <src> <in> <out> <dst>'", n)
                _, src, a, out, dst = toks
                if a not in ("0", "1") or out not in ("0", "1"):
                    fail("bits must be 0 or 1", n)
                pairs = ((int(a), int(out)),)
            elif kind == "copy":
                if len(toks) != 3:
                    fail("expected 'copy <src> <dst>'", n)
                _, src, dst = toks
                pairs = ((0, 0), (1, 1))
            else:
                fail(f"unknown directive {kind!r}", n)
            if src not in stateset:
                fail(f"unknown source state {src!r}", n)
            if dst not in stateset:
                fail(f"unknown target state {dst!r}", n)
            for a, out in pairs:
                if (src, a) in delta:
                    fail(f"duplicate transition for state {src!r} on input {a}", n)
                delta[src, a] = (dst, out)

        if name is None:
            raise FormatError("empty input: missing 'aut <name>' header")
        if states is None:
            raise FormatError("missing 'states' line")
        for s in states:
            for a in (0, 1):
                if (s, a) not in delta:
                    raise FormatError(f"state {s!r} has no transition on input {a}")
        return cls(delta, name=name, states=states)

    def serialize(self) -> str:
        """Canonical AUT text: states sorted, two `trans` lines per state."""
        lines = [f"aut {self.name}", "states " + " ".join(self.states)]
        for s in self.states:
            for a in (0, 1):
                dst, out = self._delta[(s, a)]
                lines.append(f"trans {s} {a} {out} {dst}")
        return "\n".join(lines) + "\n"

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MealyAutomaton):
            return NotImplemented
        return (
            self.name == other.name
            and self.states == other.states
            and self._delta == other._delta
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.name, self.states,
                               tuple(map(self._delta.__getitem__, product(self.states, (0, 1))))))
        return self._hash

    def __repr__(self):
        return f"MealyAutomaton({self.name!r}, {len(self.states)} states)"


def parse_automaton(text: str) -> MealyAutomaton:
    return MealyAutomaton.parse(text)


def find_isomorphism(a: MealyAutomaton, b: MealyAutomaton) -> dict[str, str] | None:
    """Transition- and output-preserving bijection between state sets, or None.

    Deterministic transitions mean one matched pair forces its whole reachable
    set, so the search is: repeatedly pick the least unmatched state of `a`,
    try every still-free compatible state of `b`, and propagate.  Backtracking
    runs on an explicit stack of choices, each with the pairs it forced.
    """
    if len(a.states) != len(b.states):
        return None
    da, db = a._delta, b._delta
    fwd: dict[str, str] = {}
    used: set[str] = set()
    position = {s: j for j, s in enumerate(b.states)}
    free = 0  # every state of b below this index is used

    def undo(size: int) -> None:
        nonlocal free
        # fwd keeps insertion order, so the last pairs matched go first
        while len(fwd) > size:
            y = fwd.popitem()[1]
            used.discard(y)
            free = min(free, position[y])

    def extend(sa: str, sb: str) -> bool:
        """Match sa with sb and every pair that forces, or match nothing."""
        size = len(fwd)
        queue = deque([(sa, sb)])
        while queue:
            x, y = queue.popleft()
            if x in fwd:
                if fwd[x] == y:
                    continue
            elif y not in used and da[x, 0][1] == db[y, 0][1] and da[x, 1][1] == db[y, 1][1]:
                fwd[x] = y
                used.add(y)
                queue.extend(((da[x, 0][0], db[y, 0][0]), (da[x, 1][0], db[y, 1][0])))
                continue
            undo(size)
            return False
        return True

    n = len(a.states)
    choices: list[tuple[int, int, int]] = []  # (cursor, candidate, size of fwd before)
    cursor = candidate = 0
    while True:
        while cursor < n and a.states[cursor] in fwd:
            cursor += 1
        if cursor == n:
            return fwd
        while free < n and b.states[free] in used:
            free += 1
        size = len(fwd)
        for j in range(max(candidate, free), n):
            if b.states[j] not in used and extend(a.states[cursor], b.states[j]):
                choices.append((cursor, j, size))
                candidate = 0
                break
        else:
            if not choices:
                return None
            cursor, candidate, size = choices.pop()
            undo(size)
            candidate += 1
