"""Complete abelian automata over integer lattices, and locating machines in them.

For a half-integral matrix A of dimension m (half-integers in the first
column, integers elsewhere, det = +-1/2) and an odd integer vector e (odd
first coordinate), the complete automaton c(A, e) has state set Z^m with

    even v (first coordinate even):   v --b/b--> A v
    odd  v (first coordinate odd):    v --0/1--> A (v - e),   v --1/0--> A (v + e)

Both images are integral because A doubles exactly the odd first
coordinates.  When the characteristic polynomial of A is contracting (all
roots strictly inside the unit disk) every vector has a finite reachable
orbit, so finite sub-machines of c(A, e) can be cut out and compared with
ordinary Mealy automata.

`locate` embeds an abelian Mealy automaton into c(A, e): it anchors the
least odd state on a cycle, reads e off the equation of its shortest cycle,
propagates vectors across the machine, and checks every transition, failing
loudly whenever the matrix cannot fit.  One cycle always determines e.  For
contracting A, chi* (monic, chi*(0) = +-2) is irreducible: a factor with
constant +-1 would have roots of product modulus 1, yet every root of chi*
lies outside the unit circle.  The cycle's sign polynomial s has constant
+-1, as the anchor is odd, so chi* does not divide s, and s is a unit
modulo chi*.

Polynomials enter through the module action of x as A^-1: a polynomial p
names the vector p(A^-1) e1, and scaling by a polynomial r realises the
embeddings between complete automata whose translation vectors are related
by r.  The fraction-like pairs (v, p) with odd p(0) form the direct limit of
all these embeddings; they are compared by cross multiplication.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add, index, mul, sub

from .errors import (
    BoundExceededError,
    FormatError,
    LocateError,
    MatrixError,
    NotDivisibleError,
    content_lines,
)
from .exactalg import (
    HalfIntegralMatrix,
    Polynomial,
    RationalMatrix,
    _int_poly,
    _mul_matrix_mod,
    _poly_divmod,
    companion_from_chi,
    reduce_mod,
    try_divide_mod,
)
from .group import (
    DEFAULT_BOUND,
    AbelianReport,
    AbelianVerdict,
    _even_tests,
    _odd_table,
    _odd_tests,
    _require_abelian_free,
    gamma_of,
)
from .mealy import MealyAutomaton, Parity

# -- integer vectors ------------------------------------------------------------


def format_vector(v) -> str:
    """'(3,2)'; a non-integer entry is printed exactly, never rounded."""
    return "(" + ",".join(map(str, v)) + ")"


def parse_vector(text: str) -> tuple[int, ...]:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    parts = s.split(",") if "," in s else s.split()
    try:  # int() strips each entry, and an empty one raises
        v = tuple(map(int, parts))
    except ValueError:
        raise FormatError(f"bad integer vector {text!r}") from None
    if not v:
        raise FormatError(f"bad integer vector {text!r}")
    return v


def vector_label(v) -> str:
    """State label for a vector: components joined by underscores."""
    return "_".join(map(str, v))


def unit_vector(m: int) -> tuple[int, ...]:
    if m < 1:
        raise MatrixError("dimension must be positive")
    return (1,) + (0,) * (m - 1)


def _coerce_vector(v, m: int | None = None) -> tuple[int, ...]:
    """v as a tuple of ints, of length m unless m is None; MatrixError names
    a non-integer entry or a wrong length."""
    v = tuple(v)
    try:
        out = tuple(map(index, v))
    except TypeError:  # a Fraction or a float is taken only when it is integral
        out = tuple(map(int, v))
    if out != v:
        bad = next(x for x, y in zip(v, out) if x != y)
        raise MatrixError(f"vector {format_vector(v)} has non-integer entry {bad}")
    if m is not None and len(out) != m:
        raise MatrixError(f"vector {format_vector(out)} has length {len(out)}, need {m}")
    return out


def _apply_int(rows, v):
    return tuple([sum(map(mul, row, v)) for row in rows])


# -- complete automaton ----------------------------------------------------------


@dataclass(frozen=True)
class CompleteConfig:
    """A matrix A and an odd translation vector e defining c(A, e).

    Any half-integral A is accepted; `orbit` and `orbit_automaton` refuse
    one whose chi is not contracting, as its orbits need not be finite.
    """

    A: HalfIntegralMatrix
    e: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.A, HalfIntegralMatrix):
            object.__setattr__(self, "A", HalfIntegralMatrix(self.A))
        object.__setattr__(self, "e", _coerce_vector(self.e, self.A.dim))
        if self.e[0] % 2 == 0:
            raise MatrixError(
                f"translation vector {format_vector(self.e)} must have odd "
                "first coordinate"
            )

    @property
    def dim(self) -> int:
        return self.A.dim


def _step(config: CompleteConfig, v: tuple[int, ...], bit: int) -> tuple[tuple[int, ...], int]:
    """Unchecked step of c(A, e): v must be a tuple of config.dim ints, bit 0 or 1."""
    if v[0] % 2 == 0:
        w, out = v, bit
    elif bit:
        w, out = tuple(map(add, v, config.e)), 0
    else:
        w, out = tuple(map(sub, v, config.e)), 1
    # w has an even first coordinate, so h = w0 / 2 is exact, and so is // 2
    # below: 2A is even outside its first column (A is integral there).
    c = config.A.companion
    if c is not None:
        # row i of A is (c_i / 2) e1 + e_{i+1}: (A w)_i = c_i h + w_{i+1}
        h = w[0] // 2
        return tuple([ci * h + x for ci, x in zip(c, w[1:] + (0,))]), out
    return tuple([sum(map(mul, row, w)) // 2 for row in config.A.rows2]), out


def residual_vector(config: CompleteConfig, v, bit: int) -> tuple[tuple[int, ...], int]:
    """One step of c(A, e) from v on the given input bit: (next vector, output).

    Validates its input: the bit must be 0 or 1 and v must have config.dim
    integer components.  The next vector A (v -+ e) is integral because the
    translation makes the first coordinate even, and A is integral outside
    its half-integral first column.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return _step(config, _coerce_vector(v, len(config.e)), bit)


def transduce_vector(config: CompleteConfig, v, word: str) -> str:
    """Output word of c(A, e) run from v on a binary input word."""
    v = _coerce_vector(v, config.dim)
    bad = next((ch for ch in word if ch not in "01"), None)
    if bad is not None:
        raise FormatError(f"word must be over 0/1, got {bad!r}")
    out = []
    for ch in word:
        v, b = _step(config, v, int(ch))
        out.append("1" if b else "0")
    return "".join(out)


def _require_contracting(A: HalfIntegralMatrix) -> None:
    if not A.contracting:
        raise MatrixError(f"characteristic polynomial {A.chi} is not contracting")


def _walk(config: CompleteConfig, starts, bound: int):
    """Breadth-first walk of c(A, e) from checked start vectors.

    Yields each reached vector once, in discovery order, with its two steps
    ((w0, out0), (w1, out1)); every w is the one tuple kept for its vector.
    Raises MatrixError unless chi is contracting, so that orbits are finite.
    """
    _require_contracting(config.A)
    # one product per vector: A (v + e) = A (v - e) + 2A e, and A v for both bits of an even v
    shift = tuple(sum(map(mul, row, config.e)) for row in config.A.rows2)
    first = {s: s for s in starts}
    queue = deque(first)
    while queue:
        v = queue.popleft()
        w, out = _step(config, v, 0)
        pairs = ((w, 1), (tuple(map(add, w, shift)), 0)) if out else ((w, 0), (w, 1))
        steps = []
        for w, out in pairs:
            if w not in first:
                if len(first) >= bound:
                    raise BoundExceededError(
                        f"orbit reached {len(first) + 1} vectors, over the bound "
                        f"{bound}; raise the bound or check that the matrix is "
                        "contracting"
                    )
                first[w] = w
                queue.append(w)
            steps.append((first[w], out))
        yield v, steps


def orbit(config: CompleteConfig, start, bound: int = DEFAULT_BOUND) -> list[tuple[int, ...]]:
    """All vectors reachable from start, in breadth-first discovery order."""
    start = _coerce_vector(start, config.dim)
    return [v for v, _ in _walk(config, [start], bound)]


def orbit_automaton(config: CompleteConfig, starts, name: str | None = None,
                    bound: int = DEFAULT_BOUND) -> MealyAutomaton:
    """Finite sub-machine of c(A, e) on everything reachable from starts.

    States are labelled through `vector_label`.
    """
    starts = [_coerce_vector(s, config.dim) for s in starts]
    if not starts:
        raise MatrixError("need at least one start vector")
    label = {s: vector_label(s) for s in starts}
    transitions = {}
    for v, steps in _walk(config, starts, bound):
        for bit, (w, out) in enumerate(steps):
            if w not in label:
                label[w] = vector_label(w)
            transitions[(label[v], bit)] = (label[w], out)
    if name is None:
        name = f"orbit_{vector_label(starts[0])}"
    return MealyAutomaton(transitions, name=name)


# -- polynomial coordinates -------------------------------------------------------


def _horner(coeffs, v, inv_rows) -> tuple:
    """sum c_i A^-i v by Horner's rule; ints stay ints, Fractions stay exact."""
    acc = (0,) * len(v)
    for c in reversed(coeffs):
        acc = _apply_int(inv_rows, acc)
        if c:
            acc = tuple(map(add, acc, (c * x for x in v)))
    return acc


def poly_action(p, v, A: HalfIntegralMatrix) -> tuple[int, ...]:
    """p(A^-1) v for an integer polynomial p: the module action of Z[x]."""
    return _horner(_int_poly(p).coeffs, _coerce_vector(v, A.dim), A.inv_rows)


def poly_to_vector(p, A: HalfIntegralMatrix) -> tuple[int, ...]:
    """The vector named by p: p(A^-1) applied to the first unit vector."""
    return poly_action(p, unit_vector(A.dim), A)


def vector_to_poly(v, A: HalfIntegralMatrix) -> Polynomial:
    """Inverse of poly_to_vector: the integer polynomial of degree < dim naming v.

    MatrixError unless e1, A^-1 e1, ..., A^-(m-1) e1 form a basis (as for
    every companion or contracting A) in which v has integer coordinates.
    """
    m = A.dim
    v = _coerce_vector(v, m)
    inv = A.inv_rows
    cols = []
    b = unit_vector(m)
    for _ in range(m):
        cols.append(b)
        b = _apply_int(inv, b)
    basis = RationalMatrix(tuple(tuple(cols[j][i] for j in range(m)) for i in range(m)))
    sol = basis.solve_unique(v)
    if sol is None:
        raise MatrixError(
            "powers of the inverse matrix applied to e1 are linearly "
            "dependent; no polynomial names this vector uniquely"
        )
    return _integral_name(Polynomial(sol), v)


def _integral_name(p: Polynomial, v) -> Polynomial:
    if not p.is_integral():
        raise MatrixError(
            f"vector {format_vector(v)} is not an integer polynomial multiple "
            "of e1"
        )
    return p


# -- location maps -----------------------------------------------------------------


@dataclass(frozen=True)
class LocationMap:
    """An embedding of a Mealy automaton into a complete automaton.

    p names the translation vector (e = p(A^-1) e1), e is that vector, and
    assignment sends each state label to its vector.  Serialized form::

        p: 3 + 2x
        e: (3,2)
        state f -> (1,0)
    """

    p: Polynomial
    e: tuple[int, ...]
    assignment: dict[str, tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "p", _int_poly(self.p))
        object.__setattr__(self, "e", _coerce_vector(self.e))
        object.__setattr__(
            self, "assignment", {s: _coerce_vector(v) for s, v in self.assignment.items()})

    def serialize(self) -> str:
        lines = [f"p: {self.p}", f"e: {format_vector(self.e)}"]
        for s in sorted(self.assignment):
            lines.append(f"state {s} -> {format_vector(self.assignment[s])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "LocationMap":
        p = None
        e = None
        assignment: dict[str, tuple[int, ...]] = {}
        for n, line in content_lines(text):
            if line.startswith("p:"):
                if p is not None:
                    raise FormatError("duplicate p line", line=n)
                try:
                    p = parse_int_poly(line[2:].strip())
                except FormatError as exc:
                    raise FormatError(str(exc), line=n) from None
            elif line.startswith("e:"):
                if e is not None:
                    raise FormatError("duplicate e line", line=n)
                e = _parse_vector_at(line[2:], n)
            elif line.startswith("state "):
                body = line[len("state "):]
                if "->" not in body:
                    raise FormatError("expected 'state <label> -> (v)'", line=n)
                label, _, vec = body.partition("->")
                label = label.strip()
                if not label:
                    raise FormatError("missing state label", line=n)
                if label in assignment:
                    raise FormatError(f"duplicate state {label!r}", line=n)
                assignment[label] = _parse_vector_at(vec, n)
            else:
                raise FormatError(f"unrecognized line {line!r}", line=n)
        if p is None:
            raise FormatError("missing p line")
        if e is None:
            raise FormatError("missing e line")
        return cls(p=p, e=e, assignment=assignment)

    def validate(self, aut: MealyAutomaton, A: HalfIntegralMatrix) -> None:
        """Check structurally that the assignment is a machine homomorphism.

        Every state must be mapped to a vector of the right parity whose
        residuals in c(A, e) track the automaton's transitions bit for bit.
        Raises LocateError on the first violation.
        """
        config = CompleteConfig(A, self.e)
        missing = sorted(set(aut.states) - set(self.assignment))
        if missing:
            raise LocateError(f"states missing from the map: {', '.join(missing)}")
        for s in aut.states:
            v = _coerce_vector(self.assignment[s], config.dim)
            if (v[0] % 2 == 1) != (aut.state_parity(s) is Parity.ODD):
                raise LocateError(
                    f"state {s} has parity {aut.state_parity(s)} but vector "
                    f"{format_vector(v)}"
                )
            # Matching parity fixes both outputs: 1 - bit when odd, bit when
            # even, in the machine (invertible, or state_parity raised) and
            # in c(A, e) alike.  So only the targets can differ.
            for bit in (0, 1):
                t = aut.residual(s, bit)
                w = _step(config, v, bit)[0]
                if self.assignment.get(t) != w:
                    raise LocateError(
                        f"state {s} on input {bit}: automaton moves to {t} at "
                        f"{format_vector(self.assignment.get(t, ()))}, vector "
                        f"moves to {format_vector(w)}"
                    )


def _parse_vector_at(text: str, line: int) -> tuple[int, ...]:
    try:
        return parse_vector(text)
    except FormatError as exc:
        raise FormatError(str(exc), line=line) from None


def parse_int_poly(text: str) -> Polynomial:
    """Parse '3 + 2x - x^2' or the coefficient list '3 2 -1' (constant first)."""
    toks = text.split()
    if toks and all(_is_int(t) for t in toks):
        return Polynomial(int(t) for t in toks)
    # '3 2x' would read as 32x once spaces go, and '1 _0' or '1_ 0' as 10
    if re.search(r"[\d_]\s+[\d_]", text):
        raise FormatError(f"bad polynomial {text!r}: whitespace between digits")
    s = "".join(toks)
    if not s:
        raise FormatError("empty polynomial")
    if s == "0":
        return Polynomial()
    coeffs: dict[int, int] = {}
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise FormatError(f"bad polynomial {text!r}")
    for term in terms:
        sign = 1
        body = term
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = re.fullmatch(r"(\d+)?x(?:\^(\d+))?", body)
        if m:
            c = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(2)) if m.group(2) else 1
        elif _is_int(body) and body and body[0] != "-":
            c, k = int(body), 0
        else:
            raise FormatError(f"bad polynomial term {term!r} in {text!r}")
        coeffs[k] = coeffs.get(k, 0) + sign * c
    deg = max(coeffs)
    return Polynomial(coeffs.get(i, 0) for i in range(deg + 1))


def _is_int(tok: str) -> bool:
    try:
        int(tok)
        return True
    except ValueError:
        return False


# -- locating a machine -------------------------------------------------------------


def _shortest_cycle(aut: MealyAutomaton, anchor: str) -> str | None:
    """The least word, by (length, lexicographic) order, that walks anchor
    back to itself; None when anchor lies on no cycle.

    Breadth first, bit 0 before bit 1, every state is first reached by its
    least shortest word, so the first transition back into anchor closes the
    least cycle.
    """
    words = {anchor: ""}
    queue = deque([anchor])
    while queue:
        s = queue.popleft()
        for b in (0, 1):
            t = aut.residual(s, b)
            if t == anchor:
                return words[s] + str(b)
            if t not in words:
                words[t] = words[s] + str(b)
                queue.append(t)
    return None


def _sigma(parity: Parity, bit: int) -> int:
    if parity is not Parity.ODD:
        return 0
    return -1 if bit == 0 else 1


def _cycle_quotient(A: HalfIntegralMatrix, sigmas) -> Polynomial | None:
    """q = (x^L - 1) / s in Q[x]/chi*, s = sum sigma_i x^i, L = len(sigmas);
    None when s is a zero divisor there (s(A^-1) is singular)."""
    star = A.chi_star
    target = reduce_mod(Polynomial((-1,) + (0,) * (len(sigmas) - 1) + (1,)), star).coeffs
    sol = _mul_matrix_mod(Polynomial(sigmas), star).solve_unique(
        target + (0,) * (star.degree - len(target)))
    return None if sol is None else Polynomial(sol)


def locate(aut: MealyAutomaton, A: HalfIntegralMatrix, *,
           bound: int = DEFAULT_BOUND) -> LocationMap:
    """Embed an abelian automaton into a complete automaton over A.

    With x acting as A^-1, the shortest cycle of the least odd state lying
    on a cycle (the anchor), of length L, forces s e = (x^L - 1) a for the
    anchor's vector a, where s = sum sigma_i x^i with sign sigma_i = -1, +1
    (0 at even states) on input 0, 1.  s is a unit modulo chi*, so `_fit`
    pins a and reads off e, propagates vectors both ways and lets
    `LocationMap.validate` check every transition.

    A validated map is a certificate: A is contracting, so the action of
    c(A, e) on its states is faithful (its kernel is a lattice K of even
    vectors with A K in K, and A^n k -> 0 on a lattice forces k = 0), and
    the machine's group is a subgroup of Z^m, free abelian (Nekrashevych
    and Sidki 2004, on 1/2-endomorphisms of Z^m).  So no closure runs on a
    fit.  A misfit is classified (`classify`): the fit's LocateError is
    raised for AbelianFreeCandidate, BoundExceededError for Unknown (only
    where no matrix fits), and NotAbelianError for any other verdict.
    """
    if not isinstance(A, HalfIntegralMatrix):
        A = HalfIntegralMatrix(A)
    _require_contracting(A)
    try:
        return _fit(aut, A, _anchor_cycle(aut))
    except (LocateError, MatrixError):
        _require_abelian_free(aut, bound, classify(aut, bound=bound))
        raise


def _fit(aut: MealyAutomaton, A: HalfIntegralMatrix, frame) -> LocationMap:
    """`locate` without the abelian check, in `_anchor_cycle`'s frame: e, vectors, validation.

    First the anchor is pinned at e1 and e is named by p = (x^L - 1)/s, one
    division in Q[x]/chi*.  Where that p is not integral (e need not be
    either), the anchor is pinned at a = sigma_0 s(A^-1) e1 instead, sigma_0
    the sign of the cycle's first letter, so that s e = sigma_0 s (x^L - 1) e1
    gives e = sigma_0 (A^-L - I) e1, named by p = sigma_0 ((x^L - 1) mod chi*).
    This p is integral, as chi* is monic over Z, and so is e, as A^-1 is
    integral.  A^-1 maps Z^m onto the vectors of even first coordinate, so
    a vector q(A^-1) e1 has the parity of q(0): a and e are odd, since s(0)
    = sigma_0 and x^L mod chi* has even constant term.  The second map is
    the first times sigma_0 s(A^-1), which commutes with every step, keeps
    parity and is injective; so where the first is integral, both fit or
    neither does.  Every map that the division alone places is kept as it is.
    """
    parity, anchor, sigmas = frame
    e1, inv = unit_vector(A.dim), A.inv_rows
    # never None: chi* is irreducible and does not divide s (module docstring)
    p = _cycle_quotient(A, sigmas)
    start = e1
    if not p.is_integral():
        sign = sigmas[0]
        start = _horner([sign * c for c in sigmas], e1, inv)
        p = reduce_mod(Polynomial([-sign] + [0] * (len(sigmas) - 1) + [sign]), A.chi_star)
    e = tuple(map(int, _horner(p.coeffs, e1, inv)))

    config = CompleteConfig(A, e)
    assignment = _spread(
        aut, parity, anchor, start, lambda v, bit, sig: _step(config, v, bit)[0],
        lambda v, sig: tuple(map(sub, _apply_int(inv, v), (sig * c for c in e))))
    located = LocationMap(p=p, e=e, assignment=assignment)
    located.validate(aut, A)
    return located


def _anchor_cycle(aut: MealyAutomaton):
    """(parity of each state, anchor, signs s of its shortest cycle): the
    anchor is the least odd state on a cycle; LocateError when none is."""
    parity = {s: aut.state_parity(s) for s in aut.states}
    cycles = ((s, _shortest_cycle(aut, s)) for s in aut.states if parity[s] is Parity.ODD)
    anchor, word = next(((s, w) for s, w in cycles if w is not None), (None, None))
    if anchor is None:
        raise LocateError("no odd state lies on a cycle")
    sigmas, state = [], anchor
    for ch in word:
        sigmas.append(_sigma(parity[state], int(ch)))
        state = aut.residual(state, int(ch))
    return parity, anchor, sigmas


def _spread(aut: MealyAutomaton, parity, anchor: str, start, forward, backward) -> dict:
    """A value for every state, breadth first from the anchor's, first come
    first assigned: a state s gives its targets forward(value, bit, sigma)
    and then its sources backward(value, sigma), sigma the source's sign on
    bit.  LocateError names the states left unreached."""
    delta = aut.transitions
    back = {s: [] for s in aut.states}
    for s in aut.states:
        for b in (0, 1):
            back[delta[s, b][0]].append((s, b))
    assignment = {anchor: start}
    queue = deque([anchor])
    while queue:
        s = queue.popleft()
        v = assignment[s]
        for bit in (0, 1):
            t = delta[s, bit][0]
            if t not in assignment:
                assignment[t] = forward(v, bit, _sigma(parity[s], bit))
                queue.append(t)
        for u, bit in back[s]:
            if u not in assignment:
                assignment[u] = backward(v, _sigma(parity[u], bit))
                queue.append(u)
    missing = sorted(set(aut.states) - set(assignment))
    if missing:
        raise LocateError(f"states not connected to {anchor}: {', '.join(missing)}")
    return assignment


def _construct(aut: MealyAutomaton):
    """(A, frame): the companion matrix of the chi that any fit of the
    machine rescales to, and `_anchor_cycle`'s frame; LocateError or
    MatrixError when there is no frame or no contracting half-integral chi.

    A located machine fixes chi (Nekrashevych and Sidki 2004), and `_fit`'s
    rescaled frame needs no A: with x as A^-1, the anchor sits at sigma_0 s
    and p = sigma_0 (x^L - 1) names e.  Spreading Laurent polynomials f as
    `_fit` spreads vectors leaves N = f_s - x f_t + sigma p per transition
    (s, b) -> t.  Any fit rescales to this frame in Q[x]/chi* (its anchor is
    odd, so nonzero), so chi* divides every N and their gcd G, also once G
    is stripped of x and of its common factors with x^L - 1: chi* has no
    root at 0 or on the unit circle.  chi is G's reversal over G(0).
    """
    frame = _anchor_cycle(aut)
    star = _relation_gcd(aut, frame)
    A = companion_from_chi(Polynomial([Fraction(c, star.constant) for c in reversed(star.coeffs)]))
    _require_contracting(A)
    return A, frame


def _relation_gcd(aut: MealyAutomaton, frame) -> Polynomial:
    """G of `_construct`, monic, or 0 when every relation vanishes.

    A polynomial sum c_i x^i is packed into the int sum c_i 2^(w i), so x^k
    is a shift by w k bits and a relation costs a few int operations.  The
    start s0 s has coefficients 0 and +-1, and each spread step shifts by x
    at most and adds one +-x^k p, whose coefficients are 0 and +-1.  So over
    n states a value's coefficients stay within n and a relation's within
    2n + 1 < 2^(w-1) in absolute value: each coefficient is one digit, and
    the packing is exact.  x^-k f is held as (k, packed f).  A relation is
    stripped of its sign and its powers of x (chi*(0) != 0), and only one
    not met before is unpacked and folded into the gcd.  A nonzero constant
    gcd is returned at once: no chi* divides it.
    """
    parity, anchor, sigmas = frame
    L, s0 = len(sigmas), sigmas[0]
    cycle = Polynomial([-1] + [0] * (L - 1) + [1])
    w = (2 * len(aut.states) + 1).bit_length() + 1
    p = s0 * ((1 << w * L) - 1)  # s0 (x^L - 1)
    start = sum(s0 * c << w * i for i, c in enumerate(sigmas))  # s0 s
    value = _spread(aut, parity, anchor, (0, start),
                    lambda v, bit, sig: (v[0] + 1, v[1] + sig * (p << w * v[0])),
                    lambda v, sig: (v[0], (v[1] << w) - sig * (p << w * v[0])))
    g, seen = Polynomial(), set()
    for (s, bit), (t, _) in aut.transitions.items():
        (k, f), (j, h) = value[s], value[t]
        top = max(k, j)  # x^top N is a polynomial
        rel = ((f << w * (top - k)) - (h << w * (top - j + 1))
               + _sigma(parity[s], bit) * (p << w * top))
        if rel:
            rel = abs(rel) >> w * (((rel & -rel).bit_length() - 1) // w)  # no x, no sign
            if rel not in seen:
                seen.add(rel)
                g = _gcd(Polynomial(_unpack(rel, w)), g)
                if g.degree == 0:
                    return g
    while not g.is_zero() and (h := _gcd(g, cycle)).degree > 0:
        g = _poly_divmod(g, h)[0]
    return g


def _unpack(n: int, w: int) -> list[int]:
    """The digits of n in base 2^w, each in [-2^(w-1), 2^(w-1)), constant first."""
    half, mask, digits = 1 << (w - 1), (1 << w) - 1, []
    while n:
        d = ((n + half) & mask) - half
        digits.append(d)
        n = (n - d) >> w
    return digits


def _gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q (0 for a = b = 0); a new relation a costs one division by b."""
    while not b.is_zero():
        a, b = b, _poly_divmod(a, b)[1]
    return a if a.leading in (0, 1) else Polynomial([Fraction(c) / a.leading for c in a.coeffs])


def classify(aut: MealyAutomaton, *, bound: int = DEFAULT_BOUND) -> AbelianReport:
    """`check_abelian`'s report, decided by a validated fit where one exists.

    The even-state identity tests run first, as in `check_abelian`: they
    are cheap and reject most machines that are not abelian.  Then the
    constructed matrix is fitted.  A validated fit is a certificate
    (`locate`): the group is free abelian, and every odd vector v has the
    residual difference A(v + e) - A(v - e) = 2Ae != 0 (Nekrashevych and
    Sidki 2004).  So the verdict is AbelianFreeCandidate, with gamma read
    off the table, and the odd-state comparisons and gamma closure run only
    where nothing fits.  The report is `check_abelian`'s wherever that one
    decides; where it is Unknown, a fit makes this one AbelianFreeCandidate.
    NotInvertibleError as `check_abelian`.
    """
    table, odd = _odd_table(aut)
    if not odd:
        return AbelianReport(AbelianVerdict.TRIVIAL_GROUP)
    report, saw_unknown = _even_tests(table, bound)
    if report is not None:
        return report
    try:  # no odd state on a cycle, states out of reach, no chi, or a misfit
        _fit(aut, *_construct(aut))
    except (LocateError, MatrixError):
        return _odd_tests(aut, table, odd, saw_unknown, bound)
    return AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE, gamma=gamma_of(aut))


@dataclass(frozen=True)
class Mismatch:
    state: str
    word: str
    automaton_output: str
    vector_output: str


def find_location_mismatch(aut: MealyAutomaton, A: HalfIntegralMatrix,
                           locmap: LocationMap,
                           max_len: int = 10) -> Mismatch | None:
    """Compare transductions of every state against its vector, word by word.

    Runs every non-empty word up to max_len through both machines
    independently and reports the first disagreement.  This is deliberately
    brute force: it shares no code with `locate` or `LocationMap.validate`.
    Raises LocateError when p does not name e, when the map has a state the
    machine lacks, and on reaching a machine state the map leaves out.
    """
    config = CompleteConfig(A, locmap.e)
    named = poly_to_vector(locmap.p, A)
    if named != locmap.e:
        raise LocateError(
            f"p = {locmap.p} names {format_vector(named)}, not e = {format_vector(locmap.e)}")
    extra = sorted(set(locmap.assignment) - set(aut.states))
    if extra:
        raise LocateError(f"map has states not in the machine: {', '.join(extra)}")
    for s in aut.states:
        if s not in locmap.assignment:
            raise LocateError(f"state {s} missing from the map")
        v = locmap.assignment[s]
        for length in range(1, max_len + 1):
            for bits in product("01", repeat=length):
                word = "".join(bits)
                got = aut.transduce(s, word)
                want = transduce_vector(config, v, word)
                if got != want:
                    return Mismatch(s, word, got, want)
    return None


# -- embeddings between complete automata ---------------------------------------------


def embed_scale(p, q, chi_star_poly) -> Polynomial:
    """The scale r with r p = q in Z[x]/chi*, if q's machine swallows p's.

    Raises NotDivisibleError when no integral r exists.
    """
    r = try_divide_mod(q, p, chi_star_poly)
    if r is None:
        raise NotDivisibleError(
            f"({q}) is not divisible by ({p}) modulo {chi_star_poly}"
        )
    return r


# -- the limit group of all complete automata over A -----------------------------------


@dataclass(frozen=True)
class GTildeElement:
    """A fraction v / p: vector v scaled down by a polynomial with odd constant."""

    v: tuple[int, ...]
    p: Polynomial

    def __post_init__(self):
        object.__setattr__(self, "v", _coerce_vector(self.v))
        object.__setattr__(self, "p", _int_poly(self.p))
        if self.p.constant % 2 == 0:
            raise MatrixError(
                f"denominator polynomial {self.p} must have odd constant term"
            )

    def __str__(self):
        return f"{format_vector(self.v)} / ({self.p})"


def gtilde_eq(a: GTildeElement, b: GTildeElement, A: HalfIntegralMatrix) -> bool:
    """Cross-multiplied equality: q . v == p . w under the module action."""
    return poly_action(b.p, a.v, A) == poly_action(a.p, b.v, A)


def gtilde_add(a: GTildeElement, b: GTildeElement,
               A: HalfIntegralMatrix) -> GTildeElement:
    v = tuple(map(add, poly_action(b.p, a.v, A), poly_action(a.p, b.v, A)))
    return GTildeElement(v, reduce_mod(a.p * b.p, A.chi_star))


def gtilde_neg(a: GTildeElement) -> GTildeElement:
    return GTildeElement(tuple(-c for c in a.v), a.p)


def gtilde_residual(a: GTildeElement, bit: int,
                    A: HalfIntegralMatrix) -> tuple[GTildeElement, int]:
    """Step the numerator inside c(A, p . e1); the denominator rides along."""
    e = poly_to_vector(a.p, A)
    config = CompleteConfig(A, e)
    w, out = residual_vector(config, a.v, bit)
    return GTildeElement(w, a.p), out
