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
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add, index, mul, sub

from ._value import Value
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
    _poly_divmod,
    companion_from_chi,
    reduce_mod,
    try_divide_mod,
)
from .group import (
    DEFAULT_BOUND,
    AbelianReport,
    _decide,
    _require_abelian_free,
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


class CompleteConfig(Value):
    """A matrix A and an odd translation vector e defining c(A, e).

    Any half-integral A is accepted; `orbit` and `orbit_automaton` refuse
    one whose chi is not contracting, as its orbits need not be finite.
    """

    __slots__ = __match_args__ = ("A", "e")

    def __init__(self, A: HalfIntegralMatrix, e: tuple[int, ...]):
        if not isinstance(A, HalfIntegralMatrix):
            A = HalfIntegralMatrix(A)
        e = _coerce_vector(e, A.dim)
        if e[0] % 2 == 0:
            raise MatrixError(f"translation vector {format_vector(e)} must have odd "
                              "first coordinate")
        super().__init__(A, e)

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


def _walk_kernel(config: CompleteConfig):
    """walk(order, bound) -> succ, the breadth-first loop of c(A, e) in straight-line
    code compiled from the ints of 2A and e: order, distinct starts, gains each
    vector as it is discovered, and succ[2 i + b] indexes the step of order[i] on
    input b; past bound the loop returns early, short of 2 len(order) indices.
    With h = v0 // 2, row r of 2A gives w_i = r_0 h + sum r_j / 2 v_j (r_j is even
    for j > 0), which is (A v)_i at an even v and, less the same sum at e with
    e0 // 2 for h, A (v - e)_i at an odd v; A (v + e) adds 2A e.  Zero terms
    are dropped, and coefficients +-1 get no multiply."""
    def linear(terms):  # source of sum c x over the pairs (c, x), x "" for a constant
        parts = [f"{c}" if not x else x if c == 1 else "-" + x if c == -1 else f"{c} * {x}"
                 for c, x in terms if c]
        return " + ".join(parts).replace("+ -", "- ") or "0"
    def tup(items):  # the trailing comma makes a one-tuple in dimension 1
        return f"({', '.join(items)},)"
    def visit(u, i):  # one setdefault per successor: it hands back n itself iff u is new
        return [f"u = {u}", f"{i} = put(u, n)", f"if {i} is n:",
                "    add(u); n += 1", "    if n > bound: return succ"]

    rows, e, k = config.A.rows2, config.e, config.e[0] >> 1
    low = [r[0] * k + sum(map(mul, r[1:], e[1:])) // 2 for r in rows]  # r_j e_j is even for j > 0
    w = [f"w{i}" for i in range(len(e))]
    odd = (visit(tup(linear([(1, x), (-c, "")]) for x, c in zip(w, low)), "a")
           + visit(tup(linear([(1, x), (sum(map(mul, r, e)) - c, "")])
                       for x, r, c in zip(w, rows, low)), "b") + ["succ += a, b"])
    source = "\n    ".join([
        "def walk(order, bound):", "index = {v: i for i, v in enumerate(order)}",
        "put, add, n, succ = index.setdefault, order.append, len(order), []",
        f"for {tup(f'v{j}' for j in range(len(e)))} in order:", "    h = v0 >> 1",
        *(f"    w{i} = " + linear([(r[0], "h")] + [(c >> 1, f"v{j}") for j, c in enumerate(r) if j])
          for i, r in enumerate(rows)),
        "    if v0 & 1:", *("        " + line for line in odd),
        "    else:", *("        " + line for line in visit(tup(w), "a") + ["succ += a, a"]),
        "return succ"])
    exec(source, scope := {})  # the source holds only ints, from the checked 2A and e
    return scope["walk"]


def _walk(config: CompleteConfig, starts, bound: int):
    """(order, succ) of one `_walk_kernel` run from checked start vectors: every
    reached vector once, as one tuple, in discovery order (distinct starts first),
    and order[i] steps on input b to order[succ[2 i + b]] with output b ^ v0 % 2.
    MatrixError unless chi is contracting, so that orbits are finite, and
    BoundExceededError on discovering the (bound + 1)-th vector."""
    _require_contracting(config.A)
    order = list(dict.fromkeys(starts))
    succ = _walk_kernel(config)(order, bound)
    if len(succ) < 2 * len(order):  # the walk stopped past the bound
        raise BoundExceededError(
            f"orbit reached {len(order)} vectors, over the bound {bound}; raise the "
            "bound or check that the matrix is contracting")
    return order, succ


def orbit(config: CompleteConfig, start, bound: int = DEFAULT_BOUND) -> list[tuple[int, ...]]:
    """All vectors reachable from start, in breadth-first discovery order."""
    return _walk(config, [_coerce_vector(start, config.dim)], bound)[0]


def orbit_automaton(config: CompleteConfig, starts, name: str | None = None,
                    bound: int = DEFAULT_BOUND) -> MealyAutomaton:
    """Finite sub-machine of c(A, e) on everything reachable from starts: each
    vector of `_walk`'s order labelled once (`vector_label`), the labels sorted
    once, and the walk's successor indices remapped through their ranks into
    the machine's index table, which the whole-array checks never refuse."""
    starts = [_coerce_vector(s, config.dim) for s in starts]
    if not starts:
        raise MatrixError("need at least one start vector")
    order, succ = _walk(config, starts, bound)
    labels = list(map("_".join(["%d"] * config.dim).__mod__, order))  # vector_label of int tuples
    walk = sorted(range(len(order)), key=labels.__getitem__)  # the walk index of each rank
    states = list(map(labels.__getitem__, walk))
    index = {s: r for r, s in enumerate(states)}
    rank, table, out = list(map(index.__getitem__, labels)), [0] * len(succ), [0] * len(succ)
    for b in (0, 1):  # entry 2 r + b is the walk's entry 2 walk[r] + b, its target ranked
        table[b::2] = map(rank.__getitem__, map(succ[b::2].__getitem__, walk))
        out[b::2] = [b ^ order[k][0] & 1 for k in walk]
    return MealyAutomaton._indexed(f"orbit_{labels[0]}" if name is None else name,
                                   states, index, table, out)


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
    p = Polynomial(sol)
    if not p.is_integral():
        raise MatrixError(
            f"vector {format_vector(v)} is not an integer polynomial multiple "
            "of e1"
        )
    return p


# -- location maps -----------------------------------------------------------------


class LocationMap(Value):
    """An embedding of a Mealy automaton into a complete automaton.

    p names the translation vector (e = p(A^-1) e1), e is that vector, and
    assignment sends each state label to its vector.  Serialized form::

        p: 3 + 2x
        e: (3,2)
        state f -> (1,0)
    """

    __slots__ = __match_args__ = ("p", "e", "assignment")

    def __init__(self, p: Polynomial, e: tuple[int, ...], assignment: dict[str, tuple[int, ...]]):
        super().__init__(_int_poly(p), _coerce_vector(e),
                         {s: _coerce_vector(v) for s, v in assignment.items()})

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
    succ, a = aut._succ, aut._index[anchor]
    words, queue = {a: ""}, deque([a])
    while queue:
        i = queue.popleft()
        for b in (0, 1):
            t = succ[2 * i + b]
            if t == a:
                return words[i] + "01"[b]
            if t not in words:
                words[t] = words[i] + "01"[b]
                queue.append(t)
    return None


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
    fit.  A misfit is classified by the machine's own construction
    (`classify`): the fit's error for AbelianFreeCandidate, BoundExceededError
    for Unknown (no chi constructed), NotAbelianError for other verdicts.
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
    division in Z[x]/chi* (`try_divide_mod`).  Where that p is not integral
    (e need not be either), the anchor is pinned at a = sigma_0 s(A^-1) e1
    instead, sigma_0 the sign of the cycle's first letter, so that s e =
    sigma_0 s (x^L - 1) e1 gives e = sigma_0 (A^-L - I) e1, named by p =
    sigma_0 ((x^L - 1) mod chi*).  This p is integral, as chi* is monic over
    Z, and so is e, as A^-1 is integral.  A^-1 maps Z^m onto the vectors of
    even first coordinate, so a vector q(A^-1) e1 has the parity of q(0): a
    and e are odd, since s(0) = sigma_0 and x^L mod chi* has even constant
    term.  The second map is the first times sigma_0 s(A^-1), which commutes
    with every step, keeps parity and is injective; so where the first is
    integral, both fit or neither does.  Every map that the division alone
    places is kept as it is.
    """
    signs, anchor, sigmas = frame
    inv, cycle = A.inv_rows, Polynomial([-1] + [0] * (len(sigmas) - 1) + [1])
    # s is a unit modulo chi* (module docstring), so None means "not integral"
    p, start = try_divide_mod(cycle, Polynomial(sigmas), A.chi_star), unit_vector(A.dim)
    if p is None:
        sign = sigmas[0]
        start = poly_to_vector(sign * Polynomial(sigmas), A)
        p = reduce_mod(cycle * sign, A.chi_star)
    e = poly_to_vector(p, A)

    config = CompleteConfig(A, e)
    values = _spread(
        aut, signs, anchor, start, lambda v, bit, sig: _step(config, v, bit)[0],
        lambda v, sig: tuple(map(sub, _apply_int(inv, v), (sig * c for c in e))))
    located = LocationMap(p=p, e=e, assignment={aut.states[i]: v for i, v in values.items()})
    located.validate(aut, A)
    return located


def _anchor_cycle(aut: MealyAutomaton):
    """(the sign of each transition, anchor, signs s of its shortest cycle):
    state i on bit b has signs[2 i + b] = -1, +1 on b = 0, 1 when odd and 0
    when even; the anchor is the least odd state on a cycle; LocateError when
    none is."""
    odd = [aut.state_parity(s) is Parity.ODD for s in aut.states]
    cycles = ((s, _shortest_cycle(aut, s)) for s, o in zip(aut.states, odd) if o)
    anchor, word = next(((s, w) for s, w in cycles if w is not None), (None, None))
    if anchor is None:
        raise LocateError("no odd state lies on a cycle")
    signs = [(2 * b - 1) * o for o in odd for b in (0, 1)]
    sigmas, i = [], aut._index[anchor]
    for b in map(int, word):
        sigmas.append(signs[2 * i + b])
        i = aut._succ[2 * i + b]
    return signs, anchor, sigmas


def _spread(aut: MealyAutomaton, signs, anchor: str, start, forward, backward) -> dict:
    """A value for every state index, breadth first from the anchor's, first
    come first assigned: a state s gives its targets forward(value, bit,
    sigma) and then its sources backward(value, sigma), sigma the source's
    sign on bit (`_anchor_cycle`).  LocateError names the states left
    unreached."""
    states, succ = aut.states, aut._succ  # read in place, as `group` reads them
    back = [[] for _ in states]  # the entries 2 u + bit into each state
    for j, t in enumerate(succ):
        back[t].append(j)
    a = aut._index[anchor]
    values, queue = {a: start}, deque([a])
    while queue:
        i = queue.popleft()
        v = values[i]
        for bit in (0, 1):
            t = succ[2 * i + bit]
            if t not in values:
                values[t] = forward(v, bit, signs[2 * i + bit])
                queue.append(t)
        for j in back[i]:
            if (u := j >> 1) not in values:
                values[u] = backward(v, signs[j])
                queue.append(u)
    if len(values) < len(states):
        missing = [s for i, s in enumerate(states) if i not in values]
        raise LocateError(f"states not connected to {anchor}: {', '.join(missing)}")
    return values


def _construct(aut: MealyAutomaton):
    """The companion matrix of the chi that the relations force, which always
    fits; LocateError or MatrixError without a frame or a contracting chi.

    With x as A^-1, `_fit`'s rescaled frame (anchor sigma_0 s, p = sigma_0
    (x^L - 1)) needs no A.  Spreading Laurent polynomials f as `_fit` spreads
    vectors leaves N = f_s - x f_t + sigma p per transition (s, b) -> t.  Any
    fit rescales to this frame, so chi* divides every N and their gcd G,
    stripped of x and of its factors of x^L - 1 (chi* has no root at 0 or on
    the unit circle); chi is G's reversal over G(0).  Another cycle can leave
    a cyclotomic factor in G, so where that chi is not contracting, G is also
    stripped of every Phi_k that can divide it (phi(k) <= deg G), and chi is
    read off again; a chi that is contracting at once costs no more.  What
    follows needs only that G divides every N.  A returned G is a
    contracting chi*, so irreducible (module docstring), and P = xR is a
    maximal (R/P = Z/2), principal ideal of R = Z[x]/chi*: R_P has a
    valuation v.  As N = 0, x f_t = f_s + sigma p with v(p) = 0 (x^L - 1 =
    -1 mod P), and a least v(f_s) < 0 would give v(f_t) < v(f_s).  So v(f_s)
    is >= 0, 0 at an odd s and >= 1 at an even one: the parity of f_s(A^-1)
    e1 (`_fit`).  R[1/x], holding f_s, meets R_P in R, so each vector is
    integral, and `_fit`'s map validates, also in its division frame (over
    the unit sigma_0 s).  A factor left in G yields no chi, never a wrong one.
    """
    star = _relation_gcd(aut, _anchor_cycle(aut))
    A = _star_companion(star)
    if not A.contracting:
        d = star.degree
        for k in range(1, 2 * d * d + 1):  # phi(k) >= sqrt(k / 2): phi(k) <= d needs k <= 2 d^2
            if sum(gcd(i, k) == 1 for i in range(k)) <= d:  # phi(k)
                star = _strip_cycle(star, k)
        A = _star_companion(star)
    _require_contracting(A)
    return A


def _star_companion(star: Polynomial) -> HalfIntegralMatrix:
    """The companion matrix of chi, G's reversal over G(0); MatrixError where
    that is no half-integral chi."""
    return companion_from_chi(
        Polynomial([Fraction(c, star.constant) for c in reversed(star.coeffs)]))


def _strip_cycle(g: Polynomial, k: int) -> Polynomial:
    """g with every factor that it shares with x^k - 1 divided out."""
    cycle = Polynomial([-1] + [0] * (k - 1) + [1])
    while not g.is_zero() and (h := _gcd(g, cycle)).degree > 0:
        g = _poly_divmod(g, h)[0]
    return g


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
    signs, anchor, sigmas = frame
    L, s0 = len(sigmas), sigmas[0]
    w = (2 * len(aut.states) + 1).bit_length() + 1
    p = s0 * ((1 << w * L) - 1)  # s0 (x^L - 1)
    start = sum(s0 * c << w * i for i, c in enumerate(sigmas))  # s0 s
    value = _spread(aut, signs, anchor, (0, start),
                    lambda v, bit, sig: (v[0] + 1, v[1] + sig * (p << w * v[0])),
                    lambda v, sig: (v[0], (v[1] << w) - sig * (p << w * v[0])))
    g, seen = Polynomial(), set()
    for e, t in enumerate(aut._succ):  # the transition of state e >> 1 on bit e & 1
        (k, f), (j, h) = value[e >> 1], value[t]
        top = max(k, j)  # x^top N is a polynomial
        rel = ((f << w * (top - k)) - (h << w * (top - j + 1)) + signs[e] * (p << w * top))
        if rel:
            rel = abs(rel) >> w * (((rel & -rel).bit_length() - 1) // w)  # no x, no sign
            if rel not in seen:
                seen.add(rel)
                g = _gcd(Polynomial(_unpack(rel, w)), g)
                if g.degree == 0:
                    return g
    return _strip_cycle(g, L)


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
    """`check_abelian`'s report, decided by the construction where one exists.

    `check_abelian`'s refinement and even-state identity tests run first:
    they are cheap and decide most machines that are Boolean or not abelian.
    Then a constructed chi is a certificate (`_construct`): the group is free
    abelian, and gamma acts as the vector 2Ae != 0 (Nekrashevych and Sidki
    2004), so the verdict is AbelianFreeCandidate, with gamma read off the
    table.  The odd states' closures run only where no chi comes out, so the
    report is `check_abelian`'s wherever that one decides.
    """
    return _decide(aut, bound, _constructs)


def _constructs(aut: MealyAutomaton) -> bool:
    try:  # no odd state on a cycle, states out of reach, or no chi
        _construct(aut)
    except (LocateError, MatrixError):
        return False
    return True


class Mismatch(Value):
    __slots__ = __match_args__ = ("state", "word", "automaton_output", "vector_output")

    def __init__(self, state: str, word: str, automaton_output: str, vector_output: str):
        super().__init__(state, word, automaton_output, vector_output)


def find_location_mismatch(aut: MealyAutomaton, A: HalfIntegralMatrix,
                           locmap: LocationMap,
                           max_len: int = 10) -> Mismatch | None:
    """Compare transductions of every state against its vector, word by word.

    Runs every non-empty word up to max_len through both machines
    independently and reports the first disagreement.  This is deliberately
    brute force: it shares the step of c(A, e) (`transduce_vector`) and the
    module action (`poly_to_vector`) with `locate`, but not its fit or its
    spread, nor the transition check of `LocationMap.validate`.
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


class GTildeElement(Value):
    """A fraction v / p: vector v scaled down by a polynomial with odd constant."""

    __slots__ = __match_args__ = ("v", "p")

    def __init__(self, v: tuple[int, ...], p: Polynomial):
        v, p = _coerce_vector(v), _int_poly(p)
        if p.constant % 2 == 0:
            raise MatrixError(f"denominator polynomial {p} must have odd constant term")
        super().__init__(v, p)

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
