"""Independent reference code the benchmark checks CLI output against.

Nothing here imports abmealy.  Machines are plain transition dicts
{(state, bit): (next state, output bit)}, matrices are lists of Fraction
rows, polynomials are integer coefficient lists, constant first.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction

# -- Mealy machines ---------------------------------------------------------------


def parse_aut(text: str) -> dict:
    """Transitions of an AUT text (the `aut/states/trans/copy` lines)."""
    trans = {}
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if toks[0] == "trans":
            src, a, b, dst = toks[1:]
            trans[(src, int(a))] = (dst, int(b))
        elif toks[0] == "copy":
            src, dst = toks[1:]
            trans[(src, 0)] = (dst, 0)
            trans[(src, 1)] = (dst, 1)
    return trans


def aut_text(name: str, trans: dict) -> str:
    states = sorted({s for s, _ in trans})
    lines = [f"aut {name}", "states " + " ".join(states)]
    for s in states:
        for a in (0, 1):
            dst, b = trans[(s, a)]
            lines.append(f"trans {s} {a} {b} {dst}")
    return "\n".join(lines) + "\n"


def transduce(trans: dict, state: str, word: str) -> str:
    out = []
    for ch in word:
        state, b = trans[(state, int(ch))]
        out.append(str(b))
    return "".join(out)


def _odd(trans, s) -> bool:
    return trans[(s, 0)][1] == 1


def gamma_text(trans: dict) -> str | None:
    """Formal d1(o) - d0(o) of the least odd state o, printed the CLI's way."""
    odd = sorted(s for s, a in trans if a == 0 and _odd(trans, s))
    if not odd:
        return None
    d0, d1 = trans[(odd[0], 0)][0], trans[(odd[0], 1)][0]
    return "I" if d0 == d1 else f"{d1} - {d0}"


def _agree(trans, start, step) -> bool:
    """BFS over tuples of states; step returns (next tuple, ok) per input bit."""
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for x in (0, 1):
            nxt, ok = step(cur, x)
            if not ok:
                return False
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def commute(trans: dict, f: str, g: str) -> bool:
    """f after g equals g after f on every word (exact, by product BFS)."""
    def step(cur, x):
        a, b, c, d = cur
        a2, y = trans[(a, x)]
        b2, z = trans[(b, y)]
        c2, y2 = trans[(c, x)]
        d2, z2 = trans[(d, y2)]
        return (a2, b2, c2, d2), z == z2
    return _agree(trans, (g, f, f, g), step)


def involution(trans: dict, f: str) -> bool:
    def step(cur, x):
        a, b = cur
        a2, y = trans[(a, x)]
        b2, z = trans[(b, y)]
        return (a2, b2), z == x
    return _agree(trans, (f, f), step)


def abelian_verdict(trans: dict) -> str:
    """The group-theoretic class of the machine, decided from the definitions.

    No odd state: the identity group.  Two states that do not commute: not
    abelian.  Otherwise the group is abelian; it is boolean exactly when
    every generator is an involution, and free abelian otherwise.
    """
    states = sorted({s for s, _ in trans})
    if not any(_odd(trans, s) for s in states):
        return "TrivialGroup"
    for i, f in enumerate(states):
        for g in states[i + 1:]:
            if not commute(trans, f, g):
                return "NotAbelian"
    if all(involution(trans, s) for s in states):
        return "BooleanCandidate"
    return "AbelianFreeCandidate"


# -- rational matrices and the complete automaton c(A, e) ------------------------------


def parse_matrix_rows(text: str) -> list[list[Fraction]]:
    rows = []
    for raw in text.splitlines():
        toks = raw.split("#", 1)[0].split()
        if toks and toks[0] != "dim":
            rows.append([Fraction(t) for t in toks])
    return rows


def companion_rows(g) -> list[list[Fraction]]:
    """Companion matrix of chi = x^m + g(x)/2 in the layout MATRIX files use:
    negated coefficients down the first column (highest first), ones on the
    superdiagonal."""
    m = len(g)
    rows = []
    for i in range(m):
        row = [Fraction(0)] * m
        row[0] = -Fraction(g[m - 1 - i], 2)
        if i + 1 < m:
            row[i + 1] = Fraction(1)
        rows.append(row)
    return rows


def det(rows) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return out


def inverse_int_rows(rows) -> list[list[int]]:
    """A^-1 by Gauss-Jordan; integral for every half-integral A with det +-1/2."""
    n = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    inv = [row[n:] for row in a]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("inverse is not integral")
    return [[int(x) for x in row] for row in inv]


class Lattice:
    """c(A, e): even v -> (A v, bit); odd v -> (A(v -+ e), flipped bit)."""

    def __init__(self, rows, e):
        self.doubled = [[int(2 * x) for x in row] for row in rows]
        self.e = tuple(e)

    def step(self, v, bit):
        if v[0] % 2 == 0:
            w, out = v, bit
        elif bit == 0:
            w, out = tuple(x - y for x, y in zip(v, self.e)), 1
        else:
            w, out = tuple(x + y for x, y in zip(v, self.e)), 0
        return tuple(sum(a * x for a, x in zip(row, w)) // 2 for row in self.doubled), out

    def orbit(self, starts) -> set:
        seen = set(starts)
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for b in (0, 1):
                w, _ = self.step(v, b)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen


def fmt_vector(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def parse_vector(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.strip().strip("()").split(","))


def is_embedding(trans: dict, rows, e, assignment: dict) -> bool:
    """The state -> vector map is a machine homomorphism into c(A, e).

    Matching outputs and successors on every state and bit means every state
    agrees with its vector on words of every length."""
    lat = Lattice(rows, e)
    states = {s for s, _ in trans}
    if set(assignment) != states:
        return False
    for (s, bit), (t, out) in trans.items():
        w, wout = lat.step(assignment[s], bit)
        if wout != out or assignment[t] != w:
            return False
    return True


# -- integer polynomials ------------------------------------------------------------------


def trim(p) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def pmul(p, q) -> list[int]:
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def reduce_monic(p, mod) -> list[int]:
    d = len(mod) - 1
    r = list(p)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            for j, mc in enumerate(mod):
                r[i - d + j] -= c * mc
    return trim(r[:d])


def chi_star(g) -> list[int]:
    """Reversal x^m chi(1/x) / chi(0) of chi = x^m + g(x)/2, constant first."""
    chi = [Fraction(c, 2) for c in g] + [Fraction(1)]
    rev = [c / chi[0] for c in reversed(chi)]
    return [int(c) for c in rev]


_TERM = re.compile(r"([+-]?)\s*(\d*)(x?)(?:\^(\d+))?")


def parse_poly(text: str) -> list[int]:
    """'1 - x^2 + 3x^5' (the CLI's print form) to coefficients."""
    s = text.replace(" ", "")
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        c = int(m.group(2)) if m.group(2) else 1
        k = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        coeffs[k] = coeffs.get(k, 0) + sign * c
        pos = m.end()
    return trim([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def format_poly(p) -> str:
    """The CLI's print form of an integer polynomial: '3 - x + 2x^2'."""
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        body = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        if i == 0 or abs(c) != 1:
            body = f"{abs(c)}{body}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) or "0"


def is_witness(p, star) -> bool:
    """Monic, coefficients in {-1, 0, 1}, and congruent to -1 modulo chi*."""
    return (bool(p) and p[-1] == 1 and all(c in (-1, 0, 1) for c in p)
            and reduce_monic(p, star) == [-1])


def poly_action(p, v, inv_rows) -> tuple[int, ...]:
    """p(A^-1) v by Horner's rule."""
    acc = (0,) * len(v)
    for c in reversed(p):
        acc = tuple(sum(a * x for a, x in zip(row, acc)) for row in inv_rows)
        acc = tuple(a + c * x for a, x in zip(acc, v))
    return acc
