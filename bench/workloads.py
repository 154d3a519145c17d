"""The four workloads: seeded command lists for the CLI, each with its checks.

lattice    orbit and scc on the 23,555-state chi, scc on the 1,179-state chi,
           verify of the figure machine to length 12: c(A, e) steps and
           vector-set BFS, with no group work.
principal  check and principal --aut on five 21-33-state orbit machines,
           plus principal --chi on the 823-state chi: the residuation fold
           and identity-test closures.
triage     400 random invertible 3-8-state machines, each given transduce,
           gamma and check (1,200 commands): per-call CLI and parse cost, and
           checks that end early (mostly NotAbelian or Boolean).
algebra    witness on both chi* of every size class plus one search through
           the whole 3^12 tree, infer on the figure, 7- and 23-state
           machines, embed and gtilde: exact algebra and the searches.

A workload draws its inputs from the seed, writes the files its commands
read during set-up, and returns a list of `Op`s.  Each op carries the argv
handed to `abmealy.cli.main` and a check that returns None when the exit
code, stdout and stderr are right, or a one-line reason when they are not.
Checks run after timing and compare against pins (`corpus.py`) or against
the independent code in `oracles.py`; a few use `find_isomorphism` from the
library, as noted.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import corpus
import oracles

WORKLOADS = ("lattice", "principal", "triage", "algebra")


@dataclass
class Op:
    cmd: str
    argv: list
    check: Callable[[int, str, str], "str | None"]


def _expect_exact(want_out: str, want_code: int = 0):
    def check(code, out, err):
        if code != want_code:
            return f"exit {code}, want {want_code}: {err.strip()[:200]}"
        if out != want_out:
            return f"stdout {out[:120]!r}, want {want_out[:120]!r}"
        return None
    return check


def _ok(code, err):
    return None if code == 0 else f"exit {code}: {err.strip()[:200]}"


@functools.cache
def _reference_orbit(g, both_signs: bool) -> frozenset:
    """Orbit of e1 (and of -e1) in c(A, e1) for chi(g), by the reference step."""
    e1 = (1,) + (0,) * (len(g) - 1)
    starts = [e1, tuple(-c for c in e1)] if both_signs else [e1]
    return frozenset(oracles.Lattice(oracles.companion_rows(g), e1).orbit(starts))


class Workload:
    """Inputs for one workload and seed; `setup` writes them, `ops` lists commands."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.tiny = tiny
        self.items: list = []        # (g, needs_aut) corpus items
        getattr(self, "_plan_" + name)()

    # -- planning: draw every input from the seed ------------------------------------

    def _plan_lattice(self):
        rng = self.rng
        self.g_small = corpus.pick(rng, "o7" if self.tiny else "o1179")
        self.g_big = corpus.pick(rng, "o1179" if self.tiny else "o23555")
        self.maxlen = 6 if self.tiny else 12
        self.items = [(self.g_small, False), (self.g_big, False)]

    def _plan_principal(self):
        rng = self.rng
        classes = ["o21", "o23"] if self.tiny else ["o21", "o23", "o29", "o31", "o33"]
        self.gs = [corpus.pick(rng, c) for c in classes]
        self.g_chi = corpus.pick(rng, "o61" if self.tiny else "o823")
        self.items = [(g, True) for g in self.gs + [self.g_chi]]

    def _plan_triage(self):
        rng = self.rng
        self.machines = []
        for _ in range(334 if self.tiny else 400):   # tiny still passes 1,000 ops
            n = rng.randint(3, 8)
            states = [f"s{i}" for i in range(n)]
            trans = {}
            for s in states:
                odd = rng.random() < 0.5
                trans[(s, 0)] = (rng.choice(states), int(odd))
                trans[(s, 1)] = (rng.choice(states), int(not odd))
            word = "".join(rng.choice("01") for _ in range(rng.randint(8, 64)))
            self.machines.append((trans, rng.choice(states), word))

    def _plan_algebra(self):
        rng = self.rng
        classes = ["o7", "o23"] if self.tiny else [
            "o7", "o21", "o23", "o29", "o31", "o33", "o61", "o823", "o1179",
            "o23555", "o55275"]
        # both chi of a class: their searches differ in cost (degree 6 against
        # degree 10 for o33), which a seeded pick would turn into run-to-run spread
        self.witness_gs = [g for c in classes for g in corpus.CLASSES[c]]
        if not self.tiny:
            self.witness_gs.append(corpus.CHI_NO_WITNESS)
        self.g7 = corpus.pick(rng, "o7")
        self.infer_gs = [self.g7] if self.tiny else [self.g7, corpus.CHI_INFER23]
        self.items = [(g, True) for g in self.infer_gs]
        self.star = oracles.chi_star(corpus.CLASSES["o7"][0])   # figure chi*

        def odd_poly():
            return [rng.choice((-3, -1, 1, 3)), rng.randint(-3, 3)]

        n = 2 if self.tiny else 8
        self.embeds = [(odd_poly(), odd_poly()) for _ in range(n)]
        self.gtildes = []
        for i in range(3 * n):
            v1 = (rng.randint(-9, 9), rng.randint(-9, 9))
            v2 = (rng.randint(-9, 9), rng.randint(-9, 9))
            self.gtildes.append((("eq", "add", "res")[i % 3], v1, odd_poly(), v2,
                                 odd_poly(), rng.randint(0, 1)))

    # -- set-up: write the files the commands read ---------------------------------------

    def setup(self, lib, workdir: Path) -> None:
        """Build and write the corpus items and inputs; this is what setup_s times."""
        self.workdir = workdir
        self.paths = corpus.write(lib, workdir, self.items)
        (workdir / "a32.aut").write_text(corpus.FIGURE_AUT, encoding="utf-8")
        (workdir / "A.mat").write_text(corpus.FIGURE_MATRIX, encoding="utf-8")
        if self.name == "triage":
            for i, (trans, _, _) in enumerate(self.machines):
                (workdir / f"m{i}.aut").write_text(
                    oracles.aut_text(f"m{i}", trans), encoding="utf-8")

    def _aut(self, g) -> str:
        return str(self.paths[(g, "aut")])

    def _mat(self, g) -> str:
        return str(self.paths[(g, "mat")])

    def ops(self, lib) -> list:
        return getattr(self, "_ops_" + self.name)(lib)

    # -- lattice ----------------------------------------------------------------------

    def _ops_lattice(self, lib):
        e1 = "(" + ",".join(["1"] + ["0"] * (len(self.g_big) - 1)) + ")"
        w = self.workdir
        return [
            Op("orbit", ["orbit", self._mat(self.g_big), "--e", e1],
               self._check_orbit(self.g_big)),
            Op("scc", ["scc", self._mat(self.g_small)], self._check_scc(self.g_small)),
            Op("scc", ["scc", self._mat(self.g_big)], self._check_scc(self.g_big)),
            Op("verify", ["verify", str(w / "a32.aut"), str(w / "A.mat"),
                          "--maxlen", str(self.maxlen)],
               _expect_exact(f"ok: all words up to length {self.maxlen} agree\n")),
        ]

    def _check_orbit(self, g):
        def check(code, out, err):
            if code != 0:
                return _ok(code, err)
            lines = out.splitlines()
            m = len(g)
            e1 = (1,) + (0,) * (m - 1)
            vecs = [oracles.parse_vector(s) for s in lines]
            got = set(vecs)
            if len(vecs) != corpus.size_of(g) or len(got) != len(vecs):
                return f"{len(vecs)} vectors ({len(got)} distinct), pinned {corpus.size_of(g)}"
            if vecs[0] != e1:
                return f"orbit starts at {lines[0]}, want {oracles.fmt_vector(e1)}"
            if got != _reference_orbit(g, False):
                return "vector set differs from the reference orbit"
            return None
        return check

    def _check_scc(self, g):
        def check(code, out, err):
            if code != 0:
                return _ok(code, err)
            lines = out.splitlines()
            states, ncomp, single = corpus.SCC[g]
            want_w = corpus.WITNESS[g] or "none"
            fields = dict(l.split(": ", 1) for l in lines if not l.startswith("  "))
            star = oracles.chi_star(g)
            if oracles.parse_poly(fields.get("chi*", "0")) != star:
                return f"chi* {fields.get('chi*')!r}, want {star}"
            if fields.get("states") != str(states):
                return f"states {fields.get('states')}, pinned {states}"
            if fields.get("components") != str(ncomp):
                return f"components {fields.get('components')}, pinned {ncomp}"
            if fields.get("single nontrivial component") != ("yes" if single else "no"):
                return "single-component verdict differs from the pin"
            if fields.get("witness") != want_w:
                return f"witness {fields.get('witness')!r}, pinned {want_w!r}"
            if want_w != "none" and not oracles.is_witness(oracles.parse_poly(want_w), star):
                return f"witness {want_w!r} is not a witness modulo {star}"
            comp_lines = [l for l in lines if l.startswith("  [")]
            vecs = [oracles.parse_vector(t) for l in comp_lines
                    for t in l.split(": ", 1)[1].split()]
            ref = _reference_orbit(g, True)
            if len(comp_lines) != ncomp or set(vecs) != ref or len(vecs) != len(ref):
                return "components do not partition the reference orbit of +-e1"
            return None
        return check

    # -- principal --------------------------------------------------------------------

    def _ops_principal(self, lib):
        ops = []
        for g in self.gs:
            trans = oracles.parse_aut(Path(self._aut(g)).read_text(encoding="utf-8"))
            want = f"verdict: AbelianFreeCandidate\ngamma: {oracles.gamma_text(trans)}\n"
            ops.append(Op("check", ["check", self._aut(g)], _expect_exact(want)))
            ops.append(Op("principal", ["principal", "--aut", self._aut(g)],
                          self._check_principal(lib, g)))
        want = Path(self._aut(self.g_chi)).read_text(encoding="utf-8")
        ops.append(Op("principal", ["principal", "--chi", corpus.chi_arg(self.g_chi)],
                      _expect_exact(want)))
        return ops

    def _check_principal(self, lib, g):
        orbit_text = Path(self._aut(g)).read_text(encoding="utf-8")

        def check(code, out, err):
            if code != 0:
                return _ok(code, err)
            try:
                machine = lib.parse_automaton(out)
            except lib.AbmealyError as exc:
                return f"output is not an AUT text: {exc}"
            if len(machine.states) != corpus.size_of(g):
                return f"{len(machine.states)} states, pinned {corpus.size_of(g)}"
            # library isomorphism search: principal machine vs the orbit machine
            if lib.find_isomorphism(machine, lib.parse_automaton(orbit_text)) is None:
                return "principal machine is not isomorphic to the orbit machine"
            return None
        return check

    # -- triage -----------------------------------------------------------------------

    def _ops_triage(self, lib):
        ops = []
        for i, (trans, state, word) in enumerate(self.machines):
            path = str(self.workdir / f"m{i}.aut")
            ops.append(Op("transduce", ["transduce", path, state, word],
                          _expect_exact(oracles.transduce(trans, state, word) + "\n")))
            gamma = oracles.gamma_text(trans)
            if gamma is None:
                ops.append(Op("gamma", ["gamma", path], self._check_no_odd))
            else:
                ops.append(Op("gamma", ["gamma", path], _expect_exact(gamma + "\n")))
            ops.append(Op("check", ["check", path], self._check_verdict(trans)))
        return ops

    @staticmethod
    def _check_no_odd(code, out, err):
        if code != 1 or out or not err.startswith("error:"):
            return f"machine without odd states: exit {code}, stdout {out[:60]!r}"
        return None

    @staticmethod
    def _check_verdict(trans):
        memo = []

        def check(code, out, err):
            if code != 0:
                return _ok(code, err)
            if not memo:
                memo.append(oracles.abelian_verdict(trans))
            verdict = memo[0]
            lines = out.splitlines()
            if not lines or lines[0] != f"verdict: {verdict}":
                return f"{lines[:1]}, reference verdict {verdict}"
            if verdict in ("AbelianFreeCandidate", "BooleanCandidate"):
                want = [f"gamma: {oracles.gamma_text(trans)}"]
            elif verdict == "NotAbelian":
                states = {s for s, _ in trans}
                if (len(lines) != 3 or not lines[1].startswith("witness: ")
                        or lines[1][9:] not in states or not lines[2].startswith("reason: ")):
                    return f"NotAbelian report malformed: {out[:120]!r}"
                return None
            else:
                want = []
            if lines[1:] != want:
                return f"report {lines[1:]}, want {want}"
            return None
        return check

    # -- algebra ----------------------------------------------------------------------

    def _ops_algebra(self, lib):
        ops = []
        for g in self.witness_gs:
            star = oracles.chi_star(g)
            want = corpus.WITNESS[g] or "none"
            ops.append(Op("witness", ["witness", " ".join(map(str, star))],
                          self._check_witness(want, star)))
        w = self.workdir
        ops.append(Op("infer", ["infer", str(w / "a32.aut")],
                      _expect_exact(corpus.FIGURE_INFER)))
        for g in self.infer_gs:
            ops.append(Op("infer", ["infer", self._aut(g)],
                          self._check_infer(g, none_ok=g == corpus.CHI_INFER23)))
        mat = str(w / "A.mat")
        for p, r in self.embeds:
            q = oracles.reduce_monic(oracles.pmul(r, p), self.star)
            ops.append(Op("embed", ["embed", mat, "--", _coeffs(p), _coeffs(q)],
                          self._check_embed(p, q)))
        for op, v1, p1, v2, p2, bit in self.gtildes:
            ops.append(self._gtilde_op(mat, op, v1, p1, v2, p2, bit))
        return ops

    @staticmethod
    def _check_witness(want, star):
        def check(code, out, err):
            if code != 0:
                return _ok(code, err)
            if out != want + "\n":
                return f"witness {out.strip()!r}, pinned {want!r}"
            if want != "none" and not oracles.is_witness(oracles.parse_poly(want), star):
                return f"{want!r} is not a witness modulo {star}"
            return None
        return check

    def _check_infer(self, g, none_ok: bool):
        """A found matrix must embed the machine; "none" only where pinned."""
        trans = oracles.parse_aut(Path(self._aut(g)).read_text(encoding="utf-8"))

        def check(code, out, err):
            if none_ok and code == 1 and out == "no matrix found within bounds\n":
                return None
            if code != 0:
                return _ok(code, err)
            lines = out.splitlines()
            try:
                m = int(lines[1].split()[1])
                rows = [[Fraction(t) for t in l.split()] for l in lines[2:2 + m]]
                p = oracles.parse_poly(lines[2 + m].split(": ", 1)[1])
                e = oracles.parse_vector(lines[3 + m].split(": ", 1)[1])
                assignment = {}
                for l in lines[4 + m:]:
                    s, v = l[len("state "):].split(" -> ")
                    assignment[s] = oracles.parse_vector(v)
            except (IndexError, ValueError) as exc:
                return f"malformed infer output ({exc}): {out[:120]!r}"
            if (any((2 * row[0]).denominator != 1 for row in rows)
                    or any(x.denominator != 1 for row in rows for x in row[1:])
                    or abs(oracles.det(rows)) != Fraction(1, 2)):
                return "inferred matrix is not half-integral with det +-1/2"
            if not oracles.is_embedding(trans, rows, e, assignment):
                return "inferred location is not an embedding into c(A, e)"
            e1 = (1,) + (0,) * (m - 1)
            if oracles.poly_action(p, e1, oracles.inverse_int_rows(rows)) != e:
                return f"p = {lines[2 + m]} does not name e = {e}"
            return None
        return check

    def _check_embed(self, p, q):
        star = self.star

        def check(code, out, err):
            if code != 0:
                return _ok(code, err)
            if not out.startswith("r: "):
                return f"embed printed {out[:60]!r}"
            r = oracles.parse_poly(out[3:].strip())
            if oracles.reduce_monic(oracles.pmul(r, p), star) != q:
                return f"r = {out[3:].strip()} does not solve r*p = q modulo chi*"
            return None
        return check

    def _gtilde_op(self, mat, op, v1, p1, v2, p2, bit):
        rows = oracles.parse_matrix_rows(corpus.FIGURE_MATRIX)
        inv = oracles.inverse_int_rows(rows)
        act = oracles.poly_action
        fv = oracles.fmt_vector
        if op == "eq":
            # v1/p1 against its own scaling by p2: always equal in the limit group
            v2s = act(p2, v1, inv)
            p2s = oracles.pmul(p2, p1)
            return Op("gtilde", ["gtilde", "eq", mat, "--", fv(v1), _coeffs(p1), fv(v2s),
                                 _coeffs(p2s)], _expect_exact("equal\n"))
        if op == "add":
            def check(code, out, err):
                if code != 0:
                    return _ok(code, err)
                try:
                    vline, pline = out.splitlines()
                    v = oracles.parse_vector(vline[3:])
                    p = oracles.parse_poly(pline[3:])
                except ValueError:
                    return f"malformed gtilde add output {out[:80]!r}"
                lhs = act(oracles.pmul(p1, p2), v, inv)
                rhs = act(p, tuple(a + b for a, b in zip(act(p2, v1, inv), act(p1, v2, inv))),
                          inv)
                return None if lhs == rhs else "sum differs from v1/p1 + v2/p2"
            return Op("gtilde", ["gtilde", "add", mat, "--", fv(v1), _coeffs(p1), fv(v2),
                                 _coeffs(p2)], check)
        e = act(p1, (1, 0), inv)
        w, out_bit = oracles.Lattice(rows, e).step(v1, bit)
        p_text = oracles.format_poly(p1)
        want = f"v: {fv(w)}\np: {p_text}\nout: {out_bit}\n"
        return Op("gtilde", ["gtilde", "res", mat, "--", fv(v1), _coeffs(p1), str(bit)],
                  _expect_exact(want))


def _coeffs(p) -> str:
    return " ".join(str(c) for c in p) if p else "0"

