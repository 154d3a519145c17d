"""Command line interface.

One subcommand per operation; `--json` switches any of them to a single
machine-readable object on stdout.  Exit status 0 means the requested
answer was produced (even a negative one like "not abelian"), 1 means a
domain error (bad format, matrix does not fit, no embedding, ...), and 2 is
argparse's usage-error status.  A word argument of "-" stands for the empty
word.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from .analysis import (
    check_scc_instance,
    classify,
    infer_matrix,
    path_polynomial,
    witness_search,
)
from .complete import (
    CompleteConfig,
    GTildeElement,
    LocationMap,
    embed_scale,
    find_location_mismatch,
    format_vector,
    gtilde_add,
    gtilde_eq,
    gtilde_residual,
    locate,
    orbit,
    orbit_automaton,
    parse_int_poly,
    parse_vector,
    unit_vector,
)
from .errors import AbmealyError, BoundExceededError
from .exactalg import companion_from_chi, parse_chi, parse_matrix, serialize_matrix
from .group import DEFAULT_BOUND, build_principal, gamma_of
from .mealy import parse_automaton


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_aut(path: str):
    return parse_automaton(_read(path))


def _load_matrix(path: str):
    return parse_matrix(_read(path))


def _word(arg: str) -> str:
    return "" if arg == "-" else arg


def _poly_json(p):
    if p is None:
        return None, None
    return list(p.coeffs), str(p)


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


_CHUNK = 4096  # vectors or lines formatted and written at a time


def _chunks(lines):
    """The lines joined a chunk at a time."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, _CHUNK)):
        yield chunk


def _write_or_print(args, lines) -> None:
    """Write lines, each ending in a newline, to -o, or else to stdout unless
    --json is set, a chunk of lines per write."""
    if args.output or not args.json:
        with (Path(args.output).open("w", encoding="utf-8") if args.output
              else nullcontext(sys.stdout)) as f:
            for chunk in _chunks(lines):
                f.write(chunk)


def _write_vectors(vectors, dim: int, sep: str, end: str) -> None:
    """Write int vectors of length dim as `format_vector` prints them, sep
    between two and end after the last, a chunk of vectors per write."""
    fmt = "(" + ",".join(["%d"] * dim) + ")"
    write = sys.stdout.write
    for k in range(0, len(vectors), _CHUNK):
        if k:
            write(sep)
        write(sep.join(map(fmt.__mod__, vectors[k:k + _CHUNK])))
    write(end)


def _location_json(locmap) -> dict:
    pc, ps = _poly_json(locmap.p)
    return {"p": pc, "p_str": ps, "e": list(locmap.e),
            "assignment": {s: list(v) for s, v in sorted(locmap.assignment.items())}}


# -- command bodies ---------------------------------------------------------------


def _cmd_transduce(args) -> int:
    aut = _load_aut(args.aut)
    word = _word(args.word)
    out = aut.transduce(args.state, word)
    _emit(args, {"state": args.state, "input": word, "output": out}, [out])
    return 0


def _cmd_check(args) -> int:
    aut = _load_aut(args.aut)
    report = classify(aut, bound=args.bound)
    gamma = str(report.gamma) if report.gamma is not None else None
    witness = None
    lines = [f"verdict: {report.verdict}"]
    if gamma is not None:
        lines.append(f"gamma: {gamma}")
    if report.witness is not None:
        state, reason = report.witness
        witness = {"state": state, "reason": reason}
        lines.append(f"witness: {state}")
        lines.append(f"reason: {reason}")
    _emit(
        args,
        {"verdict": str(report.verdict), "gamma": gamma, "witness": witness},
        lines,
    )
    return 0


def _cmd_gamma(args) -> int:
    aut = _load_aut(args.aut)
    g = gamma_of(aut)
    _emit(args, {"gamma": str(g)}, [str(g)])
    return 0


def _cmd_principal(args) -> int:
    if args.chi is not None:
        A = companion_from_chi(parse_chi(args.chi))
        config = CompleteConfig(A, unit_vector(A.dim))
        machine = orbit_automaton(config, [unit_vector(A.dim)], bound=args.bound)
    else:
        machine = build_principal(_load_aut(args.aut), bound=args.bound)
    _write_or_print(args, machine.aut_lines())
    if args.json:  # one JSON line, its "aut" text escaped and written a chunk at a time
        head = json.dumps({"name": machine.name, "states": list(machine.states), "aut": ""})
        sys.stdout.write(head[:-2])  # up to the text's opening quote
        for chunk in _chunks(machine.aut_lines()):
            sys.stdout.write(json.dumps(chunk)[1:-1])
        sys.stdout.write('"}\n')
    return 0


def _cmd_orbit(args) -> int:
    A = _load_matrix(args.matrix)
    e = parse_vector(args.e)
    start = parse_vector(args.start) if args.start else e
    config = CompleteConfig(A, e)
    vectors = orbit(config, start, bound=args.bound)
    if args.json:
        print(json.dumps({"count": len(vectors), "vectors": [list(v) for v in vectors]}))
    else:
        _write_vectors(vectors, config.dim, "\n", "\n")
    return 0


def _cmd_locate(args) -> int:
    aut = _load_aut(args.aut)
    A = _load_matrix(args.matrix)
    locmap = locate(aut, A, bound=args.bound)
    _write_or_print(args, [locmap.serialize()])
    if args.json:
        print(json.dumps(_location_json(locmap)))
    return 0


def _cmd_verify(args) -> int:
    aut = _load_aut(args.aut)
    A = _load_matrix(args.matrix)
    if args.map:
        locmap = LocationMap.parse(_read(args.map))
    else:
        locmap = locate(aut, A, bound=args.bound)
    words = 0
    for length in range(1, args.maxlen + 1):
        words += len(aut.states) << length
        if words > args.bound:
            raise BoundExceededError(
                f"verify reached {words} words by length {length}, over the "
                f"bound {args.bound}; lower --maxlen"
            )
    mismatch = find_location_mismatch(aut, A, locmap, max_len=args.maxlen)
    if mismatch is None:
        _emit(args, {"ok": True, "maxlen": args.maxlen, "mismatch": None},
              [f"ok: all words up to length {args.maxlen} agree"])
        return 0
    payload = {
        "ok": False,
        "maxlen": args.maxlen,
        "mismatch": {
            "state": mismatch.state,
            "word": mismatch.word,
            "automaton_output": mismatch.automaton_output,
            "vector_output": mismatch.vector_output,
        },
    }
    _emit(args, payload, [
        f"mismatch: state {mismatch.state} word {mismatch.word}: automaton "
        f"{mismatch.automaton_output}, vectors {mismatch.vector_output}",
    ])
    return 1


def _cmd_embed(args) -> int:
    A = _load_matrix(args.matrix)
    p = parse_int_poly(args.p)
    q = parse_int_poly(args.q)
    r = embed_scale(p, q, A.chi_star)
    rc, rs = _poly_json(r)
    _emit(args, {"r": rc, "r_str": rs}, [f"r: {rs}"])
    return 0


def _parse_gtilde(vec: str, poly: str) -> GTildeElement:
    return GTildeElement(parse_vector(vec), parse_int_poly(poly))


def _cmd_gtilde(args) -> int:
    A = _load_matrix(args.matrix)
    a = _parse_gtilde(args.v1, args.p1)
    if args.op != "res":
        b = _parse_gtilde(args.v2, args.p2)
    if args.op == "eq":
        equal = gtilde_eq(a, b, A)
        _emit(args, {"equal": equal}, ["equal" if equal else "not equal"])
        return 0
    if args.op == "add":
        c = gtilde_add(a, b, A)
        pc, ps = _poly_json(c.p)
        _emit(args, {"v": list(c.v), "p": pc, "p_str": ps},
              [f"v: {format_vector(c.v)}", f"p: {ps}"])
        return 0
    res, out = gtilde_residual(a, args.bit, A)
    pc, ps = _poly_json(res.p)
    _emit(args, {"v": list(res.v), "p": pc, "p_str": ps, "output": out},
          [f"v: {format_vector(res.v)}", f"p: {ps}", f"out: {out}"])
    return 0


def _cmd_scc(args) -> int:
    A = _load_matrix(args.matrix)
    report = check_scc_instance(A, bound=args.bound)
    dec = report.decomposition
    wc, ws = _poly_json(report.witness)
    if args.json:
        print(json.dumps({
            "chi": [str(c) for c in report.chi.coeffs],
            "chi_star": list(report.chi_star.coeffs),
            "states": len(report.states),
            "components": [{"vectors": [list(v) for v in comp], "cyclic": cyclic}
                           for comp, cyclic in zip(dec.components, dec.cyclic)],
            "nontrivial_components": list(report.nontrivial_components),
            "single_nontrivial": report.single_nontrivial,
            "witness": wc,
            "witness_str": ws,
        }))
        return 0
    print(f"chi: {report.chi}")
    print(f"chi*: {report.chi_star}")
    print(f"states: {len(report.states)}")
    print(f"components: {len(dec.components)}")
    for i, (comp, cyclic) in enumerate(zip(dec.components, dec.cyclic)):
        sys.stdout.write(f"  [{i}]{' cyclic' if cyclic else ''}: ")
        _write_vectors(comp, A.dim, " ", "\n")
    print("single nontrivial component: " + ("yes" if report.single_nontrivial else "no"))
    print(f"witness: {ws if ws is not None else 'none'}")
    return 0


def _cmd_pathpoly(args) -> int:
    word = _word(args.word)
    p = path_polynomial(word)
    pc, ps = _poly_json(p)
    _emit(args, {"word": word, "poly": pc, "poly_str": ps},
          [f"{ps}", " ".join(str(c) for c in p.coeffs)])
    return 0


def _cmd_witness(args) -> int:
    star = parse_int_poly(args.chistar)
    w = witness_search(star, max_degree=args.degree)
    wc, ws = _poly_json(w)
    _emit(args, {"modulus": list(star.coeffs), "degree": args.degree,
                 "witness": wc, "witness_str": ws},
          [ws if ws is not None else "none"])
    return 0


def _cmd_infer(args) -> int:
    aut = _load_aut(args.aut)
    result = infer_matrix(aut, bound=args.bound)
    if result is None:
        _emit(args, {"found": False, "chi": None, "matrix": None, "location": None},
              ["no matrix found"])
        return 1
    payload = {
        "found": True,
        "chi": [str(c) for c in result.chi.coeffs],
        "matrix": [[str(x) for x in row] for row in result.matrix.rows],
        "location": _location_json(result.location),
    }
    lines = [f"chi: {result.chi}", *serialize_matrix(result.matrix).splitlines(),
             *result.location.serialize().splitlines()]
    _emit(args, payload, lines)
    return 0


# -- parser ----------------------------------------------------------------------


def _add_json(p):
    p.add_argument("--json", action="store_true", help="emit one JSON object")


def _at_least(low: int):
    """argparse type: an int >= low; anything else is a usage error (exit 2)."""
    def parse(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n
    parse.__name__ = "int"  # argparse's message for a non-int: "invalid int value: 'x'"
    return parse


def _add_bound(p):
    p.add_argument("--bound", type=_at_least(1), default=DEFAULT_BOUND,
                   help=f"exploration bound (default {DEFAULT_BOUND})")


def _transduce_args(p):
    p.add_argument("aut", help="AUT file")
    p.add_argument("state", help="state label; one that begins with - goes after --")
    p.add_argument("word", help="binary word, or - for the empty word")
    _add_json(p)


def _check_args(p):
    p.add_argument("aut")
    _add_bound(p)
    _add_json(p)


def _gamma_args(p):
    p.add_argument("aut")
    _add_json(p)


def _principal_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--aut", help="derive from a machine in an AUT file")
    src.add_argument("--chi", help="derive from a characteristic polynomial "
                                   "(space separated, constant first)")
    p.add_argument("-o", "--output", help="write the AUT text to a file")
    _add_bound(p)
    _add_json(p)


def _orbit_args(p):
    p.add_argument("matrix", help="MATRIX file")
    p.add_argument("--e", required=True, help="translation vector, e.g. '(3,2)'")
    p.add_argument("--start", help="start vector (default: e)")
    _add_bound(p)
    _add_json(p)


def _locate_args(p):
    p.add_argument("aut")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", help="write the location map to a file")
    _add_bound(p)
    _add_json(p)


def _verify_args(p):
    p.add_argument("aut")
    p.add_argument("matrix")
    p.add_argument("--map", help="location map file (default: locate first)")
    p.add_argument("--maxlen", type=_at_least(1), default=10,
                   help="exhaustive word length bound (default 10)")
    _add_bound(p)
    _add_json(p)


def _embed_args(p):
    p.add_argument("matrix")
    p.add_argument("p", help="polynomial, e.g. '3 + 2x' or '3 2'")
    p.add_argument("q")
    _add_json(p)


def _gtilde_args(p):
    ops = p.add_subparsers(dest="op", required=True)
    for op in ("eq", "add", "res"):
        q = ops.add_parser(op)
        q.add_argument("matrix")
        q.add_argument("v1")
        q.add_argument("p1")
        if op == "res":
            q.add_argument("bit", type=int, choices=(0, 1))
        else:
            q.add_argument("v2")
            q.add_argument("p2")
        _add_json(q)


def _scc_args(p):
    p.add_argument("matrix")
    _add_bound(p)
    _add_json(p)


def _pathpoly_args(p):
    p.add_argument("word", help="word over 0, 1, n; - for the empty word")
    _add_json(p)


def _witness_args(p):
    p.add_argument("chistar", help="modulus polynomial, constant first")
    p.add_argument("--degree", type=_at_least(0), default=12)
    _add_json(p)


def _infer_args(p):
    p.add_argument("aut")
    _add_bound(p)
    _add_json(p)


# name -> (help, argument adder, handler), in the order `--help` lists them
_COMMANDS = {
    "transduce": ("run a word through a machine state", _transduce_args, _cmd_transduce),
    "check": ("classify a machine by the abelian criterion", _check_args, _cmd_check),
    "gamma": ("print the residual difference of the least odd state",
              _gamma_args, _cmd_gamma),
    "principal": ("build the principal machine", _principal_args, _cmd_principal),
    "orbit": ("list vectors reachable in a complete automaton", _orbit_args, _cmd_orbit),
    "locate": ("embed a machine into a complete automaton", _locate_args, _cmd_locate),
    "verify": ("recheck a location word by word", _verify_args, _cmd_verify),
    "embed": ("solve r*p = q modulo chi*", _embed_args, _cmd_embed),
    "gtilde": ("arithmetic on fraction elements (v, p)", _gtilde_args, _cmd_gtilde),
    "scc": ("probe the orbit of the unit vector and its negation", _scc_args, _cmd_scc),
    "pathpoly": ("path polynomial of a word over 0/1/n", _pathpoly_args, _cmd_pathpoly),
    "witness": ("search for a monic {-1,0,1} witness = -1 mod chi*",
                _witness_args, _cmd_witness),
    "infer": ("construct the matrix that fits a machine", _infer_args, _cmd_infer),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.

    Every subcommand is registered with its help text, so the top-level
    usage, `--help` and choice errors never depend on `command`.  Arguments
    and the handler are added to every subcommand when `command` is None,
    and otherwise to `command` alone: parse_args on an argv that names it
    then reads exactly what the full parser reads.
    """
    parser = argparse.ArgumentParser(
        prog="abmealy",
        description="Analyze abelian binary Mealy automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or command == name:
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so the first
    # token naming a subcommand is the one it dispatches on.
    command = next((a for a in argv if a in _COMMANDS), "")
    args = build_parser(command).parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at interpreter exit
        return status
    except BrokenPipeError:  # the reader left: exit quietly, the unflushed rest to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (AbmealyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
