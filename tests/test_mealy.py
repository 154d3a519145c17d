"""Machines, the AUT format, and simulation."""

import random
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abmealy import (
    AutomatonError,
    FormatError,
    MealyAutomaton,
    NotInvertibleError,
    Parity,
    UnknownStateError,
    find_isomorphism,
    parse_automaton,
)

from abmealy import AbmealyError, orbit_automaton, unit_vector
from conftest import (
    A32_TEXT,
    CORPUS_TO_1179,
    FLIP_TEXT,
    IDENTITY_TEXT,
    LAMPLIGHTER_TEXT,
    PRINCIPAL_FIGURE_TEXT,
    SINK_TEXT,
    XYZ_TEXT,
    DictMachine,
    random_table,
    reference_parse,
    unit_config,
)


# -- parsing -----------------------------------------------------------------


def test_parse_basic(a32):
    assert a32.name == "a32"
    assert a32.states == ("f", "f0", "f1")
    assert a32.step("f", 0) == ("f0", 1)
    assert a32.step("f", 1) == ("f1", 0)
    assert a32.step("f1", 1) == ("f0", 1)


def test_parse_copy_expands(identity_machine):
    assert identity_machine.step("I", 0) == ("I", 0)
    assert identity_machine.step("I", 1) == ("I", 1)


def test_parse_comments_and_blanks():
    text = """
    # leading comment
    aut m   # trailing comment
    states a

    trans a 0 1 a
    trans a 1 0 a
    """
    m = parse_automaton(text)
    assert m.name == "m"
    assert m.states == ("a",)


def test_parse_errors_carry_line_numbers():
    bad = "aut m\nstates a\ntrans a 0 1 b\ntrans a 1 0 a\n"
    with pytest.raises(FormatError) as exc:
        parse_automaton(bad)
    assert "line 3" in str(exc.value)


@pytest.mark.parametrize(
    "text, needle",
    [
        ("", "empty"),
        ("states a\n", "aut"),
        ("aut m\ntrans a 0 1 a\n", "states"),
        ("aut m\nstates a a\n", "duplicate"),
        ("aut m\nstates a?\ntrans a? 0 0 a?\ntrans a? 1 1 a?", "label"),
        ("aut m\nstates a\ntrans a 0 1 a\ntrans a 0 0 a\ntrans a 1 0 a", "duplicate"),
        ("aut m\nstates a\ntrans a 2 1 a\ntrans a 1 0 a", "bit"),
        ("aut m\nstates a\ntrans a 0 1\ntrans a 1 0 a", "trans"),
        ("aut m\nstates a\ntrans a 0 1 a\n", "input 1"),
        ("aut m\nstates a\nfrobnicate a\n", "frobnicate"),
        ("aut m\nstates a b\ncopy a b\ncopy b q\n", "q"),
        ("aut my.machine\nstates a\ncopy a a\n", "line 1: bad automaton name 'my.machine'"),
    ],
)
def test_parse_rejects(text, needle):
    with pytest.raises(FormatError) as exc:
        parse_automaton(text)
    assert needle in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("aut m\nstates a\n\ntrans b 0 1 a\n", "line 4: unknown source state 'b'"),
        ("aut m\nstates a\ntrans a 0 1 a\ntrans a 1 0 c\n", "line 4: unknown target state 'c'"),
        ("aut m\nstates a b\ncopy c a\n", "line 3: unknown source state 'c'"),
        ("aut m\nstates a b\ncopy a a\ncopy a b\n",
         "line 4: duplicate transition for state 'a' on input 0"),
    ],
)
def test_parse_names_the_line_of_a_bad_transition(text, message):
    with pytest.raises(FormatError) as exc:
        parse_automaton(text)
    assert message in str(exc.value)


def test_parse_round_trips_a_large_machine():
    rng = random.Random(7)
    labels = [f"q{i}" for i in range(20000)]
    trans = {}
    for s in labels:
        flip = rng.random() < 0.5
        for bit in (0, 1):
            trans[s, bit] = (rng.choice(labels), bit ^ flip)
    m = MealyAutomaton(trans, name="big")
    text = m.serialize()
    assert parse_automaton(text) == m
    assert parse_automaton(text).serialize() == text


def parse_outcome(text):
    try:
        return parse_automaton(text)
    except FormatError as exc:
        return str(exc)


def test_whole_text_parse_agrees_with_the_line_loop():
    # serialize's form and its variants read alike with a comment on the
    # header line, which keeps every line number
    rng = random.Random(23)
    labels = [f"q{i}" for i in range(3000)]
    big = MealyAutomaton({(s, b): (rng.choice(labels), b ^ (i % 2)) for i, s in enumerate(labels)
                          for b in (0, 1)}, name="big").serialize()
    lines = big.split("\n")  # the last trans line is lines[-2], line len(lines) - 1

    def edit(k, i, token):  # big with token i of line k replaced
        parts = lines[k].split()
        parts[i] = token
        return "\n".join(lines[:k] + [" ".join(parts)] + lines[k + 1:])

    def last_line(i, token):  # big with token i of its last trans line replaced
        return edit(len(lines) - 2, i, token)

    body = lines[2:-1]
    shuffled = lines[:2] + random.Random(24).sample(body, len(body))
    texts = [A32_TEXT, big, big.rstrip("\n"), "aut m\nstates a\n",
             last_line(4, "z"), last_line(1, "q3000"), last_line(2, "0"),
             big.replace("trans q1500 0 ", "trans q1500 1 "),  # duplicate mid-table
             "\n".join(lines[:-2] + [""]),  # the last state has no transition on input 1
             big.replace("states q0 ", "states q0 q0 "),
             big.replace("states q0 ", "states q0 extra "),
             A32_TEXT.replace("trans f1 1 1 f", "trans f1 1 1 f\ntrans f1 1 1 f"),
             "\n".join(shuffled + [""]),  # every line, out of `states` order
             "\n".join(lines[:1] + ["states " + " ".join(lines[1].split()[:0:-1])] + body + [""]),
             edit(3000, 4, "q9999"),  # an unknown target mid-table
             "\n".join(lines[:3000] + lines[3001:]),  # a transition missing mid-table
             "\n".join(lines[:3001] + lines[3000:]),  # one line twice, mid-table
             "\n".join(shuffled[:-1] + shuffled[-1:] * 2 + [""])]  # out of order, and twice
    for text in texts:
        loop = text.replace("\n", " # line loop\n", 1)
        assert parse_outcome(text) == parse_outcome(loop)
    assert parse_outcome(big) == parse_outcome(big.rstrip("\n")) == MealyAutomaton.parse(
        big.replace("\n", "\n\n"))
    assert parse_outcome(texts[4]) == f"line {len(lines) - 1}: unknown target state 'z'"
    last = lines[-2].split()[1]  # the greatest label, q999
    assert parse_outcome(texts[8]) == f"state {last!r} has no transition on input 1"
    assert parse_outcome(texts[12]) == parse_outcome(texts[13]) == parse_outcome(big)
    assert parse_outcome(texts[14]) == "line 3001: unknown target state 'q9999'"
    assert parse_outcome(texts[15]).endswith("has no transition on input 0")
    assert parse_outcome(texts[16]).startswith("line 3002: duplicate transition for state ")


def _outcome(parse, text):
    try:
        return parse(text)
    except AbmealyError as exc:
        return type(exc), str(exc)


def _mutate_lines(rng, lines):
    """One random edit of an AUT text's lines."""
    lines = list(lines)
    k = rng.randrange(len(lines)) if lines else 0
    toks = lines[k].split() if lines else []
    op = rng.randrange(15)
    if op == 0:  # a comment: at the end, alone, or cutting a line short
        junk = rng.choice(["# note", "#", "#trans a 0 1 a", "  # x y"])
        if rng.random() < 0.5:
            lines.insert(k, junk.strip())
        elif lines:
            cut = rng.randrange(len(lines[k]) + 1)
            lines[k] = lines[k][:cut] + junk if rng.random() < 0.5 else lines[k] + junk
    elif op == 1:  # a blank line
        lines.insert(k, rng.choice(["", "   ", "\t", " \t "]))
    elif op == 2:  # a pair of trans lines that copy, as one copy line, or a stray copy line
        for i, line in enumerate(lines):
            parts = line.split()
            if len(parts) == 5 and parts[0] == "trans" and parts[2:4] == ["0", "0"]:
                twin = f"trans {parts[1]} 1 1 {parts[4]}"
                if twin in lines:
                    lines[i] = f"copy {parts[1]} {parts[4]}"
                    lines.remove(twin)
                    break
        else:
            labels = (lines[1].split()[1:] if len(lines) > 1 else []) + ["zz9"]
            lines.insert(k, f"copy {rng.choice(labels)} {rng.choice(labels)}")
    elif op == 3:  # the trans lines shuffled
        body = lines[2:]
        rng.shuffle(body)
        lines[2:] = body
    elif op == 4:  # one line twice
        if lines:
            lines.insert(rng.randrange(len(lines) + 1), lines[k])
    elif op == 5:  # a line deleted: a missing transition, header or states line
        if lines:
            del lines[k]
    elif op in (6, 7) and len(lines) > 1:  # the states line edited
        labels = lines[1].split()[1:]
        edit = rng.randrange(5)
        if edit == 0:
            rng.shuffle(labels)
        elif edit == 1 and labels:
            labels.insert(rng.randrange(len(labels) + 1), rng.choice(labels))
        elif edit == 2 and labels:
            labels[rng.randrange(len(labels))] += rng.choice([".", "*", "é", "#x"])
        elif edit == 3 and labels:
            del labels[rng.randrange(len(labels))]
        else:
            labels.insert(rng.randrange(len(labels) + 1), rng.choice(["extra", "a.b", "z"]))
        lines[1] = " ".join(["states"] + labels)
    elif op == 8 and len(toks) == 5:  # a bad bit
        toks[rng.choice([2, 3])] = rng.choice(["2", "01", "x", "-0", "00", "1.0"])
        lines[k] = " ".join(toks)
    elif op == 9 and lines:  # a bad header or name
        lines[0] = rng.choice(["aut my.machine", "aut a b", "aut", "aux m", "aut m#",
                               "aut _+-", "states a"])
    elif op == 10 and len(toks) >= 3:  # an unknown or badly formed label in a line
        toks[rng.choice([1, len(toks) - 1])] = rng.choice(["zz9", "a.b", "Q", "-"])
        lines[k] = " ".join(toks)
    elif op == 11 and toks:  # a token more or less
        if rng.random() < 0.5:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(["0", "1", "x"]))
        else:
            del toks[rng.randrange(len(toks))]
        lines[k] = " ".join(toks)
    elif op == 12 and toks:  # another directive
        toks[0] = rng.choice(["tran", "Trans", "states", "aut", "copy", "trans"])
        lines[k] = " ".join(toks)
    elif op == 13 and lines:  # other whitespace between and around the tokens
        sep = rng.choice(["\t", "  ", " \t", "\u00a0", "\u3000", "\x1f"])
        lines[k] = sep + sep.join(toks) + rng.choice(["", sep])
    elif op == 14:  # a line of junk
        lines.insert(k, rng.choice(["trans", "copy a", "?", "states", "aut m", "0 1"]))
    return lines


def mutate_aut(rng, text):
    """A seeded mutation of an AUT text: one to three line edits, then maybe
    another line break, no final newline, or a truncation."""
    lines = text.split("\n")[:-1]
    for _ in range(rng.randint(1, 3)):
        lines = _mutate_lines(rng, lines)
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.25:
        brk = rng.choice(["\r\n", "\r", "\x0c", "\u2028", "\x85", "\v", "\x1e"])
        text = text.replace("\n", brk) if rng.random() < 0.5 else text.replace("\n", brk, 3)
    if rng.random() < 0.2:
        text = text.rstrip("\n")
    if rng.random() < 0.1:
        text = text[:rng.randrange(len(text) + 1)]
    return text


def test_parse_agrees_with_the_reference_reader_on_mutated_texts():
    rng = random.Random(29)
    figure = [A32_TEXT, XYZ_TEXT, LAMPLIGHTER_TEXT, IDENTITY_TEXT, FLIP_TEXT, SINK_TEXT,
              PRINCIPAL_FIGURE_TEXT]
    corpus = [orbit_automaton(unit_config(g), [unit_vector(len(g))]).serialize()
              for g in CORPUS_TO_1179]
    seen, machines = set(), 0
    for i in range(6000):
        if i % 3 == 2:
            base = MealyAutomaton(random_table(rng, rng.randint(1, 8)), name="r").serialize()
        else:
            base = rng.choice(figure if i % 3 else corpus)
        text = mutate_aut(rng, base)
        got = _outcome(MealyAutomaton.parse, text)
        assert got == _outcome(reference_parse, text), text
        if isinstance(got, MealyAutomaton):
            machines += 1
        else:
            seen.add(next(f for f in FAULTS if f in got[1]))
    assert machines > 600
    assert seen == set(FAULTS)


# every fault the reader names, each by a piece of its message
FAULTS = ("empty input", "'aut <name>' header", "bad automaton name", "missing 'states'",
          "'states <label> ...' after header", "duplicate state label", "bad state label",
          "bits must be 0 or 1", "unknown directive", "unknown source", "unknown target",
          "duplicate transition", "has no transition", "'trans <src> <in> <out> <dst>'",
          "'copy <src> <dst>'")


LOOP = {("a", 0): ("a", 0), ("a", 1): ("a", 1)}


def test_constructor_validation():
    with pytest.raises(AutomatonError, match="at least one state"):
        MealyAutomaton({})
    with pytest.raises(AutomatonError, match="'a' has no transition on input 1"):
        MealyAutomaton({("a", 0): ("a", 0)})
    with pytest.raises(AutomatonError, match="'a' has no transition on input 0"):
        MealyAutomaton({("a", 1): ("a", 1)})
    with pytest.raises(AutomatonError, match="transition into unknown state 'b'"):
        MealyAutomaton({("a", 0): ("b", 0), ("a", 1): ("a", 1)}, states=["a"])
    with pytest.raises(AutomatonError, match="transition from undeclared state 'b'"):
        MealyAutomaton({**LOOP, ("b", 0): ("a", 0)}, states=["a"])
    with pytest.raises(AutomatonError, match="'b' has no transition on input 0"):
        MealyAutomaton(LOOP, states=["a", "b"])
    with pytest.raises(ValueError, match="bit must be 0 or 1, got 2"):
        MealyAutomaton({("a", 2): ("a", 0), ("a", 1): ("a", 1)})
    with pytest.raises(ValueError, match="bit must be 0 or 1, got 3"):
        MealyAutomaton({("a", 0): ("a", 3), ("a", 1): ("a", 1)})
    with pytest.raises(AutomatonError, match="duplicate state label"):
        MealyAutomaton(LOOP, states=["a", "a"])
    with pytest.raises(AutomatonError, match="bad state label 'a.b'"):
        MealyAutomaton({("a.b", 0): ("a.b", 0), ("a.b", 1): ("a.b", 1)})
    with pytest.raises(AutomatonError, match="bad automaton name 'my machine'"):
        MealyAutomaton(LOOP, name="my machine")


def test_constructor_names_a_fault_at_the_end_of_a_large_table():
    # the whole-table passes fail, and the entry-by-entry checks name the fault
    big = {(f"q{i}", b): (f"q{(i + 1) % 20000}", b) for i in range(20000) for b in (0, 1)}
    states = sorted({s for s, _ in big})
    cases = [
        ({**big, ("z", 0): ("z", 0)}, {},
         AutomatonError, "state 'z' has no transition on input 1"),
        ({**big, ("z", 1): ("z", 1)}, {},
         AutomatonError, "state 'z' has no transition on input 0"),
        ({**big, ("z", 0): ("z", 0), ("z", 1): ("y", 1)}, {"states": states + ["z"]},
         AutomatonError, "transition into unknown state 'y'"),
        ({**big, ("z", 0): ("q0", 0)}, {"states": states},
         AutomatonError, "transition from undeclared state 'z'"),
        (big, {"states": states + ["z"]},
         AutomatonError, "state 'z' has no transition on input 0"),
        ({**big, ("z", 0): ("z", 0), ("z", 2): ("z", 1)}, {},
         ValueError, "bit must be 0 or 1, got 2"),
        ({**big, ("z", 0): ("z", 0), ("z", 1): ("z", 3)}, {},
         ValueError, "bit must be 0 or 1, got 3"),
        ({**big, ("z", 0): ("z", 0), ("z", 1): ("z", "1")}, {},
         ValueError, "bit must be 0 or 1, got '1'"),
        ({**big, ("z", 0): ("z", 0), ("z", 1): ("z",)}, {},
         ValueError, "not enough values to unpack (expected 2, got 1)"),
        ({**big, ("z", 0, 1): ("z", 0)}, {},
         ValueError, "too many values to unpack (expected 2)"),
        (big, {"states": states + ["q0"]}, AutomatonError, "duplicate state label"),
        ({**big, ("z.", 0): ("z.", 0), ("z.", 1): ("z.", 1)}, {},
         AutomatonError, "bad state label 'z.'"),
        # the labels are checked joined by "\n", which this one holds
        ({**big, ("z\nq", 0): ("z\nq", 0), ("z\nq", 1): ("z\nq", 1)}, {},
         AutomatonError, "bad state label 'z\\nq'"),
        # and the empty label sorts first, so the joined text starts "\n"
        ({**big, ("", 0): ("", 0), ("", 1): ("", 1)}, {}, AutomatonError, "bad state label ''"),
        (big, {"states": [*states, ""]}, AutomatonError, "bad state label ''"),
        (big, {"name": "my machine"}, AutomatonError, "bad automaton name 'my machine'"),
        # two faults: the bits are checked before any label, as in a small table
        ({("a.b", 0): ("a.b", 0), ("a.b", 1): ("a.b", 1), **big, ("z", 2): ("z", 1)}, {},
         ValueError, "bit must be 0 or 1, got 2"),
    ]
    for table, kwargs, error, message in cases:
        with pytest.raises(error) as exc:
            MealyAutomaton(table, **kwargs)
        assert str(exc.value) == message


def test_constructor_reports_the_first_fault():
    # states are checked in sorted order before any transition, and
    # transitions in table order; the name comes last
    with pytest.raises(AutomatonError, match="bad state label 'a.b'"):
        MealyAutomaton({("a.b", 0): ("a.b", 0), ("b", 0): ("b", 0)}, name="x y")
    with pytest.raises(AutomatonError, match="'b' has no transition on input 1"):
        MealyAutomaton({**LOOP, ("b", 0): ("c", 0), ("b.", 0): ("a", 0)})
    with pytest.raises(AutomatonError, match="into unknown state 'c'"):
        MealyAutomaton({("a", 0): ("c", 0), ("a", 1): ("a", 1), ("d", 0): ("a", 0)},
                       states=["a"])
    with pytest.raises(AutomatonError, match="from undeclared state 'd'"):
        MealyAutomaton({("d", 0): ("a", 0), ("a", 0): ("c", 0), ("a", 1): ("a", 1)},
                       states=["a"])
    with pytest.raises(AutomatonError, match="bad automaton name"):
        MealyAutomaton(LOOP, name="")


def test_constructor_normalizes_the_table():
    aut = MealyAutomaton([(("a", 0), ["a", 1]), (("a", 1), ["a", 0])], states=("a",))
    assert aut.step("a", 0) == ("a", 1) and type(aut.step("a", 0)) is tuple
    assert aut == MealyAutomaton({("a", 0): ("a", 1), ("a", 1): ("a", 0)})
    # bits equal to 0 or 1 are stored as those ints
    odd = MealyAutomaton({("a", 0): ("a", True), ("a", 1.0): ("a", False)})
    assert all(type(b) is int for (_, a), (_, out) in odd.transitions.items() for b in (a, out))
    assert repr(odd.step("a", 1)) == "('a', 0)"
    assert odd.serialize() == "aut machine\nstates a\ntrans a 0 1 a\ntrans a 1 0 a\n"
    assert parse_automaton(odd.serialize()) == odd


def test_serialize_roundtrip_and_canonical_form(a32):
    text = a32.serialize()
    assert parse_automaton(text) == a32
    assert text.splitlines()[0] == "aut a32"
    assert text.splitlines()[1] == "states f f0 f1"
    # serialization always writes explicit trans lines, two per state
    assert text.count("trans ") == 6
    assert "copy" not in text


def test_serialize_expands_copy(identity_machine):
    text = identity_machine.serialize()
    assert "copy" not in text
    assert "trans I 0 0 I" in text
    assert "trans I 1 1 I" in text
    assert parse_automaton(text) == identity_machine


def test_equality_includes_name(a32):
    other = parse_automaton(A32_TEXT.replace("aut a32", "aut other"))
    assert other != a32
    same = parse_automaton(A32_TEXT)
    assert same == a32
    assert hash(same) == hash(a32)


def test_equal_machines_hash_equal_whatever_the_table_order():
    # the hash lists each state's two transitions in `states` order
    table = {(f"q{i}", b): (f"q{(3 * i + b) % 50}", (i + b) % 2)
             for i in range(50) for b in (0, 1)}
    machine = MealyAutomaton(table, name="m")
    shuffled = list(table.items())
    random.Random(5).shuffle(shuffled)
    for other in (MealyAutomaton(dict(shuffled), name="m"),
                  MealyAutomaton(dict(reversed(shuffled)), name="m",
                                 states=reversed(machine.states)),
                  parse_automaton(machine.serialize())):
        assert other == machine and hash(other) == hash(machine)


def test_index_table_agrees_with_the_dict_model():
    # random tables of 1-9 states against the plain dict model: every public
    # method, the text round trip, equality and the hash across build orders
    rng = random.Random(24)
    kinds = set()
    for trial in range(400):
        table = random_table(rng, rng.randint(1, 9))
        items = list(table.items())
        rng.shuffle(items)
        kwargs = {}
        if trial % 3 == 0:  # states given, in another order, as an iterator
            labels = sorted({s for s, _ in table}, key=lambda s: rng.random())
            kwargs["states"] = iter(labels)
        aut, model = MealyAutomaton(items, name="m", **kwargs), DictMachine(table, name="m")
        assert aut.states == model.states
        assert list(aut.transitions.items()) == list(model.transitions.items())
        assert all(type(b) is int for (_, a), (_, o) in aut.transitions.items() for b in (a, o))
        assert aut.transitions is not aut.transitions  # a fresh dict
        for s in aut.states:
            for b in (0, 1):
                assert aut.step(s, b) == model.step(s, b)
                assert aut.residual(s, b) == model.step(s, b)[0]
                assert aut.output(s, b) == model.step(s, b)[1]
            word = "".join(rng.choice("01") for _ in range(rng.randint(0, 12)))
            assert aut.transduce(s, word) == model.transduce(s, word)
        assert aut.is_invertible() == model.is_invertible()
        kinds.add(aut.is_invertible())
        for s in aut.states:
            if model.is_invertible():
                assert aut.state_parity(s) is model.state_parity(s)
            else:
                with pytest.raises(NotInvertibleError):
                    aut.state_parity(s)
        text = aut.serialize()
        assert text == model.serialize()
        back = parse_automaton(text)
        assert back == aut and hash(back) == hash(aut) and back.transitions == aut.transitions
        reordered = MealyAutomaton(dict(reversed(items)), name="m")
        assert reordered == aut and hash(reordered) == hash(aut)
        # a machine of another random table is equal exactly when the model is
        other_table = random_table(rng, rng.randint(1, 3))
        other = MealyAutomaton(other_table, name="m")
        assert (other == aut) == (DictMachine(other_table, name="m").value() == model.value())
        assert MealyAutomaton(items, name="n") != aut
        s = aut.states[-1]
        flipped = {**model.transitions, (s, 1): (model.step(s, 1)[0], 1 - model.step(s, 1)[1])}
        assert MealyAutomaton(flipped, name="m") != aut
    assert kinds == {True, False}


def test_index_table_check_refuses_each_fault():
    # the one check that the constructor, parse and orbit_automaton share
    states, index = ["a", "b"], {"a": 0, "b": 1}
    good = ([1, 0, 1, 1], [1, 0, 0, 1])
    aut = MealyAutomaton._indexed("m", states, index, *good)
    assert aut == MealyAutomaton({("a", 0): ("b", 1), ("a", 1): ("a", 0),
                                  ("b", 0): ("b", 0), ("b", 1): ("b", 1)}, name="m")
    refused = [(states, [1, 0, 1, 2], good[1]), (states, [1, 0, -1, 1], good[1]),
               (states, good[0], [1, 0, 2, 1]), (states, good[0], [1, 0, -1, 1]),
               (states, good[0][:3], good[1][:3]), (states, good[0], good[1] + [0]),
               (["b", "a"], *good), (["a", "a"], *good), (["", "a"], *good),
               (["a", "b\nc"], *good), (["a", "b."], *good), ([], [], [])]
    for table in refused:
        assert MealyAutomaton._indexed("m", table[0], index, *table[1:]) is None, table
    with pytest.raises(AutomatonError, match="bad automaton name 'm m'"):
        MealyAutomaton._indexed("m m", states, index, *good)


# -- simulation --------------------------------------------------------------


def test_transduce_values(a32, xyz, lamplighter):
    assert a32.transduce("f", "0110") == "1100"
    assert xyz.transduce("x", "0110") == "1100"
    assert xyz.step("x", 0) == ("z", 1)
    assert lamplighter.transduce("alpha", "00") == "10"
    assert a32.transduce("f", "") == ""


def test_transduce_rejects_bad_words(a32):
    with pytest.raises(FormatError):
        a32.transduce("f", "012")
    with pytest.raises(UnknownStateError):
        a32.transduce("nope", "0")
    with pytest.raises(UnknownStateError):
        a32.step("nope", 0)


def test_output_and_residual(a32):
    assert a32.output("f", 0) == 1
    assert a32.residual("f", 0) == "f0"


# -- invertibility and parity ---------------------------------------------------


def test_parity(a32):
    assert a32.is_invertible()
    assert a32.state_parity("f") is Parity.ODD
    assert a32.state_parity("f0") is Parity.EVEN
    assert a32.state_parity("f1") is Parity.EVEN
    with pytest.raises(UnknownStateError):
        a32.state_parity("nope")


def test_not_invertible():
    m = MealyAutomaton({("a", 0): ("a", 0), ("a", 1): ("a", 0)})
    assert not m.is_invertible()
    with pytest.raises(NotInvertibleError):
        m.state_parity("a")


# -- isomorphism -----------------------------------------------------------------


def test_find_isomorphism_relabel(a32):
    relabeled = parse_automaton(
        A32_TEXT.replace("f0", "q0").replace("f1", "q1").replace("f ", "q ")
        .replace(" f\n", " q\n")
    )
    iso = find_isomorphism(a32, relabeled)
    assert iso == {"f": "q", "f0": "q0", "f1": "q1"}


def test_find_isomorphism_none(a32, lamplighter, xyz):
    assert find_isomorphism(a32, lamplighter) is None
    assert find_isomorphism(a32, xyz) is None  # same shape, different wiring


def test_find_isomorphism_identity_map(principal_figure):
    iso = find_isomorphism(principal_figure, principal_figure)
    assert iso == {s: s for s in principal_figure.states}


def flip_loops(prefix, n):
    """n one-state components, each a loop that swaps its output."""
    return MealyAutomaton(
        {(f"{prefix}{i}", b): (f"{prefix}{i}", 1 - b) for i in range(n) for b in (0, 1)},
        name=prefix,
    )


def test_find_isomorphism_many_components():
    a, b = flip_loops("a", 1500), flip_loops("b", 1500)
    assert find_isomorphism(a, b) == dict(zip(a.states, b.states))
    assert find_isomorphism(a, flip_loops("b", 1499)) is None


def test_find_isomorphism_is_linear_in_the_components():
    def seconds(n):
        a, b = flip_loops("a", n), flip_loops("b", n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert find_isomorphism(a, b) is not None
            best = min(best, time.perf_counter() - t0)
        return best

    # scanning b from its first state for each component makes this about 100
    assert seconds(20_000) / seconds(2_000) < 30


def brute_force_isomorphism(a, b):
    for image in permutations(b.states):
        fwd = dict(zip(a.states, image))
        if all(b.step(fwd[s], bit) == (fwd[d], o)
               for (s, bit), (d, o) in a.transitions.items()):
            return fwd
    return None


def random_small_machine(rng, n, prefix):
    labels = [f"{prefix}{i}" for i in range(n)]
    return MealyAutomaton(
        {(s, b): (rng.choice(labels), rng.randint(0, 1)) for s in labels for b in (0, 1)},
        name=prefix,
    )


def test_find_isomorphism_matches_brute_force():
    rng = random.Random(3)
    found = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        a = random_small_machine(rng, n, "a")
        if rng.random() < 0.5:
            relabel = dict(zip(a.states, rng.sample([f"b{i}" for i in range(n)], n)))
            b = MealyAutomaton({(relabel[s], bit): (relabel[d], o)
                                for (s, bit), (d, o) in a.transitions.items()}, name="b")
        else:
            b = random_small_machine(rng, n, "b")
        iso = find_isomorphism(a, b)
        assert (iso is None) == (brute_force_isomorphism(a, b) is None)
        if iso is not None:
            found += 1
            assert sorted(iso.values()) == list(b.states)
            for (s, bit), (d, o) in a.transitions.items():
                assert b.step(iso[s], bit) == (iso[d], o)
    assert found >= 150


# -- property tests ----------------------------------------------------------------


@st.composite
def machines(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    labels = [f"s{i}" for i in range(n)]
    transitions = {}
    for s in labels:
        for bit in (0, 1):
            dst = draw(st.sampled_from(labels))
            out = draw(st.integers(min_value=0, max_value=1))
            transitions[(s, bit)] = (dst, out)
    return MealyAutomaton(transitions, name="rand")


@given(machines())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_roundtrip(m):
    assert parse_automaton(m.serialize()) == m


@given(machines(), st.text(alphabet="01", max_size=24))
@settings(max_examples=60, deadline=None)
def test_transduction_is_length_preserving_and_causal(m, word):
    s = m.states[0]
    out = m.transduce(s, word)
    assert len(out) == len(word)
    # prefix property: the output of a prefix is the prefix of the output
    for k in range(len(word)):
        assert m.transduce(s, word[:k]) == out[:k]
