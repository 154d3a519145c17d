"""Formal sums of states, residuation, abelianness, principal machines.

The load-bearing oracle here is *behavioral*: a formal sum is evaluated as a
composite of forward and inverse transductions, with no reference to the
residuation fold, and the fold must agree with it word for word.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from abmealy import (
    AbelianReport,
    AbelianVerdict,
    BoundExceededError,
    CompleteConfig,
    GroupElement,
    MealyAutomaton,
    NoOddStateError,
    NotAbelianError,
    NotInvertibleError,
    Parity,
    RationalPolynomial,
    UnknownStateError,
    Verdict,
    build_principal,
    check_abelian,
    classify,
    companion_from_chi,
    element_parity,
    format_combination,
    gamma_of,
    identity_test,
    infer_matrix,
    locate,
    orbit_automaton,
    principal_class_elements,
    residuate_element,
    unit_vector,
)
from abmealy import group
from abmealy.complete import _constructs
from abmealy.group import (
    DEFAULT_BOUND,
    _fold,
    _identity_test_coeffs,
    _principal_classes,
    _principal_nodes,
    _table,
)
from abmealy.mealy import _moore_classes

from conftest import (
    expand_terms,
    fold_terms,
    oracle_check_abelian,
    oracle_equal_pairs,
    oracle_gen_table,
    oracle_identity_test,
    oracle_is_boolean,
    oracle_parity,
    oracle_principal_gens,
    oracle_residuate,
    random_machine,
    random_table,
    union_machine,
)


# -- behavioral oracle ---------------------------------------------------------


def invert_transduce(aut, state, word):
    """Decode: the unique input word that the state maps to `word`."""
    out = []
    for ch in word:
        want = int(ch)
        for b in (0, 1):
            nxt, o = aut.step(state, b)
            if o == want:
                out.append(str(b))
                state = nxt
                break
        else:
            raise AssertionError("machine is not invertible")
    return "".join(out)


def eval_element(aut, coeffs, word):
    """Apply the formal sum as a composite function, term by term."""
    for state, count in sorted(coeffs.items()):
        for _ in range(abs(count)):
            if count > 0:
                word = aut.transduce(state, word)
            else:
                word = invert_transduce(aut, state, word)
    return word


def assert_behaves_like_fold(aut, coeffs, depth=6):
    """The fold's residual tree must reproduce the composite's outputs."""
    elem = GroupElement.of(aut, coeffs)
    stack = [(elem, "")]
    while stack:
        e, path = stack.pop()
        if len(path) == depth:
            continue
        for bit in (0, 1):
            word = path + str(bit)
            want = eval_element(aut, coeffs, word)
            # output bit of the residual at `path` on input `bit`
            flips = e.parity() is Parity.ODD
            got_bit = (bit ^ 1) if flips else bit
            assert want[len(path)] == str(got_bit), (coeffs, word)
            stack.append((e.residual(bit), word))


def test_fold_matches_composite_on_units(a32):
    for s in a32.states:
        assert_behaves_like_fold(a32, {s: 1})
        assert_behaves_like_fold(a32, {s: -1})


def test_fold_matches_composite_on_random_sums(a32):
    rng = random.Random(20260815)
    for _ in range(25):
        coeffs = {
            s: rng.randint(-2, 2) for s in a32.states if rng.random() < 0.8
        }
        coeffs = {s: c for s, c in coeffs.items() if c}
        assert_behaves_like_fold(a32, coeffs, depth=5)


# -- element arithmetic -----------------------------------------------------------


def test_group_element_ops(a32):
    f = GroupElement.unit(a32, "f")
    f0 = GroupElement.unit(a32, "f0")
    assert (f + f0 - f0) == f
    assert (-(-f)) == f
    assert (2 * f).coeffs == {"f": 2}
    assert (f - f) == GroupElement.identity(a32)
    assert element_parity(f) is Parity.ODD
    assert element_parity(f0) is Parity.EVEN
    assert element_parity(f + f) is Parity.EVEN
    assert element_parity(f + f0) is Parity.ODD


def test_equal_elements_hash_equal(a32):
    f, f0 = GroupElement.unit(a32, "f"), GroupElement.unit(a32, "f0")
    assert hash(f + f0) == hash(f0 + f)
    assert {f + f0, f0 + f, f - f, GroupElement.identity(a32)} == {
        f + f0, GroupElement.identity(a32)}


def test_group_operations_need_an_invertible_machine(sink):
    b = GroupElement.unit(sink, "b")
    for call in (lambda: check_abelian(sink), lambda: gamma_of(sink),
                 lambda: residuate_element(b, 0), lambda: element_parity(b),
                 lambda: identity_test(b)):
        with pytest.raises(NotInvertibleError, match=r"^automaton 'sink' is not invertible$"):
            call()


def test_elements_keep_their_key(a32):
    e = GroupElement.unit(a32, "f") - GroupElement.unit(a32, "f1")
    child = residuate_element(e, 1)
    table = group._table(a32)
    assert e._key == table.key(e.coeffs)
    assert child._key == table.key(child.coeffs)


def test_residual_worked_values(a32):
    f = GroupElement.unit(a32, "f")
    f0 = GroupElement.unit(a32, "f0")
    f1 = GroupElement.unit(a32, "f1")
    # residuals of a difference of a machine function with itself
    assert (f - f).residual(0) == GroupElement.identity(a32)
    d0 = residuate_element(f - f1, 0)
    assert d0 == GroupElement.identity(a32)
    d1 = (f - f1).residual(1)
    assert d1 == f1 - f0
    # negation swaps the two residuals
    assert (-f).residual(0) == -(f.residual(1))
    assert (-f).residual(1) == -(f.residual(0))


def test_format_combination():
    assert format_combination({}) == "I"
    assert format_combination({"f1": 1, "f0": -1}) == "f1 - f0"
    assert format_combination({"f1": 1, "f0": -1}, compact=True) == "f1-f0"
    assert format_combination({"f": 2}) == "2f"
    assert format_combination({"f": 1, "f0": -2, "f1": 1}) == "f + f1 - 2f0"
    assert format_combination({"f": -1}) == "-f"


def test_unknown_state_rejected(a32):
    with pytest.raises(UnknownStateError):
        GroupElement.unit(a32, "zzz")
    with pytest.raises(UnknownStateError):
        GroupElement.of(a32, {"f": 1, "nope": 2})


# -- fold order independence -----------------------------------------------------


def test_fold_order_independent_up_to_function(principal_figure):
    # Two odd terms: folding them in opposite orders yields formally
    # different coefficient maps that must still be equal as functions.
    gens = oracle_gen_table(principal_figure)
    coeffs = {"f-f0": 1, "f-f1": 1}
    terms = list(expand_terms(coeffs))
    saw_formal_difference = False
    for bit in (0, 1):
        lex = fold_terms(gens, terms, bit)
        rev = fold_terms(gens, list(reversed(terms)), bit)
        saw_formal_difference |= lex != rev
        diff = {s: lex.get(s, 0) - rev.get(s, 0) for s in set(lex) | set(rev)}
        diff = {s: c for s, c in diff.items() if c}
        res = identity_test(GroupElement.of(principal_figure, diff))
        assert res.verdict is Verdict.IS_IDENTITY
    assert saw_formal_difference


# -- identity testing ----------------------------------------------------------------


def test_identity_test_worked_values(a32):
    f = GroupElement.unit(a32, "f")
    f0 = GroupElement.unit(a32, "f0")
    f1 = GroupElement.unit(a32, "f1")
    kernel = 2 * f + 2 * f0 + f1
    assert identity_test(kernel).verdict is Verdict.IS_IDENTITY
    res = identity_test(2 * f0)
    assert res.verdict is Verdict.NOT_IDENTITY
    assert res.witness_path == "000"
    assert identity_test(2 * f0, bound=2).verdict is Verdict.UNKNOWN
    assert identity_test(GroupElement.identity(a32)).verdict is Verdict.IS_IDENTITY
    assert bool(identity_test(kernel)) is True
    assert bool(res) is False


def test_identity_test_witness_is_behavioral(a32):
    # the witness path leads to an odd residual: the next output bit flips
    res = identity_test(2 * GroupElement.unit(a32, "f0"))
    path = res.witness_path
    out = eval_element(a32, {"f0": 2}, path + "0")
    assert out[len(path)] == "1"


def test_identity_test_random_agrees_with_composite(a32):
    rng = random.Random(99)
    for _ in range(40):
        coeffs = {s: rng.randint(-2, 2) for s in a32.states}
        coeffs = {s: c for s, c in coeffs.items() if c}
        res = identity_test(GroupElement.of(a32, coeffs))
        if res.verdict is Verdict.NOT_IDENTITY:
            # ancestors along the witness path are even (they copy), and the
            # residual at its end is odd (it flips): the composite must send
            # path+"0" to path+"1"
            w = res.witness_path + "0"
            assert eval_element(a32, coeffs, w) == res.witness_path + "1", coeffs
        else:
            assert res.verdict is Verdict.IS_IDENTITY
            assert all(
                eval_element(a32, coeffs, w) == w for w in _all_words(6)
            ), coeffs


def _all_words(n):
    for length in range(n + 1):
        for i in range(1 << length):
            yield format(i, f"0{length}b") if length else ""


# -- abelianness ------------------------------------------------------------------


def test_check_abelian_verdicts(a32, lamplighter, flip, identity_machine, xyz):
    rep = check_abelian(a32)
    assert rep.verdict is AbelianVerdict.ABELIAN_FREE_CANDIDATE
    assert str(rep.gamma) == "f1 - f0"
    assert rep.witness is None

    rep = check_abelian(lamplighter)
    assert rep.verdict is AbelianVerdict.NOT_ABELIAN
    assert rep.witness[0] == "beta"
    assert rep.gamma is None

    assert check_abelian(flip).verdict is AbelianVerdict.BOOLEAN_CANDIDATE
    assert check_abelian(identity_machine).verdict is AbelianVerdict.TRIVIAL_GROUP
    assert check_abelian(xyz).verdict is AbelianVerdict.BOOLEAN_CANDIDATE


def test_check_abelian_principal(principal_figure):
    rep = check_abelian(principal_figure)
    assert rep.verdict is AbelianVerdict.ABELIAN_FREE_CANDIDATE
    assert str(rep.gamma) == "f1-f - f0-f"


def test_check_abelian_union_copies_share_gamma():
    union = union_machine()
    rep = check_abelian(union)
    assert rep.verdict is AbelianVerdict.ABELIAN_FREE_CANDIDATE
    # with a tiny bound the cross-copy identity test cannot finish
    small = check_abelian(union, bound=3)
    assert small.verdict is AbelianVerdict.UNKNOWN


def test_an_unknown_classification_is_a_bound_not_a_verdict(mat_a):
    # Unknown says that a closure ran out, not that the group is not abelian:
    # locate, infer and the principal machine name the bound it passed
    union = union_machine()
    message = ("abelian check of automaton 'union' reached an identity-test closure "
               "of 4 elements, over the bound 3; raise the bound")
    for classify in (lambda: locate(union, mat_a, bound=3),
                     lambda: infer_matrix(union, bound=3),
                     lambda: build_principal(union, bound=3)):
        with pytest.raises(BoundExceededError, match=f"^{re.escape(message)}$"):
            classify()


def test_abelian_report_rejects_wrong_gamma(a32):
    gamma = gamma_of(a32)
    with pytest.raises(ValueError):
        AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE)
    with pytest.raises(ValueError):
        AbelianReport(AbelianVerdict.BOOLEAN_CANDIDATE)
    for verdict in (AbelianVerdict.NOT_ABELIAN, AbelianVerdict.UNKNOWN,
                    AbelianVerdict.TRIVIAL_GROUP):
        with pytest.raises(ValueError):
            AbelianReport(verdict, gamma=gamma)
    assert AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE, gamma=gamma).gamma == gamma
    assert AbelianReport(AbelianVerdict.UNKNOWN).gamma is None


def test_gamma_of(a32, identity_machine, lamplighter):
    assert str(gamma_of(a32)) == "f1 - f0"
    assert str(gamma_of(lamplighter)) == "alpha - beta"
    with pytest.raises(NoOddStateError):
        gamma_of(identity_machine)


def test_nonabelian_witness_is_honest(lamplighter):
    # the reported difference really is not the identity: exhibit a word
    rep = check_abelian(lamplighter)
    state = rep.witness[0]
    d1 = GroupElement.unit(lamplighter, lamplighter.residual(state, 1))
    d0 = GroupElement.unit(lamplighter, lamplighter.residual(state, 0))
    diff = (d1 - d0).coeffs
    assert any(
        eval_element(lamplighter, diff, w) != w for w in _all_words(6)
    )


def check_abelian_all_pairs(aut, bound=DEFAULT_BOUND):
    """Oracle: the criterion with one identity test per pair of odd states."""
    odd = [s for s in aut.states if aut.output(s, 0) == 1]
    if not odd:
        return AbelianReport(AbelianVerdict.TRIVIAL_GROUP)

    def diff(s):
        return (GroupElement.unit(aut, aut.residual(s, 1))
                - GroupElement.unit(aut, aut.residual(s, 0)))

    unknown = False
    for s in aut.states:
        if s not in odd:
            res = identity_test(diff(s), bound)
            if res.verdict is Verdict.NOT_IDENTITY:
                why = (f"d1({s}) - d0({s}) = {diff(s)} is not the identity "
                       f"(odd element along path {res.witness_path!r})")
                return AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=(s, why))
            unknown |= res.verdict is Verdict.UNKNOWN
    for f, g in combinations(odd, 2):
        d = diff(f) - diff(g)
        res = identity_test(d, bound)
        if res.verdict is Verdict.NOT_IDENTITY:
            why = (f"odd states {f} and {g} have different residual differences "
                   f"({d} is odd along path {res.witness_path!r})")
            return AbelianReport(AbelianVerdict.NOT_ABELIAN, witness=(f, why))
        unknown |= res.verdict is Verdict.UNKNOWN
    gamma = diff(odd[0])
    res = identity_test(gamma, bound)
    if unknown or res.verdict is Verdict.UNKNOWN:
        return AbelianReport(AbelianVerdict.UNKNOWN)
    if res.verdict is Verdict.IS_IDENTITY:
        return AbelianReport(AbelianVerdict.BOOLEAN_CANDIDATE, gamma=gamma)
    return AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE, gamma=gamma)


def test_check_abelian_matches_the_all_pairs_oracle(a32, lamplighter, principal_figure):
    rng = random.Random(5)
    machines = [a32, lamplighter, principal_figure, union_machine()]
    machines += [random_machine(rng, rng.randint(2, 7)) for _ in range(400)]
    verdicts = set()
    for aut in machines:
        rep = check_abelian(aut)
        assert rep == check_abelian_all_pairs(aut), aut.serialize()
        verdicts.add(rep.verdict)
    assert len(verdicts) == 4  # every verdict but Unknown occurs


def test_check_abelian_runs_one_identity_test_per_state(monkeypatch):
    """Each even state and each odd state but the least: n - 1 tests, not the
    n(n - 1)/2 of comparing every pair of odd states, and none on gamma."""
    machine = unit_orbit_machine((1, -2, 3, -3))  # the 61-state corpus machine
    tested = []
    real = group._identity_test_coeffs
    monkeypatch.setattr(group, "_identity_test_coeffs",
                        lambda table, key, bound: tested.append(key) or real(table, key, bound))
    rep = check_abelian(machine)
    assert rep.verdict is AbelianVerdict.ABELIAN_FREE_CANDIDATE
    assert str(rep.gamma) == "-1_0_-1_0 - -4_3_-3_1"
    assert len(machine.states) == 61 and len(tested) == 60


# -- the compiled fold against the unit-term fold --------------------------------


def random_coeffs(rng, labels, top):
    coeffs = {s: rng.randint(-top, top) for s in labels if rng.random() < 0.7}
    return {s: c for s, c in coeffs.items() if c}


def assert_fold_matches(table, gens, coeffs):
    key = table.key(coeffs)
    assert table.parity(key) == oracle_parity(gens, coeffs)
    for bit in (0, 1):
        child, odd = _fold(table, key, bit)
        want = oracle_residuate(gens, coeffs, bit)
        assert table.coeffs(child) == want, (coeffs, bit)
        assert child == table.key(want)
        assert odd == oracle_parity(gens, want)


def test_compiled_fold_matches_the_unit_term_fold():
    rng = random.Random(11)
    runs = set()
    for _ in range(300):
        aut = random_machine(rng, rng.randint(2, 9))
        table, gens = _table(aut), oracle_gen_table(aut)
        for _ in range(5):
            coeffs = random_coeffs(rng, aut.states, 6)
            runs.update(abs(c) for s, c in coeffs.items() if gens[s].odd)
            assert_fold_matches(table, gens, coeffs)
    assert set(range(1, 7)) <= runs  # odd runs of every length up to 6


@pytest.mark.parametrize("g", [(1, 2), (1, -2), (1, 1, 1, 1)])
def test_compiled_fold_matches_on_the_principal_table(a32, g):
    rng = random.Random(12)
    for aut in (a32, union_machine(), unit_orbit_machine(g)):
        table, delta, keys, _, _ = _principal_nodes(aut, DEFAULT_BOUND)
        label, gens = oracle_principal_gens(aut, check_abelian(aut).gamma.coeffs)
        assert table.labels == tuple(sorted(gens)) and table.labels[delta] == label
        for key in keys:
            assert_fold_matches(table, gens, table.coeffs(key))
        for _ in range(60):
            coeffs = random_coeffs(rng, table.labels, 6)
            coeffs[label] = rng.choice((-3, -2, -1, 1, 2, 3))
            assert_fold_matches(table, gens, coeffs)


def test_compiled_identity_test_matches_the_oracle():
    rng = random.Random(13)
    verdicts = set()
    for _ in range(150):
        aut = random_machine(rng, rng.randint(2, 7))
        table, gens = _table(aut), oracle_gen_table(aut)
        for bound in (3, 50):
            coeffs = random_coeffs(rng, aut.states, 3)
            res = _identity_test_coeffs(table, table.key(coeffs), bound)
            assert res == oracle_identity_test(gens, coeffs, bound), coeffs
            verdicts.add(res.verdict)
    assert verdicts == set(Verdict)


def test_check_abelian_matches_the_unit_term_oracle():
    """Equal wherever the oracle decides; where its closures run out, the
    refinement decides BooleanCandidate exactly on the machines whose states'
    two successors the pair search finds equal, and the rest stay Unknown."""
    rng = random.Random(14)
    machines = [random_machine(rng, rng.randint(2, 9)) for _ in range(400)]
    verdicts = set()
    for aut in machines:
        for bound in (DEFAULT_BOUND, 3):
            rep = check_abelian(aut, bound)
            want = oracle_check_abelian(aut, bound)
            if want.verdict is AbelianVerdict.UNKNOWN and oracle_is_boolean(aut):
                want = AbelianReport(AbelianVerdict.BOOLEAN_CANDIDATE, gamma=gamma_of(aut))
            assert (rep.verdict, rep.gamma, rep.witness) == (
                want.verdict, want.gamma, want.witness), aut.serialize()
            assert str(rep.gamma) == str(want.gamma)
            verdicts.add(rep.verdict)
    assert verdicts == set(AbelianVerdict)


def test_decide_checks_the_bound_before_any_exit(identity_machine, xyz, a32):
    # the trivial and the Boolean exit need no closure, yet a bound below 1
    # is refused there as everywhere else
    for aut, verdict in ((identity_machine, AbelianVerdict.TRIVIAL_GROUP),
                         (xyz, AbelianVerdict.BOOLEAN_CANDIDATE),
                         (a32, AbelianVerdict.ABELIAN_FREE_CANDIDATE)):
        for decide in (check_abelian, lambda aut, bound: classify(aut, bound=bound)):
            assert decide(aut, 1).verdict is verdict
            for bound in (0, -1):
                with pytest.raises(ValueError, match="^bound must be positive$"):
                    decide(aut, bound)


def test_decisions_match_the_oracle_and_the_pair_search_at_every_bound(monkeypatch):
    """check_abelian and classify on random machines at bounds from 1 up.
    Where the unit-term oracle decides, both give its verdict, gamma and
    witness.  Where its closures run out, both give BooleanCandidate exactly
    when the pair search finds every state's two successors equal; otherwise
    check_abelian stays Unknown, and classify is AbelianFreeCandidate exactly
    where a chi is constructed.  A Boolean machine runs no identity test, and
    no machine tests gamma: at most one test per state but the least odd one."""
    tested = []
    real = group._identity_test_coeffs
    monkeypatch.setattr(group, "_identity_test_coeffs",
                        lambda table, key, bound: tested.append(key) or real(table, key, bound))
    rng = random.Random(28)
    kinds = Counter()
    for _ in range(3000):
        aut = random_machine(rng, rng.randint(2, 9))
        boolean = oracle_is_boolean(aut)
        for bound in (1, 3, 20, DEFAULT_BOUND):
            want = oracle_check_abelian(aut, bound)
            decided = want.verdict is not AbelianVerdict.UNKNOWN
            for name, decide in (("check_abelian", check_abelian),
                                 ("classify", lambda aut, bound: classify(aut, bound=bound))):
                tested.clear()
                rep = decide(aut, bound)
                if decided:
                    assert (rep.verdict, rep.gamma, rep.witness) == (
                        want.verdict, want.gamma, want.witness), aut.serialize()
                elif boolean:
                    assert rep == AbelianReport(AbelianVerdict.BOOLEAN_CANDIDATE,
                                                gamma=gamma_of(aut)), aut.serialize()
                elif name == "classify" and _constructs(aut):
                    assert rep == AbelianReport(AbelianVerdict.ABELIAN_FREE_CANDIDATE,
                                                gamma=gamma_of(aut)), aut.serialize()
                else:
                    assert rep.verdict is AbelianVerdict.UNKNOWN, aut.serialize()
                assert (rep.verdict is AbelianVerdict.BOOLEAN_CANDIDATE) == (
                    boolean and any(aut.output(s, 0) for s in aut.states))
                assert len(tested) < len(aut.states) and not (boolean and tested)
                kinds[name, "decided" if decided else str(rep.verdict)] += 1
    assert min(kinds[name, k] for name in ("check_abelian", "classify")
               for k in ("decided", "BooleanCandidate", "Unknown")) > 5, kinds
    assert kinds["classify", "AbelianFreeCandidate"] > 5, kinds

# -- principal machines ----------------------------------------------------------------


def test_build_principal_matches_figure(a32, principal_figure):
    p = build_principal(a32)
    assert p.states == principal_figure.states
    assert p.transitions == principal_figure.transitions
    assert p.name == "principal_a32"


def test_principal_classes_closed_under_negation(a32):
    reps = principal_class_elements(a32)
    assert list(reps) == ["I", "f0-f", "f1-f", "f-f0", "f-f1", "f1-f0", "f0-f1"]
    elems = {lbl: GroupElement.of(a32, c) for lbl, c in reps.items()}
    for label, rep in elems.items():
        matches = [
            other
            for other, cand in elems.items()
            if identity_test(cand + rep).verdict is Verdict.IS_IDENTITY
        ]
        assert len(matches) == 1, label
    pairs = {"f-f0": "f0-f", "f-f1": "f1-f", "f0-f1": "f1-f0", "I": "I"}
    for a, b in pairs.items():
        assert identity_test(elems[a] + elems[b]).verdict is Verdict.IS_IDENTITY


def test_principal_states_behave_like_their_labels(a32):
    """Each principal state must transduce exactly like the difference that
    names it, checked through composite evaluation on the base machine."""
    p = build_principal(a32)
    for label, rep in principal_class_elements(a32).items():
        for w in _all_words(6):
            assert p.transduce(label, w) == eval_element(a32, rep, w)


def test_build_principal_requires_abelian_free(flip, lamplighter, identity_machine):
    for m in (flip, lamplighter, identity_machine):
        with pytest.raises(NotAbelianError):
            build_principal(m)


def test_build_principal_bound(a32):
    with pytest.raises(BoundExceededError):
        build_principal(a32, bound=3)


# -- principal deduplication against pairwise identity tests --------------------


def pairwise_partition(aut):
    """Oracle: merge every same-parity pair of principal closure nodes whose
    difference the unit-term identity test proves to be the identity."""
    table, delta, nodes, _, _ = _principal_nodes(aut, DEFAULT_BOUND)
    label, gens = oracle_principal_gens(aut, check_abelian(aut).gamma.coeffs)
    assert table.labels[delta] == label
    keys = sorted(nodes)
    cls = {k: {k} for k in keys}
    memo = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if cls[a] is cls[b] or table.parity(a) != table.parity(b):
                continue
            diff = table.coeffs(a)
            for s, c in table.coeffs(b).items():
                diff[s] = diff.get(s, 0) - c
            diff = {s: c for s, c in diff.items() if c}
            dk = tuple(sorted(diff.items()))
            if dk not in memo:
                res = oracle_identity_test(gens, diff, DEFAULT_BOUND)
                assert res.verdict is not Verdict.UNKNOWN
                memo[dk] = res.verdict is Verdict.IS_IDENTITY
            if memo[dk]:
                merged = cls[a] | cls[b]
                for k in merged:
                    cls[k] = merged
    return {frozenset(c) for c in cls.values()}


def refined_partition(aut):
    _, keys, _, _, label_of, _ = _principal_classes(aut, DEFAULT_BOUND)
    classes = {}
    for i, lbl in label_of.items():
        classes.setdefault(lbl, set()).add(keys[i])
    return {frozenset(c) for c in classes.values()}


def unit_orbit_machine(g):
    """Orbit of e1 in c(A, e1), A the companion matrix of x^m + g(x)/2."""
    chi = RationalPolynomial([Fraction(c, 2) for c in g] + [Fraction(1)])
    e1 = unit_vector(len(g))
    return orbit_automaton(CompleteConfig(companion_from_chi(chi), e1), [e1])


@pytest.mark.parametrize("g", [(1, 2), (1, -2), (1, 1, 1, 1), (1, -1, 1, -1)])
def test_refinement_matches_pairwise_identity_tests_on_orbits(g):
    m = unit_orbit_machine(g)
    assert refined_partition(m) == pairwise_partition(m)


def test_refinement_matches_pairwise_identity_tests(a32, principal_figure):
    for m in (a32, principal_figure, union_machine()):
        assert refined_partition(m) == pairwise_partition(m)


# -- Moore refinement against the pair search ---------------------------------------


def equal_pairs(classes):
    return {(a, b) for a, b in combinations(range(len(classes)), 2) if classes[a] == classes[b]}


def test_moore_classes_match_the_pair_search_on_random_tables():
    """Tables of 2-9 states, some with a state whose two outputs are equal."""
    rng = random.Random(29)
    seen = Counter()
    for _ in range(2000):
        aut = MealyAutomaton(random_table(rng, rng.randint(2, 9)))
        classes = _moore_classes(aut._succ, aut._out)
        assert sorted(set(classes)) == list(range(max(classes) + 1))
        firsts = [classes.index(c) for c in range(max(classes) + 1)]
        assert firsts == sorted(firsts)  # numbered by least state
        assert equal_pairs(classes) == oracle_equal_pairs(aut._succ, aut._out), aut.serialize()
        seen["invertible" if aut.is_invertible() else "not invertible"] += 1
        seen["merged" if len(set(classes)) < len(classes) else "distinct"] += 1
    assert min(seen.values()) > 200, seen


@pytest.mark.parametrize("g", [g for gs in (((1, 1, 1, 1), (1, -1, 1, -1)),
                                            ((1, 0, -2), (-1, 0, 2)),
                                            ((1, 0, 1, -1), (1, 0, 1, 1)),
                                            ((1, 0, -1, -1), (1, 0, -1, 1)),
                                            ((-1, 0, 1, 0, 0, 0), (1, 0, 1, 0, 0, 0)))
                               for g in gs])
def test_moore_classes_match_the_pair_search_on_principal_closures(g):
    """The principal closures of the corpus machines o21-o33."""
    _, _, keys, succ, out = _principal_nodes(unit_orbit_machine(g), DEFAULT_BOUND)
    classes = _moore_classes(succ, out)
    assert len(set(classes)) < len(keys)
    assert equal_pairs(classes) == oracle_equal_pairs(succ, out)
