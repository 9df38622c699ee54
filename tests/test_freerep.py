import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from quatlie import freerep
from quatlie.errors import TruncationOverflowError
from quatlie.freerep import (
    FAMILIES,
    GENERATOR_KINDS,
    FreeWord,
    plain_images,
    rho_apply,
    verify_h_independence,
    verify_ideal_kernel,
)
from quatlie.rootsystem import cartan_matrix, custom_cartan

from oracles import EXCEPTIONAL_CARTAN, all_words, plain_e_action, plain_h_action

A2 = cartan_matrix("A", 2)
A1 = cartan_matrix("A", 1)


def test_h_action_on_f1f2():
    # rho(h_1)(f1 f2) = -(c_11 + c_21) f1 f2 = -f1 f2 for A2
    w = FreeWord(False, (0, 1))
    assert rho_apply("h", 0, w, A2, 4) == {w: Fraction(-1)}


def test_e_on_length_one_word_vanishes():
    w = FreeWord(False, (0,))
    assert rho_apply("e", 0, w, A2, 4) == {}


def test_jh_on_flagged_f1():
    # rho(Jh_1)(J f1) = +c_11 f1 = 2 f1
    w = FreeWord(True, (0,))
    assert rho_apply("Jh", 0, w, A2, 4) == {FreeWord(False, (0,)): Fraction(2)}


def test_jf_on_flagged_word_has_minus_sign():
    w = FreeWord(True, (1,))
    assert rho_apply("Jf", 0, w, A2, 4) == {FreeWord(False, (0, 1)): Fraction(-1)}


def test_je_on_flagged_word_positive_sign():
    # rho(Je_j)(J f_i1 f_i2) = +sum delta (sum c) without the flag
    w = FreeWord(True, (0, 1))
    got = rho_apply("Je", 0, w, A2, 4)
    # only position 0 matches j=0; inner sum is c_21 = -1; sign +(-1) = -1
    assert got == {FreeWord(False, (1,)): Fraction(-1)}


def test_empty_word_rules():
    for flag in (False, True):
        empty = FreeWord(flag, ())
        assert rho_apply("e", 0, empty, A2, 4) == {}
        assert rho_apply("h", 0, empty, A2, 4) == {}
        raised = rho_apply("f", 0, empty, A2, 4)
        assert list(raised) == [FreeWord(flag, (0,))]


def test_flag_transitions():
    plain = FreeWord(False, (0,))
    flagged = FreeWord(True, (0,))
    # plain generator keeps the flag
    assert all(w.j_flag for w in rho_apply("f", 1, flagged, A2, 4))
    assert all(not w.j_flag for w in rho_apply("f", 1, plain, A2, 4))
    # J generator flips it
    assert all(w.j_flag for w in rho_apply("Jf", 1, plain, A2, 4))
    assert all(not w.j_flag for w in rho_apply("Jf", 1, flagged, A2, 4))


def test_word_length_grading():
    for w in all_words(2, 2):
        for kind, delta in (("h", 0), ("Jh", 0), ("f", 1), ("Jf", 1), ("e", -1), ("Je", -1)):
            for j in range(2):
                for out in rho_apply(kind, j, w, A2, 4):
                    assert len(out.indices) == len(w.indices) + delta


def test_dual_reading_consistency():
    # rho(h_j) on a flagged word agrees with rho(Jh_j) on the plain word,
    # read through the shared right-hand side
    for w in all_words(2, 3):
        if w.j_flag or not w.indices:
            continue
        for j in range(2):
            via_h = rho_apply("h", j, FreeWord(True, w.indices), A2, 5)
            via_jh = rho_apply("Jh", j, w, A2, 5)
            assert via_h == {k: v for k, v in via_jh.items()}


def test_truncation_overflow_raises():
    full = FreeWord(False, (0, 1, 0))
    with pytest.raises(TruncationOverflowError):
        rho_apply("f", 0, full, A2, 3)


def test_sixteen_families_listed():
    assert len(FAMILIES) == 16
    names = [f[0] for f in FAMILIES]
    assert len(set(names)) == 16


@pytest.mark.parametrize("type_label,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 2)])
def test_ideal_kernel_families_vanish(type_label, rank):
    cm = cartan_matrix(type_label, rank)
    reports = verify_ideal_kernel(cm, 3)
    assert len(reports) == 16
    for report in reports:
        assert report.ok, (report.name, report.failures[:3])


def test_specific_family_examples_at_degree_four():
    reports = {r.name: r for r in verify_ideal_kernel(A2, 4)}
    assert reports["Jh.f"].ok  # [Jh_i, f_j] + c_ji Jf_j
    assert reports["Jh.e"].ok  # [Jh_i, e_j] - c_ji Je_j
    assert reports["h.Jh"].ok


def test_h_independence_a2():
    report = verify_h_independence(A2, 2)
    assert report.ok
    assert report.rank_h == 2 and report.failures == []


def test_h_independence_a1():
    report = verify_h_independence(A1, 1)
    assert report.ok
    assert report.rank_h == 1


def test_h_independence_singular_cartan_fails():
    singular = custom_cartan([[2, -1], [-4, 2]])
    report = verify_h_independence(singular, 2)
    assert not report.ok
    assert report.rank_h == 1 and report.failures == []


def test_rho_apply_jh_clears_flag():
    # Jh_0 on J.f1 is +c[0][0] f1 with the flag cleared
    w = FreeWord(True, (0,))
    assert rho_apply("Jh", 0, w, A2, 3) == {FreeWord(False, (0,)): Fraction(2)}
    # the kernel's route: the plain h_0 column, then the twist, on 2 * J.f1
    flag, sign = freerep._twist(True, w.j_flag)
    column = plain_images(A2, 3)("h", 0)
    got = [(FreeWord(flag, idx), 2 * sign * val) for idx, val in column[w.indices]]
    assert got == [(FreeWord(False, (0,)), 4)]


def test_word_cap_admits_e8_at_degree_five_and_stops_counting():
    # sum of 8^t for t <= 5: the largest case the exceptional types need
    assert sum(8**t for t in range(6)) == 37449 <= freerep.MAX_WORDS
    freerep.require_word_space(8, 5)
    for rank, degree in ((8, 6), (2, 17), (1, 10**12)):
        with pytest.raises(ValueError, match="beyond the supported cap"):
            freerep.require_word_space(rank, degree)


def test_word_cap_reads_ranks_below_two_off_directly():
    # counting one length at a time would take 10**12 steps here; rank 1
    # has degree * (degree + 1) / 2 letters, 998,991 at degree 1,413 and
    # 1,000,405 at 1,414
    freerep.require_word_space(0, 10**12)
    freerep.require_word_space(1, 1413)
    with pytest.raises(ValueError, match="more than 1000000 letters .* beyond the supported cap"):
        freerep.require_word_space(1, 1414)
    # past both caps the word count is named
    with pytest.raises(ValueError, match="more than 100000 words"):
        freerep.require_word_space(1, freerep.MAX_WORDS)


def _letters(rank, degree):
    return sum(t * rank**t for t in range(degree + 1))


def test_letter_cap_changes_no_admission_from_rank_two():
    # the letter cap refuses only rank 1 words the word cap admits: from
    # rank 2 on, every word space within MAX_WORDS has at most 917,506
    # letters (rank 2 at degree 15), E8 at degree 5 181,896
    assert freerep.MAX_LETTERS == 1_000_000
    admitted = []
    for rank in range(2, 40):
        for degree in range(40):
            words = sum(rank**t for t in range(degree + 1))
            try:
                freerep.require_word_space(rank, degree)
            except ValueError:
                assert words > freerep.MAX_WORDS, (rank, degree)
            else:
                assert words <= freerep.MAX_WORDS, (rank, degree)
                admitted.append(_letters(rank, degree))
    assert max(admitted) == _letters(2, 15) == 917_506 < freerep.MAX_LETTERS
    assert _letters(8, 5) == 181_896


def test_combo_apply_keeps_the_degree_cap():
    # a column entry past the cap raises instead of truncating
    with pytest.raises(TruncationOverflowError):
        plain_images(A2, 3)("f", 0)[(0, 1, 0)]


def test_rho_apply_values_are_ints_and_spans_stay_exact(monkeypatch):
    for word in all_words(2, 3):
        for kind in GENERATOR_KINDS:
            for j in range(2):
                for val in rho_apply(kind, j, word, A2, 4).values():
                    assert type(val) is int and val, (kind, j, word)
    spans = []

    class RecordingSpan(freerep.SpanBasis):
        def __init__(self):
            super().__init__()
            spans.append(self)

    monkeypatch.setattr(freerep, "SpanBasis", RecordingSpan)
    for cm in (A2, cartan_matrix("B", 2)):
        assert verify_h_independence(cm, 3).ok
    assert len(spans) == 2
    for span in spans:
        assert span.rows
        for row in span.rows:
            assert all(type(val) in (int, Fraction) for val in row.values()), row


def _red_families(cm, degree):
    return {r.name for r in verify_ideal_kernel(cm, degree) if not r.ok}


def test_wrong_twist_turns_families_red(monkeypatch):
    # the sign lands on plain generators meeting flagged words instead of
    # J-tagged ones; the table path must apply this same helper
    monkeypatch.setattr(
        freerep, "_twist", lambda tagged, flag: (flag ^ tagged, -1 if flag and not tagged else 1)
    )
    red = _red_families(A2, 3)
    assert {"e.f", "h.e", "h.f"} <= red


@pytest.mark.parametrize(
    "type_label,rank,max_length",
    [("A", 3, 5), ("B", 2, 5), ("C", 3, 5), ("D", 4, 5), ("A", 1, 30), ("A", 2, 8)],
)
def test_e_action_agrees_with_the_quadratic_formula(type_label, rank, max_length):
    # the running suffix sum, one lowered tuple per run of j's, gives each
    # lowering the coefficient that summing the letters after it afresh
    # gives, in the same order
    c = cartan_matrix(type_label, rank).entries
    for length in range(max_length + 1):
        for idx in itertools.product(range(rank), repeat=length):
            for j in range(rank):
                got = list(freerep._plain_action("e", j, idx, c).items())
                assert got == list(plain_e_action(j, idx, c).items()), (j, idx)


@pytest.mark.parametrize(
    "entries,max_length",
    [
        pytest.param(cartan_matrix("A", 3).entries, 5, id="A3"),
        pytest.param(cartan_matrix("B", 2).entries, 5, id="B2"),
        pytest.param(cartan_matrix("C", 3).entries, 5, id="C3"),
        pytest.param(cartan_matrix("D", 4).entries, 5, id="D4"),
        pytest.param(((2, -3), (-1, 2)), 8, id="G2-like"),
    ],
)
def test_h_action_agrees_with_the_letter_count_formula(entries, max_length):
    # the running sum over the letters gives the coefficient that the
    # word's letter counts give, and the image keeps the word itself
    for length in range(max_length + 1):
        for idx in itertools.product(range(len(entries)), repeat=length):
            for j in range(len(entries)):
                got = list(freerep._plain_action("h", j, idx, entries).items())
                assert got == list(plain_h_action(j, idx, entries).items()), (j, idx)


def test_wrong_plain_image_turns_families_red(monkeypatch):
    # h_1 on the plain word f2 gets coefficient c[1][0] + 1 instead of c[1][0]
    honest = freerep._plain_action

    def skewed(base, j, idx, c):
        out = honest(base, j, idx, c)
        if (base, j, idx) == ("h", 0, (1,)):
            out = {idx: out.get(idx, 0) + 1}
        return out

    monkeypatch.setattr(freerep, "_plain_action", skewed)
    red = _red_families(A2, 3)
    assert "h.f" in red and "h.e" in red


def _oracle_summary(cm, degree):
    """Family reports from rho_apply composed on word combinations, with no table."""

    def apply(kind, j, combo, out=None, scale=1):
        out = {} if out is None else out
        for word, coeff in combo.items():
            for image, val in rho_apply(kind, j, word, cm, degree).items():
                out[image] = out.get(image, 0) + scale * coeff * val
        return out

    words = all_words(cm.rank, degree - 1)
    summary = []
    for name, kind_a, kind_b, target in freerep.FAMILIES:
        failures = []
        for i, j in itertools.product(range(cm.rank), repeat=2):
            for word in words:
                defect = apply(kind_a, i, apply(kind_b, j, {word: 1}))
                apply(kind_b, j, apply(kind_a, i, {word: 1}), defect, -1)
                if target:
                    kind_t, role, sign, rule = target
                    coeff = sign * (i == j) if rule == "delta" else sign * cm.entries[j][i]
                    apply(kind_t, i if role == "i" else j, {word: 1}, defect, -coeff)
                nonzero = sum(1 for val in defect.values() if val)
                if nonzero:
                    failures.append([i, j, word.label(), nonzero])
        summary.append([name, cm.rank**2 * len(words), failures])
    return summary


ORACLE_CASES = [
    pytest.param(A2.entries, 4, id="A2-d4"),
    pytest.param(cartan_matrix("B", 2).entries, 5, id="B2-d5"),
    pytest.param(((2, -3), (-1, 2)), 3, id="G2-like-d3"),
]
# (family name, wrong target): a wrong target sign and a wrong target tag
WRONG_TARGETS = [
    pytest.param(None, id="as-listed"),
    pytest.param(("Je.Jf", ("h", "i", 1, "delta")), id="Je.Jf-to-plus-h"),
    pytest.param(("Jh.Je", ("Je", "j", -1, "cji")), id="Jh.Je-to-Je"),
]
# wrong J rules in place of ``_twist``: rho_apply, and with it the
# oracle, follows them too, so the kernel's shared evaluation must
# reproduce every failure they cause.  The last one puts AB and BA of a
# mixed family on different flags.
WRONG_TWISTS = [
    pytest.param(lambda tagged, flag: (flag ^ tagged, 1), id="twist-sign-dropped"),
    pytest.param(lambda tagged, flag: (flag, -1 if tagged and flag else 1), id="twist-flag-kept"),
    pytest.param(
        lambda tagged, flag: (flag ^ tagged, -1 if tagged else 1), id="twist-sign-on-every-tag"
    ),
    pytest.param(
        lambda tagged, flag: (tagged, -1 if tagged and flag else 1), id="twist-flag-from-tag"
    ),
]


@pytest.mark.parametrize("entries,degree", ORACLE_CASES)
@pytest.mark.parametrize("wrong", WRONG_TARGETS + WRONG_TWISTS)
def test_ideal_kernel_matches_the_rho_apply_oracle(monkeypatch, entries, degree, wrong):
    if callable(wrong):
        monkeypatch.setattr(freerep, "_twist", wrong)
    elif wrong:
        families = tuple(f[:3] + (wrong[1],) if f[0] == wrong[0] else f for f in FAMILIES)
        monkeypatch.setattr(freerep, "FAMILIES", families)
    cm = custom_cartan(entries)
    kernel = _summary(verify_ideal_kernel(cm, degree))
    assert kernel == _oracle_summary(cm, degree)
    red = {name for name, _, failures in kernel if failures}
    if callable(wrong):
        assert {"Je.Jf", "Jh.Je", "Jh.Jf"} <= red
    else:
        assert red == ({wrong[0]} if wrong else set())


def test_ideal_kernel_reads_each_plain_image_once(monkeypatch):
    calls = []
    honest = freerep._plain_action

    def counted(base, j, idx, c):
        calls.append((base, j, idx))
        return honest(base, j, idx, c)

    monkeypatch.setattr(freerep, "_plain_action", counted)
    verify_ideal_kernel(A2, 4)
    # 3 bases x 2 indices x 15 words up to length 3, plus e and h on the
    # 16 words of length 4 that f reaches: one call per distinct plain image
    assert len(calls) == len(set(calls)) == 154
    assert all(base in "hef" and type(idx) is tuple for base, _, idx in calls)


@pytest.mark.parametrize("cm,degree", [(A2, 4), (cartan_matrix("B", 2), 5)], ids=["A2-d4", "B2-d5"])
def test_ideal_kernel_fills_its_columns_without_rho_apply(monkeypatch, cm, degree):
    def refused(*args):
        raise AssertionError(f"rho_apply called with {args[:3]}")

    monkeypatch.setattr(freerep, "rho_apply", refused)
    assert all(report.ok for report in verify_ideal_kernel(cm, degree))


def test_h_independence_reads_each_jh_image_once_and_distinct_rows(monkeypatch):
    calls = []
    honest = freerep.rho_apply

    def counted(kind, j, word, cm, degree_cap):
        calls.append((kind, j, word))
        return honest(kind, j, word, cm, degree_cap)

    inserted = []

    class RecordingSpan(freerep.SpanBasis):
        def __init__(self):
            super().__init__()
            inserted.append([])

        def insert(self, vec):
            inserted[-1].append(tuple(vec.items()))
            return super().insert(vec)

    monkeypatch.setattr(freerep, "rho_apply", counted)
    monkeypatch.setattr(freerep, "SpanBasis", RecordingSpan)
    report = verify_h_independence(A2, 3)
    assert report.ok and report.words_used == 14
    # 2 indices x the 14 plain words of length 1..3, every call a Jh
    assert len(calls) == len(set(calls)) == 28
    assert {kind for kind, _, _ in calls} == {"Jh"}
    # one row per letter count (a, b) with 1 <= a + b <= 3, none repeated
    assert [len(rows) for rows in inserted] == [9]
    assert all(len(set(rows)) == 9 for rows in inserted)


def _nonzero_h(cm, lengths):
    """(label, j) of every plain word of the given lengths on which h_j
    has a nonzero coefficient, in word order."""
    return [
        (FreeWord(False, idx).label(), j)
        for length in lengths
        for idx in itertools.product(range(cm.rank), repeat=length)
        for j in range(cm.rank)
        if sum(cm.entries[i][j] for i in idx)
    ]


def test_h_independence_jh_half_goes_through_the_twist(monkeypatch):
    # with the flag kept, Jh maps a plain word to a plain word, so every
    # Jh image with a nonzero coefficient misses the flagged word; the h
    # rank reads no twist.  A2 at degree 3: 28 (word, j) pairs, 6 of them
    # with coefficient 0 (one letter j and two of the other)
    monkeypatch.setattr(
        freerep, "_twist", lambda tagged, flag: (flag, -1 if tagged and flag else 1)
    )
    report = verify_h_independence(A2, 3)
    assert (report.rank_h, report.ok, len(report.failures)) == (2, False, 22)
    assert report.failures[0] == ("f1", 0)
    assert report.failures == _nonzero_h(A2, range(1, 4))


def test_h_independence_names_a_wrong_jh_image_on_long_words(monkeypatch):
    # Jh images doubled on the words of length 3 only: each Jh row is still
    # a multiple of its h row, so a rank of the Jh rows stays 2; the J rule
    # names exactly the doubled images with a nonzero coefficient
    honest = freerep.rho_apply

    def doubled(kind, j, word, cm, degree_cap):
        out = honest(kind, j, word, cm, degree_cap)
        if kind == "Jh" and len(word.indices) == 3:
            out = {image: 2 * val for image, val in out.items()}
        return out

    monkeypatch.setattr(freerep, "rho_apply", doubled)
    report = verify_h_independence(A2, 3)
    assert (report.rank_h, report.ok) == (2, False)
    long_words = _nonzero_h(A2, [3])
    assert len(long_words) == 10
    assert report.failures == long_words


def test_h_independence_names_a_jh_image_where_h_has_coefficient_zero(monkeypatch):
    # on the A2 word f1f2f2, h_1 has coefficient -(2 - 1 - 1) = 0, so the
    # J rule wants no image at all; a stray J.f1f2f2 is named alone
    honest = freerep.rho_apply
    word = FreeWord(False, (0, 1, 1))

    def stray(kind, j, w, cm, degree_cap):
        if (kind, j, w) == ("Jh", 0, word):
            return {FreeWord(True, word.indices): 1}
        return honest(kind, j, w, cm, degree_cap)

    monkeypatch.setattr(freerep, "rho_apply", stray)
    report = verify_h_independence(A2, 3)
    assert report.rank_h == 2
    assert report.failures == [("f1f2f2", 0)]


# the exceptional Cartan matrices with the degree, the instances of the
# sixteen families and the nonempty plain words used
EXCEPTIONAL = [
    pytest.param(EXCEPTIONAL_CARTAN["G2"], 5, 3968, 62, id="G2-d5"),
    pytest.param(EXCEPTIONAL_CARTAN["F4"], 3, 10752, 84, id="F4-d3"),
    pytest.param(EXCEPTIONAL_CARTAN["E8"], 3, 149504, 584, id="E8-d3"),
]


@pytest.mark.parametrize("entries,degree,instances,words", EXCEPTIONAL)
def test_exceptional_cartan_matrices_pass_the_word_space_checks(entries, degree, instances, words):
    cm = custom_cartan(entries)
    reports = verify_ideal_kernel(cm, degree)
    assert [r.name for r in reports if not r.ok] == []
    assert sum(r.instances_checked for r in reports) == instances
    indep = verify_h_independence(cm, degree)
    assert indep.ok and indep.rank_h == cm.rank
    assert indep.words_used == words


def test_ideal_kernel_evaluates_each_class_once(monkeypatch):
    # the listed rule puts all eight (family, flag) instances of one base
    # pair and (i, j) in one class: 4 base pairs x 4 (i, j) on A2
    classes = []
    honest = freerep._failing_words

    def counted(plain, column, *cls):
        classes.append(cls)
        return honest(plain, column, *cls)

    monkeypatch.setattr(freerep, "_failing_words", counted)
    verify_ideal_kernel(A2, 4)
    assert len(classes) == len(set(classes)) == 16


def _summary(reports):
    return [[r.name, r.instances_checked, [list(f) for f in r.failures]] for r in reports]


FRESH_SUMMARY = """
import json, sys
from quatlie.freerep import verify_ideal_kernel
from quatlie.rootsystem import custom_cartan
reports = verify_ideal_kernel(custom_cartan(json.loads(sys.argv[1])), 3)
print(json.dumps([[r.name, r.instances_checked, [list(f) for f in r.failures]] for r in reports]))
"""


def test_plain_image_table_does_not_leak_between_calls():
    matrices = (A2.entries, cartan_matrix("B", 2).entries, ((2, -3), (-1, 2)))
    in_process = [_summary(verify_ideal_kernel(custom_cartan(m), 3)) for m in matrices]
    # the fresh interpreter imports the same quatlie sources as this one
    src = os.path.dirname(os.path.dirname(freerep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for entries, summary in zip(matrices, in_process):
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_SUMMARY, json.dumps(entries)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert json.loads(proc.stdout) == summary
