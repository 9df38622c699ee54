from fractions import Fraction

import pytest

from quatlie.errors import TruncationOverflowError
from quatlie.freerep import (
    FAMILIES,
    FreeWord,
    all_words,
    rho_apply,
    rho_apply_combo,
    verify_h_independence,
    verify_ideal_kernel,
)
from quatlie.rootsystem import cartan_matrix, custom_cartan

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
                    assert out.length == w.length + delta


def test_dual_reading_consistency():
    # rho(h_j) on a flagged word agrees with rho(Jh_j) on the plain word,
    # read through the shared right-hand side
    for w in all_words(2, 3):
        if w.j_flag or w.length == 0:
            continue
        for j in range(2):
            via_h = rho_apply("h", j, FreeWord(True, w.indices), A2, 5)
            via_jh = rho_apply("Jh", j, w, A2, 5)
            assert via_h == {k: v for k, v in via_jh.items()}


def test_truncation_overflow_raises():
    full = FreeWord(False, (0, 1, 0))
    with pytest.raises(TruncationOverflowError):
        rho_apply("f", 0, full, A2, 3)


def test_truncation_overflow_collected():
    full = FreeWord(False, (0, 1, 0))
    dropped = []
    out = rho_apply("f", 0, full, A2, 3, overflow=dropped)
    assert out == {}
    assert dropped == [full]


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
    assert report.rank_h == 2 and report.rank_jh == 2


def test_h_independence_a1():
    report = verify_h_independence(A1, 1)
    assert report.ok
    assert report.rank_h == 1


def test_h_independence_singular_cartan_fails():
    singular = custom_cartan([[2, -1], [-4, 2]])
    report = verify_h_independence(singular, 2)
    assert not report.ok
    assert report.rank_h == 1 and report.rank_jh == 1


def test_rho_apply_jh_clears_flag():
    # Jh_0 on J.f1 is +c[0][0] f1 with the flag cleared
    w = FreeWord(True, (0,))
    assert rho_apply("Jh", 0, w, A2, 3) == {FreeWord(False, (0,)): Fraction(2)}
    combo = {w: Fraction(2)}
    assert rho_apply_combo("Jh", 0, combo, A2, 3) == {FreeWord(False, (0,)): Fraction(4)}
