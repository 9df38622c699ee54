"""Generator action on the truncated word space of lowering operators.

The word space has one basis element per pair (flag, word) where the
word ranges over sequences in {0..l-1} up to the truncation degree and
the flag marks a leading J.  The plain generators act on the index
tuple w = (i_1..i_t) of a word by:

    h_j  ->  -(c[i_1][j] + ... + c[i_t][j]) * w
    f_j  ->  (j, i_1..i_t)
    e_j  ->  -sum_k delta(j, i_k) (sum_{h>k} c[i_h][j]) * (w minus i_k)

J rule: every generator, plain or J-tagged, acts by the plain action of
its base kind on the index tuple, then ``_twist`` sets the flag and the
sign of the result.  The flag becomes the word's flag XOR the tag, and
the sign is -1 exactly when a J-tagged generator meets a flagged word
(J twice is -1).

Every coefficient is a sum of integer Cartan entries, so a word
combination maps words to nonzero ints.  The empty word is included at
both flags, so the inner sums above are well defined (they are empty)
and lowering operators annihilate it.  Raising beyond the degree cap
raises.

``rho_apply`` is the action on one word as a word combination.  The
independence check ``verify_h_independence`` takes the rank of the h
action on the plain words and checks through ``rho_apply`` that each Jh
acts by the same coefficient onto the flagged word.  The relation check
``verify_ideal_kernel`` reads per-generator image columns
(``plain_images``), each entry filled once from the plain action, and
builds no word combination.  Only the f columns check the degree cap:
f is the one generator that lengthens a word.  The sixteen families
use four plain base pairs (h.h, e.f, h.e, h.f), and an instance's defect
is three plain products AB, BA and T, each put on a flag with a sign by
``_twist``.  The twist is still evaluated for every (family, i, j,
flag); what is shared is the evaluation over the plain words.  A failure
records only the count of nonzero entries of the defect, and that count
does not change when the whole defect is multiplied by a unit or the two
flags are renamed.  So instances whose plain columns, coefficient, and
flags and signs relative to AB agree form one class, evaluated once per
call.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .errors import CheckReport, TruncationOverflowError
from .linalg import SpanBasis, Vec
from .rootsystem import CartanMatrix

GENERATOR_KINDS = ("h", "e", "f", "Jh", "Je", "Jf")
# plain words up to the degree that a check may span: E8 at degree 5 has
# 37,449, and A8 at degree 12 (about 8e10) would exhaust memory
MAX_WORDS = 100_000
# letters of those words, sum t * rank^t over lengths t: rank 2 at degree
# 15 has 917,506 and E8 at degree 5 181,896; rank 1 at degree 99,999
# would have about 5e9
MAX_LETTERS = 1_000_000


class FreeWord(NamedTuple):
    j_flag: bool
    indices: tuple

    def label(self) -> str:
        body = "".join(f"f{i + 1}" for i in self.indices) or "1"
        return f"J.{body}" if self.j_flag else body


Combo = dict  # {FreeWord: int}, zero coefficients never stored


def _twist(tagged: bool, flag: bool) -> tuple:
    """Flag and sign of an image under a (J-tagged if ``tagged``) generator.

    ``flag`` is the flag of the word acted on; the plain action of the
    generator's base kind supplies the index tuples and coefficients.
    The sign is 1 or -1, so a product of signs is its own inverse.
    """
    return flag ^ tagged, -1 if tagged and flag else 1


def _plain_action(base: str, j: int, idx: tuple, c) -> dict:
    """{index tuple: nonzero int} image of ``idx`` under the plain generator base_j."""
    if base == "h":
        total = 0
        for i in idx:
            total -= c[i][j]
        return {idx: total} if total else {}
    if base == "f":
        return {(j,) + idx: 1}
    # suffix[k] = sum of c[h][j] over idx[k:], in one right-to-left pass
    suffix = [0] * (len(idx) + 1)
    for k in range(len(idx) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + c[idx[k]][j]
    # each letter of a run of j's lowers idx to one tuple, built at the run's
    # end with the run's suffix sums added; a non-j letter parts two runs' tuples
    out: dict = {}
    run = 0
    last = len(idx) - 1
    for k, letter in enumerate(idx):
        if letter == j:
            run += suffix[k + 1]
            if k == last or idx[k + 1] != j:
                if run:
                    out[idx[:k] + idx[k + 1 :]] = -run
                run = 0
    return out


def _require_room(flag: bool, idx: tuple, degree_cap: int) -> None:
    """TruncationOverflowError where an f generator would lengthen a word past the cap."""
    if len(idx) >= degree_cap:
        word = FreeWord(flag, idx)
        raise TruncationOverflowError(f"raising past degree {degree_cap} on {word.label()}")


def rho_apply(kind: str, j: int, word: FreeWord, cm: CartanMatrix, degree_cap: int) -> Combo:
    """Image of a single word under one generator, as a word combination."""
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    base = kind[-1]
    if base == "f":  # the one base that lengthens a word
        _require_room(word.j_flag, word.indices, degree_cap)
    flag, sign = _twist(kind.startswith("J"), word.j_flag)
    return {
        FreeWord(flag, idx): sign * coeff
        for idx, coeff in _plain_action(base, j, word.indices, cm.entries).items()
    }


class _Column(dict):
    """Image column of one plain generator: index tuple -> ((index tuple, int), ...).

    A missing entry is filled from ``_plain_action`` on its first lookup.
    An f column refuses a word at the degree cap, as ``rho_apply`` does;
    h and e never lengthen a word, so their columns check no cap.
    """

    def __init__(self, base: str, j: int, cm: CartanMatrix, degree_cap: int):
        self.generator = base, j, cm.entries, degree_cap

    def __missing__(self, idx: tuple) -> tuple:
        base, j, c, degree_cap = self.generator
        if base == "f":  # the one base that lengthens a word
            _require_room(False, idx, degree_cap)
        terms = self[idx] = tuple(_plain_action(base, j, idx, c).items())
        return terms


def plain_images(cm: CartanMatrix, degree_cap: int):
    """Lookup ``(base, j) -> index tuple -> ((index tuple, int), ...)``.

    ``plain_images(cm, cap)(base, j)[idx]`` is the image of the plain
    word ``idx`` under the plain generator base_j, filled from
    ``_plain_action`` on first use.  The columns live as long as the
    returned function.
    """
    return functools.cache(lambda base, j: _Column(base, j, cm, degree_cap))


def require_word_space(rank: int, degree: int) -> None:
    """ValueError when the plain words up to ``degree`` number more than
    ``MAX_WORDS``, or their letters more than ``MAX_LETTERS``.

    Counted one length at a time and stopped at a cap, so no word and no
    large power is built.  Below rank 2 both counts are read off
    directly (at rank 1, degree + 1 words of degree * (degree + 1) / 2
    letters): counting them would take degree steps.
    """
    if rank < 2:
        total = degree + 1 if rank == 1 else 1
        letters = degree * (degree + 1) // 2 if rank == 1 else 0
    else:
        total = letters = 0
        level = 1
        for length in range(degree + 1):
            total += level
            letters += length * level
            if total > MAX_WORDS or letters > MAX_LETTERS:
                break
            level *= rank
    if total > MAX_WORDS:
        raise ValueError(
            f"more than {MAX_WORDS} words up to degree {degree} at rank {rank}, "
            "beyond the supported cap"
        )
    if letters > MAX_LETTERS:
        raise ValueError(
            f"more than {MAX_LETTERS} letters in the words up to degree {degree} "
            f"at rank {rank}, beyond the supported cap"
        )


def plain_words(rank: int, max_length: int) -> list[tuple]:
    """Index tuple of every plain word up to the given length: shortest
    first, each length in ``itertools.product`` order, the empty word first."""
    return [
        idx
        for length in range(max_length + 1)
        for idx in itertools.product(range(rank), repeat=length)
    ]


# ---------------------------------------------------------------------------
# Family checks
# ---------------------------------------------------------------------------

# name, left kind, right kind, optional target: (kind, index role, sign, rule)
# where rule "delta" means delta_ij acting via index i and rule "cji"
# means the Cartan entry c[j][i] acting via index j.  Family (a, b, t)
# states [a_i, b_j] = t; ``ChevalleyGenerators.relations`` evaluates the
# same table on the generators' coordinate rows.
FAMILIES = (
    ("h.h", "h", "h", None),
    ("e.f", "e", "f", ("h", "i", 1, "delta")),
    ("h.e", "h", "e", ("e", "j", 1, "cji")),
    ("h.f", "h", "f", ("f", "j", -1, "cji")),
    ("h.Jh", "h", "Jh", None),
    ("Jh.h", "Jh", "h", None),
    ("Jh.Jh", "Jh", "Jh", None),
    ("Je.f", "Je", "f", ("Jh", "i", 1, "delta")),
    ("e.Jf", "e", "Jf", ("Jh", "i", 1, "delta")),
    ("Je.Jf", "Je", "Jf", ("h", "i", -1, "delta")),
    ("h.Je", "h", "Je", ("Je", "j", 1, "cji")),
    ("Jh.e", "Jh", "e", ("Je", "j", 1, "cji")),
    ("Jh.Je", "Jh", "Je", ("e", "j", -1, "cji")),
    ("h.Jf", "h", "Jf", ("Jf", "j", -1, "cji")),
    ("Jh.f", "Jh", "f", ("Jf", "j", -1, "cji")),
    ("Jh.Jf", "Jh", "Jf", ("f", "j", 1, "cji")),
)


def family_target(target, i: int, j: int, c) -> tuple:
    """(kind, index, coefficient) of a family's right-hand side at (i, j).

    ``c`` holds the Cartan entries; the coefficient is the int 0 where
    the commutator must vanish.
    """
    if target is None:
        return None, None, 0
    kind, _, sign, rule = target
    if rule == "delta":
        return kind, i, sign if i == j else 0
    return kind, j, sign * c[j][i]


def _failing_words(
    plain, column, base_a, i, base_b, j, same_ba, sign_ba, base_t, index, same_t, sign_t
) -> tuple:
    """((index tuple, nonzero count), ...) of the plain words with a nonzero defect.

    The arguments after ``column`` are one class of instances: the defect
    is AB + sign_ba·BA + sign_t·T, with AB = rho(a_i) rho(b_j) w and
    BA = rho(b_j) rho(a_i) w on one flag, T = rho(t) w with t = base_t
    at ``index``, and ``same_ba``/``same_t`` saying whether BA and T
    share AB's flag.  ``sign_t`` is 0 where the family has no target.
    """
    col_a, col_b = column(base_a, i), column(base_b, j)
    col_t = column(base_t, index) if sign_t else None
    failing = []
    for idx in plain:
        defect: dict = {}
        get = defect.get
        for mid, u in col_b[idx]:  # rho(a_i) rho(b_j) w
            for out, v in col_a[mid]:
                key = (True, out)
                defect[key] = get(key, 0) + u * v
        for mid, u in col_a[idx]:  # rho(b_j) rho(a_i) w
            for out, v in col_b[mid]:
                key = (same_ba, out)
                defect[key] = get(key, 0) + sign_ba * u * v
        if sign_t:  # rho(t) w
            for out, v in col_t[idx]:
                key = (same_t, out)
                defect[key] = get(key, 0) + sign_t * v
        if any(defect.values()):
            failing.append((idx, sum(map(bool, defect.values()))))
    return tuple(failing)


def verify_ideal_kernel(cm: CartanMatrix, degree: int) -> list[CheckReport]:
    """Check that all sixteen relation families act as zero operators.

    Every family element is a commutator combination of degree at most
    one, so vanishing on all words of length <= degree-1 is the whole
    degree-local statement; the cap itself is never exceeded.

    An instance (family, i, j, word) has the defect
    rho(a_i) rho(b_j) w - rho(b_j) rho(a_i) w - c rho(t) w.  ``_twist``
    runs per (family, i, j, flag) and step, exactly as the action would
    apply it, and places the three plain products AB, BA and T (read
    from the image columns of one :func:`plain_images` table) on a flag
    with a sign.  A failure records only the count of nonzero (flag,
    index tuple) entries, and that count is the same after multiplying
    the defect by the unit sign of AB and after renaming the flags so
    AB's flag comes first.  So the instances share one evaluation per
    class: the plain columns of a_i, b_j and t, the coefficient c, and
    the flag and sign of BA and of T relative to AB.  A wrong twist or
    target gives a different class and is evaluated on its own.  The
    classes and the table are dropped on return.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    require_word_space(cm.rank, degree)
    plain = plain_words(cm.rank, degree - 1)
    column = plain_images(cm, degree)
    c = cm.entries
    pairs = list(itertools.product(range(cm.rank), repeat=2))
    classes: dict = {}  # class -> ((index tuple, nonzero count), ...)
    reports = []
    for name, kind_a, kind_b, target in FAMILIES:
        base_a, tag_a = kind_a[-1], kind_a[0] == "J"
        base_b, tag_b = kind_b[-1], kind_b[0] == "J"
        failures = []
        for i, j in pairs:
            kind_t, index, coeff = family_target(target, i, j, c)
            # failures list every plain word, then every flagged one
            for flag in (False, True):
                flag_b, sign_b = _twist(tag_b, flag)
                flag_ab, sign_ab = _twist(tag_a, flag_b)
                flag_a, sign_a = _twist(tag_a, flag)
                flag_ba, sign_ba = _twist(tag_b, flag_a)
                sign_ab, sign_ba = sign_b * sign_ab, -sign_a * sign_ba
                if coeff:
                    flag_t, sign_t = _twist(kind_t[0] == "J", flag)
                    t = (kind_t[-1], index, flag_t == flag_ab, -coeff * sign_t * sign_ab)
                else:
                    t = (None, None, None, 0)
                # the defect times sign_ab, with AB's flag named first
                cls = (base_a, i, base_b, j, flag_ba == flag_ab, sign_ba * sign_ab) + t
                if cls not in classes:
                    classes[cls] = _failing_words(plain, column, *cls)
                for idx, nonzero in classes[cls]:
                    failures.append((i, j, FreeWord(flag, idx).label(), nonzero))
        reports.append(CheckReport(name, 2 * len(pairs) * len(plain), failures))
    return reports


class IndependenceReport(NamedTuple):
    rank_h: int
    expected: int
    words_used: int
    failures: list  # (word label, j) where Jh_j breaks the J rule

    @property
    def ok(self) -> bool:
        return self.rank_h == self.expected and not self.failures


def verify_h_independence(cm: CartanMatrix, degree: int) -> IndependenceReport:
    """Rank of the h action on the plain words, and the J rule for Jh.

    h_j multiplies a plain word w by a = -(sum of c[i][j] over its
    letters i).  The rank of these coefficients over all nonempty plain
    words up to the degree equals the rank of the Cartan matrix; it runs
    over the distinct rows in first-seen order, since reduced echelon
    form is canonical.  Jh_j must map w to a J.w (to nothing when a is
    0), so the Jh family is independent exactly when the h family is.
    That rule is checked through ``rho_apply``, and so through the
    twist, for every nonempty plain word w and every j; a failure is
    (label of w, j).
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    require_word_space(cm.rank, degree)
    l = cm.rank
    c = cm.entries
    cap = degree + 1
    words = plain_words(l, degree)[1:]  # the empty word comes first
    rows: dict = {}  # row items -> row, in first-seen order
    failures = []
    for idx in words:
        word, flagged = FreeWord(False, idx), FreeWord(True, idx)
        row: Vec = {}
        for j in range(l):
            expected = _plain_action("h", j, idx, c)  # {idx: a}, or {} when a is 0
            if expected:
                row[j] = coeff = expected[idx]
                expected = {flagged: coeff}
            if rho_apply("Jh", j, word, cm, cap) != expected:
                failures.append((word.label(), j))
        rows.setdefault(tuple(row.items()), row)
    span = SpanBasis()
    span.extend(rows.values())
    return IndependenceReport(
        rank_h=span.rank, expected=l, words_used=len(words), failures=failures
    )
