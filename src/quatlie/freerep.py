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
either raises or, when an overflow collector is supplied, drops the
term and records the word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CheckReport, TruncationOverflowError
from .linalg import SpanBasis, Vec
from .rootsystem import CartanMatrix

GENERATOR_KINDS = ("h", "e", "f", "Jh", "Je", "Jf")


class FreeWord(NamedTuple):
    j_flag: bool
    indices: tuple

    @property
    def length(self) -> int:
        return len(self.indices)

    def label(self) -> str:
        body = "".join(f"f{i + 1}" for i in self.indices) or "1"
        return f"J.{body}" if self.j_flag else body


Combo = dict  # {FreeWord: int}, zero coefficients never stored


def _add_term(combo: Combo, word: FreeWord, coeff: int) -> None:
    if not coeff:
        return
    acc = combo.get(word, 0) + coeff
    if acc:
        combo[word] = acc
    else:
        combo.pop(word, None)


def _twist(tagged: bool, flag: bool) -> tuple:
    """Flag and sign of an image under a (J-tagged if ``tagged``) generator.

    ``flag`` is the flag of the word acted on; the plain action of the
    generator's base kind supplies the index tuples and coefficients.
    """
    return flag ^ tagged, -1 if tagged and flag else 1


def _plain_action(base: str, j: int, idx: tuple, c) -> dict:
    """{index tuple: nonzero int} image of ``idx`` under the plain generator base_j."""
    if base == "h":
        total = -sum(c[i][j] for i in idx)
        return {idx: total} if total else {}
    if base == "f":
        return {(j,) + idx: 1}
    out: dict = {}
    for k in range(len(idx)):
        if idx[k] != j:
            continue
        inner = sum(c[idx[h]][j] for h in range(k + 1, len(idx)))
        _add_term(out, idx[:k] + idx[k + 1 :], -inner)
    return out


def rho_apply(
    kind: str,
    j: int,
    word: FreeWord,
    cm: CartanMatrix,
    degree_cap: int,
    overflow: list | None = None,
) -> Combo:
    """Image of a single word under one generator, as a word combination."""
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    base = kind[-1]
    if base == "f" and word.length >= degree_cap:
        if overflow is None:
            raise TruncationOverflowError(
                f"raising past degree {degree_cap} on {word.label()}"
            )
        overflow.append(word)
        return {}
    flag, sign = _twist(kind.startswith("J"), word.j_flag)
    return {
        FreeWord(flag, idx): sign * coeff
        for idx, coeff in _plain_action(base, j, word.indices, cm.entries).items()
    }


def plain_images(cm: CartanMatrix, degree_cap: int):
    """Lookup ``(base, j, index tuple) -> ((index tuple, int), ...)``.

    Each entry is the image of the plain word under the plain generator
    base_j, computed by ``rho_apply`` on first use and kept in a table
    that lives as long as the returned function.
    """
    table: dict = {}

    def image(base: str, j: int, idx: tuple) -> tuple:
        key = (base, j, idx)
        terms = table.get(key)
        if terms is None:
            plain = rho_apply(base, j, FreeWord(False, idx), cm, degree_cap)
            terms = table[key] = tuple((w.indices, coeff) for w, coeff in plain.items())
        return terms

    return image


def rho_apply_combo(kind: str, j: int, combo: Combo, image) -> Combo:
    """Image of a word combination under one generator.

    ``image`` is a :func:`plain_images` lookup; the J rule is applied on
    top of it by ``_twist``, the same helper ``rho_apply`` uses.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    base = kind[-1]
    tagged = kind.startswith("J")
    out: Combo = {}
    for word, coeff in combo.items():
        flag, sign = _twist(tagged, word.j_flag)
        for idx, val in image(base, j, word.indices):
            _add_term(out, FreeWord(flag, idx), sign * coeff * val)
    return out


def all_words(rank: int, max_length: int) -> list[FreeWord]:
    """Every word up to the given length, both flags, in a fixed order."""
    out = []
    for flag in (False, True):
        for length in range(max_length + 1):
            for idx in itertools.product(range(rank), repeat=length):
                out.append(FreeWord(flag, idx))
    return out


# ---------------------------------------------------------------------------
# Family checks
# ---------------------------------------------------------------------------

# name, left kind, right kind, optional target: (kind, index role, sign, rule)
# where rule "delta" means delta_ij acting via index i and rule "cji"
# means the Cartan entry c[j][i] acting via index j.  Family (a, b, t)
# states [a_i, b_j] = t; the matrix check in ``quaternify`` reads the
# same table.
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


def _family_defect(
    kind_a: str,
    kind_b: str,
    target,
    i: int,
    j: int,
    word: FreeWord,
    c,
    image,
) -> Combo:
    start = {word: 1}
    defect = rho_apply_combo(kind_a, i, rho_apply_combo(kind_b, j, start, image), image)
    right = rho_apply_combo(kind_b, j, rho_apply_combo(kind_a, i, start, image), image)
    for w, coeff in right.items():
        _add_term(defect, w, -coeff)
    kind_t, index, coeff = family_target(target, i, j, c)
    if coeff:
        for w, val in rho_apply_combo(kind_t, index, start, image).items():
            _add_term(defect, w, -coeff * val)
    return defect


def verify_ideal_kernel(cm: CartanMatrix, degree: int) -> list[CheckReport]:
    """Check that all sixteen relation families act as zero operators.

    Every family element is a commutator combination of degree at most
    one, so vanishing on all words of length <= degree-1 is the whole
    degree-local statement; the cap itself is never exceeded.  The
    plain-word images come from one :func:`plain_images` table, which
    is dropped on return.
    """
    if degree < 2:
        raise ValueError("degree must be at least 2")
    words = all_words(cm.rank, degree - 1)
    image = plain_images(cm, degree)
    c = cm.entries
    reports = []
    for name, kind_a, kind_b, target in FAMILIES:
        failures = []
        checked = 0
        for i in range(cm.rank):
            for j in range(cm.rank):
                for word in words:
                    checked += 1
                    defect = _family_defect(kind_a, kind_b, target, i, j, word, c, image)
                    if defect:
                        failures.append((i, j, word.label(), len(defect)))
        reports.append(CheckReport(name, checked, failures))
    return reports


@dataclass
class IndependenceReport:
    rank_h: int
    rank_jh: int
    expected: int
    words_used: int

    @property
    def ok(self) -> bool:
        return self.rank_h == self.expected and self.rank_jh == self.expected


def verify_h_independence(cm: CartanMatrix, degree: int) -> IndependenceReport:
    """Rank of the diagonal-action coefficient matrices of h and Jh.

    The h generators act diagonally on words and the Jh generators act
    by the matching coefficient on the flag-swapped word; independence
    of each family is the rank of the coefficient matrix over all plain
    words, which equals the rank of the Cartan matrix.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    l = cm.rank
    plain = [w for w in all_words(l, degree) if not w.j_flag and w.length]
    rows_h: list[Vec] = []
    rows_jh: list[Vec] = []
    for word in plain:
        row_h: Vec = {}
        row_jh: Vec = {}
        for j in range(l):
            img_h = rho_apply("h", j, word, cm, degree + 1)
            coeff = img_h.get(FreeWord(False, word.indices))
            if coeff:
                row_h[j] = coeff
            img_jh = rho_apply("Jh", j, word, cm, degree + 1)
            coeff = img_jh.get(FreeWord(True, word.indices))
            if coeff:
                row_jh[j] = coeff
        rows_h.append(row_h)
        rows_jh.append(row_jh)
    span_h = SpanBasis(l)
    span_h.extend(rows_h)
    span_jh = SpanBasis(l)
    span_jh.extend(rows_jh)
    return IndependenceReport(
        rank_h=span_h.rank,
        rank_jh=span_jh.rank,
        expected=l,
        words_used=len(plain),
    )
