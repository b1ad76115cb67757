"""A small L-infinity algebra engine over exact rationals.

Objects
-------
* :class:`GeneratorSet` — a (possibly infinite) family of graded generators
  addressed by hashable, orderable keys: a label plus a degree rule.
* ``Word`` — a symmetric word of generators: the tuple of its keys in
  canonical (sorted) order.  Reordering signs are Koszul: two odd letters
  crossing contribute -1, and a word with a repeated odd letter is zero.
* :class:`Combination` — a finite Q-linear combination of words;
  :meth:`Combination.apply` is the linear extension Σ_u c_u · f(u).  On a
  single term with coefficient 1 it returns f(u) itself, not a copy: no
  code changes a ``Combination`` after it is built.  Zero is one shared
  ``Combination`` with read-only terms: every zero the engine makes, and
  ``apply`` on a zero, returns it.
* :class:`LinfStructure` — level maps l^k : Sym^k -> generators of degree +1,
  given lazily by a rule of the word alone (k is its length) and memoized.
  It may declare the arities at which they can be nonzero
  (``arities=(1, 2)``; omitted means every arity, ``()`` means abelian), and
  that they vanish on every head with no odd letter (``odd_heads=True``).
  Each declaration is a promise about the rule: extensions never evaluate
  the arities or heads it excludes.
* :class:`LinfMorphism` — level maps phi^k : Sym^k(source) -> target of
  degree 0, same representation, with the same ``arities`` declaration.
* :func:`letter_map` — the strict morphism phi^1(x) = letter(x) with
  coefficient 1 and phi^{>=2} = 0, read through one letter memo.  It
  promises to keep the parity of each letter and the order of the keys, so
  the image of a canonical word, letter by letter, is canonical and carries
  no sign; a key that is no generator of its source raises ValueError on a
  letter memo miss.  :func:`identity_morphism` is one.

Operations
----------
* :func:`extend_coderivation` — the coderivation extension
  l̂(v_1 ⊙ ... ⊙ v_k) = Σ_i Σ_{(i, k-i)-shuffles} ± l^i(block) ⊙ rest,
  over the declared arities i only; with ``odd_heads``, over the blocks that
  hold an odd letter only, and zero at once on a word with no odd letter.
* :meth:`LinfMorphism.extend` — the cofunctor extension, a sum over the set
  partitions of the letters with blocks ordered by their first letter,
  computed by recursion on the block B that holds the first letter, of a
  declared size: φ̂(w) = Σ_{B ∋ w_0} ± φ^{|B|}(w_B) ⊙ φ̂(w∖B).  The rest of a
  canonical word is canonical, so φ̂(w∖B) is a memoized sub-word of w.
* :func:`compose` — (G ∘ F)^k(w) = Σ_{u ∈ F̂(w)} coeff · G^{|u|}(u).  The
  composite's cofunctor extension is Ĝ ∘ F̂ (the extension is a functor),
  so it reads the factors' extension memos and runs no block recursion of
  its own; its level memo fills only when a level is asked for.  When F is
  a letter map, F̂(w) is the one image word u of w with coefficient 1, or 0
  when u repeats an odd letter, so the composite reads its outer factor at
  the image, G^k(u) and Ĝ(u), and reads or fills no memo of F.  It keeps a
  level memo only: Ĝ's memo already holds Ĝ(u), so its ``extend`` reads
  that on every call.
* :func:`invert` — levelwise inverse of a morphism whose φ^1 is diagonal on
  basis generators: H^k(u) = -(1/c) Σ H^{s}(non-diagonal blocks of F̂
  applied to the preimage), where c is the coefficient of the
  all-singletons term, and H^1, which inverts the diagonal, is its k = 1
  case with the sum started at minus the preimage.  Like a letter map, the
  preimage promises to keep key order and parity, so the preimage word is
  read letter by letter through the image check :func:`compose` uses.  One
  walk over the terms of F̂(preimage) finds c among the length-k terms and
  sums the H^s of the shorter ones.
* :func:`check_structure` — verifies l̂ ∘ l̂ = 0 on supplied words.

Both extensions walk one block plan per (word length k, block size i): the
head and rest positions of each (i, k-i)-shuffle, heads in the order of
``itertools.combinations(range(k), i)``, each with an ``itemgetter`` that
reads that block of a word as a tuple.  The blocks whose head holds
position 0 come first, and they are the cofunctor's.  Plans depend on no word: each is
built once into the :class:`ellsuper.exact.Memo` ``_BLOCK_PLANS`` (at most
``CACHE_CAP`` plans), so a word only runs the getters.  A structure that
declares ``odd_heads`` walks the plan filtered to the heads that hold an odd
position, memoized the same way in ``_ODD_HEAD_PLANS`` per (i, letter
parities of the word), which names (k, i, odd mask).

Every level map, including those of composites and inverses, is defined
lazily at every arity and memoized per word, or per the ``memo_key`` a
morphism names, whose rule then takes the key.  Every extension is memoized
per word too, except that of a composite through a letter map, which reads
its outer factor's.  Each level, extension and letter memo is an
:class:`ellsuper.exact.Memo`, so it holds at most ``CACHE_CAP`` entries and
evicts its oldest first; a memo's compute holds the rule or the letter,
never the owner.

Signs follow one rule.  Pulling a head block to the front costs (-1) to the
number of crossings of two odd letters, counted from the word's parities at
the plan's head positions.  Each extension reads a word's parities once, as
a tuple, and pays for signs only where its letters allow them: only a word
with two or more odd letters has a crossing or a repeated odd letter, so
only then are the odd-prefix counts built and, in the coderivation, the
rests scanned for a repeated odd letter.  A structure that declares
``odd_heads`` returns zero on a word with no odd letter before any of that
work.  Every output letter is placed by
:func:`_insert_letter`, which bisects to its sorted place in a canonical
word; an odd letter flips the sign once per odd letter it crosses, and
zeroes the word if it is already there.  Both
extensions insert into canonical words (the rest of the coderivation, each
term of φ̂(w∖B)), so their public entries (:func:`extend_coderivation`,
:meth:`LinfMorphism.extend` on a memo miss, :func:`check_structure` on each
word it is given) reject a word whose keys are not sorted with a ValueError.
Each word is checked once: the rests of φ̂'s recursion and the words of l̂(w)
that :func:`check_structure` extends again are built canonical by the engine
and take an unchecked path.  :func:`canonical_word` sorts arbitrary keys by
a right-to-left fold of insertions; no engine path needs it, since the image
of a letter map and the preimage of :func:`invert` are canonical by promise.

Level maps are required to land in single generators (length-one words);
this holds for every structure in this package and keeps extensions small.

Arithmetic runs on integers.  A :class:`Combination` stores each
coefficient as a reduced (numerator, denominator) pair with a positive
denominator, and ``apply``, both extensions, :func:`compose` and
:func:`invert` read the pairs directly.  They sum each output word as an
unreduced pair in one fresh dict per sum: a new word is stored by one
``dict.setdefault``, so it is hashed once, equal denominators add
numerators, and unequal ones meet over their lcm.  At the end one
``math.gcd`` reduces each surviving sum in place, and that same dict
becomes the terms of the result, so no sum is copied.  A
``Fraction`` is built only where a value leaves the engine, in
:meth:`Combination.terms`, ``Combination[word]`` and ``repr``, so every
public coefficient is a ``Fraction``.  A word whose sum reaches 0 is
dropped, and a later term appends it again, so term order is that of the
first nonzero partial sum.  Letter parities come from
``GeneratorSet.parity``, the lookup of a per-set ``Memo`` (at most
``CACHE_CAP`` keys); a key the degree rule rejects is never stored, so it
raises until a key equal to it is stored (see :class:`GeneratorSet`).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd
from operator import itemgetter, le, lt
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Sequence

from .exact import Memo, rational
from .report import Report

__all__ = [
    "Key",
    "GeneratorSet",
    "Word",
    "canonical_word",
    "Combination",
    "LinfStructure",
    "LinfMorphism",
    "abelian",
    "extend_coderivation",
    "letter_map",
    "identity_morphism",
    "compose",
    "invert",
    "check_structure",
    "morphisms_agree",
]

Key = Hashable


class GeneratorSet:
    """Graded generators addressed by keys (tuples, orderable within one set).

    ``degree_fn`` must raise ValueError on keys outside the family; this is
    how unknown-generator errors surface.  Two generator sets are compatible
    for composition when their labels match — e.g. every ellipsoid algebra
    shares one key space regardless of its parameters.

    ``parity(key)`` is ``degree(key) & 1``, memoized per set (at most
    ``CACHE_CAP`` keys).  Only valid keys are stored, so an unknown key
    raises until a key equal to it is stored.  A bool in a key is such a
    case: ``('o', True) == ('o', 1)`` with the same hash, so once
    ``('o', 1)`` is stored, ``parity(('o', True))`` answers from the memo
    although the degree rule rejects it.
    """

    def __init__(self, label: str, degree_fn: Callable[[Key], int]) -> None:
        self.label = label
        self._degree_fn = degree_fn
        self._parity_memo = Memo(lambda key: degree_fn(key) & 1)
        self.parity: Callable[[Key], int] = self._parity_memo.__getitem__

    def degree(self, key: Key) -> int:
        return self._degree_fn(key)

    def compatible(self, other: "GeneratorSet") -> bool:
        return self.label == other.label

    def __repr__(self) -> str:
        return f"GeneratorSet({self.label!r})"


# A word is the tuple of its keys in canonical (sorted) order.
Word = tuple


def _insert_letter(parity: Callable[[Key], int], letter: Key, word: Word) -> tuple[Word | None, int]:
    """Insert ``letter`` into the canonical ``word`` at its sorted place: (word, sign).

    The letter goes before any equal letters.  An odd letter flips the sign
    once per odd letter it crosses, and one that is already in the word
    makes it zero: (None, 0).
    """
    at = bisect_left(word, letter)
    sign = 1
    if parity(letter):
        if at < len(word) and word[at] == letter:
            return None, 0
        for key in word[:at]:
            if parity(key):
                sign = -sign
    return word[:at] + (letter,) + word[at:], sign


def canonical_word(genset: GeneratorSet, keys: Sequence[Key]) -> tuple[Word | None, int]:
    """Sort keys into canonical order, returning (word, Koszul sign).

    The sign is that of the stable sort.  Returns (None, 0) when the word
    vanishes (a repeated odd-degree letter).
    """
    word: Word = ()
    sign = 1
    for key in reversed(keys):
        word, flip = _insert_letter(genset.parity, key, word)
        if word is None:
            return None, 0
        sign *= flip
    return word, sign


class Combination:
    """Finite Q-linear combination of words; zero coefficients are dropped.

    Each coefficient is stored as a reduced (numerator, denominator) integer
    pair with a positive denominator; :meth:`terms`, ``[]`` and ``repr``
    build the ``Fraction``.  A float coefficient or scalar raises TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Word, int | Fraction] | None = None) -> None:
        self._terms = {w: pair for w, c in (terms or {}).items() if (pair := _pair(c))[0]}

    @classmethod
    def single(cls, word: Word, coeff: int | Fraction = 1) -> "Combination":
        return cls({word: coeff})

    def terms(self) -> Iterable[tuple[Word, Fraction]]:
        return [(w, Fraction(num, den)) for w, (num, den) in self._terms.items()]

    def __getitem__(self, word: Word) -> Fraction:
        pair = self._terms.get(word)
        return Fraction(0) if pair is None else Fraction(*pair)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __mul__(self, scalar: int | Fraction) -> "Combination":
        num, den = _pair(scalar)
        return _scaled(self, num, den) if num else _ZERO

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Combination) and self._terms == other._terms

    def apply(self, fn: Callable[[Word], "Combination"]) -> "Combination":
        """The linear extension Σ_u c_u · fn(u), accumulated in one dict.

        A single term u with coefficient 1 returns fn(u) itself, and zero
        returns the shared zero.
        """
        if len(self._terms) == 1:
            ((u, pair),) = self._terms.items()
            if pair == (1, 1):
                return fn(u)
        out: _Sums = {}
        for u, (c_num, c_den) in self._terms.items():
            for w, (d_num, d_den) in fn(u)._terms.items():
                _add(out, w, c_num * d_num, c_den * d_den)
        return _combination(out)

    def restrict_length(self, length: int) -> "Combination":
        return _of_pairs({w: c for w, c in self._terms.items() if len(w) == length})

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*{w}" for w, c in sorted(self.terms(), key=lambda t: t[0]))


def _pair(value: int | Fraction) -> tuple[int, int]:
    """The reduced (numerator, denominator) pair of a rational; a float raises TypeError."""
    if not isinstance(value, (int, Fraction)):
        value = rational(value)
    return value.numerator, value.denominator


def _reciprocal(num: int, den: int) -> tuple[int, int]:
    """The reduced pair of den/num, for a reduced pair num/den with num != 0."""
    return (den, num) if num > 0 else (-den, -num)


def _scaled(comb: Combination, num: int, den: int) -> Combination:
    """``comb`` times num/den, for num != 0 and den > 0."""
    return _combination({w: (c_num * num, c_den * den) for w, (c_num, c_den) in comb._terms.items()})


# word -> unreduced (numerator, denominator) integer pair of its running coefficient
_Sums = dict[Word, tuple[int, int]]


def _add(sums: _Sums, word: Word, num: int, den: int) -> None:
    """Add num/den to the coefficient of ``word`` in ``sums`` on integers.

    A new word is stored by one ``setdefault``, which hashes it once; only
    when that returns an older pair are the two combined.  Equal
    denominators add numerators; otherwise both go over the lcm.  A word
    whose sum reaches 0 is dropped, and a later term re-appends it.
    """
    pair = (num, den)
    old = sums.setdefault(word, pair)
    if old is pair:
        return
    old_num, old_den = old
    if old_den == den:
        num += old_num
    else:
        g = gcd(old_den, den)
        num = old_num * (den // g) + num * (old_den // g)
        den = old_den // g * den
    if num:
        sums[word] = (num, den)
    else:
        del sums[word]


def _combination(sums: _Sums) -> Combination:
    """The Combination of nonzero integer sums, each reduced in place by one gcd.

    ``sums`` becomes the terms of the result, so it must be a fresh dict
    that no one else holds or changes.
    """
    for w, (num, den) in sums.items():
        g = gcd(num, den)
        if g != 1:
            sums[w] = (num // g, den // g)
    return _of_pairs(sums)


def _of_pairs(pairs: dict[Word, tuple[int, int]]) -> Combination:
    """The Combination of reduced nonzero pairs; the shared zero when there is none."""
    if not pairs:
        return _ZERO
    out = Combination.__new__(Combination)
    out._terms = pairs
    return out


# the one zero the engine returns; its terms are read-only, so sharing it is safe
_ZERO = Combination.__new__(Combination)
_ZERO._terms = MappingProxyType({})


def _single_letter(comb_word: Word) -> Key:
    if len(comb_word) != 1:
        raise AssertionError(f"level maps must land in single generators, got {comb_word}")
    return comb_word[0]


class LinfStructure:
    """L-infinity structure: lazy, memoized level maps l^k of degree +1.

    ``level(word)`` is l^k(word), k = len(word), from ``level_rule(word)``.
    Two declarations say where the rule can be nonzero; each is a promise
    about it, which :func:`extend_coderivation` keeps by never asking the
    rule anywhere else:

    * ``arities``: the arities at which it can be nonzero; ``None`` (the
      default) means every arity.
    * ``odd_heads``: when true, it is zero on every head with no odd
      letter, so a word with no odd letter has l̂ = 0 and only heads that
      hold an odd position are evaluated.
    """

    def __init__(
        self,
        generators: GeneratorSet,
        level_rule: Callable[[Word], Combination],
        arities: Iterable[int] | None = None,
        odd_heads: bool = False,
    ) -> None:
        self.generators = generators
        self.arities = _declared_arities(arities)
        self.odd_heads = odd_heads
        self._memo = Memo(level_rule)

    def level(self, word: Word) -> Combination:
        return self._memo[word]


def _declared_arities(arities: Iterable[int] | None) -> tuple[int, ...] | None:
    """The sorted distinct arities of a declaration, or None for every arity."""
    if arities is None:
        return None
    arities = tuple(sorted(set(arities)))
    if any(not isinstance(i, int) or i < 1 for i in arities):
        raise ValueError(f"arities must be positive integers, got {arities}")
    return arities


def abelian(generators: GeneratorSet) -> LinfStructure:
    """The structure with all level maps zero."""
    return LinfStructure(generators, lambda word: _ZERO, arities=())


def _check_word(word: Word) -> None:
    """Reject an empty word and one whose keys are not sorted (ValueError)."""
    if not word:
        raise ValueError("words must be nonempty")
    if not all(map(le, word, word[1:])):
        raise ValueError(f"word {word!r} is not canonical: its keys must be sorted")


def _head_crossings(head: Sequence[int], odd: Sequence[int], odd_before: Sequence[int]) -> int:
    """Crossings of two odd letters when the ascending positions ``head`` move to the front.

    Each odd head letter crosses the odd letters before it that stay behind.
    """
    crossings = 0
    seen = 0
    for p in head:
        if odd[p]:
            crossings += odd_before[p] - seen
            seen += 1
    return crossings


def _getter(positions: tuple[int, ...]) -> Callable[[Word], Word]:
    """An ``itemgetter`` of ``positions`` that returns a tuple for any number of them."""
    if len(positions) > 1:
        return itemgetter(*positions)
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


def _block_plan(key: tuple[int, int]) -> tuple:
    """For key (k, i), the (head, head getter, rest, rest getter) of every (i, k - i)-shuffle.

    Heads come in ``combinations`` order, so those that hold position 0 come first.
    """
    k, i = key
    blocks = []
    for head in combinations(range(k), i):
        rest = tuple(p for p in range(k) if p not in head)
        blocks.append((head, _getter(head), rest, _getter(rest)))
    return tuple(blocks)


def _odd_head_plan(key: tuple[int, tuple[int, ...]]) -> tuple:
    """For key (i, odd), the blocks of the (len(odd), i) plan whose head holds a p with odd[p]."""
    i, odd = key
    return tuple(block for block in _BLOCK_PLANS[len(odd), i] if any(odd[p] for p in block[0]))


# (k, i) -> its block plan; (i, letter parities of a word) -> its odd-head blocks
_BLOCK_PLANS = Memo(_block_plan)
_ODD_HEAD_PLANS = Memo(_odd_head_plan)


_EMPTY = {(): (1, 1)}  # the terms of φ̂ of the empty rest: the unit word


class LinfMorphism:
    """L-infinity morphism: lazy, memoized level maps phi^k of degree 0.

    ``level(word)`` is phi^k(word), k = len(word), from ``level_rule(word)``.
    Given ``memo_key``, the rule takes ``memo_key(word)`` instead of the word,
    and the level memo stores its value under that key, so a level is a
    function of its key and words with one key share one entry.

    ``arities`` declares the block sizes at which ``level_rule`` can be
    nonzero, as on :class:`LinfStructure`; ``None`` (the default) means
    every size.  :meth:`extend` visits the declared sizes only.

    A composite built by :func:`compose` fills an extension miss from its
    factors' extensions, Ĝ ∘ F̂, instead of the block recursion on its levels;
    one whose inner factor is a :func:`letter_map` reads Ĝ at the image word
    on every call and keeps no extension memo (``_extend_memo`` is None).
    """

    def __init__(
        self,
        source: GeneratorSet,
        target: GeneratorSet,
        level_rule: Callable[[Hashable], Combination],
        memo_key: Callable[[Word], Hashable] | None = None,
        arities: Iterable[int] | None = None,
    ) -> None:
        self.source = source
        self.target = target
        self.arities = _declared_arities(arities)
        self._rule = level_rule
        self._memo_key = memo_key
        self._extension: Callable[[Word], Combination] | None = None  # set by ``compose``
        self._letters: Memo | None = None  # set by ``letter_map``
        # filled through ``get`` and ``store``: cheaper than ``__missing__``, and no cycle
        self._level_memo = Memo()
        self._extend_memo = Memo()

    def level(self, word: Word) -> Combination:
        key = word if self._memo_key is None else self._memo_key(word)
        cached = self._level_memo.get(key)
        if cached is None:
            cached = self._level_memo.store(key, self._rule(key))
        return cached

    def extend(self, word: Word) -> Combination:
        """The cofunctor extension φ̂ evaluated on a canonical word."""
        memo = self._extend_memo
        if memo is None:  # a composite through a letter map: its outer factor's memo holds φ̂
            return self._extension(word)
        cached = memo.get(word)
        if cached is None:
            _check_word(word)
            value = self._extend(word) if self._extension is None else self._extension(word)
            cached = memo.store(word, value)
        return cached

    def _extend(self, word: Word) -> Combination:
        """φ̂(w) = Σ ± φ^{|B|}(w_B) ⊙ φ̂(w∖B) over the blocks B holding position 0.

        ``word`` is canonical, so each rest w∖B is too, and its φ̂ is read
        from the memo or computed here without a second check.
        """
        k = len(word)
        odd = tuple(map(self.source.parity, word))
        signed = sum(odd) > 1  # only then can a head cross an odd letter
        odd_before = list(accumulate(odd, initial=0)) if signed else None
        target_parity = self.target.parity
        memo = self._extend_memo
        out: _Sums = {}
        for size in range(1, k + 1) if self.arities is None else self.arities:
            if size > k:
                break
            for head, get_head, _, get_rest in _BLOCK_PLANS[k, size]:
                if head[0]:
                    break
                value = self.level(get_head(word))._terms
                if not value:
                    continue
                head_sign = -1 if signed and _head_crossings(head, odd, odd_before) & 1 else 1
                tail = get_rest(word)
                if tail:
                    rest = memo.get(tail)
                    if rest is None:
                        rest = memo.store(tail, self._extend(tail))
                    rest = rest._terms
                else:
                    rest = _EMPTY
                for out_word, (num, den) in value.items():
                    letter = _single_letter(out_word)
                    for u, (d_num, d_den) in rest.items():
                        target_word, sign = _insert_letter(target_parity, letter, u)
                        if target_word is not None:
                            term = num * d_num
                            _add(out, target_word, term if sign == head_sign else -term, den * d_den)
        return _combination(out)


def extend_coderivation(structure: LinfStructure, word: Word) -> Combination:
    """l̂(w) = Σ_{i} Σ_{(i, k-i)-shuffles} ± l^i(first block) ⊙ (rest).

    Only the declared arities i of ``structure`` are visited, and, when it
    declares ``odd_heads``, only the heads that hold an odd letter.  The
    shuffle sign counts, for each odd head letter, the odd rest letters
    before it; the output letter of l^i goes into the rest by
    :func:`_insert_letter`.
    """
    _check_word(word)
    return _coderivation(structure, word)


def _coderivation(structure: LinfStructure, word: Word) -> Combination:
    """:func:`extend_coderivation` on a word already known to be canonical."""
    k = len(word)
    parity = structure.generators.parity
    odd = tuple(map(parity, word))
    odd_heads = structure.odd_heads
    if odd_heads and 1 not in odd:
        return _ZERO
    # only a word with two or more odd letters has a crossing or a repeated odd letter
    signed = sum(odd) > 1
    odd_before = list(accumulate(odd, initial=0)) if signed else None
    # a rest holding a repeated odd letter is zero (only in non-reduced words)
    repeats = signed and any(odd[p] and word[p] == word[p + 1] for p in range(k - 1))
    out: _Sums = {}
    for i in range(1, k + 1) if structure.arities is None else structure.arities:
        if i > k:
            break
        for head, get_head, rest, get_rest in _ODD_HEAD_PLANS[i, odd] if odd_heads else _BLOCK_PLANS[k, i]:
            value = structure.level(get_head(word))._terms
            if not value:
                continue
            rest_word = get_rest(word)
            if repeats and any(
                odd[rest[t]] and rest_word[t] == rest_word[t + 1] for t in range(k - i - 1)
            ):
                continue
            head_sign = -1 if signed and _head_crossings(head, odd, odd_before) & 1 else 1
            for out_word, (num, den) in value.items():
                target_word, sign = _insert_letter(parity, _single_letter(out_word), rest_word)
                if target_word is not None:
                    _add(out, target_word, num if sign == head_sign else -num, den)
    return _combination(out)


def _image(letter: Callable[[Key], Key], parity: Callable[[Key], int], word: Word, name: str) -> Word | None:
    """The letterwise image of a canonical word under a map that keeps key order and parity.

    The image is canonical and carries no sign, so it is the one word
    ``tuple(map(letter, word))``, or None when it repeats an odd letter (the
    image is 0).  One C-level pass finds a strictly ascending image; only
    otherwise is it scanned, and a descent, a broken order promise, raises
    ValueError naming the map ``name``.  ``parity`` is that of the image letters.
    """
    u = tuple(map(letter, word))
    if not all(map(lt, u, u[1:])):  # equal letters, or a broken order promise
        for x, y in zip(u, u[1:]):
            if y < x:
                raise ValueError(f"{name} breaks the key order on {word!r}: its image is {u!r}")
            if x == y and parity(x):
                return None
    return u


def letter_map(source: GeneratorSet, target: GeneratorSet, letter: Callable[[Key], Key]) -> LinfMorphism:
    """The strict morphism phi^1(x) = letter(x) with coefficient 1, phi^{>=2} = 0.

    ``letter`` is read through one :class:`ellsuper.exact.Memo` per map,
    whose compute holds ``letter`` and ``source``, never the morphism.  The
    map promises to keep the parity of each letter, as a morphism of
    degree 0 does, and the order of the keys: x <= y gives
    letter(x) <= letter(y).  So φ̂ of a canonical word w is the one word
    ``tuple(map(letter, w))``, canonical and with coefficient 1 and no
    sign, or 0 when it repeats an odd letter; :func:`compose` reads its
    outer factor at that image instead of extending this map.  A map that
    breaks the order promise raises ValueError when a composite reads a
    word whose image descends.  A letter memo miss reads ``source.parity``
    first, so a key that is no generator of ``source`` raises ValueError and
    is never stored.
    """

    def checked(key: Key) -> Key:
        source.parity(key)  # an unknown key raises ValueError, and is not stored
        return letter(key)

    letters = Memo(checked)

    def rule(word: Word) -> Combination:
        return Combination.single((letters[word[0]],)) if len(word) == 1 else _ZERO

    morphism = LinfMorphism(source, target, rule, arities=(1,))
    morphism._letters = letters
    return morphism


def identity_morphism(generators: GeneratorSet) -> LinfMorphism:
    """phi^1 = id, phi^{>=2} = 0: the letter map of the identity, which keeps
    every key, so its order and parity, and composes by reading the outer
    factor at the word itself (a repeated odd letter gives 0)."""
    return letter_map(generators, generators, lambda key: key)


def compose(outer: LinfMorphism, inner: LinfMorphism) -> LinfMorphism:
    """Levelwise composition.

    (outer ∘ inner)^k(w) = Σ_{u ∈ inner-hat(w)} coeff(u) · outer^{|u|}(u),
    and the composite's extension is outer-hat ∘ inner-hat.  When ``inner``
    is a :func:`letter_map`, which promises to keep key order and parity,
    inner-hat(w) is the one image word u of w with coefficient 1, or 0, so
    the composite checks w and reads ``outer.level(u)`` and
    ``outer.extend(u)`` themselves, and reads or fills no memo of ``inner``.
    It keeps a level memo but no extension memo: ``outer``'s extension memo
    already holds Ĝ(u), so the composite's ``extend`` reads it on every
    call.  Neither the rule nor the extension holds the composite.
    """
    if not inner.target.compatible(outer.source):
        raise ValueError(
            f"cannot compose: inner target {inner.target.label!r} "
            f"does not match outer source {outer.source.label!r}"
        )

    if inner._letters is None:

        def rule(word: Word) -> Combination:
            return inner.extend(word).apply(outer.level)

        def extension(word: Word) -> Combination:
            return inner.extend(word).apply(outer.extend)

    else:
        letter, parity = inner._letters.__getitem__, inner.target.parity

        def rule(word: Word) -> Combination:
            _check_word(word)
            u = _image(letter, parity, word, "letter map")
            return _ZERO if u is None else outer.level(u)

        def extension(word: Word) -> Combination:
            _check_word(word)
            u = _image(letter, parity, word, "letter map")
            return _ZERO if u is None else outer.extend(u)

    composite = LinfMorphism(inner.source, outer.target, rule)
    composite._extension = extension
    if inner._letters is not None:
        composite._extend_memo = None  # outer's extension memo holds Ĝ(u)
    return composite


def invert(morphism: LinfMorphism, preimage: Callable[[Key], Key]) -> LinfMorphism:
    """Levelwise inverse of a morphism with diagonal phi^1.

    ``preimage`` maps a target generator key to the source key whose phi^1
    image is proportional to it.  Like a :func:`letter_map`, it promises to
    keep key order and parity, so the letterwise preimage w of a canonical
    word u is canonical.  The rule checks u as :func:`compose`'s rule
    checks its word, and w in the one pass that
    :func:`compose` uses for an image word: a descent raises ValueError
    naming the promise, and a repeated odd letter in w raises ValueError
    (the preimage vanishes).  The inverse H satisfies (H ∘ F)^k = id^k;
    solving that relation for H^k gives

        H^k(u) = -(1/c) (Σ_{blocks not all singletons} H^s(F-blocks applied to w) - id^k(w)),

    with c the coefficient of u in the all-singletons (length-k) part of
    F̂(w).  id^k(w) is w at k = 1 and 0 above, so H^1(u) = w/c is the k = 1
    case: its sum starts at -w, and F̂ of one letter is that letter's level.
    The rule walks the terms of F̂(w) once: a length-k term is the diagonal,
    which must be the single term u, and each shorter term u' adds its
    coefficient times H^{|u'|}(u') to one integer sum, which is then scaled
    by -1/c in place.  The rule reads H^s through a weak reference, so H is no
    reference cycle.
    """
    parity = morphism.source.parity

    def rule(u_word: Word) -> Combination:
        _check_word(u_word)
        k = len(u_word)
        w = _image(preimage, parity, u_word, "preimage")
        if w is None:
            raise ValueError(f"preimage of {u_word} vanishes (repeated odd letter)")
        # F̂ of one letter is its level, and id^1(w) = w starts the sum at -w
        terms, lower = (morphism.level(w), {w: (-1, 1)}) if k == 1 else (morphism.extend(w), {})
        level = inverse_ref().level  # H is alive: only H.level calls this rule
        diagonal = {}
        for u2, (c_num, c_den) in terms._terms.items():
            if len(u2) == k:
                diagonal[u2] = c_num, c_den
                continue
            for v, (d_num, d_den) in level(u2)._terms.items():
                _add(lower, v, c_num * d_num, c_den * d_den)
        coeff = diagonal.get(u_word)
        if coeff is None or len(diagonal) != 1:
            raise ValueError(f"phi^1 is not diagonal on the letters of {u_word}")
        num, den = _reciprocal(*coeff)
        num = -num
        for v, (s_num, s_den) in lower.items():
            lower[v] = (s_num * num, s_den * den)
        return _combination(lower)

    inverse = LinfMorphism(morphism.target, morphism.source, rule)
    inverse_ref = weakref.ref(inverse)
    return inverse


def check_structure(structure: LinfStructure, words: Iterable[Word]) -> Report:
    """Verify the generalized Jacobi identities: l̂(l̂(w)) = 0 for each word."""
    failures: list[str] = []
    checked = 0
    for word in words:
        checked += 1
        first = extend_coderivation(structure, word)
        # the words of l̂(w) are built canonical by the engine
        residual = first.apply(lambda u: _coderivation(structure, u))
        if residual:
            failures.append(f"coderivation square nonzero on {word}: {residual}")
    return Report(checked, failures)


def morphisms_agree(
    left: LinfMorphism,
    right: LinfMorphism,
    words: Iterable[Word],
) -> Report:
    """Compare level maps of two morphisms on the given canonical words."""
    failures: list[str] = []
    checked = 0
    for word in words:
        checked += 1
        a = left.level(word)
        b = right.level(word)
        if a != b:
            failures.append(f"levels differ on {word}: {a} vs {b}")
    return Report(checked, failures)
