"""A small L-infinity algebra engine over exact rationals.

Objects
-------
* :class:`GeneratorSet` — a (possibly infinite) family of graded generators
  addressed by hashable, orderable keys: a label plus a degree rule.
* ``Word`` — a symmetric word of generators: the tuple of its keys in
  canonical (sorted) order.  Reordering signs are Koszul: two odd letters
  crossing contribute -1, and a word with a repeated odd letter is zero.
* :class:`Combination` — a finite Q-linear combination of words;
  :meth:`Combination.apply` is the linear extension Σ_u c_u · f(u).
* :class:`LinfStructure` — level maps l^k : Sym^k -> generators of degree +1,
  given lazily by a rule and memoized.  A structure may declare the arities
  at which its level maps can be nonzero (``arities=(1, 2)``; omitted means
  every arity, ``()`` means abelian).  The declaration is a promise about the
  rule: extensions never evaluate the other arities.
* :class:`LinfMorphism` — level maps phi^k : Sym^k(source) -> target of
  degree 0, same representation.

Operations
----------
* :func:`extend_coderivation` — the coderivation extension
  l̂(v_1 ⊙ ... ⊙ v_k) = Σ_i Σ_{(i, k-i)-shuffles} ± l^i(block) ⊙ rest,
  over the declared arities i only.
* :meth:`LinfMorphism.extend` — the cofunctor extension, a sum over the set
  partitions of the letters with blocks ordered by their first letter,
  computed by recursion on the block B that holds the first letter:
  φ̂(w) = Σ_{B ∋ w_0} ± φ^{|B|}(w_B) ⊙ φ̂(w∖B).  The rest of a canonical
  word is canonical, so φ̂(w∖B) is a memoized sub-word of w.
* :func:`compose` — (G ∘ F)^k(w) = Σ_{u ∈ F̂(w)} coeff · G^{|u|}(u).
* :func:`invert` — levelwise inverse of a morphism whose φ^1 is diagonal on
  basis generators: H^1 inverts the diagonal, and for k >= 2
  H^k(u) = -(1/c) Σ H^{s}(non-diagonal blocks of F̂ applied to the preimage),
  where c is the coefficient of the all-singletons term.
* :func:`check_structure` — verifies l̂ ∘ l̂ = 0 on supplied words.

Every level map, including those of composites and inverses, is defined
lazily at every arity and memoized per word.

Signs follow one rule.  Pulling a head block to the front costs (-1) to the
number of crossings of two odd letters, counted from the word's parities.
Every output letter is placed by :func:`_insert_letter`, which bisects to its
sorted place in a canonical word; an odd letter flips the sign once per odd
letter it crosses, and zeroes the word if it is already there.  Both
extensions insert into canonical words (the rest of the coderivation, each
term of φ̂(w∖B)), so they reject a word whose keys are not sorted with a
ValueError; :func:`canonical_word` sorts arbitrary keys by a right-to-left
fold of insertions.

Level maps are required to land in single generators (length-one words);
this holds for every structure in this package and keeps extensions small.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import le
from typing import Callable, Hashable, Iterable, Sequence

from .exact import shuffles
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
    """

    def __init__(self, label: str, degree_fn: Callable[[Key], int]) -> None:
        self.label = label
        self._degree_fn = degree_fn

    def degree(self, key: Key) -> int:
        return self._degree_fn(key)

    def compatible(self, other: "GeneratorSet") -> bool:
        return self.label == other.label

    def __repr__(self) -> str:
        return f"GeneratorSet({self.label!r})"


# A word is the tuple of its keys in canonical (sorted) order.
Word = tuple


def _insert_letter(degree: Callable[[Key], int], letter: Key, word: Word) -> tuple[Word | None, int]:
    """Insert ``letter`` into the canonical ``word`` at its sorted place: (word, sign).

    The letter goes before any equal letters.  An odd letter flips the sign
    once per odd letter it crosses, and one that is already in the word
    makes it zero: (None, 0).
    """
    at = bisect_left(word, letter)
    sign = 1
    if degree(letter) & 1:
        if at < len(word) and word[at] == letter:
            return None, 0
        for key in word[:at]:
            if degree(key) & 1:
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
        word, flip = _insert_letter(genset.degree, key, word)
        if word is None:
            return None, 0
        sign *= flip
    return word, sign


class Combination:
    """Finite Q-linear combination of words; zero coefficients are dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None) -> None:
        self._terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "Combination":
        return cls()

    @classmethod
    def single(cls, word: Word, coeff: int | Fraction = 1) -> "Combination":
        return cls({word: Fraction(coeff)})

    def terms(self) -> Iterable[tuple[Word, Fraction]]:
        return self._terms.items()

    def __getitem__(self, word: Word) -> Fraction:
        return self._terms.get(word, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __mul__(self, scalar: int | Fraction) -> "Combination":
        return Combination({w: c * scalar for w, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Combination) and self._terms == other._terms

    def apply(self, fn: Callable[[Word], "Combination"]) -> "Combination":
        """The linear extension Σ_u c_u · fn(u), accumulated in one dict."""
        out: dict[Word, Fraction] = {}
        for u, c in self._terms.items():
            for w, d in fn(u)._terms.items():
                _accumulate(out, w, c * d)
        return Combination(out)

    def restrict_length(self, length: int) -> "Combination":
        return Combination({w: c for w, c in self._terms.items() if len(w) == length})

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*{w}" for w, c in sorted(self._terms.items(), key=lambda t: t[0]))


def _accumulate(store: dict[Word, Fraction], word: Word, coeff: Fraction) -> None:
    old = store.get(word)
    new = coeff if old is None else old + coeff
    if new:
        store[word] = new
    else:
        store.pop(word, None)


def _single_letter(comb_word: Word) -> Key:
    if len(comb_word) != 1:
        raise AssertionError(f"level maps must land in single generators, got {comb_word}")
    return comb_word[0]


class LinfStructure:
    """L-infinity structure: lazy, memoized level maps l^k of degree +1.

    ``arities`` declares the arities at which ``level_rule`` can be nonzero;
    ``None`` (the default) means every arity.  :func:`extend_coderivation`
    evaluates head blocks at the declared arities only.
    """

    def __init__(
        self,
        generators: GeneratorSet,
        level_rule: Callable[[int, Word], Combination],
        arities: Iterable[int] | None = None,
    ) -> None:
        if arities is not None:
            arities = tuple(sorted(set(arities)))
            if any(not isinstance(i, int) or i < 1 for i in arities):
                raise ValueError(f"arities must be positive integers, got {arities}")
        self.generators = generators
        self.arities = arities
        self._rule = level_rule
        self._memo: dict[Word, Combination] = {}

    def level(self, k: int, word: Word) -> Combination:
        if len(word) != k:
            raise ValueError(f"arity {k} does not match word length {len(word)}")
        cached = self._memo.get(word)
        if cached is None:
            cached = self._memo[word] = self._rule(k, word)
        return cached


def abelian(generators: GeneratorSet) -> LinfStructure:
    """The structure with all level maps zero."""
    return LinfStructure(generators, lambda k, word: Combination.zero(), arities=())


def _parities(degree: Callable[[Key], int], word: Word) -> tuple[list[int], list[int]]:
    """Letter parities of a canonical word, and the count of odd letters before each position."""
    if not all(map(le, word, word[1:])):
        raise ValueError(f"word {word!r} is not canonical: its keys must be sorted")
    odd = [degree(key) & 1 for key in word]
    odd_before = [0]
    for parity in odd:
        odd_before.append(odd_before[-1] + parity)
    return odd, odd_before


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


_EMPTY = Combination.single(())  # φ̂ of the empty rest: the unit word


class LinfMorphism:
    """L-infinity morphism: lazy, memoized level maps phi^k of degree 0."""

    def __init__(
        self,
        source: GeneratorSet,
        target: GeneratorSet,
        level_rule: Callable[[int, Word], Combination],
    ) -> None:
        self.source = source
        self.target = target
        self._rule = level_rule
        self._level_memo: dict[Word, Combination] = {}
        self._extend_memo: dict[Word, Combination] = {}

    def level(self, k: int, word: Word) -> Combination:
        if len(word) != k:
            raise ValueError(f"arity {k} does not match word length {len(word)}")
        cached = self._level_memo.get(word)
        if cached is None:
            cached = self._level_memo[word] = self._rule(k, word)
        return cached

    def extend(self, word: Word) -> Combination:
        """The cofunctor extension φ̂ evaluated on a canonical word."""
        cached = self._extend_memo.get(word)
        if cached is None:
            cached = self._extend_memo[word] = self._extend(word)
        return cached

    def _extend(self, word: Word) -> Combination:
        """φ̂(w) = Σ ± φ^{|B|}(w_B) ⊙ φ̂(w∖B) over the blocks B holding position 0."""
        k = len(word)
        if k == 0:
            raise ValueError("words must be nonempty")
        odd, odd_before = _parities(self.source.degree, word)
        target_degree = self.target.degree
        out: dict[Word, Fraction] = {}
        for size in range(1, k + 1):
            for sigma in shuffles(size - 1, k - size):
                head = (0,) + tuple([p + 1 for p in sigma[:size - 1]])
                value = self.level(size, tuple([word[p] for p in head]))
                if not value:
                    continue
                head_sign = -1 if _head_crossings(head, odd, odd_before) & 1 else 1
                tail = tuple([word[p + 1] for p in sigma[size - 1:]])
                rest = self.extend(tail) if tail else _EMPTY
                for out_word, coeff in value.terms():
                    letter = _single_letter(out_word)
                    for u, d in rest.terms():
                        target_word, sign = _insert_letter(target_degree, letter, u)
                        if target_word is not None:
                            _accumulate(out, target_word, (coeff if sign == head_sign else -coeff) * d)
        return Combination(out)


def extend_coderivation(structure: LinfStructure, word: Word) -> Combination:
    """l̂(w) = Σ_{i} Σ_{(i, k-i)-shuffles} ± l^i(first block) ⊙ (rest).

    Only the declared arities i of ``structure`` are visited.  The shuffle
    sign counts, for each odd head letter, the odd rest letters before it;
    the output letter of l^i goes into the rest by :func:`_insert_letter`.
    """
    k = len(word)
    if k == 0:
        raise ValueError("words must be nonempty")
    degree = structure.generators.degree
    odd, odd_before = _parities(degree, word)
    # a rest holding a repeated odd letter is zero (only in non-reduced words)
    repeats = any(odd[p] and word[p] == word[p + 1] for p in range(k - 1))
    out: dict[Word, Fraction] = {}
    for i in range(1, k + 1) if structure.arities is None else structure.arities:
        if i > k:
            break
        for sigma in shuffles(i, k - i):
            head = sigma[:i]
            value = structure.level(i, tuple([word[p] for p in head]))
            if not value:
                continue
            rest = sigma[i:]
            rest_word = tuple([word[p] for p in rest])
            if repeats and any(
                odd[rest[t]] and rest_word[t] == rest_word[t + 1] for t in range(k - i - 1)
            ):
                continue
            head_sign = -1 if _head_crossings(head, odd, odd_before) & 1 else 1
            for out_word, coeff in value.terms():
                target_word, sign = _insert_letter(degree, _single_letter(out_word), rest_word)
                if target_word is not None:
                    _accumulate(out, target_word, coeff if sign == head_sign else -coeff)
    return Combination(out)


def identity_morphism(generators: GeneratorSet) -> LinfMorphism:
    """phi^1 = id, phi^{>=2} = 0."""

    def rule(k: int, word: Word) -> Combination:
        if k == 1:
            return Combination.single(word)
        return Combination.zero()

    return LinfMorphism(generators, generators, rule)


def compose(outer: LinfMorphism, inner: LinfMorphism) -> LinfMorphism:
    """Levelwise composition.

    (outer ∘ inner)^k(w) = Σ_{u ∈ inner-hat(w)} coeff(u) · outer^{|u|}(u).
    """
    if not inner.target.compatible(outer.source):
        raise ValueError(
            f"cannot compose: inner target {inner.target.label!r} "
            f"does not match outer source {outer.source.label!r}"
        )

    def rule(k: int, word: Word) -> Combination:
        return inner.extend(word).apply(lambda u: outer.level(len(u), u))

    return LinfMorphism(inner.source, outer.target, rule)


def invert(morphism: LinfMorphism, preimage: Callable[[Key], Key]) -> LinfMorphism:
    """Levelwise inverse of a morphism with diagonal phi^1.

    ``preimage`` maps a target generator key to the source key whose phi^1
    image is proportional to it.  The inverse H satisfies (H ∘ F)^k = id^k;
    solving that relation for H^k gives

        H^1(q) = (1/c_q) v_q,
        H^k(u) = -(1/c) Σ_{blocks not all singletons} H^s(F-blocks applied to w),

    with w the letterwise preimage of u and c the coefficient of u in the
    all-singletons (length-k) part of F̂(w).
    """

    def rule(k: int, u_word: Word) -> Combination:
        if k == 1:
            source_key = preimage(u_word[0])
            w = (source_key,)
            image = morphism.level(1, w)
            coeff = image[u_word]
            if coeff == 0 or len(image) != 1:
                raise ValueError(
                    f"phi^1 is not diagonal at {source_key}: phi^1 = {image}, expected a multiple of {u_word}"
                )
            return Combination.single(w, Fraction(1) / coeff)
        w, _ = canonical_word(morphism.source, [preimage(key) for key in u_word])
        if w is None:
            raise ValueError(f"preimage of {u_word} vanishes (repeated odd letter)")
        expansion = morphism.extend(w)
        diagonal = expansion.restrict_length(k)
        coeff = diagonal[u_word]
        if coeff == 0 or len(diagonal) != 1:
            raise ValueError(f"phi^1 is not diagonal on the letters of {u_word}")
        lower = expansion.apply(
            lambda u2: Combination.zero() if len(u2) == k else inverse.level(len(u2), u2)
        )
        return (Fraction(-1) / coeff) * lower

    inverse = LinfMorphism(morphism.target, morphism.source, rule)
    return inverse


def check_structure(structure: LinfStructure, words: Iterable[Word]) -> Report:
    """Verify the generalized Jacobi identities: l̂(l̂(w)) = 0 for each word."""
    failures: list[str] = []
    checked = 0
    for word in words:
        checked += 1
        first = extend_coderivation(structure, word)
        residual = first.apply(lambda u: extend_coderivation(structure, u))
        if residual:
            failures.append(f"coderivation square nonzero on {word}: {residual}")
    return Report(not failures, checked, failures)


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
        a = left.level(len(word), word)
        b = right.level(len(word), word)
        if a != b:
            failures.append(f"levels differ on {word}: {a} vs {b}")
    return Report(not failures, checked, failures)
