"""Structural model of register subsets and the parity-based classifier.

A subset of the 2n-qubit storage register is described per pair: each of the
n clone/noise pairs contributes BOTH, SIGNAL, NOISE, or NONE of its qubits.
Every classification rule is a function of the counts derived from these
tags, which makes permutation invariance structural rather than incidental.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

from .branch import leak_sum_closed_form


class PairTag(str, Enum):
    BOTH = "BOTH"
    SIGNAL = "SIGNAL"
    NOISE = "NOISE"
    NONE = "NONE"


_TAGS = tuple(PairTag)  # iterating the Enum class is slow


class Verdict(str, Enum):
    AUTHORIZED = "AUTHORIZED"
    COMPLETELY_UNINFORMATIVE = "COMPLETELY_UNINFORMATIVE"
    PARTIALLY_INFORMATIVE = "PARTIALLY_INFORMATIVE"


class Rule(str, Enum):
    """Which decision step produced a verdict."""

    AUTH1 = "AUTH1"                          # full pair + coverage of all pairs
    PROP1_MISSING_PAIR = "PROP1_MISSING_PAIR"  # at least one pair fully absent
    PARITY_EVEN_N = "PARITY_EVEN_N"          # aligned, even clone count
    PARITY_EVEN_P = "PARITY_EVEN_P"          # aligned, even signal count
    PARITY_ODD_ODD = "PARITY_ODD_ODD"        # aligned, n and p both odd: leaks


@dataclass(frozen=True)
class LeakDescriptor:
    """Sign and observable of the surviving y-dependence."""

    sign: int
    observable: str


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    reason: Rule
    leak: LeakDescriptor | None = None

    def __post_init__(self):
        leaking = self.verdict is Verdict.PARTIALLY_INFORMATIVE
        if leaking != (self.leak is not None):
            raise ValueError("leak descriptor present iff partially informative")


@dataclass(frozen=True)
class RegisterSubset:
    """Membership of one register subset, one tag per clone/noise pair."""

    n: int
    membership: tuple[PairTag, ...]
    both_count: int = field(init=False, repr=False, compare=False)
    missing_pairs: int = field(init=False, repr=False, compare=False)
    # Signal (p) and noise (q) qubits present, counting those in full pairs.
    signal_count: int = field(init=False, repr=False, compare=False)
    noise_count: int = field(init=False, repr=False, compare=False)
    # (#BOTH, #SIGNAL, #NOISE, #NONE), shared by a pair-permutation orbit.
    counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"clone count must be >= 1, got {self.n}")
        if len(self.membership) != self.n:
            raise ValueError(f"expected {self.n} pair tags, got "
                             f"{len(self.membership)}")
        tags = self.membership
        if type(tags) is not tuple or any(type(t) is not PairTag for t in tags):
            tags = tuple(PairTag(t) for t in tags)
        counts = tuple(map(tags.count, _TAGS))
        both, signal, noise, missing = counts
        for name, value in (("membership", tags), ("both_count", both),
                            ("missing_pairs", missing),
                            ("signal_count", both + signal),
                            ("noise_count", both + noise),
                            ("counts", counts)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.signal_count + self.noise_count

    def labels(self) -> str:
        """Canonical textual form, e.g. 'S1,N1,S2'; empty subsets yield ''."""
        return "".join(map(dict.__getitem__, _label_fragments(self.n),
                           self.membership))[1:]


@functools.lru_cache(maxsize=16)
def _label_fragments(n: int) -> tuple[dict[PairTag, str], ...]:
    """Per position, the label each tag contributes behind a comma ('' for
    NONE): a pattern's label is its fragments joined, less the first comma."""
    return tuple(dict(zip(_TAGS, (f",S{i},N{i}", f",S{i}", f",N{i}", "")))
                 for i in range(1, n + 1))


def classify(subset: RegisterSubset) -> Classification:
    """Decide authorized / completely uninformative / partially informative.

    Purely structural: no state is computed. For a partially informative
    verdict the leak descriptor carries the sign of the y-coefficient, taken
    from the interference calculus's closed form, a pure function of (n, p).
    """
    if subset.size == 0:
        raise ValueError("empty subset has no classification")
    return _classify_counts(subset.n, subset.both_count, subset.missing_pairs,
                            subset.signal_count)


@functools.lru_cache(maxsize=4096)  # all 1 807 count classes of n <= 12
def _classify_counts(n: int, both: int, missing: int, p: int) -> Classification:
    """The verdict shared by every subset with these per-pair counts."""
    if both >= 1 and missing == 0:
        return Classification(Verdict.AUTHORIZED, Rule.AUTH1)
    if missing >= 1:
        return Classification(Verdict.COMPLETELY_UNINFORMATIVE,
                              Rule.PROP1_MISSING_PAIR)
    if n % 2 == 0:
        return Classification(Verdict.COMPLETELY_UNINFORMATIVE, Rule.PARITY_EVEN_N)
    if p % 2 == 0:
        return Classification(Verdict.COMPLETELY_UNINFORMATIVE, Rule.PARITY_EVEN_P)
    return Classification(Verdict.PARTIALLY_INFORMATIVE, Rule.PARITY_ODD_ODD,
                          LeakDescriptor(leak_sum_closed_form(n, p) // 4,
                                         "Y" * n))


ENUMERATION_GUARD = 10


def row_fields(subset: RegisterSubset,
               cls: Classification) -> tuple[int, int, int, str, str]:
    """(size, p, q, verdict, rule): the structural cells of one table row."""
    return (subset.size, subset.signal_count, subset.noise_count,
            cls.verdict.value, cls.reason.value)


def first_pattern(n: int, counts: tuple) -> RegisterSubset:
    """A count class's first pattern in enumeration order (tags sorted)."""
    return RegisterSubset(n, sum(((tag,) * k
                                  for tag, k in zip(_TAGS, counts)), ()))


def _half(n: int, first: int, last: int) -> list[tuple[str, tuple]]:
    """(label, counts) of every pattern of pairs first..last.

    Entries are in enumeration order (last pair fastest); labels are joined
    fragments of `_label_fragments`, and counts are (#BOTH, #SIGNAL, #NOISE,
    #NONE). An empty range gives the one empty entry.
    """
    entries = [("", (0, 0, 0, 0))]
    for fragments in _label_fragments(n)[first - 1:last]:
        entries = [(label + fragment,
                    counts[:k] + (counts[k] + 1,) + counts[k + 1:])
                   for label, counts in entries
                   for k, fragment in enumerate(fragments.values())]
    return entries


TAIL = 3  # pairs below each streamed prefix, whose text has 4^3 patterns


def _compositions(total: int):
    """Every count class (#BOTH, #SIGNAL, #NOISE, #NONE) of `total` pairs."""
    return ((both, signal, noise, total - both - signal - noise)
            for both in range(total + 1) for signal in range(total + 1 - both)
            for noise in range(total + 1 - both - signal))


class ClassificationTable:
    """Every nonempty membership pattern of n pairs with its classification.

    A lazy view: nothing is enumerated until it is iterated, and each
    iteration starts afresh. Patterns come in a fixed order (tag order BOTH,
    SIGNAL, NOISE, NONE, varying the last pair fastest), so output is
    deterministic. Iterating gives (RegisterSubset, Classification) pairs;
    `templates` gives the same patterns' text, one piece per prefix.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"clone count must be >= 1, got {n}")
        if n > ENUMERATION_GUARD:
            raise ValueError(f"n={n} exceeds the enumeration guard "
                             f"{ENUMERATION_GUARD} (4^n patterns)")
        self.n = n
        self._fields: dict[tuple, tuple] = {}  # count class -> row_fields

    def __len__(self) -> int:
        return 4 ** self.n - 1

    def __iter__(self):
        """(RegisterSubset, Classification) per pattern."""
        n = self.n
        # The empty pattern, all NONE, is the product's last element.
        for tags in itertools.islice(itertools.product(PairTag, repeat=n),
                                     len(self)):
            subset = RegisterSubset(n, tags)
            yield subset, classify(subset)

    def _class_fields(self, counts: tuple[int, int, int, int]) -> tuple:
        """row_fields of the count class (#BOTH, #SIGNAL, #NOISE, #NONE),
        decided once per view through `classify` on one representative."""
        fields = self._fields.get(counts)
        if fields is None:
            subset = first_pattern(self.n, counts)
            fields = self._fields[counts] = row_fields(subset, classify(subset))
        return fields

    def templates(self, leaf, mark: str):
        """(prefix label, template) per prefix of the first max(n - TAIL, 0)
        pairs, in order, without a RegisterSubset per pattern.

        A template is the text of the patterns under a prefix with `mark` for
        the prefix label (`leaf(fields)` is one row's), built once per prefix
        count class, bottom up: a class's text joins its four children's,
        each with the pair's label fragment put in after the mark (less its
        comma if the prefix is all NONE); a full class is its leaf, or "" if
        empty. The prefixes stream as the product of two stored halves.
        """
        n = self.n
        top = max(n - TAIL, 0)
        texts = {counts: leaf(self._class_fields(counts)) if counts[3] < n
                 else "" for counts in _compositions(n)}
        for j in range(n, top, -1):  # pair j's fragments go in after the mark
            fragments = _label_fragments(n)[j - 1].values()
            texts = {counts: "".join(
                texts[counts[:k] + (counts[k] + 1,) + counts[k + 1:]]
                .replace(mark, mark + fragment[counts[3] == j - 1:])
                for k, fragment in enumerate(fragments))
                for counts in _compositions(j - 1)}
        for (left, left_counts), (right, right_counts) in itertools.product(
                _half(n, 1, top // 2), _half(n, top // 2 + 1, top)):
            yield (left + right)[1:], texts[
                tuple(map(int.__add__, left_counts, right_counts))]

    def classes(self) -> dict[tuple[int, int, int, int], int]:
        """Patterns per count class (#BOTH, #SIGNAL, #NOISE, #NONE) of the
        nonempty patterns, n! / (b! s! q! m!) for the class (b, s, q, m),
        in order of b, then s, then q."""
        n = self.n
        return {(both, signal, noise, missing):
                math.comb(n, both) * math.comb(n - both, signal)
                * math.comb(n - both - signal, noise)
                for both, signal, noise, missing in _compositions(n)
                if missing < n}

    def verdict_counts(self) -> dict[str, int]:
        """Patterns per verdict, in Verdict order, summed over count classes."""
        tally = dict.fromkeys((verdict.value for verdict in Verdict), 0)
        for counts, size in self.classes().items():
            tally[self._class_fields(counts)[3]] += size
        return tally


def enumerate_classifications(n: int) -> ClassificationTable:
    """Classify every nonempty membership pattern (4^n - 1 of them).

    The clone count and the enumeration guard are checked before the view is
    returned; the patterns are made as the view is iterated.
    """
    return ClassificationTable(n)
