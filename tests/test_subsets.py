import ast
import graphlib
import itertools
import math
from pathlib import Path

import pytest

import cloneleak
from cloneleak import leakage
from cloneleak.branch import analytic_reduced_state
from cloneleak.subsets import (TAIL, Classification, LeakDescriptor,
                               PairTag, RegisterSubset, Rule, Verdict,
                               classify, enumerate_classifications,
                               first_pattern, row_fields)

B, S, N, E = PairTag.BOTH, PairTag.SIGNAL, PairTag.NOISE, PairTag.NONE


def subset(*tags):
    return RegisterSubset(len(tags), tags)


def test_counts():
    s = subset(B, S, N, E)
    assert s.both_count == 1
    assert s.signal_count == 2
    assert s.noise_count == 2
    assert s.size == 4
    assert s.missing_pairs == 1


def test_labels():
    assert subset(B, S, N).labels() == "S1,N1,S2,N3"
    assert subset(E, E).labels() == ""


def test_validation():
    with pytest.raises(ValueError):
        RegisterSubset(2, (S,))
    with pytest.raises(ValueError):
        RegisterSubset(0, ())


def test_authorized_examples():
    assert classify(subset(B, S, S, N)).verdict is Verdict.AUTHORIZED
    assert classify(subset(N, N, N)).verdict is not Verdict.AUTHORIZED
    assert classify(subset(B, E)).verdict is not Verdict.AUTHORIZED


def test_classify_examples():
    c = classify(subset(S, S))
    assert (c.verdict, c.reason) == (Verdict.COMPLETELY_UNINFORMATIVE,
                                     Rule.PARITY_EVEN_N)
    c = classify(subset(S, S, S, N, N))
    assert c.verdict is Verdict.PARTIALLY_INFORMATIVE
    assert c.reason is Rule.PARITY_ODD_ODD
    assert c.leak == LeakDescriptor(1, "YYYYY")
    c = classify(subset(B, E))
    assert (c.verdict, c.reason) == (Verdict.COMPLETELY_UNINFORMATIVE,
                                     Rule.PROP1_MISSING_PAIR)
    c = classify(subset(B, S, S, N))
    assert (c.verdict, c.reason) == (Verdict.AUTHORIZED, Rule.AUTH1)
    c = classify(subset(N, S, N))
    assert c.verdict is Verdict.PARTIALLY_INFORMATIVE
    c = classify(subset(S, S, N))
    assert (c.verdict, c.reason) == (Verdict.COMPLETELY_UNINFORMATIVE,
                                     Rule.PARITY_EVEN_P)


def test_classify_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        classify(subset(E, E))


def test_classify_sign_comes_from_closed_form():
    # n=3 leak sign from branch.leak_sum_closed_form: -1.
    c = classify(subset(S, S, S))
    assert c.leak == LeakDescriptor(-1, "YYY")


def test_leak_descriptor_only_when_leaking():
    with pytest.raises(ValueError):
        Classification(Verdict.AUTHORIZED, Rule.AUTH1,
                       LeakDescriptor(1, "Y"))
    with pytest.raises(ValueError):
        Classification(Verdict.PARTIALLY_INFORMATIVE, Rule.PARITY_ODD_ODD)


def test_analytic_state_refusal_examples():
    b = (0.0, 1.0, 0.0)
    assert (leakage.analytic_state(subset(N, S, N), b)
            == analytic_reduced_state(3, 1, b))
    with pytest.raises(ValueError, match=r"is OVERSIZED$"):
        leakage.analytic_state(subset(B, S), b)
    for tags in ((E, N), (B, E)):
        with pytest.raises(ValueError, match=r"is MISSING_PAIR$"):
            leakage.analytic_state(subset(*tags), b)


def test_enumerate_n1():
    entries = enumerate_classifications(1)
    verdicts = {s.labels(): c.verdict for s, c in entries}
    assert verdicts == {
        "S1,N1": Verdict.AUTHORIZED,
        "S1": Verdict.PARTIALLY_INFORMATIVE,
        "N1": Verdict.COMPLETELY_UNINFORMATIVE,
    }


def test_enumerate_n2_counts():
    entries = enumerate_classifications(2)
    assert len(entries) == 15
    by_verdict = {}
    for s, c in entries:
        by_verdict.setdefault(c.verdict, []).append(s)
    assert len(by_verdict[Verdict.AUTHORIZED]) == 5
    assert len(by_verdict[Verdict.COMPLETELY_UNINFORMATIVE]) == 10
    assert Verdict.PARTIALLY_INFORMATIVE not in by_verdict
    # Every unauthorized pattern at n=2 is completely uninformative.
    for s, c in entries:
        if s.both_count == 0 or s.missing_pairs:
            assert c.verdict is Verdict.COMPLETELY_UNINFORMATIVE


def test_enumerate_n3_partially_informative_count():
    entries = enumerate_classifications(3)
    leaky = [s for s, c in entries
             if c.verdict is Verdict.PARTIALLY_INFORMATIVE]
    # Aligned patterns with an odd signal count: C(3,1) + C(3,3).
    assert len(leaky) == 4
    assert all(s.both_count == 0 and s.missing_pairs == 0 for s in leaky)
    assert all(s.signal_count % 2 == 1 for s in leaky)


def test_enumerate_guard():
    with pytest.raises(ValueError, match="guard"):
        enumerate_classifications(11)


def _eager_classifications(n):
    """The enumeration as a list: every nonempty product of tags, in order."""
    out = []
    for tags in itertools.product(PairTag, repeat=n):
        s = RegisterSubset(n, tags)
        if s.size:
            out.append((s, classify(s)))
    return out


def _flat_rows(view):
    """(label, row_fields) per pattern, read back from the templates of a
    leaf that writes each row as the marker and the index of its fields."""
    fields = []

    def leaf(row_fields):
        fields.append(row_fields)
        return f"\n@|{len(fields) - 1}"

    text = "".join(text.replace("@", label)
                   for label, text in view.templates(leaf, "@"))
    return [(label, fields[int(index)])
            for label, index in (line.split("|") for line in text.split("\n")[1:])]


def test_enumeration_view_matches_the_eager_loop():
    for n in range(1, 7):
        view = enumerate_classifications(n)
        reference = _eager_classifications(n)
        assert list(view) == reference
        assert list(view) == reference  # a second pass starts afresh
        assert _flat_rows(view) == [(s.labels(), row_fields(s, c))
                                    for s, c in reference]


def test_templates_share_one_text_per_prefix_count_class():
    for n in range(1, 8):
        top = max(n - TAIL, 0)
        texts, prefixes, leaves = {}, 0, []

        def leaf(fields):
            leaves.append(fields)
            return "\n@"

        for (label, text), tags in zip(
                enumerate_classifications(n).templates(leaf, "@"),
                itertools.product(PairTag, repeat=top), strict=True):
            prefixes += 1
            padded = tags + (PairTag.NONE,) * (n - top)
            assert label == RegisterSubset(n, padded).labels()
            counts = tuple(map(tags.count, PairTag))
            assert texts.setdefault(counts, text) is text
            # Every pattern under the prefix but the empty one, which is
            # last, and each row holds the marker once: no label is empty
            # and none has an empty token.
            assert text.count("@") == 4 ** (n - top) - (not label)
            assert all("" not in row.split(",")
                       for row in text.replace("@", label).split("\n")[1:])
        assert prefixes == 4 ** top
        assert len(texts) == math.comb(top + 3, 3)
        # One leaf per nonempty count class of n pairs.
        assert len(leaves) == math.comb(n + 3, 3) - 1


def test_enumeration_length_builds_no_subset(monkeypatch):
    def refuse(self):
        raise AssertionError("built a RegisterSubset")

    monkeypatch.setattr(RegisterSubset, "__post_init__", refuse)
    for n in range(1, 11):
        assert len(enumerate_classifications(n)) == 4 ** n - 1


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_rejects_n_below_one(n):
    with pytest.raises(ValueError, match=">= 1"):
        enumerate_classifications(n)


def test_verdict_counts_are_multinomial_sums():
    for n in range(1, 9):
        view = enumerate_classifications(n)
        tally = dict.fromkeys(Verdict, 0)
        for _, (_, _, _, verdict, _) in _flat_rows(view):
            tally[Verdict(verdict)] += 1
        counts = view.verdict_counts()
        assert list(counts) == list(Verdict)
        assert counts == tally
        assert sum(counts.values()) == len(view)
        assert counts[Verdict.AUTHORIZED] == 3 ** n - 2 ** n
        assert counts[Verdict.PARTIALLY_INFORMATIVE] == (
            2 ** (n - 1) if n % 2 else 0)


@pytest.mark.parametrize("n", range(1, 6))
def test_classes_hold_the_patterns_of_each_count_class(n):
    # Sizes recounted from the patterns; classes ordered by #BOTH, then
    # #SIGNAL, then #NOISE; each class's first pattern is its tags sorted.
    view = enumerate_classifications(n)
    seen = {}
    for subset, _ in view:
        seen.setdefault(subset.counts, []).append(subset)
    classes = view.classes()
    assert classes == {counts: len(members) for counts, members in seen.items()}
    assert list(classes) == sorted(classes, key=lambda c: c[:3])
    assert sum(classes.values()) == len(view)
    for counts, members in seen.items():
        assert first_pattern(n, counts) == members[0]


def _independent_decision(s: RegisterSubset) -> Verdict:
    # Decision tree written out separately from classify(), on raw counts.
    if s.both_count >= 1 and s.missing_pairs == 0:
        return Verdict.AUTHORIZED
    if s.missing_pairs >= 1:
        return Verdict.COMPLETELY_UNINFORMATIVE
    if s.n % 2 == 0 or s.signal_count % 2 == 0:
        return Verdict.COMPLETELY_UNINFORMATIVE
    return Verdict.PARTIALLY_INFORMATIVE


def test_rule_consistency_exhaustive():
    for n in range(1, 7):
        for tags in itertools.product(PairTag, repeat=n):
            s = RegisterSubset(n, tags)
            if s.size == 0:
                continue
            assert classify(s).verdict == _independent_decision(s)


def test_permutation_invariance_exhaustive():
    import random
    shuffler = random.Random(7)
    for n in range(1, 7):
        for tags in itertools.product(PairTag, repeat=n):
            s = RegisterSubset(n, tags)
            if s.size == 0:
                continue
            baseline = classify(s)
            shuffled = list(tags)
            shuffler.shuffle(shuffled)
            for other in (tags[1:] + tags[:1], tuple(shuffled)):
                permuted = classify(RegisterSubset(n, other))
                assert permuted.verdict == baseline.verdict
                assert permuted.reason == baseline.reason


def test_size_dichotomy():
    # Any pattern with fewer qubits than pairs must miss a pair entirely.
    for n in range(1, 7):
        for tags in itertools.product(PairTag, repeat=n):
            s = RegisterSubset(n, tags)
            if 0 < s.size < n:
                assert s.missing_pairs >= 1
                assert (classify(s).verdict
                        is Verdict.COMPLETELY_UNINFORMATIVE)


def _imported_names(node) -> list[str]:
    """Dotted names an import statement pulls in, relative ones resolved."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = ("cloneleak." if node.level else "") + (node.module or "")
        return [f"{base.rstrip('.')}.{a.name}" for a in node.names]
    return []


def _intra_package_imports() -> dict[str, set[str]]:
    """Module -> package modules it imports, function-level imports included."""
    pkg = Path(cloneleak.__file__).parent
    modules = {path.stem for path in pkg.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((pkg / f"{name}.py").read_text())
        graph[name] = {dotted.split(".")[1] for node in ast.walk(tree)
                       for dotted in _imported_names(node)
                       if dotted.startswith("cloneleak.")} & modules - {name}
    return graph


def test_import_graph_is_acyclic():
    graph = _intra_package_imports()
    assert {"leakage", "oracle"} & graph["subsets"] == set()
    list(graphlib.TopologicalSorter(graph).static_order())  # CycleError if not


def test_module_level_imports_are_read():
    # A deletion must not leave a dead import behind; in __init__ a name
    # listed in __all__ counts as read.
    pkg = Path(cloneleak.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.stem == "__init__":
            read |= set(cloneleak.__all__)
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        assert bound <= read, (path.name, sorted(bound - read))


def test_all_names_resolve():
    assert [name for name in cloneleak.__all__
            if not hasattr(cloneleak, name)] == []


def test_stored_counts_and_labels_match_a_recount():
    for n in range(1, 6):
        for tags in itertools.product(PairTag, repeat=n):
            s = RegisterSubset(n, tags)
            recount = {tag: sum(1 for t in s.membership if t is tag)
                       for tag in PairTag}
            assert s.both_count == recount[B]
            assert s.missing_pairs == recount[E]
            assert s.signal_count == recount[B] + recount[S]
            assert s.noise_count == recount[B] + recount[N]
            assert s.counts == tuple(recount[tag] for tag in PairTag)
            assert s.size == s.signal_count + s.noise_count
            assert s.labels() == _reference_labels(s)


def _reference_labels(s: RegisterSubset) -> str:
    parts = []
    for i, tag in enumerate(s.membership, start=1):
        if tag in (B, S):
            parts.append(f"S{i}")
        if tag in (B, N):
            parts.append(f"N{i}")
    return ",".join(parts)


def test_str_tags_build_the_same_subset():
    tags = (B, S, N, E)
    from_str = RegisterSubset(4, [t.value for t in tags])
    from_enum = RegisterSubset(4, tags)
    assert all(type(t) is PairTag for t in from_str.membership)
    assert from_str == from_enum
    assert hash(from_str) == hash(from_enum)
    assert repr(from_str) == repr(from_enum)
    assert repr(from_enum) == ("RegisterSubset(n=4, membership=("
                               "<PairTag.BOTH: 'BOTH'>, <PairTag.SIGNAL: "
                               "'SIGNAL'>, <PairTag.NOISE: 'NOISE'>, "
                               "<PairTag.NONE: 'NONE'>))")
    assert from_str.both_count == from_enum.both_count == 1
    with pytest.raises(ValueError):
        RegisterSubset(1, ("BOTHER",))


def test_classify_decides_once_per_count_class():
    from cloneleak import subsets
    subsets._classify_counts.cache_clear()
    entries = list(enumerate_classifications(8))
    info = subsets._classify_counts.cache_info()
    # (#BOTH, #SIGNAL, #NOISE, #NONE) summing to 8, less the empty subset.
    assert (info.misses, info.hits) == (164, len(entries) - 164)
    assert len(entries) == 4 ** 8 - 1
