"""Parsing, validation, vocabulary, and text-level truth."""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbens import (
    ContradictionError,
    DuplicateTripleError,
    KBError,
    KBSyntaxError,
    KnowledgeBase,
    Query,
    SignedTriple,
    Truth,
    UnknownTermError,
    assertion_oracle,
    parse_kb,
    unstated_queries,
)
from kbens import kb as kbmodule
from kbens.cli import _read_text
from kbens.kb import RepeatedTripleError

from conftest import FRIEND_KB_TEXT, random_kb

STORES = Path(__file__).resolve().parent.parent / "tools" / "stores"

# Few names, so that a drawn sequence often repeats a key.
SMALL_TRIPLES = st.builds(
    SignedTriple, st.sampled_from("rs"), st.sampled_from("abc"), st.sampled_from("abc"),
    st.booleans(),
)


class TestParse:
    def test_friend_kb(self, friend_kb):
        assert friend_kb.entities == ("Alice", "Bob", "Joe", "John", "Mary")
        assert friend_kb.relations == ("friend",)
        assert len(friend_kb.triples) == 3
        assert friend_kb.asserted_polarity("friend", "Joe", "Bob") is True
        assert friend_kb.asserted_polarity("friend", "Mary", "John") is False
        assert friend_kb.asserted_polarity("friend", "Mary", "Alice") is None

    def test_empty_document(self):
        kb = parse_kb("")
        assert kb.triples == ()
        assert kb.entities == ()
        assert kb.relations == ()

    def test_comments_and_blank_lines_ignored(self):
        kb = parse_kb("# a comment\n\nfriend\tJoe\tBob\t+\n\n# another\n")
        assert len(kb.triples) == 1

    def test_contradiction_rejected(self):
        with pytest.raises(ContradictionError) as exc:
            parse_kb("friend\tJoe\tBob\t+\nfriend\tJoe\tBob\t-\n")
        assert "Joe" in str(exc.value) and "Bob" in str(exc.value)

    def test_duplicate_line_rejected(self):
        with pytest.raises(DuplicateTripleError):
            parse_kb("friend\tJoe\tBob\t+\nfriend\tJoe\tBob\t+\n")

    def test_syntax_error_reports_line_number(self):
        with pytest.raises(KBSyntaxError) as exc:
            parse_kb("friend\tJoe\tBob\t+\nbroken line\n")
        assert exc.value.line_number == 2

    def test_bad_term_name_reports_line_number(self):
        with pytest.raises(KBSyntaxError, match=r"^line 1: ") as exc:
            parse_kb("friend\t Joe\tBob\t+\n")
        assert exc.value.line_number == 1

    def test_bad_polarity(self):
        with pytest.raises(KBSyntaxError):
            parse_kb("friend\tJoe\tBob\t*\n")

    def test_namespace_clash_rejected(self):
        with pytest.raises(KBError):
            parse_kb("friend\tfriend\tBob\t+\n")

    # Every line boundary of str.splitlines, so that a store that builds reads back.
    @pytest.mark.parametrize("name", ["", " x", "x ", "a\tb", "a\nb", *(
        f"a{boundary}b" for boundary in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    )])
    def test_bad_term_names(self, name):
        with pytest.raises(KBError):
            KnowledgeBase.from_triples([SignedTriple("r", name, "b", True)])
        with pytest.raises(KBError):
            KnowledgeBase((), (name,), ("r",))

    def test_line_permutation_gives_identical_value(self, friend_kb):
        lines = FRIEND_KB_TEXT.strip().split("\n")
        for perm in itertools.permutations(lines):
            assert parse_kb("\n".join(perm) + "\n") == friend_kb

    def test_parse_serialize_roundtrip(self, friend_kb):
        assert parse_kb(friend_kb.serialize()) == friend_kb
        rng = np.random.default_rng(42)
        for _ in range(25):
            kb = random_kb(rng)
            assert parse_kb(kb.serialize()) == kb
        # A direct build may declare terms that no triple names.  The file
        # holds only the triples, so the triples and digest read back, but
        # those terms do not.
        kb = KnowledgeBase((SignedTriple("r", "a", "b", True),), ("a", "b", "z"), ("r", "q"))
        back = parse_kb(kb.serialize())
        assert (back.triples, back.digest()) == (kb.triples, kb.digest())
        assert (back.entities, back.relations) == (("a", "b"), ("r",))

    def test_digest_is_order_invariant_and_content_sensitive(self, friend_kb):
        shuffled = "\n".join(reversed(FRIEND_KB_TEXT.strip().split("\n"))) + "\n"
        assert parse_kb(shuffled).digest() == friend_kb.digest()
        other = parse_kb(FRIEND_KB_TEXT + "friend\tBob\tJoe\t+\n")
        assert other.digest() != friend_kb.digest()


class TestDirectConstruction:
    """``KnowledgeBase(...)`` sorts and checks its value as ``from_triples`` does."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuted_parts_give_the_same_store(self, seed):
        rng = np.random.default_rng(seed)
        kb = random_kb(rng)
        parts = [[part[i] for i in rng.permutation(len(part))]
                 for part in (kb.triples, kb.entities, kb.relations)]
        built = KnowledgeBase(*parts)
        assert built == kb == KnowledgeBase.from_triples(parts[0])
        assert KnowledgeBase(parts[0], parts[1] * 2, parts[2]) == kb
        assert built.digest() == kb.digest()
        assert built.triple_index[0].tolist() == kb.triple_index[0].tolist()

    @pytest.mark.parametrize("entities, relations, message", [
        (("a",), ("r",), "outside the vocabulary"),
        (("a", "b"), ("s",), "outside the vocabulary"),
        (("a", "b", 1), ("r",), "non-empty string, got 1"),
        (("a", "b"), ("r", None), "non-empty string, got None"),
        (("a", "b", "r"), ("r",), "namespaces overlap: \\['r'\\]"),
    ])
    def test_invalid_vocabulary_rejected_when_built(self, entities, relations, message):
        with pytest.raises(KBError, match=message):
            KnowledgeBase((SignedTriple("r", "a", "b", True),), entities, relations)

    def test_non_string_term_in_a_triple(self):
        triples = [SignedTriple("r", "a", "b", True), SignedTriple("r", 1, "b", True)]
        with pytest.raises(KBError, match="non-empty string, got 1"):
            KnowledgeBase.from_triples(triples)
        with pytest.raises(KBError, match="outside the vocabulary"):
            KnowledgeBase(triples, ("a", "b"), ("r",))

    def test_each_distinct_name_is_checked_once(self, monkeypatch):
        kb = parse_kb((STORES / "wide.kb").read_text(encoding="utf-8"))
        checked = []

        def spy(check):
            def counted(name):
                checked.append((check.__name__, name))
                return check(name)
            return counted

        for name in ("check_term_name", "check_relation_name"):
            monkeypatch.setattr(kbmodule, name, spy(getattr(kbmodule, name)))
        assert KnowledgeBase.from_triples(kb.triples) == kb
        # check_relation_name runs check_term_name on the relation too.
        assert sorted(n for c, n in checked if c == "check_term_name") == sorted(
            kb.entities + kb.relations)
        assert sorted(n for c, n in checked if c == "check_relation_name") == sorted(kb.relations)
        # from_triples passes each name once per triple that names it.
        assert len(checked) == len(kb.entities) + 2 * len(kb.relations) < 3 * len(kb.triples)

    @pytest.mark.parametrize("entities, relations, message", [
        (("a", "b", " x", "a", "", "b"), ("r",), "leading or trailing whitespace: ' x'"),
        (("a", "b", "a", 1, ["x"], "b"), ("r",), "non-empty string, got 1"),
        (("a", "b", ["x"], 1, "a"), ("r",), r"non-empty string, got \['x'\]"),
        (("a", "b"), ("r", "r", {"s"}, "#t"), r"non-empty string, got \{'s'\}"),
        (("a", "b"), ("r", "#t", "r", {"s"}), "starts with '#'"),
    ])
    def test_first_bad_name_in_the_order_given(self, entities, relations, message):
        with pytest.raises(KBError, match=message):
            KnowledgeBase((SignedTriple("r", "a", "b", True),), entities, relations)



class TestStoreErrorMessages:
    """Exact classes and texts of the duplicate and contradiction errors."""

    PLUS = SignedTriple("r", "a", "b", True)
    MINUS = SignedTriple("r", "a", "b", False)

    @pytest.mark.parametrize("text, error, message", [
        ("r\ta\tb\t+\nr\ta\tb\t+\n", DuplicateTripleError,
         "line 2: duplicate of line 1: 'r\\ta\\tb\\t+'"),
        ("# note\nr\ta\tb\t-\n\nr\ta\tb\t-\n", DuplicateTripleError,
         "line 4: duplicate of line 2: 'r\\ta\\tb\\t-'"),
        ("r\ta\tb\t+\nr\ta\tb\t-\n", ContradictionError,
         "line 2: r(a, b) contradicts line 1"),
        ("r\ta\tb\t-\nx\ty\tz\t+\nr\ta\tb\t+\n", ContradictionError,
         "line 3: r(a, b) contradicts line 1"),
        ("r\ta\tb\t+\nr\ta\tb\t+\nr\ta\tb\t-\n", DuplicateTripleError,
         "line 2: duplicate of line 1: 'r\\ta\\tb\\t+'"),
    ])
    def test_parse_kb(self, text, error, message):
        with pytest.raises(KBError) as exc:
            parse_kb(text)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("triples, error, message", [
        ([PLUS, PLUS], DuplicateTripleError, "duplicate triple: 'r\\ta\\tb\\t+'"),
        ([MINUS, MINUS], DuplicateTripleError, "duplicate triple: 'r\\ta\\tb\\t-'"),
        ([PLUS, MINUS], ContradictionError, "r(a, b) asserted with both polarities"),
        # The first repeat in the order given: the second positive.
        ([PLUS, PLUS, MINUS], DuplicateTripleError, "duplicate triple: 'r\\ta\\tb\\t+'"),
    ])
    def test_from_triples(self, triples, error, message):
        with pytest.raises(KBError) as exc:
            KnowledgeBase.from_triples(triples)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_errors_carry_both_positions(self):
        other = SignedTriple("s", "a", "b", True)
        with pytest.raises(DuplicateTripleError) as exc:
            KnowledgeBase.from_triples([self.PLUS, other, self.PLUS, self.MINUS])
        assert (exc.value.position, exc.value.first) == (2, 0)
        with pytest.raises(ContradictionError) as exc:
            KnowledgeBase.from_triples([other, self.MINUS, self.PLUS, self.PLUS])
        assert (exc.value.position, exc.value.first) == (2, 1)

    def test_lines_are_checked_before_the_store(self):
        # The repeat on line 2 is a fault of the store, checked once every line has been read.
        with pytest.raises(KBSyntaxError) as exc:
            parse_kb("r\ta\tb\t+\nr\ta\tb\t+\nbroken\n")
        assert str(exc.value) == "line 3: expected 4 tab-separated fields, got 1: 'broken'"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(SMALL_TRIPLES, st.booleans()), max_size=10))
    def test_parse_kb_finds_the_repeat_from_triples_finds(self, drawn):
        # Each triple's line, with a comment line before it when drawn.
        triples, text, lines = [t for t, _ in drawn], "", []
        for t, comment in drawn:
            text += "# note\n" * comment + t.as_line() + "\n"
            lines.append(text.count("\n"))
        try:
            kb = KnowledgeBase.from_triples(triples)
        except RepeatedTripleError as exc:
            with pytest.raises(RepeatedTripleError) as parsed:
                parse_kb(text)
            assert type(parsed.value) is type(exc)
            assert (parsed.value.position, parsed.value.first) == (exc.position, exc.first)
            assert str(parsed.value).startswith(f"line {lines[exc.position]}: ")
            assert str(parsed.value).count(f" line {lines[exc.first]}") == 1
        else:
            assert parse_kb(text) == kb


class TestNamesAFileCarries:
    """A store builds only from names its file form reads back."""

    @pytest.mark.parametrize("relation", ["#r", "#", "\ufeffr", "\ufeff"])
    def test_relation_that_cannot_start_a_line(self, relation):
        with pytest.raises(KBError, match=r"relation name starts with '#' or U\+FEFF"):
            KnowledgeBase.from_triples([SignedTriple(relation, "a", "b", True)])
        with pytest.raises(KBError, match=r"relation name starts with '#' or U\+FEFF"):
            KnowledgeBase((), ("a",), (relation,))

    # A lone surrogate: no UTF-8 file or digest can carry the name.
    @pytest.mark.parametrize("relation, subject", [("r", "a\ud800"), ("r\udfff", "a")])
    def test_name_that_does_not_encode_as_utf8(self, relation, subject):
        with pytest.raises(KBError, match="does not encode as UTF-8"):
            KnowledgeBase.from_triples([SignedTriple(relation, subject, "b", True)])
        with pytest.raises(KBError, match="does not encode as UTF-8"):
            KnowledgeBase((), (subject,), (relation,))

    def test_entities_may_start_with_hash_or_bom(self):
        kb = KnowledgeBase.from_triples([SignedTriple("r", "#a", "\ufeffb", True)])
        assert parse_kb(kb.serialize()) == kb

    def test_parse_kb_names_the_line_of_a_relation_with_a_bom(self):
        with pytest.raises(KBSyntaxError, match=r"^line 2: relation name starts with"):
            parse_kb("r\ta\tb\t+\n\ufeffr\ta\tb\t+\n")

    @settings(max_examples=300, deadline=None)
    @given(drawn=st.lists(
        st.tuples(st.text(max_size=5), st.text(max_size=5), st.text(max_size=5), st.booleans()),
        min_size=1, max_size=4,
    ))
    @example(drawn=[("#r", "a", "b", True)])
    @example(drawn=[("r", "a\u2028b", "c", True)])
    @example(drawn=[("\ufeffr", "a", "b", True)])
    @example(drawn=[("r", "a\ud800", "b", True)])
    def test_every_store_that_builds_reads_back(self, tmp_path_factory, drawn):
        try:
            kb = KnowledgeBase.from_triples(SignedTriple(*t) for t in drawn)
        except KBError:
            return
        assert parse_kb(kb.serialize()) == kb
        path = tmp_path_factory.getbasetemp() / "store.kb"
        path.write_text(kb.serialize(), encoding="utf-8")
        assert parse_kb(_read_text(str(path))) == kb


class TestUnstatedQueries:
    def test_friend_kb_without_self_pairs(self, friend_kb):
        queries = unstated_queries(friend_kb, include_self_pairs=False)
        assert len(queries) == 17  # 5*4 ordered pairs minus 3 asserted
        assert Query("friend", "Mary", "Alice") in queries

    def test_friend_kb_with_self_pairs(self, friend_kb):
        queries = unstated_queries(friend_kb)
        assert len(queries) == 25 - 3

    def test_empty_kb(self):
        assert unstated_queries(parse_kb("")) == []

    def test_isolated_vocabulary_single_combination(self):
        kb = KnowledgeBase((), ("a",), ("r",))
        assert unstated_queries(kb) == [Query("r", "a", "a")]

    def test_lexicographic_order(self, friend_kb):
        queries = unstated_queries(friend_kb)
        assert queries == sorted(queries)

    def test_count_identity_with_self_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            kb = random_kb(rng)
            n = len(unstated_queries(kb, include_self_pairs=True))
            assert n + len(kb.triples) == len(kb.relations) * len(kb.entities) ** 2


class TestAssertionOracle:
    def test_asserted_positive(self, friend_kb):
        v = assertion_oracle(friend_kb, Query("friend", "Joe", "Bob"))
        assert v.value is Truth.TRUE and v.satisfied_fraction == 1.0

    def test_asserted_negative(self, friend_kb):
        v = assertion_oracle(friend_kb, Query("friend", "Mary", "John"))
        assert v.value is Truth.FALSE and v.satisfied_fraction == 0.0

    def test_unstated(self, friend_kb):
        v = assertion_oracle(friend_kb, Query("friend", "Mary", "Alice"))
        assert v.value is Truth.UNKNOWN
        assert 0.0 < v.satisfied_fraction < 1.0

    def test_unknown_term(self, friend_kb):
        with pytest.raises(UnknownTermError):
            assertion_oracle(friend_kb, Query("friend", "Mary", "Zed"))
        with pytest.raises(UnknownTermError, match="unknown entity: 'Zed'"):
            assertion_oracle(friend_kb, Query("friend", "Zed", "Mary"))
        with pytest.raises(UnknownTermError):
            assertion_oracle(friend_kb, Query("enemy", "Mary", "John"))

    def test_never_both_true_and_false(self):
        # Forced by the contradiction-free invariant: one verdict per query.
        rng = np.random.default_rng(11)
        for _ in range(20):
            kb = random_kb(rng)
            for t in kb.triples:
                v = assertion_oracle(kb, t.as_query())
                assert v.value is (Truth.TRUE if t.positive else Truth.FALSE)


class TestTripleIndex:
    def test_rows_name_each_triple_in_store_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            kb = random_kb(rng)
            subjects, objects, relations, positive = kb.triple_index
            assert len(subjects) == len(objects) == len(relations) == len(kb.triples)
            for i, t in enumerate(kb.triples):
                assert kb.entities[subjects[i]] == t.subject
                assert kb.entities[objects[i]] == t.object
                assert kb.relations[relations[i]] == t.relation
                assert positive[i] == t.positive

    def test_cached_and_read_only(self, friend_kb):
        index = friend_kb.triple_index
        assert friend_kb.triple_index is index
        for array in index:
            with pytest.raises(ValueError):
                array[...] = 0

    def test_empty_store(self):
        for array in parse_kb("").triple_index:
            assert array.shape == (0,)

    def test_term_outside_vocabulary_rejected(self):
        with pytest.raises(KBError):
            KnowledgeBase(
                triples=(SignedTriple("r", "a", "b", True),), entities=("a",), relations=("r",)
            )
