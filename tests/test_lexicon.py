"""Tokenizer and the three matcher families."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from emoscope import lexicon
from emoscope.errors import LexiconError
from emoscope.lexicon import (
    DEFAULT_TEMPLATES,
    THIRD_PERSON_PRONOUNS,
    YOUGOV_EMOTIONS,
    ExplicitReportMatcher,
    Lexicon,
    MultiLexiconMatcher,
    ReportTemplateSet,
    contains_third_person,
    demo_lexicon,
    load_lexicon,
    tokenize,
)

from oracles import matches_explicit_report, matches_lexicon


class TestTokenize:
    def test_url_and_case(self):
        assert tokenize("I'm SO sad! http://t.co/x") == ["i'm", "so", "sad"]

    def test_mention_and_hashtag(self):
        assert tokenize("@bob they won #happy") == ["they", "won", "happy"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_www_url(self):
        assert tokenize("see www.example.com now") == ["see", "now"]

    def test_curly_apostrophe(self):
        assert tokenize("I’m fine") == ["i'm", "fine"]

    def test_interior_apostrophe_kept(self):
        assert tokenize("don't worry, be happy") == ["don't", "worry", "be", "happy"]

    def test_dangling_apostrophes_dropped(self):
        assert tokenize("'quoted' rock 'n' roll") == ["quoted", "rock", "n", "roll"]

    def test_punctuation_splits(self):
        assert tokenize("sad,angry;bored...happy") == ["sad", "angry", "bored", "happy"]

    def test_digits_kept(self):
        assert tokenize("covid19 cases up 20%") == ["covid19", "cases", "up", "20"]

    def test_underscore_splits(self):
        assert tokenize("snake_case_tag") == ["snake", "case", "tag"]

    def test_unicode_words(self):
        assert tokenize("très triste aujourd'hui") == ["très", "triste", "aujourd'hui"]

    def test_hashtag_of_url_still_removed(self):
        assert tokenize("#www.spam.com is gone") == ["is", "gone"]

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=200))
    def test_tokens_are_clean(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert not token.startswith(("http", "www", "@", "#"))


class TestLoadLexicon:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "sad.txt"
        p.write_text("sad\ncry*\n# note\n", encoding="utf-8")
        lex = load_lexicon(p)
        assert lex.name == "sad"
        assert lex.exact_terms == frozenset({"sad"})
        assert lex.prefix_terms == frozenset({"cry"})

    def test_dedup(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("sad\nsad\n", encoding="utf-8")
        assert load_lexicon(p).exact_terms == frozenset({"sad"})

    def test_explicit_name_wins(self, tmp_path):
        p = tmp_path / "file.txt"
        p.write_text("sad\n", encoding="utf-8")
        assert load_lexicon(p, name="custom").name == "custom"

    def test_multiword_entry(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("sad\nvery sad\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=r":2"):
            load_lexicon(p)

    def test_bare_star(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("*\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=r":1"):
            load_lexicon(p)

    def test_interior_star(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("c*y\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            load_lexicon(p)

    @pytest.mark.parametrize("line, tokens", [
        ("self-harm", "['self', 'harm']"),
        ("don’t", '["don\'t"]'),
        ("https", "[]"),
        ("self-*", "['self', 'a']"),
        ("www*", "[]"),
    ])
    def test_term_no_token_can_match(self, tmp_path, line, tokens):
        # text holding any of these never yields the term as a token
        p = tmp_path / "bad.txt"
        p.write_text(f"sad\n{line}\n", encoding="utf-8")
        with pytest.raises(LexiconError) as info:
            load_lexicon(p)
        assert str(info.value).startswith(f"{p}:2: ")
        assert str(info.value).endswith(f" as {tokens}")

    def test_apostrophe_stem_matches(self, tmp_path):
        p = tmp_path / "neg.txt"
        p.write_text("don'*\n", encoding="utf-8")
        matcher = MultiLexiconMatcher([load_lexicon(p)])
        assert matcher.match(tokenize("I don’t know")) == {"neg"}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="no terms"):
            load_lexicon(p)

    def test_uppercase_normalized(self, tmp_path):
        p = tmp_path / "u.txt"
        p.write_text("SAD\nCry*\n", encoding="utf-8")
        lex = load_lexicon(p)
        assert lex.exact_terms == frozenset({"sad"})
        assert lex.prefix_terms == frozenset({"cry"})


SAD_CRY = Lexicon("sad", frozenset({"sad"}), frozenset({"cry"}))


class TestMatchesLexicon:
    def test_exact_hit(self):
        assert matches_lexicon(["i", "feel", "sad"], SAD_CRY)

    def test_prefix_hit(self):
        assert matches_lexicon(["crying", "all", "night"], SAD_CRY)

    def test_exact_is_whole_token(self):
        exact_only = Lexicon("sad", frozenset({"sad"}), frozenset())
        assert not matches_lexicon(["sadness"], exact_only)

    def test_stem_matches_itself(self):
        assert matches_lexicon(["cry"], SAD_CRY)

    def test_empty_tokens(self):
        assert not matches_lexicon([], SAD_CRY)

    @given(st.permutations(["crying", "all", "night", "x", "y"]))
    def test_order_independent(self, tokens):
        assert matches_lexicon(tokens, SAD_CRY)

    @given(st.lists(st.sampled_from(["sad", "cry", "dog", "worry", "rain"]), max_size=8))
    def test_union_is_disjunction(self, tokens):
        a = Lexicon("a", frozenset({"sad"}), frozenset({"cry"}))
        b = Lexicon("b", frozenset({"worry"}), frozenset())
        union = Lexicon(
            "u", a.exact_terms | b.exact_terms, a.prefix_terms | b.prefix_terms
        )
        assert matches_lexicon(tokens, union) == (
            matches_lexicon(tokens, a) or matches_lexicon(tokens, b)
        )


class TestMultiLexiconMatcher:
    def test_match_names(self):
        m = MultiLexiconMatcher([demo_lexicon("sadness"), demo_lexicon("anxiety")])
        assert m.match(["feeling", "sad", "and", "worried"]) == {"sadness", "anxiety"}
        assert m.match(["nice", "day"]) == set()

    def test_duplicate_names_rejected(self):
        with pytest.raises(LexiconError):
            MultiLexiconMatcher([SAD_CRY, Lexicon("sad", frozenset({"x"}), frozenset())])

    def test_agrees_with_bruteforce_on_randomized_instances(self):
        vocab = [
            "sad", "sadly", "cry", "crying", "cried", "worry", "worried", "fear",
            "happy", "dog", "rain", "co", "fe", "w", "sa", "krai", "joy", "joyful",
        ]
        rnd = random.Random(2024)
        lexicons = []
        for i in range(6):
            exact = frozenset(rnd.sample(vocab, rnd.randint(1, 4)))
            prefixes = frozenset(t[: rnd.randint(1, len(t))] for t in rnd.sample(vocab, 2))
            lexicons.append(Lexicon(f"lex{i}", exact, prefixes))
        matcher = MultiLexiconMatcher(lexicons)

        def brute(tokens):
            return {lex.name for lex in lexicons if matches_lexicon(tokens, lex)}

        for _ in range(10_000):
            tokens = rnd.choices(vocab, k=rnd.randint(0, 7))
            assert matcher.match(tokens) == brute(tokens)

    @pytest.mark.parametrize("memo_size", [None, 7])
    def test_memo_agrees_with_reference_on_repeated_tokens(self, monkeypatch, memo_size):
        # memo_size 7 fills the memo within the first lists, so most tokens
        # are matched afresh after it is full
        if memo_size is not None:
            monkeypatch.setattr(lexicon, "MATCH_MEMO_SIZE", memo_size)
        limit = lexicon.MATCH_MEMO_SIZE
        rnd = random.Random(7)
        stems = ["sad", "cry", "worr", "fear", "joy", "hap"]
        vocab = stems + [s + tail for s in stems for tail in ("", "ing", "ed", "ful", "s")]
        vocab += ["dog", "rain", "the", "a", "x", "sa", "cr", "wo", "jo"]
        lexicons = [
            Lexicon(f"lex{i}", frozenset(rnd.sample(vocab, 3)), frozenset(rnd.sample(stems, 2)))
            for i in range(4)
        ]
        matcher = MultiLexiconMatcher(lexicons)
        for _ in range(3_000):
            pool = rnd.sample(vocab, rnd.randint(1, 4))  # few types, many repeats
            tokens = rnd.choices(pool, k=rnd.randint(0, 9))
            want = {lex.name for lex in lexicons if matches_lexicon(tokens, lex)}
            assert matcher.match(tokens) == want
            assert len(matcher._memo) <= limit
        if memo_size is not None:
            assert len(matcher._memo) == limit

    def test_memo_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(lexicon, "MATCH_MEMO_SIZE", 50)
        matcher = MultiLexiconMatcher([SAD_CRY])
        for i in range(200):
            assert matcher.match_mask([f"w{i}", "crying", f"w{i}"]) == 1
            assert len(matcher._memo) <= 50
        assert len(matcher._memo) == 50
        kept = dict(matcher._memo)
        assert matcher.match_mask(["sad", "zzz"]) == 1
        assert matcher._memo == kept  # full: nothing added, nothing evicted

    def test_early_exit_equivalence(self):
        # a token hitting every lexicon exercises the full-mask shortcut
        lexicons = [Lexicon(f"l{i}", frozenset({"sad"}), frozenset()) for i in range(3)]
        m = MultiLexiconMatcher(lexicons)
        assert m.match(["sad", "later", "words"]) == {"l0", "l1", "l2"}


TEMPLATES = ReportTemplateSet()


def reports(tokens, templates, emotion):
    """The reference's answer, after checking ExplicitReportMatcher agrees."""
    expected = matches_explicit_report(tokens, templates, emotion)
    assert (emotion in ExplicitReportMatcher(templates, (emotion,)).match(tokens)) == expected
    return expected


class TestExplicitReports:
    def test_default_instance_uses_default_strings(self):
        assert TEMPLATES.templates == DEFAULT_TEMPLATES
        assert TEMPLATES.max_slot_gap == 1

    def test_first_person_positive(self):
        assert reports(tokenize("I am sad today"), TEMPLATES, "sad")

    def test_third_person_not_matched(self):
        assert not reports(tokenize("she is sad"), TEMPLATES, "sad")

    def test_no_negation_handling(self):
        assert reports(tokenize("I am not sad"), TEMPLATES, "sad")

    def test_gap_zero_is_contiguous(self):
        strict = ReportTemplateSet(
            TEMPLATES.templates, TEMPLATES.emotion_terms, max_slot_gap=0
        )
        assert reports(tokenize("I am sad"), strict, "sad")
        assert not reports(tokenize("I am not sad"), strict, "sad")

    def test_gap_bounded(self):
        assert not reports(tokenize("I am not very sad"), TEMPLATES, "sad")

    def test_contraction_template(self):
        assert reports(tokenize("honestly i'm bored"), TEMPLATES, "bored")

    def test_feeling_template(self):
        assert reports(tokenize("feeling lonely tonight"), TEMPLATES, "lonely")

    def test_unknown_emotion(self):
        with pytest.raises(LexiconError):
            matches_explicit_report(["i", "am", "sad"], TEMPLATES, "melancholy")
        with pytest.raises(LexiconError):
            ExplicitReportMatcher(TEMPLATES, ("melancholy",))

    def test_suffix_template(self):
        custom = ReportTemplateSet(("so _ today",), {"sad": ("sad",)})
        assert reports(tokenize("been so sad today"), custom, "sad")
        assert not reports(tokenize("so sad about today"), custom, "sad")

    def test_multiple_emotions_share_scan(self):
        matcher = ExplicitReportMatcher(TEMPLATES, ("sad", "happy"))
        assert matcher.match(tokenize("i am sad but she is happy")) == {"sad"}
        assert matcher.match(tokenize("i feel happy")) == {"happy"}
        assert matcher.match(tokenize("nothing here")) == set()

    def test_all_survey_emotions_have_terms(self):
        for emotion in YOUGOV_EMOTIONS:
            assert TEMPLATES.emotion_terms[emotion]

    def test_template_needs_one_slot(self):
        with pytest.raises(LexiconError):
            ReportTemplateSet(("i am",), {"sad": ("sad",)})
        with pytest.raises(LexiconError):
            ReportTemplateSet(("_ and _",), {"sad": ("sad",)})

    def test_tokens_no_token_can_match(self):
        with pytest.raises(LexiconError, match="template token 'i-am' can never match"):
            ReportTemplateSet(("i-am _",), {"sad": ("sad",)})
        with pytest.raises(LexiconError, match="adjective 'Sad' can never match"):
            ReportTemplateSet(("i am _",), {"sad": ("Sad",)})

    def test_agrees_with_reference_on_randomized_instances(self):
        vocab = ["i", "am", "so", "sad", "glad", "today", "not", "feel", "x"]
        shapes = ["_", "i am _", "so _ today", "i _ today", "feel so _", "_ today", "am _ x"]
        rnd = random.Random(7)
        for _ in range(300):
            templates = ReportTemplateSet(
                tuple(rnd.sample(shapes, rnd.randint(1, 3))),
                {"sad": ("sad",), "glad": ("glad", "so")},
                max_slot_gap=rnd.randint(0, 2),
            )
            matcher = ExplicitReportMatcher(templates, ("sad", "glad"))
            for _ in range(50):
                tokens = rnd.choices(vocab, k=rnd.randint(0, 8))
                expected = {
                    e for e in ("sad", "glad") if matches_explicit_report(tokens, templates, e)
                }
                assert matcher.match(tokens) == expected, (templates, tokens)

    # few words, so prefixes repeat and overlap ("i i _" on "i i i sad") and
    # an adjective ("i") can also be a prefix or suffix token
    REPORT_WORDS = ["i", "am", "so", "sad", "glad", "x"]

    @given(
        shapes=st.lists(
            st.tuples(st.lists(st.sampled_from(REPORT_WORDS), max_size=3),
                      st.lists(st.sampled_from(REPORT_WORDS), max_size=2)),
            min_size=1, max_size=4,
        ),
        gap=st.integers(0, 2),
        posts=st.lists(st.lists(st.sampled_from(REPORT_WORDS), max_size=10), max_size=10),
    )
    def test_agrees_with_reference_on_any_template_shape(self, shapes, gap, posts):
        """Empty prefixes, suffixes, gaps 0-2 and repeated prefix tokens."""
        templates = ReportTemplateSet(
            tuple(" ".join([*pre, "_", *suf]) for pre, suf in shapes),
            {"sad": ("sad",), "glad": ("glad", "i")},
            max_slot_gap=gap,
        )
        matcher = ExplicitReportMatcher(templates, ("sad", "glad"))
        for tokens in posts:
            expected = {e for e in ("sad", "glad") if matches_explicit_report(tokens, templates, e)}
            assert matcher.match(tokens) == expected
            assert matcher.match(tuple(tokens)) == expected

    def test_prefix_must_be_contiguous(self):
        assert not reports(tokenize("i really am sad"), TEMPLATES, "sad")


class TestThirdPerson:
    def test_she(self):
        assert contains_third_person(["she", "cried"])

    def test_first_person_only(self):
        assert not contains_third_person(["i", "am", "sad"])

    def test_whole_token(self):
        assert not contains_third_person(["theyre"])

    def test_full_pronoun_list(self):
        for pronoun in THIRD_PERSON_PRONOUNS:
            assert contains_third_person(["x", pronoun, "y"])

    @given(st.permutations(["her", "dog", "barked", "loud"]))
    def test_order_independent(self, tokens):
        assert contains_third_person(tokens)

    def test_expected_members(self):
        assert THIRD_PERSON_PRONOUNS == {
            "they", "them", "their", "he", "him", "his", "she", "her", "hers",
        }


class TestDemoLexicons:
    @pytest.mark.parametrize("name", ["sadness", "anxiety", "positive"])
    def test_loads(self, name):
        lex = demo_lexicon(name)
        assert lex.name == name
        assert lex.exact_terms or lex.prefix_terms

    def test_unknown_name(self):
        with pytest.raises(LexiconError):
            demo_lexicon("nope")

    def test_disjoint_matches(self):
        m = MultiLexiconMatcher([demo_lexicon(n) for n in ("sadness", "anxiety", "positive")])
        assert m.match(tokenize("i was crying all night")) == {"sadness"}
        assert m.match(tokenize("so worried about tomorrow")) == {"anxiety"}
        assert m.match(tokenize("what a wonderful day")) == {"positive"}
