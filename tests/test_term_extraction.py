import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from probir.corpus import TokenizerConfig
from probir.term_extraction import (
    ALL_PATTERNS,
    DOWN_WEIGHT,
    LATTICE,
    SHORTEST,
    ExtractionConfig,
    TermWeight,
    all_term_patterns,
    down_weighted_terms,
    extract_terms,
    lattice_best_path,
    lattice_best_score,
    shortest_terms,
    split_phrases,
)


class TestSplitPhrases:
    config = TokenizerConfig(stopwords=frozenset({"the", "of"}))

    def test_punctuation_breaks_runs(self):
        assert split_phrases("alpha beta, gamma", self.config) == [
            ["alpha", "beta"], ["gamma"]]

    def test_stopwords_break_runs(self):
        assert split_phrases("history of modern art", self.config) == [
            ["history"], ["modern", "art"]]

    def test_numbers_break_runs(self):
        assert split_phrases("year 2000 report", self.config) == [
            ["year"], ["report"]]

    def test_empty_input(self):
        assert split_phrases("", self.config) == []
        assert split_phrases("the of", self.config) == []


class TestShortest:
    def test_each_token_weight_one(self):
        vector = shortest_terms([["alpha", "beta"], ["gamma"]])
        assert vector == {
            "alpha": TermWeight(1.0, 1),
            "beta": TermWeight(1.0, 1),
            "gamma": TermWeight(1.0, 1),
        }

    def test_repeats_accumulate_tf_q(self):
        vector = shortest_terms([["alpha", "beta", "alpha"]])
        assert vector["alpha"] == TermWeight(1.0, 2)
        assert vector["beta"] == TermWeight(1.0, 1)

    def test_empty(self):
        assert shortest_terms([]) == {}


class TestAllPatterns:
    def test_three_tokens_give_six_patterns(self):
        vector = all_term_patterns([["a", "b", "c"]])
        assert set(vector) == {"a", "b", "c", "a b", "b c", "a b c"}
        w = 1 / math.sqrt(6)
        for entry in vector.values():
            assert entry.weight == pytest.approx(w, abs=1e-12)

    def test_single_token_weight_one(self):
        vector = all_term_patterns([["solo"]])
        assert vector == {"solo": TermWeight(1.0, 1)}

    def test_four_tokens_give_ten_patterns(self):
        vector = all_term_patterns([["a", "b", "c", "d"]])
        assert len(vector) == 10
        total = sum(entry.weight ** 2 for entry in vector.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_max_span_trims_terms_but_not_weight(self):
        vector = all_term_patterns([["a", "b", "c", "d"]], max_span=2)
        assert len(vector) == 7  # 4 singles + 3 pairs
        # denominator still reflects the full 10-pattern family
        assert vector["a"].weight == pytest.approx(1 / math.sqrt(10), abs=1e-12)

    def test_pattern_count_formula(self):
        rng = random.Random(31)
        for n in range(1, 7):
            tokens = [f"t{i}" for i in range(n)]
            rng.shuffle(tokens)
            vector = all_term_patterns([tokens])
            assert len(vector) == n * (n + 1) // 2

    def test_character_joiner(self):
        vector = all_term_patterns([["a", "b"]], joiner="")
        assert set(vector) == {"a", "b", "ab"}


class TestDownWeight:
    def test_weights_decay_with_span(self):
        vector = down_weighted_terms([["a", "b", "c"]], k_down=0.2)
        assert vector["a"].weight == 1.0
        assert vector["a b"].weight == pytest.approx(0.2, abs=1e-15)
        assert vector["a b c"].weight == pytest.approx(0.04, abs=1e-15)

    def test_k_down_one_matches_all_patterns_terms(self):
        phrases = [["x", "y", "z", "w"]]
        flat = down_weighted_terms(phrases, k_down=1.0)
        patterns = all_term_patterns(phrases)
        assert set(flat) == set(patterns)
        assert all(entry.weight == 1.0 for entry in flat.values())

    def test_invalid_k_down(self):
        with pytest.raises(ValueError):
            down_weighted_terms([["a"]], k_down=0.0)


class TestExtractTerms:
    def test_dispatch(self):
        phrases = [["a", "b"]]
        assert extract_terms(phrases, ExtractionConfig(SHORTEST)) == shortest_terms(phrases)
        assert extract_terms(phrases, ExtractionConfig(ALL_PATTERNS)) == all_term_patterns(phrases)
        assert extract_terms(phrases, ExtractionConfig(DOWN_WEIGHT, k_down=0.5)) == (
            down_weighted_terms(phrases, k_down=0.5))

    def test_lattice_is_not_a_batch_strategy(self):
        with pytest.raises(ValueError):
            extract_terms([["a"]], ExtractionConfig(LATTICE))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExtractionConfig("nonsense")
        with pytest.raises(ValueError):
            ExtractionConfig(SHORTEST, k_down=1.5)
        with pytest.raises(ValueError):
            ExtractionConfig(SHORTEST, max_span=0)


def enumerate_paths(phrase, joiner=" "):
    """Every contiguous grouping of the phrase, via break-position masks."""
    n = len(phrase)
    for mask in range(1 << (n - 1)):
        terms = []
        start = 0
        for i in range(1, n):
            if mask & (1 << (i - 1)):
                terms.append(joiner.join(phrase[start:i]))
                start = i
        terms.append(joiner.join(phrase[start:]))
        yield tuple(terms)


def best_path_by_enumeration(phrase, contribution, joiner=" "):
    best = None
    for terms in enumerate_paths(phrase, joiner):
        score = 0.0
        for term in terms:
            score += contribution(term)
        key = (-score, len(terms), terms)
        if best is None or key < best[0]:
            best = (key, terms, score)
    return best[1], best[2]


class TestLatticeBestPath:
    def test_single_token(self):
        terms, score = lattice_best_path(["solo"], lambda t: 2.5)
        assert terms == ("solo",)
        assert score == 2.5

    def test_prefers_high_scoring_grouping(self):
        values = {"a": 1.0, "b": 1.0, "a b": 5.0}
        terms, score = lattice_best_path(["a", "b"], lambda t: values.get(t, 0.0))
        assert terms == ("a b",)
        assert score == 5.0

    def test_three_token_paths(self):
        values = {"x": 1.0, "y": 1.0, "z": 1.0, "x y": 1.5, "y z": 2.5}
        terms, score = lattice_best_path(["x", "y", "z"],
                                         lambda t: values.get(t, 0.0))
        # x + (y z) = 3.5 beats singles (3.0) and (x y) + z (2.5)
        assert terms == ("x", "y z")
        assert score == pytest.approx(3.5, abs=1e-12)

    def test_tie_prefers_fewer_terms(self):
        terms, score = lattice_best_path(["a", "b", "c"], lambda t: 0.0)
        assert terms == ("a b c",)
        assert score == 0.0

    def test_tie_prefers_lexicographic_tuple(self):
        values = {"x": 1.0, "y z": 1.0, "x y": 1.0, "z": 1.0}
        terms, _ = lattice_best_path(["x", "y", "z"],
                                     lambda t: values.get(t, 0.0))
        assert terms == ("x", "y z")  # beats ("x y", "z") lexicographically

    def test_character_joiner(self):
        values = {"ab": 3.0, "a": 1.0, "b": 1.0}
        terms, _ = lattice_best_path(["a", "b"],
                                     lambda t: values.get(t, 0.0), joiner="")
        assert terms == ("ab",)

    def test_empty_phrase_raises(self):
        with pytest.raises(ValueError):
            lattice_best_path([], lambda t: 0.0)

    def test_guard_rejects_runaway_phrases(self):
        phrase = [f"t{i}" for i in range(49)]
        with pytest.raises(ValueError):
            lattice_best_path(phrase, lambda t: 0.0, max_span=6)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(7741)
        letters = "abcdefg"
        for trial in range(40):
            n = rng.randint(1, 10)
            phrase = [rng.choice(letters) for _ in range(n)]
            values = {}
            for i in range(n):
                for j in range(i + 1, n + 1):
                    term = " ".join(phrase[i:j])
                    values.setdefault(term, rng.uniform(-1.0, 3.0))
            contribution = lambda t: values[t]
            got_terms, got_score = lattice_best_path(phrase, contribution)
            want_terms, want_score = best_path_by_enumeration(phrase, contribution)
            assert got_terms == want_terms, (trial, phrase)
            assert got_score == pytest.approx(want_score, abs=1e-12)


DOC_IDS = ("d1", "d2", "d3", "d4")
# contributions are >= +0.0; equal values make tied paths common
CONTRIBUTIONS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5]),
                          st.floats(min_value=0.0, allow_infinity=False))


@st.composite
def lattice_rows(draw):
    """A phrase over three letters, the documents, and a doc -> contribution
    map per term, three of four of them empty (a term no document holds)."""
    phrase = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=8))
    docs = list(DOC_IDS[:draw(st.integers(1, len(DOC_IDS)))])
    maps = {}
    for i in range(1, len(phrase) + 1):
        for j in range(i):
            term = "".join(phrase[j:i])
            if term not in maps:
                held = draw(st.integers(0, 3)) == 0
                maps[term] = draw(st.dictionaries(
                    st.sampled_from(docs), CONTRIBUTIONS,
                    min_size=1)) if held else {}
    return phrase, docs, maps


class TestLatticeBestScore:
    @settings(max_examples=200, deadline=None)
    @given(case=lattice_rows())
    def test_mostly_empty_rows_equal_the_path_dp(self, case):
        """An empty span's candidates are its prefix row itself; the path
        DP adds 0.0 to each prefix score instead.  Both give the same float
        because a prefix score is a sum of contributions >= +0.0 that starts
        at +0.0: it is never -0.0, the one float that ``+ 0.0`` changes."""
        phrase, docs, maps = case
        rows = [[maps["".join(phrase[j:i])] for j in range(i)]
                for i in range(1, len(phrase) + 1)]
        want = [lattice_best_path(phrase, lambda term: maps[term].get(doc, 0.0),
                                  max_span=len(phrase), joiner="")[1]
                for doc in docs]
        assert lattice_best_score(rows, docs) == want
