import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from probir.corpus import CHARACTER_MODE, Document, TokenizerConfig
from probir.errors import CalibrationError, EmptyCollectionError
from probir.segmentation import (
    MiTable,
    RatioTarget,
    build_mi_table,
    calibrate_kcmi,
    collection_sentences,
    pmi,
    segment,
)

import oracles


def four_pair_table():
    """ab strongly collocated, cd medium, ef weak, gh never adjacent."""
    sentences = (["ab"] * 12 + ["cd"] * 4 + ["c"] * 4 + ["d"] * 4
                 + ["ef"] + ["e"] * 8 + ["f"] * 8 + ["g"] * 10 + ["h"] * 10)
    return build_mi_table(sentences)


def collocation_table():
    """ab a perfect collocation; c and d mostly independent."""
    return build_mi_table(["ab"] * 10 + ["cd"] + ["c"] * 5 + ["d"] * 5)


class TestBuildMiTable:
    def test_counts_and_totals(self):
        table = build_mi_table(["abab"])
        assert table.unigrams == {"a": 2, "b": 2}
        assert table.bigrams == {"ab": 2, "ba": 1}
        assert table.total_unigrams == 4
        assert table.total_bigrams == 3
        assert table.vocab_size == 2

    def test_pairs_never_cross_sentences(self):
        table = build_mi_table(["ab", "ab"])
        assert "ba" not in table.bigrams
        assert table.bigrams == {"ab": 2}

    def test_single_characters_yield_no_bigrams(self):
        table = build_mi_table(["a", "b", "c"])
        assert table.bigrams == {}
        assert table.total_bigrams == 0

    def test_from_collection_splits_on_punctuation(self):
        corpus = [Document("d1", "ab", "ab. ba")]
        table = build_mi_table(collection_sentences(
            corpus, TokenizerConfig(mode=CHARACTER_MODE)))
        assert table.bigrams == {"ab": 2, "ba": 1}

    def test_empty_collection_raises(self):
        with pytest.raises(EmptyCollectionError):
            collection_sentences([],
                                 TokenizerConfig(mode=CHARACTER_MODE))


class TestPmi:
    def test_smoothed_value(self):
        table = MiTable({"x": 8, "y": 8}, {"xy": 8}, 16, 15)
        assert pmi(table, "x", "y") == pytest.approx(math.log(36 / 19), abs=1e-12)

    def test_collocated_pair_is_positive(self):
        table = build_mi_table(["ab"] * 10)
        assert pmi(table, "a", "b") > 0

    def test_never_adjacent_pair_is_negative(self):
        table = four_pair_table()
        assert pmi(table, "g", "h") < 0

    def test_empty_table(self):
        table = MiTable({}, {}, 0, 0)
        assert pmi(table, "a", "b") == 0.0


def phase1(sentence, table):
    """``segment``'s phase-1 fragments: k_cmi = -inf splits no pair."""
    return segment(sentence, table, -math.inf)


class TestSegmentPhase1:
    def test_short_fragments_untouched(self):
        table = collocation_table()
        assert phase1("ab", table) == ["ab"]
        assert phase1("a", table) == ["a"]
        assert phase1("", table) == []

    def test_splits_lowest_pmi_pair(self):
        # bc never occurs: the weakest link in "abcd"
        assert phase1("abcd", collocation_table()) == ["ab", "cd"]

    def test_three_characters(self):
        # ef weak, gh impossible: "egh"... use pairs from the 4-pair table
        table = four_pair_table()
        # in "abe": pair be never seen and e frequent -> (b,e) weakest
        assert phase1("abe", table) == ["ab", "e"]

    def test_equal_pmi_splits_leftmost(self):
        # an empty table scores every pair 0.0
        table = MiTable({}, {}, 0, 0)
        assert phase1("abcd", table) == ["a", "b", "cd"]

    def test_all_fragments_at_most_two_chars(self):
        rng = random.Random(11)
        table = four_pair_table()
        alphabet = "abcdefgh"
        for _ in range(50):
            sentence = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 15)))
            frags = phase1(sentence, table)
            assert all(1 <= len(f) <= 2 for f in frags)
            assert "".join(frags) == sentence


class TestSegment:
    def test_threshold_minus_inf_equals_phase1(self):
        table = four_pair_table()
        for s in ("abcd", "abe", "gghh"):
            assert segment(s, table, -math.inf) == oracles.segment_phase1(s, table)

    def test_threshold_plus_inf_splits_everything(self):
        table = four_pair_table()
        assert segment("abcd", table, math.inf) == ["a", "b", "c", "d"]

    def test_collocation_survives_weak_pair_splits(self):
        table = collocation_table()
        mid = (pmi(table, "a", "b") + pmi(table, "c", "d")) / 2
        assert pmi(table, "c", "d") < mid < pmi(table, "a", "b")
        assert segment("abcd", table, mid) == ["ab", "c", "d"]


def scan_thresholds(pair_pmis, ones_base, target_share):
    """Independent reference scan over every candidate threshold."""
    values = sorted(set(pair_pmis))
    best = None
    for threshold in [values[0] - 1.0] + values:
        split = sum(1 for p in pair_pmis if p <= threshold)
        ones = ones_base + 2 * split
        twos = len(pair_pmis) - split
        share = ones / (ones + twos)
        key = (abs(share - target_share), threshold)
        if best is None or key < best:
            best = key
    return best[1]


class TestCalibrateKcmi:
    def test_balanced_target_splits_weakest_only(self):
        # four distinct fragment PMIs, target 1:1: splitting k of 4 yields a
        # 2k:(4-k) proportion, and k=1 (share 0.4) sits closest to 1/2, so
        # the chosen threshold is exactly the lowest observed PMI
        table = four_pair_table()
        sample = ["ab", "cd", "ef", "gh"]
        pair_pmis = [pmi(table, s[0], s[1]) for s in sample]
        assert len(set(pair_pmis)) == 4
        got = calibrate_kcmi(sample, table, RatioTarget(1, 1))
        assert got == min(pair_pmis)

    def test_matches_exhaustive_scan(self):
        rng = random.Random(977)
        table = four_pair_table()
        alphabet = "abcdefgh"
        for _ in range(10):
            sample = ["".join(rng.choice(alphabet)
                              for _ in range(rng.randint(1, 8)))
                      for _ in range(rng.randint(3, 12))]
            ones = 0
            pair_pmis = []
            for sentence in sample:
                for frag in oracles.segment_phase1(sentence, table):
                    if len(frag) == 1:
                        ones += 1
                    else:
                        pair_pmis.append(pmi(table, frag[0], frag[1]))
            if not pair_pmis:
                continue
            a = rng.randint(0, 9)
            b = rng.randint(1, 9)
            target = RatioTarget(a, b)
            got = calibrate_kcmi(sample, table, target)
            assert got == scan_thresholds(pair_pmis, ones, target.one_char_share)

    def test_never_split_limit(self):
        table = four_pair_table()
        sample = ["ab", "cd"]
        got = calibrate_kcmi(sample, table, RatioTarget(0, 1))
        assert got < min(pmi(table, s[0], s[1]) for s in sample)

    def test_always_split_limit(self):
        table = four_pair_table()
        sample = ["ab", "cd"]
        got = calibrate_kcmi(sample, table, RatioTarget(1, 0))
        assert got >= max(pmi(table, s[0], s[1]) for s in sample)

    def test_no_two_char_fragments_raises(self):
        table = four_pair_table()
        with pytest.raises(CalibrationError):
            calibrate_kcmi(["a", "b"], table, RatioTarget())

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            RatioTarget(0, 0)
        with pytest.raises(ValueError):
            RatioTarget(-1, 2)

    @pytest.mark.parametrize("a,b", [
        (math.nan, 1), (1, math.nan), (math.inf, 1), (1, math.inf),
        (math.inf, math.inf), (-math.inf, 1)])
    def test_ratio_refuses_non_finite_weights(self, a, b):
        # a NaN or infinite weight makes the target share NaN, and
        # calibration would keep its first candidate, which splits nothing
        with pytest.raises(ValueError, match="finite, nonnegative"):
            RatioTarget(a, b)


class TestPartitionProperties:
    def test_segmentation_is_a_partition(self):
        rng = random.Random(40906)
        table = four_pair_table()
        alphabet = "abcdefgh"
        thresholds = [-math.inf, -1.0, 0.0, 1.0, math.inf]
        for _ in range(200):
            sentence = "".join(rng.choice(alphabet)
                               for _ in range(rng.randint(1, 20)))
            for k_cmi in thresholds:
                words = segment(sentence, table, k_cmi)
                assert "".join(words) == sentence
                assert all(words)

    def test_one_char_count_monotone_in_threshold(self):
        rng = random.Random(515)
        table = four_pair_table()
        alphabet = "abcdefgh"
        grid = [-2.0, -0.5, 0.0, 0.7, 1.5, 3.0]
        for _ in range(50):
            sentence = "".join(rng.choice(alphabet)
                               for _ in range(rng.randint(2, 16)))
            counts = [
                sum(1 for w in segment(sentence, table, k) if len(w) == 1)
                for k in grid
            ]
            assert counts == sorted(counts)


# -- the fast phase 1 against the global weakest-pair loop -------------------

# 3 to 6 characters, so that PMI ties are common
ALPHABETS = st.integers(3, 6).map(lambda size: "abcdef"[:size])


@st.composite
def segmentation_cases(draw):
    """A table from a few sentences (none at all gives an empty vocabulary),
    a sample over the same alphabet, a threshold and a target ratio."""
    alphabet = draw(ALPHABETS)
    table = build_mi_table(
        draw(st.lists(st.text(alphabet, max_size=10), max_size=6)))
    sample = draw(st.lists(st.text(alphabet, max_size=40), max_size=5))
    k_cmi = draw(st.one_of(
        st.floats(allow_nan=False),  # ±inf included
        st.sampled_from([-math.inf, math.inf]),
        # a pair's own PMI, so that "at or below" meets equality
        st.tuples(st.sampled_from(alphabet), st.sampled_from(alphabet))
        .map(lambda pair: pmi(table, *pair))))
    a, b = draw(st.tuples(st.integers(0, 9), st.integers(0, 9))
                .filter(lambda ab: sum(ab) > 0))
    return table, sample, k_cmi, RatioTarget(a, b)


def calibrated_or_error(calibrate, sample, table, target):
    try:
        return calibrate(sample, table, target)
    except CalibrationError:
        return CalibrationError


class TestAgainstGlobalLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=segmentation_cases())
    @example(case=(build_mi_table([]), ["", "a", "ab", "abcab"],
                   0.0, RatioTarget()))
    @example(case=(four_pair_table(), ["", "g", "ab", "abcdefgh"], -math.inf,
                   RatioTarget(1, 1)))
    def test_phase1_segment_and_calibration_equal_the_oracle(self, case):
        table, sample, k_cmi, target = case
        for sentence in sample:
            assert phase1(sentence, table) == oracles.segment_phase1(
                sentence, table)
            assert segment(sentence, table, k_cmi) == oracles.segment(
                sentence, table, k_cmi)
        assert calibrated_or_error(calibrate_kcmi, sample, table, target) == (
            calibrated_or_error(oracles.calibrate_kcmi, sample, table, target))

    def test_long_sentence_equals_the_oracle(self):
        # 3 000 characters, as long as a whole document body, which
        # feedback segments as one string
        table = build_mi_table(["abcab", "ccab", "ba", "a"])
        sentence = "".join(random.Random(3000).choices("abc", k=3000))
        fragments = oracles.segment_phase1(sentence, table)
        assert phase1(sentence, table) == fragments
        for k_cmi in (-math.inf, 0.0, math.inf):
            assert segment(sentence, table, k_cmi) == oracles.threshold_split(
                fragments, table, k_cmi)
        for target in (RatioTarget(), RatioTarget(1, 1)):
            assert calibrate_kcmi([sentence], table, target) == (
                oracles.calibration_scan([fragments], table, target))

    @staticmethod
    def assert_ties_split_leftmost_first(length, seed):
        # an empty vocabulary gives every pair PMI 0.0, so the global loop
        # cuts the leftmost pair each time: length - 2 splits, each inside
        # the last one's right half
        table = build_mi_table([])
        sentence = "".join(random.Random(seed).choices("abcdef", k=length))
        want = list(sentence[:-2]) + [sentence[-2:]]
        assert phase1(sentence, table) == want
        assert segment(sentence, table, 0.0) == list(sentence)
        assert segment(sentence, table, -1.0) == want
        assert calibrate_kcmi([sentence], table, RatioTarget(0, 1)) == -1.0

    def test_long_sentence_of_ties_splits_leftmost_first(self):
        # far past the recursion limit if each split were a call
        self.assert_ties_split_leftmost_first(3001, seed=3001)

    def test_hundred_thousand_ties_split_leftmost_first(self):
        # a long document body of repeated text, which feedback segments
        # as one string: linear, where a scan per split would take minutes
        self.assert_ties_split_leftmost_first(100000, seed=100000)
