"""Property-based tests (hypothesis) on core data structures and
invariants."""

import string
import sys
from datetime import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import DetectionCounts, score_predictions
from repro.graph.grouping import (
    group_entities,
    longest_common_phrase,
    longest_common_word_substring,
)
from repro.graph.lifespan import (
    Lifespan,
    RelationMatrix,
    session_relations,
)
from repro.graph.subroutine import Subroutine
from repro.nlp.lemmatizer import singularize
from repro.nlp.tokenizer import VARIABLE_KINDS, mask_message, tokenize, words
from repro.parsing.formatters import HadoopFormatter, SparkFormatter, _epoch
from repro.parsing.spell import (
    STAR,
    SpellParser,
    extract_parameters,
    lcs_length,
    lcs_merge,
)

tokens = st.text(
    alphabet=string.ascii_lowercase, min_size=1, max_size=6
)
token_lists = st.lists(tokens, min_size=0, max_size=12)
printable_text = st.text(
    alphabet=string.ascii_letters + string.digits + " .:_-/#",
    max_size=80,
)


class TestTokenizerProperties:
    @given(printable_text)
    @settings(max_examples=200)
    def test_offsets_always_match_source(self, text):
        for token in tokenize(text):
            assert text[token.start:token.end] == token.text

    @given(printable_text)
    def test_no_empty_tokens(self, text):
        assert all(t.text for t in tokenize(text))

    @given(printable_text)
    def test_tokens_cover_non_whitespace(self, text):
        covered = sum(len(t.text) for t in tokenize(text))
        non_ws = len("".join(text.split()))
        assert covered == non_ws

    #: Every code point ``str.split()`` (and the regex's ``\s``)
    #: treats as whitespace.
    WHITESPACE = "".join(
        c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()
    )

    unicode_text = st.lists(
        st.one_of(
            st.characters(),
            st.sampled_from(WHITESPACE),
            st.sampled_from(list("aZ09_-./:*,;'#")),
            st.sampled_from(["hdfs://n/a", "host1:8020", "attempt_01",
                             "12.5", "1e9", "10.0.0.1:50010"]),
        ),
        max_size=40,
    ).map("".join)

    @given(unicode_text)
    @settings(max_examples=300)
    def test_memoised_tokenizer_equals_whole_message_regex(self, text):
        # One memo serves both entry points; chunk-wise tokenization
        # must agree with tokenizing the whole message at once.
        reference = tokenize(text)
        masked, raw = mask_message(text)
        assert words(text) == raw == [t.text for t in reference]
        assert masked == [
            STAR if t.kind in VARIABLE_KINDS else t.text for t in reference
        ]


class TestLcsProperties:
    @given(token_lists, token_lists)
    def test_symmetric(self, a, b):
        assert lcs_length(a, b) == lcs_length(b, a)

    @given(token_lists, token_lists)
    def test_shared_token_count_bounds_lcs(self, a, b):
        # The bound Spell's LCS scan prunes candidates with.
        shared = set(b)
        assert lcs_length(a, b) <= sum(1 for t in a if t in shared)

    @given(token_lists, token_lists)
    def test_bounded_by_shorter(self, a, b):
        assert lcs_length(a, b) <= min(len(a), len(b))

    @given(token_lists)
    def test_self_lcs_is_length(self, a):
        assert lcs_length(a, a) == len(a)

    @given(token_lists, token_lists)
    def test_merge_matches_both_inputs(self, a, b):
        merged = lcs_merge(a, b)
        # Every constant of the merge appears in both inputs in order.
        constants = [t for t in merged if t != STAR]
        assert lcs_length(constants, [t for t in a if t != STAR]) == len(
            constants
        )
        assert lcs_length(constants, [t for t in b if t != STAR]) == len(
            constants
        )

    @given(token_lists)
    def test_merge_idempotent_on_equal(self, a):
        assert lcs_merge(a, a) == list(a) or STAR in a


class TestExtractParametersProperties:
    @given(token_lists)
    def test_exact_template_matches_itself(self, seq):
        template = [t for t in seq if t != STAR]
        assert extract_parameters(template, template) == []

    @given(
        st.lists(tokens, min_size=1, max_size=6),
        st.lists(tokens, min_size=0, max_size=3),
    )
    def test_star_captures_inserted_tokens(self, template, inserted):
        # Build template "t0 * t1 t2..." and a message with tokens
        # inserted at the star; the capture must equal the insertion.
        if any(t in template for t in inserted):
            return  # anchor ambiguity is allowed to capture differently
        full_template = [template[0], STAR, *template[1:]]
        message = [template[0], *inserted, *template[1:]]
        params = extract_parameters(full_template, message)
        assert params == [" ".join(inserted)]


class TestSpellProperties:
    @given(st.lists(printable_text.filter(lambda s: s.strip()),
                    min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_every_training_message_matches_some_key(self, messages):
        parser = SpellParser()
        for message in messages:
            parser.consume(message)
        for message in messages:
            if not words(message):
                continue
            assert parser.match(message) is not None

    @given(st.lists(printable_text, min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_key_count_bounded_by_messages(self, messages):
        parser = SpellParser()
        for message in messages:
            parser.consume(message)
        assert len(parser) <= max(len(messages), 0 if messages else 0)
        if messages:
            # Repeats of one message always collapse to a single key.
            repeat = SpellParser()
            for _ in range(5):
                repeat.consume(messages[0])
            assert len(repeat) == 1


class TestGroupingProperties:
    @given(st.lists(st.lists(tokens, min_size=1, max_size=3),
                    min_size=0, max_size=15))
    @settings(max_examples=100)
    def test_every_entity_lands_in_some_group(self, phrases):
        result = group_entities(phrases)
        for phrase in {tuple(p) for p in phrases if p}:
            assert result.groups_for(phrase)

    @given(st.lists(tokens, min_size=1, max_size=4),
           st.lists(tokens, min_size=1, max_size=4))
    def test_lcp_is_contiguous_in_both(self, a, b):
        common = longest_common_phrase(a, b)
        if common:
            assert longest_common_word_substring(a, b) == common

    @given(st.lists(tokens, min_size=1, max_size=4))
    def test_lcs_substring_self(self, a):
        assert longest_common_word_substring(a, a) == tuple(a)


class TestSubroutineProperties:
    @given(st.lists(
        st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5),
        min_size=1, max_size=10,
    ))
    def test_critical_keys_appear_in_all_instances(self, sequences):
        sub = Subroutine(signature=())
        for seq in sequences:
            sub.update(seq)
        for key in sub.critical_keys:
            assert all(key in seq for seq in sequences)

    @given(st.lists(
        st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5),
        min_size=1, max_size=10,
    ))
    def test_before_relations_hold_in_every_sequence(self, sequences):
        sub = Subroutine(signature=())
        for seq in sequences:
            sub.update(seq)
        for a, b in sub.before:
            for seq in sequences:
                if a in seq and b in seq:
                    assert seq.index(a) <= seq.index(b)

    @given(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=8))
    def test_training_sequence_validates_against_itself(self, seq):
        sub = Subroutine(signature=())
        sub.update(seq)
        assert sub.check_instance(seq) == []

    @staticmethod
    def _reference_update(sub, key_sequence):
        """``Subroutine.update`` as first written (position-based)."""
        sub.instance_count += 1
        sub.instance_lengths.append(len(key_sequence))
        first_pos = {}
        for pos, key in enumerate(key_sequence):
            first_pos.setdefault(key, pos)
        observed = list(first_pos)
        for key in observed:
            if key not in sub.key_counts:
                sub.keys.append(key)
                sub.key_counts[key] = 0
            sub.key_counts[key] += 1
        for i, a in enumerate(observed):
            for b in observed[i + 1:]:
                pa, pb = first_pos[a], first_pos[b]
                earlier, later = (a, b) if pa < pb else (b, a)
                pair, reverse = (earlier, later), (later, earlier)
                if pair in sub.compared or reverse in sub.compared:
                    if reverse in sub.before:
                        sub.before.discard(reverse)
                else:
                    sub.compared.add(pair)
                    sub.before.add(pair)

    @given(st.lists(
        st.lists(st.sampled_from("ABCDE"), max_size=7), max_size=12,
    ))
    def test_update_equals_reference(self, sequences):
        sub = Subroutine(signature=())
        reference = Subroutine(signature=())
        for seq in sequences:
            sub.update(seq)
            self._reference_update(reference, seq)
        assert sub == reference


class TestLifespanProperties:
    spans = st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=100, allow_nan=False),
    ).map(lambda p: Lifespan(min(p), max(p)))

    @given(spans, spans)
    def test_relation_antisymmetry(self, a, b):
        matrix = RelationMatrix(min_support=1)
        matrix.observe_session({"a": a, "b": b})
        rel_ab = matrix.relation("a", "b")
        rel_ba = matrix.relation("b", "a")
        inverse = {"PARENT": "CHILD", "CHILD": "PARENT",
                   "BEFORE": "AFTER", "AFTER": "BEFORE",
                   "PARALLEL": "PARALLEL"}
        assert rel_ba == inverse[rel_ab]

    @staticmethod
    def _reference_observe(matrix, lifespans):
        """The in-place classification ``observe_session`` used to do."""
        names = sorted(lifespans)
        matrix._groups.update(names)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                la, lb = lifespans[a], lifespans[b]
                if la.strictly_contains(lb):
                    rel = "PARENT"
                elif lb.strictly_contains(la):
                    rel = "CHILD"
                elif la.contains(lb) and lb.contains(la):
                    rel = "EQUAL"
                elif la.precedes(lb):
                    rel = "BEFORE"
                elif lb.precedes(la):
                    rel = "AFTER"
                else:
                    rel = "PARALLEL"
                counts = matrix._observations.setdefault((a, b), {})
                counts[rel] = counts.get(rel, 0) + 1

    # Small integer endpoints make zero-width, identical and touching
    # lifespans common.
    int_spans = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
        lambda p: Lifespan(float(min(p)), float(max(p)))
    )
    sessions = st.lists(
        st.dictionaries(st.sampled_from("abcdef"), int_spans, max_size=6),
        max_size=6,
    )

    @given(sessions)
    @settings(max_examples=300)
    def test_folded_relation_codes_equal_in_place_classification(
        self, sessions
    ):
        folded = RelationMatrix(min_support=1)
        reference = RelationMatrix(min_support=1)
        for lifespans in sessions:
            folded.observe_relations(
                sorted(lifespans), session_relations(lifespans)
            )
            self._reference_observe(reference, lifespans)
        assert folded.to_dict() == reference.to_dict()
        for a in "abcdef":
            for b in "abcdef":
                assert folded.relation(a, b) == reference.relation(a, b)


class TestFormatterTimestampProperties:
    stamps = st.datetimes(
        min_value=datetime(1970, 1, 1), max_value=datetime(2068, 12, 31)
    ).map(lambda dt: dt.replace(microsecond=0))

    @given(stamps, st.integers(0, 999))
    @settings(max_examples=300)
    def test_hadoop_epoch_equals_strptime(self, dt, millis):
        text = dt.strftime("%Y-%m-%d %H:%M:%S")
        line = f"{text},{millis:03d} INFO [main] org.a.Cls: hello"
        record = HadoopFormatter().try_parse(line)
        expected = _epoch(datetime.strptime(text, "%Y-%m-%d %H:%M:%S"))
        assert record.timestamp == expected + millis / 1000.0

    @given(stamps)
    @settings(max_examples=300)
    def test_spark_epoch_equals_strptime(self, dt):
        text = dt.strftime("%y/%m/%d %H:%M:%S")
        record = SparkFormatter().try_parse(f"{text} INFO Cls: hello")
        expected = _epoch(datetime.strptime(text, "%y/%m/%d %H:%M:%S"))
        assert record.timestamp == expected

    @given(
        st.integers(1970, 2068), st.integers(0, 19), st.integers(0, 39),
        st.integers(0, 29),
    )
    def test_unparseable_stamp_is_no_record(self, year, month, day, hour):
        text = f"{year:04d}-{month:02d}-{day:02d} {hour:02d}:00:00"
        line = f"{text},000 INFO [main] org.a.Cls: hello"
        try:
            datetime.strptime(text, "%Y-%m-%d %H:%M:%S")
        except ValueError:
            assert HadoopFormatter().try_parse(line) is None
        else:
            assert HadoopFormatter().try_parse(line) is not None


class TestMetricsProperties:
    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=50))
    def test_counts_partition_population(self, pairs):
        labels = [t for t, _ in pairs]
        preds = [p for _, p in pairs]
        counts = score_predictions(labels, preds)
        total = (counts.true_positives + counts.false_positives
                 + counts.false_negatives + counts.true_negatives)
        assert total == len(pairs)

    @given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
    def test_scores_bounded(self, tp, fp, fn):
        counts = DetectionCounts(tp, fp, fn, 0)
        assert 0.0 <= counts.precision <= 1.0
        assert 0.0 <= counts.recall <= 1.0
        assert 0.0 <= counts.f_measure <= 1.0


class TestLemmatizerProperties:
    @given(tokens)
    def test_singularize_idempotent(self, word):
        once = singularize(word)
        assert singularize(once) == once
