from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamrag.core import (
    NO_QUERY,
    KgDomain,
    KgQuery,
    ScriptedQueries,
    SessionConfig,
    Strategy,
    Tool,
    ToolQuery,
    UtteranceTrace,
    Word,
    blocks_of,
    default_block_ms,
    read_traces,
    trace_from_dict,
    trace_to_dict,
    write_traces,
)
from streamrag.errors import EmptyTraceError, InputError
from streamrag.synth import brand_founder_trace, jump_shots_trace


def _trace(words: list[tuple[str, int, int]], uid: str = "t") -> UtteranceTrace:
    return UtteranceTrace(uid, [Word(t, s, e) for t, s, e in words])


class TestBlocksOf:
    def test_boundary_word_excluded_until_complete(self):
        trace = _trace([("who", 0, 300), ("founded", 350, 800)])
        assert blocks_of(trace, 500) == [(1, "who"), (2, "who founded")]

    def test_single_word_single_block(self):
        trace = _trace([("hi", 0, 400)])
        assert blocks_of(trace, 500) == [(1, "hi")]

    def test_word_ending_on_boundary_is_included(self):
        trace = _trace([("a", 0, 500), ("b", 600, 900)])
        assert blocks_of(trace, 500) == [(1, "a"), (2, "a b")]

    def test_scripted_walkthrough_prefixes(self):
        blocks = blocks_of(brand_founder_trace(), 500)
        assert [prefix for _, prefix in blocks] == [
            "Who founded",
            "Who founded rare",
            "Who founded rare beauty",
            "Who founded rare beauty in",
            "Who founded rare beauty in 2019?",
        ]

    def test_empty_trace_is_unusable(self):
        with pytest.raises(EmptyTraceError):
            blocks_of(UtteranceTrace("empty", []), 500)

    def test_block_ms_must_be_positive(self):
        with pytest.raises(ValueError):
            blocks_of(_trace([("a", 0, 100)]), 0)

    @given(
        st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=12),
        st.integers(min_value=100, max_value=1200),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_monotonicity_and_coverage(self, durations, block_ms):
        words = []
        t = 0
        for i, dur in enumerate(durations):
            words.append((f"w{i}", t, t + dur))
            t += dur + 7
        trace = _trace(words)
        blocks = blocks_of(trace, block_ms)
        total = -(-trace.end_ms // block_ms)
        assert [b for b, _ in blocks] == list(range(1, total + 1))
        for (_, earlier), (_, later) in zip(blocks, blocks[1:]):
            assert later.startswith(earlier)
        assert blocks[-1][1] == trace.transcript()


class TestTraceValidation:
    def test_overlapping_words_rejected(self):
        with pytest.raises(InputError):
            _trace([("a", 0, 300), ("b", 200, 400)])

    def test_nonmonotonic_starts_rejected(self):
        with pytest.raises(InputError):
            _trace([("a", 500, 600), ("b", 100, 200)])

    def test_word_ending_before_start_rejected(self):
        with pytest.raises(InputError):
            _trace([("a", 100, 50)])

    @pytest.mark.parametrize("start", [-1, -2])
    @pytest.mark.parametrize("before", [[], [("w0", 0, 0)]])
    def test_negative_start_is_named_as_such(self, before, start):
        """A negative start is its own fault, whether or not it also reads as
        overlapping (-1 ms) or as going backwards (-2 ms) after the
        starting point. (A trace file's is the schema's ``minimum``.)"""
        with pytest.raises(InputError, match=rf"^u: word 'w1' starts at {start} ms, "
                                             r"a negative time$"):
            _trace([*before, ("w1", start, 100)], uid="u")


class TestKgQuery:
    def test_canonical_key_ignores_order_and_case(self):
        a = KgQuery.make("music", {"artist_name": "Red Hot Chili Peppers", "artist_aspect": "member"})
        b = KgQuery.make("music", {"artist_aspect": "Member", "artist_name": "red hot chili peppers"})
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_is_built_once_and_is_not_a_field(self):
        a = KgQuery.make("music", {"artist_name": "Red Hot Chili Peppers"})
        b = KgQuery.make("music", {"artist_name": "red hot chili peppers"})
        assert a.canonical_key() is a.canonical_key()
        assert a.canonical_key() == b.canonical_key() and a != b
        assert a == KgQuery.make("music", {"artist_name": "Red Hot Chili Peppers"})
        assert hash(a) == hash((a.domain, a.attributes))
        assert repr(a) == ("KgQuery(domain=<KgDomain.MUSIC: 'music'>, "
                           "attributes=(('artist_name', 'Red Hot Chili Peppers'),))")

    def test_flat_dict_round_trip(self):
        q = KgQuery.make(KgDomain.FINANCE, {"market_identifier": "ACME", "metric": "price"})
        assert KgQuery.from_flat_dict(q.as_flat_dict()) == q

    def test_domain_required(self):
        with pytest.raises(InputError):
            KgQuery.from_flat_dict({"main_entity": "x"})
        with pytest.raises(InputError):
            KgQuery.from_flat_dict({"domain": "", "main_entity": "x"})

    def test_unknown_domain_rejected(self):
        with pytest.raises(InputError):
            KgQuery.from_flat_dict({"domain": "weather"})

    @pytest.mark.parametrize("domain", ["weather", "MUSIC", 5, None, ["music"], {}])
    def test_make_rejects_an_unknown_or_unhashable_domain_as_the_enum_does(self, domain):
        with pytest.raises(ValueError, match=r" is not a valid KgDomain$"):
            KgQuery.make(domain)

    def test_make_takes_a_domain_by_value_or_member(self):
        for domain in KgDomain:
            assert KgQuery.make(domain.value).domain is domain
            assert KgQuery.make(domain).domain is domain

    @pytest.mark.parametrize("attributes, named", [
        ({"year": "2024", 7: "True"}, "kg attribute 7: 'True' "),
        ({"year": 2024}, "kg attribute 'year': 2024 "),
        ({"year": "2024", "final": True}, "kg attribute 'final': True "),
        ({None: "x"}, "kg attribute None: 'x' "),
    ])
    def test_make_rejects_an_attribute_that_is_not_a_string_pair(self, attributes, named):
        """No attribute is converted: 7 and "7" would be one key, 2024 and
        "2024" one value."""
        with pytest.raises(InputError) as error:
            KgQuery.make("sports", attributes)
        assert str(error.value) == named + "is not a pair of strings"


class TestToolQuery:
    def test_wire_forms(self):
        assert ToolQuery.web("x").to_wire() == "x"
        assert NO_QUERY.to_wire() == "NO_QUERY"
        kg = ToolQuery.kg(KgQuery.make("other", {"main_entity": "e"}))
        assert kg.to_wire() == {"domain": "other", "main_entity": "e"}

    def test_from_wire(self):
        assert ToolQuery.from_wire("NO_QUERY", Tool.WEB).is_no_query
        assert ToolQuery.from_wire("hello", Tool.WEB) == ToolQuery.web("hello")
        kg = ToolQuery.from_wire({"domain": "other", "main_entity": "e"}, Tool.KG)
        assert kg.tool is Tool.KG

    def test_empty_web_text_rejected(self):
        with pytest.raises(ValueError):
            ToolQuery.web("")

    def test_empty_web_text_read_from_json_is_an_input_error(self):
        with pytest.raises(InputError, match="^web query must be a non-empty string, got ''$"):
            ToolQuery.from_wire("", Tool.WEB)

    def test_tool_of_no_query_is_none(self):
        assert NO_QUERY.tool is None

    def test_tool_is_set_once_and_is_not_a_field(self):
        """``tool`` and ``is_no_query`` are attributes set at construction:
        ``replace`` and ``from_wire`` build them afresh, and equality, hashing
        and repr read the fields alone."""
        kg_query = KgQuery.make("other", {"main_entity": "e"})
        web = ToolQuery.web("x")
        cases = [
            (replace(web, web_text="y"), Tool.WEB),
            (replace(web, web_text=None, kg_query=kg_query), Tool.KG),
            (replace(web, web_text=None), None),
            (replace(ToolQuery.kg(kg_query), kg_query=None, web_text="x"), Tool.WEB),
            (ToolQuery.from_wire("x", Tool.WEB), Tool.WEB),
            (ToolQuery.from_wire({"domain": "other", "main_entity": "e"}, Tool.KG), Tool.KG),
            (ToolQuery.from_wire("NO_QUERY", Tool.KG), None),
            (ToolQuery.from_wire(None, Tool.WEB), None),
        ]
        for query, tool in cases:
            assert query.tool is tool, query
            assert query.is_no_query is (tool is None), query
        assert [f.name for f in fields(ToolQuery)] == ["web_text", "kg_query"]
        assert replace(web, web_text="y") == ToolQuery.web("y") != web
        assert hash(web) == hash(("x", None))
        assert repr(web) == "ToolQuery(web_text='x', kg_query=None)"
        assert replace(web, web_text=None) == NO_QUERY


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        trace = brand_founder_trace()
        path = tmp_path / "traces.jsonl"
        write_traces([trace], str(path))
        (loaded,) = read_traces(str(path))
        assert trace_to_dict(loaded) == trace_to_dict(trace)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"utterance_id": "ok", "words": [{"text": "hi", "start_ms": 0, '
                        '"end_ms": 100}], "scripted_queries": {}}\nnot json\n')
        with pytest.raises(InputError, match=r"bad\.jsonl:2"):
            read_traces(str(path))

    def test_malformed_record_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"utterance_id": "u"}) + "\n")
        with pytest.raises(InputError, match=r"bad\.jsonl:1"):
            read_traces(str(path))

    def test_duplicate_utterance_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_traces([brand_founder_trace(), jump_shots_trace(), brand_founder_trace()], str(path))
        uid = brand_founder_trace().utterance_id
        with pytest.raises(InputError, match=rf"dup\.jsonl:3: duplicate utterance_id '{uid}'"):
            read_traces(str(path))

    @pytest.mark.parametrize(
        "keys, message",
        [
            (["1", "01"], r"key '01' repeats block 1"),
            (["0", "1"], r"key '0': blocks are 1-based"),
            (["-2"], r"key '-2': blocks are 1-based"),
            (["1_0"], r"key '1_0': blocks are 1-based, in ASCII digits"),
            ([" 10"], r"key ' 10': blocks are 1-based, in ASCII digits"),
            (["+5"], r"key '\+5': blocks are 1-based, in ASCII digits"),
            (["\u0661"], r"key '\u0661': blocks are 1-based, in ASCII digits"),
            (["1" * 5000], r"key of 5000 digits names no block"),
        ],
    )
    def test_ambiguous_or_zero_based_block_keys_rejected(self, tmp_path, keys, message):
        raw = trace_to_dict(brand_founder_trace())
        entry = raw["scripted_queries"]["1"]
        raw["scripted_queries"] = {key: entry for key in keys}
        path = tmp_path / "keys.jsonl"
        path.write_text(json.dumps(trace_to_dict(jump_shots_trace())) + "\n" + json.dumps(raw) + "\n")
        with pytest.raises(InputError, match=rf"keys\.jsonl:2: scripted_queries {message}"):
            read_traces(str(path))

    def test_scripted_queries_round_trip(self):
        raw = trace_to_dict(brand_founder_trace())
        again = trace_from_dict(json.loads(json.dumps(raw)))
        assert again.scripted_queries[3].web == ToolQuery.web("Who founded Rare Beauty")
        assert again.scripted_queries[3].kg.kg_query.domain is KgDomain.OTHER


class TestSessionConfig:
    def test_block_defaults_by_strategy(self):
        assert SessionConfig(strategy=Strategy.FIXED_INTERVAL).block_ms == 1000
        assert SessionConfig(strategy=Strategy.MODEL_TRIGGERED).block_ms == 500
        assert default_block_ms(Strategy.OPEN_BOOK) == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_ms": -5},
            {"block_ms": 0},
            {"ref_length_tokens": -1},
            {"web_kg_ratio": (-1, 1)},
            {"top_docs": 0},
            {"endpoint_delay_ms": -1},
            {"web_kg_ratio": (0, 0)},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(InputError):
            SessionConfig(strategy=Strategy.OPEN_BOOK, **kwargs)

    @pytest.mark.parametrize("top_docs, reflect_top_k, depth", [(50, 5, 5), (3, 5, 3), (5, 5, 5)])
    def test_search_depth_is_what_a_session_reads(self, top_docs, reflect_top_k, depth):
        config = SessionConfig(top_docs=top_docs, reflect_top_k=reflect_top_k)
        assert config.search_depth == depth

    def test_scripted_queries_helper(self):
        entry = ScriptedQueries(ToolQuery.web("w"), ToolQuery.kg(KgQuery.make("other", {})))
        assert entry.for_tool(Tool.WEB).web_text == "w"
        assert entry.for_tool(Tool.KG).tool is Tool.KG
