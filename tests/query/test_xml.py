"""The Figure-6 XML wire format."""

import pytest

from repro.core.errors import QueryParseError
from repro.query.language import query_from_xml, query_to_xml
from repro.query.model import QueryBuilder, QueryMode


@pytest.fixture
def query():
    return (QueryBuilder("bob")
            .subscribe("path", "rooms", subject="bob->john")
            .where("within(room:L10)")
            .when("enters(bob, L10.01) until(600)")
            .which("reachable; closest-to(me)")
            .with_id("q-1")
            .build())


class TestSerialisation:
    def test_figure6_element_structure(self, query):
        xml = query_to_xml(query)
        for element in ("query_id", "owner_id", "what", "where",
                        "when", "which", "mode"):
            assert f"<{element}>" in xml
        assert xml.strip().startswith("<query>")
        assert xml.strip().endswith("</query>")

    def test_round_trip(self, query):
        assert query_from_xml(query_to_xml(query)).to_wire() == query.to_wire()

    def test_round_trip_all_modes(self):
        builders = [
            QueryBuilder("o").profile_of("bob"),
            QueryBuilder("o").subscribe("temperature", "celsius"),
            QueryBuilder("o").once("temperature"),
            QueryBuilder("o").advertisement("printer"),
        ]
        for number, builder in enumerate(builders, start=1):
            original = builder.with_id(f"o:{number}").build()
            restored = query_from_xml(query_to_xml(original))
            assert restored.mode == original.mode
            assert restored.to_wire() == original.to_wire()


class TestParsing:
    def test_malformed_xml_rejected(self):
        with pytest.raises(QueryParseError):
            query_from_xml("<query><what>")

    def test_wrong_root_rejected(self):
        with pytest.raises(QueryParseError):
            query_from_xml("<request></request>")

    def test_missing_element_rejected(self):
        with pytest.raises(QueryParseError):
            query_from_xml("<query><query_id>q</query_id></query>")

    def test_empty_owner_rejected(self, query):
        xml = query_to_xml(query).replace("bob", " ", 1)
        with pytest.raises(QueryParseError):
            query_from_xml(xml)

    def test_hand_written_xml_accepted(self):
        xml = """
        <query>
            <query_id>q-99</query_id>
            <owner_id>bob</owner_id>
            <what>type:printer</what>
            <where>anywhere</where>
            <when>now</when>
            <which>any</which>
            <mode>advertisement</mode>
        </query>
        """
        query = query_from_xml(xml)
        assert query.query_id == "q-99"
        assert query.mode == QueryMode.ADVERTISEMENT
