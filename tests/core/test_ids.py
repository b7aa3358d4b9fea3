"""GUID semantics: uniqueness, determinism, digit arithmetic."""

import pytest

from repro.core.ids import GUID, GUID_BITS, GUID_DIGITS, GuidFactory


class TestGUID:
    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            GUID(-1)
        with pytest.raises(ValueError):
            GUID(1 << GUID_BITS)

    def test_hex_round_trip(self):
        guid = GUID(0xDEADBEEF)
        assert GUID.from_hex(guid.hex) == guid

    def test_hex_is_fixed_width(self):
        assert len(GUID(1).hex) == GUID_DIGITS
        assert len(GUID((1 << GUID_BITS) - 1).hex) == GUID_DIGITS

    def test_digit_most_significant_first(self):
        guid = GUID(0xA << (GUID_BITS - 4))
        assert guid.digit(0) == 0xA
        assert guid.digit(1) == 0

    def test_digit_index_bounds(self):
        guid = GUID(5)
        with pytest.raises(IndexError):
            guid.digit(GUID_DIGITS)
        with pytest.raises(IndexError):
            guid.digit(-1)

    def test_shared_prefix_identical(self):
        guid = GUID(12345)
        assert guid.shared_prefix_len(guid) == GUID_DIGITS

    def test_shared_prefix_first_digit_differs(self):
        a = GUID(0x0 << (GUID_BITS - 4))
        b = GUID(0xF << (GUID_BITS - 4))
        assert a.shared_prefix_len(b) == 0

    def test_shared_prefix_matches_string_prefix(self):
        a = GUID(0x12345 << 40)
        b = GUID(0x12399 << 40)
        expected = 0
        for char_a, char_b in zip(a.hex, b.hex):
            if char_a != char_b:
                break
            expected += 1
        assert a.shared_prefix_len(b) == expected

    def test_distance_is_circular(self):
        lo = GUID(0)
        hi = GUID((1 << GUID_BITS) - 1)
        assert lo.distance(hi) == 1

    def test_distance_symmetric(self):
        a, b = GUID(100), GUID(2 ** 100)
        assert a.distance(b) == b.distance(a)

    def test_ordering_by_value(self):
        assert GUID(1) < GUID(2)
        assert sorted([GUID(5), GUID(1), GUID(3)]) == [GUID(1), GUID(3), GUID(5)]

    def test_from_name_is_stable(self):
        assert GUID.from_name("place:L10.01") == GUID.from_name("place:L10.01")

    def test_from_name_differs_by_name(self):
        assert GUID.from_name("a") != GUID.from_name("b")


#: a canonical text, letters included
HEX = "0123456789abcdef" * 2

#: texts ``int(text, 16)`` reads as a GUID that are not its rendering
NON_CANONICAL = {
    "prefixed": "0x" + HEX[2:], "upper-case": HEX.upper(),
    "mixed-case": HEX[:16] + HEX[16:].upper(), "padded": f" {HEX} ",
    "newline": f"{HEX}\n", "underscored": f"{HEX[:16]}_{HEX[16:]}",
    "signed": "+" + HEX[1:], "short": HEX[1:], "two digits": "1f",
    "long": "0" + HEX, "all of it": " 0X1_f ", "other digits": "\u0663" * 32,
}


@pytest.mark.parametrize("text", NON_CANONICAL.values(), ids=NON_CANONICAL)
def test_from_hex_refuses_a_text_that_is_not_the_rendering(text):
    int(text, 16)  # each is some number to Python
    with pytest.raises(ValueError):
        GUID.from_hex(text)
    assert GUID.from_hex(HEX).hex == HEX


@pytest.mark.parametrize("value, error", [(31, TypeError), (None, TypeError),
                                          (b"1f", ValueError),
                                          (["1f"], TypeError)])
def test_from_hex_refuses_what_is_not_a_string(value, error):
    with pytest.raises(error):
        GUID.from_hex(value)


class TestGuidFactory:
    def test_same_seed_same_stream(self):
        first = GuidFactory(seed=9).mint_many(10)
        second = GuidFactory(seed=9).mint_many(10)
        assert first == second

    def test_different_seeds_differ(self):
        assert GuidFactory(seed=1).mint() != GuidFactory(seed=2).mint()

    def test_mint_many_unique(self):
        minted = GuidFactory(seed=3).mint_many(500)
        assert len(set(minted)) == 500
