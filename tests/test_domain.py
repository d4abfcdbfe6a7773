import math

import pytest

from chipchain.domain import (
    STANDARD_TABLE,
    ExchangeTable,
    Money,
    hash_device_id,
    is_hashed_id,
)
from chipchain.errors import InvalidArgument, UnknownCurrency

# Independently verifiable digest of "abc" (any standalone SHA-256 tool agrees).
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


class TestHashDeviceId:
    def test_known_vector(self):
        assert hash_device_id("abc") == SHA256_ABC

    def test_bytes_and_str_agree(self):
        assert hash_device_id(b"abc") == hash_device_id("abc")

    def test_deterministic(self):
        assert hash_device_id("device-42") == hash_device_id("device-42")

    def test_equal_length_inputs_differ(self):
        assert hash_device_id("aaa") != hash_device_id("aab")

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidArgument):
            hash_device_id("")
        with pytest.raises(InvalidArgument):
            hash_device_id(b"")

    @pytest.mark.parametrize(
        "value",
        [
            SHA256_ABC.upper(),
            SHA256_ABC[:-1] + "_",
            SHA256_ABC[:63],
            SHA256_ABC + "0",
            SHA256_ABC[:-1] + "\u0661",  # ARABIC-INDIC DIGIT ONE
            SHA256_ABC[:-1] + "\uff10",  # FULLWIDTH DIGIT ZERO
            SHA256_ABC + "\n",
            SHA256_ABC[:-1] + "\n",
            "",
            None,
            int(SHA256_ABC, 16),
            SHA256_ABC.encode(),
        ],
    )
    def test_malformed_ids_rejected(self, value):
        assert not is_hashed_id(value)

    def test_wire_format(self):
        digest = hash_device_id("anything")
        assert is_hashed_id(digest)
        assert len(digest) == 64
        assert digest == digest.lower()


class TestExchangeRate:
    def test_identity_rate(self):
        assert 100.0 * STANDARD_TABLE.rate("STD") == 100.0

    def test_direct_multiplication(self):
        table = ExchangeTable({"FOO": 0.5})
        assert 100.0 * table.rate("FOO") == 50.0

    def test_zero_amount(self):
        table = ExchangeTable({"FOO": 7.25})
        assert 0.0 * table.rate("FOO") == 0.0

    def test_unknown_currency(self):
        with pytest.raises(UnknownCurrency):
            ExchangeTable().rate("XYZ")

    def test_linearity(self):
        rate = ExchangeTable({"FOO": 1.75}).rate("FOO")
        for a, b in [(1.5, 2.25), (0.0, 10.0), (123.456, 0.001)]:
            assert (a + b) * rate == pytest.approx(a * rate + b * rate, rel=1e-12)


class TestMoneyAndTable:
    def test_negative_amount_rejected(self):
        with pytest.raises(InvalidArgument):
            Money(-1.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(InvalidArgument):
            ExchangeTable({"FOO": 0.0})
        with pytest.raises(InvalidArgument):
            ExchangeTable({"FOO": -2.0})

    def test_standard_rate_must_be_one(self):
        with pytest.raises(InvalidArgument):
            ExchangeTable({"STD": 2.0})

    def test_standard_rate_inserted(self):
        table = ExchangeTable({"FOO": 3.0})
        assert table.rate("STD") == 1.0

    def test_values_are_immutable(self):
        money = Money(5.0)
        with pytest.raises(Exception):
            money.amount = 6.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_amount_rejected(self, value):
        with pytest.raises(InvalidArgument, match="finite"):
            Money(value)

    @pytest.mark.parametrize("value", [True, False, "5", None, [1.0]])
    def test_non_number_amount_rejected(self, value):
        with pytest.raises(TypeError, match="must be real number"):
            Money(value)

    def test_amount_beyond_double_range_rejected(self):
        with pytest.raises(InvalidArgument, match="finite"):
            Money(10**400)

    @pytest.mark.parametrize("value", [0, 7, 0.0, 5e-324, 1e16, 10**15])
    def test_int_and_float_amounts_accepted(self, value):
        assert Money(value).amount == value

    @pytest.mark.parametrize("code", [5, "", None])
    def test_currency_code_must_be_a_non_empty_string(self, code):
        with pytest.raises(InvalidArgument, match="currency code"):
            ExchangeTable({code: 2.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, value):
        with pytest.raises(InvalidArgument):
            ExchangeTable({"EUR": value})
        with pytest.raises(InvalidArgument):
            ExchangeTable({"STD": value})
