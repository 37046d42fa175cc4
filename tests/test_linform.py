"""Symbolic linear forms and their parser."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fraction_parse_linear_form, tokenizing_parse_linear_form
from toricmirror.documents import MAX_EXPONENT, read_rational
from toricmirror.errors import SchemaError
from toricmirror.linform import LinForm, parse_linear_form


class TestLinForm:
    def test_record_fields(self):
        expr = parse_linear_form("2*t1 - t2 + 3")
        assert (expr.const, expr.coeffs) == (3, {"t1": 2, "t2": -1})
        assert expr.variables == frozenset({"t1", "t2"})
        with pytest.raises(AttributeError):
            expr.const = 0

    def test_hash_agrees_with_equality(self):
        # between two forms; a form is no number and equals none
        half = parse_linear_form("t - t + 1/2")
        assert len({LinForm("1/2"), LinForm(Fraction(1, 2)), half}) == 1
        assert len({LinForm(0), parse_linear_form("t - t")}) == 1
        assert {LinForm(1, {"t": 2}): "x"}[parse_linear_form("t + 1 + t")] == "x"
        assert LinForm(3) != 3 and LinForm(0) != 0

    def test_zero_coefficients_dropped(self):
        expr = LinForm(1, {"t1": 0, "t2": Fraction(0)})
        assert expr.variables == frozenset()
        assert expr == LinForm(1)

    def test_subs_exact_and_float(self):
        expr = parse_linear_form("3/2*t1 - t2")
        assert expr.subs({"t1": Fraction(2), "t2": Fraction(1)}) == 2
        assert expr.subs({"t1": 2.0, "t2": 1.0}) == pytest.approx(2.0)
        with pytest.raises(KeyError):
            expr.subs({"t1": 1})

    def test_str_round_trip(self):
        for text in ("-t1 - 2*t2", "t1 + 2*t2 - 3", "1/2*t1", "0", "-5"):
            expr = parse_linear_form(text)
            assert parse_linear_form(str(expr)) == expr


class TestParser:
    def test_plain_number_forms(self):
        assert parse_linear_form(5) == LinForm(5)
        assert parse_linear_form("7/3") == LinForm(Fraction(7, 3))
        assert parse_linear_form(0.5) == LinForm(Fraction(1, 2))
        assert parse_linear_form("0.25") == LinForm(Fraction(1, 4))

    def test_signs(self):
        assert parse_linear_form("-t") == LinForm(0, {"t": -1})
        assert parse_linear_form("+t - 1") == LinForm(-1, {"t": 1})

    def test_allowed_names_enforced(self):
        parse_linear_form("-t1", ["t1"])
        with pytest.raises(ValueError):
            parse_linear_form("-t2", ["t1"])

    @pytest.mark.parametrize("bad", [
        "t1 t2", "2*", "*t1", "t1 +", "2**t1", "t1 - * 2", "",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_linear_form(bad)

    def test_repeated_terms_merge(self):
        assert parse_linear_form("t + t - 3*t") == LinForm(0, {"t": -1})

    @pytest.mark.parametrize("text", [
        "\u0663", "\u0663*t1 - \u0661/\u0662", "\uff13/\uff12", "1.\u0665", "t1\u00a0+ 1",
        "\u2003-t"])
    def test_non_ascii_digits_and_whitespace_rejected(self, text):
        # unless compiled ASCII, \d and \s match any Unicode digit and space
        with pytest.raises(ValueError, match="cannot parse linear form"):
            parse_linear_form(text)


@pytest.mark.parametrize("text", ["\u0663", "\uff13/\uff12", "1e\u0661", "\u00a01", "-\u0660.5"])
def test_read_rational_refuses_non_ascii_text(text):
    # Fraction reads each of these: any Unicode digit, around any Unicode space
    Fraction(text)
    with pytest.raises(SchemaError, match="not ASCII text"):
        read_rational(text)


TOKENS = ["t", "t1", "s_2", "0", "1", "2", "12", "3/2", "1/0", "0.25", "0.1", "2.", ".5",
          "0.1234567890123456789", "+", "-", "*", "/", " ", "\t", ""]


def _float_exact(text):
    # every decimal literal equals the float its old reading went through
    return all(Fraction(d) == Fraction(repr(float(d)))
               for d in re.findall(r"\d+\.\d+", text))


def _outcome(parse, text, allowed):
    try:
        return parse(text, allowed)
    except (ValueError, ZeroDivisionError):
        return ValueError


class TestAgainstTokenizingParser:
    """The term-pattern parser against the former tokenizing one. They
    differ in three ways only: trailing whitespace is accepted, a zero
    denominator is a ValueError instead of a ZeroDivisionError, and a
    decimal literal a float cannot hold is read exactly."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=8).map("".join)
           | st.text(alphabet="ts12/0.+-* ", max_size=10),
           st.sampled_from([None, ["t"], ["t", "t1", "s_2"]]))
    def test_same_form_or_both_refuse(self, text, allowed):
        new = _outcome(parse_linear_form, text, allowed)
        old = _outcome(tokenizing_parse_linear_form, text.rstrip(), allowed)
        if new is ValueError or old is ValueError:
            assert new == old, text
        elif _float_exact(text):
            assert (new.const, list(new.coeffs.items())) \
                == (old.const, list(old.coeffs.items())), text
        else:
            assert list(new.coeffs) == list(old.coeffs), text

    def test_a_cancelled_name_returns_at_the_end(self):
        # the order in which LinForm.subs sums floats
        text = "t1 + t2 - t1 + t1"
        for parse in (parse_linear_form, tokenizing_parse_linear_form):
            assert list(parse(text).coeffs.items()) == [("t2", 1), ("t1", 1)]

    def test_the_three_differences(self):
        assert parse_linear_form("t - 1 \t") == LinForm(-1, {"t": 1})
        with pytest.raises(ValueError):
            tokenizing_parse_linear_form("t - 1 \t")
        with pytest.raises(ValueError, match="zero denominator"):
            parse_linear_form("-1/0*t")
        with pytest.raises(ZeroDivisionError):
            tokenizing_parse_linear_form("-1/0*t")
        text = "0.1234567890123456789"
        assert parse_linear_form(text) == LinForm(Fraction(text))
        assert tokenizing_parse_linear_form(text) == LinForm(
            Fraction(1543209862654321, 12500000000000000))


def _parsed(parse, text, allowed):
    """A parse's form as (const, coefficient items in key order), with the
    type of every number, or its ValueError message."""
    try:
        form = parse(text, allowed)
    except ValueError as exc:
        return str(exc)
    return (form.const, list(form.coeffs.items()),
            {type(x) for x in (form.const, *form.coeffs.values())})


NUMBERS = (st.integers(0, 10 ** 20).map(str)
           | st.tuples(st.sampled_from(["0", "00"]), st.integers(0, 99)).map(lambda t: f"{t[0]}{t[1]}")
           | st.tuples(st.integers(0, 99), st.sampled_from("/."),
                       st.integers(0, 999)).map(lambda t: f"{t[0]}{t[1]}{t[2]}")
           | st.sampled_from(["-0", "3/6", "0.25", "1/0", "0/0", "007/014", "2.50", "\u0663"]))
NAMES = st.sampled_from(["t", "t1", "s_2"])
SIGNED_TERMS = st.tuples(
    st.sampled_from(["", "+", "-", " + ", " - ", "+ "]),
    NUMBERS | NAMES | st.tuples(NUMBERS, st.sampled_from(["*", " * "]), NAMES).map("".join),
).map("".join)


class TestIntFirstReading:
    """The parser, which reads a number with no '/' or '.' by int and sums
    ints until a Fraction joins them, against the all-Fraction one: the
    same forms, in the same key order (LinForm.subs sums floats in that
    order), and the same messages."""

    @settings(max_examples=600, deadline=None)
    @given(st.lists(SIGNED_TERMS, min_size=1, max_size=7).map("".join)
           | st.text(alphabet="ts_12/0.+-* ", max_size=12),
           st.sampled_from([None, ["t"], ["t", "t1", "s_2"]]))
    @example("007 - 7 + t1 - t1 + 3/6*t1", None)
    @example("-0*t + t - t + -0", None)
    @example("t1 + s_2 - 1*t1 + 01*t1", None)
    @example("t + 1/0*t", None)
    @example("0.25*s_2 - 1/4*s_2 + s_2", ["s_2"])
    @example("t1 + 2*t2", ["t1"])
    @example("\u0663*t1 - \u0661/\u0662 + \u00a0t", None)  # refused by both
    def test_same_form_order_and_messages(self, text, allowed):
        new = _parsed(parse_linear_form, text, allowed)
        assert new == _parsed(fraction_parse_linear_form, text, allowed), text
        if not isinstance(new, str):
            assert new[2] == {Fraction}, text


@settings(max_examples=400, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False).map(repr)
       | st.text(alphabet="0123456789.eE+-_ infa", max_size=12))
@example("1e-4300")  # at the reader's bound
@example("1e-99999999")  # far beyond it
def test_fraction_reads_every_finite_float_literal(text):
    # `crit --t` and every rational of a document are read by read_rational:
    # a literal float() reads as a finite number is one it reads, to the
    # same float, unless its decimal exponent is beyond the reader's bound
    try:
        value = float(text)
    except ValueError:
        return
    if not math.isfinite(value):
        return
    try:
        rational = read_rational(text)
    except SchemaError as exc:
        exponent = re.search(r"e([-+]?[\d_]+)\s*$", text, re.IGNORECASE)
        assert exponent and abs(int(exponent[1])) > MAX_EXPONENT, text
        assert "decimal exponent above" in str(exc)
        return
    assert float(rational) == value, text
