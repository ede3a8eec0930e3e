import random

import mpmath as mp
import pytest

from aderdg.arith import (ArithError, PrecisionContext, format_decimal,
                          make_context, parse_decimal)


def test_context_derived_values():
    ctx = make_context(120)
    assert ctx.decimal_digits == 120
    with ctx.workdps(10):
        assert ctx.unit_roundoff == mp.mpf(10) ** -120
        assert ctx.identity_tol == mp.mpf(10) ** -110
        assert ctx.identity_tol > ctx.unit_roundoff


def test_context_boundary():
    ctx = make_context(30)
    with ctx.workdps(10):
        assert ctx.identity_tol == mp.mpf(10) ** -20


@pytest.mark.parametrize("digits", [29, 0, -5])
def test_context_rejects_low_precision(digits):
    with pytest.raises(ArithError):
        make_context(digits)


def test_context_derives_its_tolerances():
    # the tolerances follow from the digits and cannot be passed in
    with pytest.raises(ArithError):
        PrecisionContext(29)
    with pytest.raises(TypeError):
        PrecisionContext(60, mp.mpf(1), mp.mpf(1))
    assert PrecisionContext(120) == make_context(120)


def test_context_is_immutable():
    ctx = make_context(40)
    with pytest.raises(Exception):
        ctx.decimal_digits = 50


def test_parse_format_roundtrip():
    ctx = make_context(50)
    rng = random.Random(1234)
    with ctx.workdps():
        for _ in range(1000):
            x = mp.mpf(rng.uniform(-1, 1)) * mp.mpf(10) ** rng.randint(-10, 10)
            y = parse_decimal(format_decimal(x, ctx), ctx)
            assert abs(x - y) <= ctx.unit_roundoff * max(1, abs(x))


@pytest.mark.parametrize("bad", ["", "abc", "1,5", "0x10", "1e", "--3",
                                 "nan", "inf", "1 2", "1.2.3"])
def test_parse_rejects_malformed(bad):
    ctx = make_context(30)
    with pytest.raises(ArithError):
        parse_decimal(bad, ctx)


@pytest.mark.parametrize("good,val", [("1.5", 1.5), ("-2e3", -2000),
                                      (".5", 0.5), ("+7", 7), (" 3 ", 3)])
def test_parse_accepts_plain_decimals(good, val):
    ctx = make_context(30)
    with ctx.workdps():
        assert parse_decimal(good, ctx) == mp.mpf(val)


def test_workdps_restores_precision():
    ctx = make_context(80)
    before = mp.mp.dps
    with ctx.workdps(5):
        assert mp.mp.dps == 85
    assert mp.mp.dps == before
