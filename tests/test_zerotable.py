import re
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from zetalab.zerotable import (
    _PARSE_BITS,
    ZeroTable,
    ZeroTableError,
    _above,
    bundled_zero_table,
    parse_zero_table,
)

SAMPLE = "14.134725\n21.022040\n25.010858\n"


class TestParse:
    def test_three_standard_ordinates(self):
        t = parse_zero_table(SAMPLE)
        assert len(t) == 3
        assert abs(t[0] - mpf("14.134725")) < 1e-12

    def test_comments_and_blanks(self):
        t = parse_zero_table("# header\n\n14.134725  # first\n21.022040\n")
        assert len(t) == 2

    def test_empty_file_rejected(self):
        with pytest.raises(ZeroTableError):
            parse_zero_table("# nothing here\n")

    def test_out_of_order_rejected(self):
        with pytest.raises(ZeroTableError, match="increasing"):
            parse_zero_table("14.134725\n25.010858\n21.022040\n")

    def test_sanity_anchor(self):
        with pytest.raises(ZeroTableError, match="14"):
            parse_zero_table("21.022040\n25.010858\n")

    def test_trailing_inf_rejected(self):
        with pytest.raises(ZeroTableError, match="line 2"):
            parse_zero_table("14.134725\ninf\n")

    def test_garbage_line(self):
        with pytest.raises(ZeroTableError, match="line 2"):
            parse_zero_table("14.134725\nnot-a-number\n")

    def test_truncated(self):
        t = parse_zero_table(SAMPLE)
        assert len(t.truncated(2)) == 2
        with pytest.raises(ValueError):
            t.truncated(7)

    def test_float_ordinates_cached_and_read_only(self):
        t = parse_zero_table(SAMPLE)
        floats = t.float_ordinates()
        assert floats.tolist() == [float(g) for g in t]
        assert not floats.flags.writeable
        assert t.float_ordinates() is floats


def parsed(line):
    """The raw mpf that parse_zero_table reads from one line after 14.1."""
    return parse_zero_table(f"14.1\n{line}\n")[1]._mpf_


def mpf_of(line):
    with mp.workprec(_PARSE_BITS):
        return mpf(line)._mpf_


# the file's grammar, stated apart from the parse
PLAIN = re.compile(r"[0-9]+(\.[0-9]*)?")


def rounded_once(line):
    """n/10^k for a line of the grammar, exact, rounded once to nearest."""
    whole, _, fraction = line.partition(".")
    return from_rational(int(whole + fraction), 10 ** len(fraction), _PARSE_BITS, round_nearest)


class TestIntegerRoute:
    # a line of the grammar is read as n/10^k on integers and rounded once,
    # which is the mpf that mpf(line) gives at _PARSE_BITS up to 400 digits
    # after the point; every other line is refused by its line number

    @settings(max_examples=300, deadline=None)
    @given(st.text("0123456789", min_size=1, max_size=80), st.integers(0, 81))
    def test_plain_decimals_match_mpf(self, digits, point):
        # leading zeros, over 60 significant digits, and a point anywhere or nowhere
        line = digits if point > len(digits) else f"{digits[:point]}.{digits[point:]}"
        if line.startswith("."):  # no digit before the point: outside the grammar
            with pytest.raises(ZeroTableError, match="line 2"):
                parsed(line)
            return
        want = mpf_of(line)
        if mp.make_mpf(want) > mpf("14.1"):
            assert parsed(line) == want
        else:
            with pytest.raises(ZeroTableError, match="increasing"):
                parsed(line)

    @pytest.mark.parametrize("line", [
        "15", "15.", "0015.25", "15.0000", "15." + "0" * 70 + "1", "99" + "7" * 78,
        "15." + "3" * 397, "15." + "3" * 398, "15." + "9" * 450, "15" + "0" * 4298 + "." + "0" * 10,
        "+14.5", "14.5", "1.45e1", "1_4.5", "\u0661\u0664.\u0665", "29/2", "14.5l",
    ])
    def test_edge_lines_match_mpf(self, line):
        # a line of the grammar gives the exact n/10^k rounded once, which is
        # mpf(line) up to 400 digits after the point (past that mpf rounds in
        # two steps); the 4310-digit line, past int()'s limit, and every line
        # outside the grammar are refused by their number, though mpf reads each
        whole, _, fraction = line.partition(".")
        if PLAIN.fullmatch(line) and len(whole + fraction) <= sys.get_int_max_str_digits():
            want = rounded_once(line)
            if len(fraction) <= 400:
                assert mpf_of(line) == want
            assert parsed(line) == want
        else:
            assert mp.isfinite(mp.make_mpf(mpf_of(line)))
            with pytest.raises(ZeroTableError, match="line 2"):
                parsed(line)

    @pytest.mark.parametrize("line", ["14.", ".5", "-14.5", "nan"])
    def test_lines_at_or_below_the_first_are_refused(self, line):
        # "14." is a plain decimal, refused by the order check; the others
        # are outside the grammar, refused by their line number
        with pytest.raises(ZeroTableError, match="increasing" if PLAIN.fullmatch(line) else "line 2"):
            parsed(line)

    @pytest.mark.parametrize("line", ["14.5\u00b2", ".0", ".", "15.5.5", "1e", "--15", "15,5", "0x10"])
    def test_what_mpf_refuses_is_refused_by_line(self, line):
        with pytest.raises(ValueError):
            mpf_of(line)
        with pytest.raises(ZeroTableError, match="line 2"):
            parsed(line)

    def test_inf_is_refused_as_not_finite(self):
        # the parse refuses "inf" as outside the grammar; ZeroTable, which
        # takes ordinates from any caller, refuses an infinite one
        with pytest.raises(ZeroTableError, match="line 2"):
            parsed("inf")
        with pytest.raises(ZeroTableError, match="finite"):
            ZeroTable([mpf("14.5"), mpf("inf")])

    def test_distinct_decimals_rounding_together_are_refused(self):
        # both round to the same 203-bit mpf, so the table is not strictly increasing
        twin = "14.5" + "0" * 69 + "1"
        assert mpf_of(twin) == mpf_of("14.5")
        with pytest.raises(ZeroTableError, match="increasing"):
            parse_zero_table(f"14.5\n{twin}\n")

    @settings(max_examples=300, deadline=None)
    @given(*[st.integers(-2**70, 2**70), st.integers(-80, 80)] * 2)
    def test_raw_order_matches_the_operator(self, m, e, pm, pe):
        # the second pair shares its top bit, so the aligned mantissas decide
        tied = e + abs(m).bit_length() - abs(pm).bit_length()
        for a, b in (((m, e), (pm, pe)), ((m, e), (pm, tied)), ((m, e), (m + 1, e))):
            g, prev = (mp.make_mpf(from_man_exp(*x)) for x in (a, b))
            assert _above(g, prev) == (g > prev)
            assert _above(prev, g) == (prev > g)
        for special in (mpf("inf"), mpf("-inf"), mpf("nan"), mpf(0)):
            assert _above(g, special) == (g > special)
            assert _above(special, g) == (special > g)

    def test_order_check_takes_any_ordinates(self):
        # the raw-tuple comparison serves pairs of mpfs; ints, floats and a
        # mix still compare by the operator
        assert len(ZeroTable([14.5, 15, mpf(16), mpf("16.5"), 17.25])) == 5
        for bad in ([14.5, 14.5], [14.5, mpf(14)], [mpf("14.5"), 14], [14.5, mpf(-1)], [14.5, mpf("nan")]):
            with pytest.raises(ZeroTableError, match="increasing"):
                ZeroTable(bad)


class TestLoad:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "zeros.txt"
        p.write_text(SAMPLE)
        t = parse_zero_table(p.read_text(), source=str(p))
        assert len(t) == 3 and str(p) in t.source


class TestBundled:
    def test_loads_and_validates(self):
        t = bundled_zero_table()
        assert len(t) == 10000
        assert abs(t[0] - mpf("14.13472514173469379")) < 1e-15
        assert abs(t[-1] - mpf("9877.7826540055")) < 1e-9

    def test_every_entry_is_mpf_of_its_line(self):
        text = resources.files("zetalab").joinpath("data/zeros10k.txt").read_text()
        lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
        want = [mpf_of(line) for line in lines]
        assert [g._mpf_ for g in bundled_zero_table()] == want

    def test_known_high_precision_prefix(self):
        # first entries carry 40 significant digits
        from mpmath import mp

        t = bundled_zero_table()
        with mp.workdps(50):
            ref = mpf("21.02203963877155499262847959389690277733")
            assert abs(t[1] - ref) < mpf(10) ** -35
