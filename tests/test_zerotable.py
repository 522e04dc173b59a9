import pytest
from mpmath import mpf

from zetalab.zerotable import (
    ZeroTableError,
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
        with pytest.raises(ZeroTableError, match="finite"):
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

    def test_known_high_precision_prefix(self):
        # first entries carry 40 significant digits
        from mpmath import mp

        t = bundled_zero_table()
        with mp.workdps(50):
            ref = mpf("21.02203963877155499262847959389690277733")
            assert abs(t[1] - ref) < mpf(10) ** -35
