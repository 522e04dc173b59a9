import pytest

from zetalab.bandfn import LogBandFunction
from zetalab.cyclotomy import Divisor, Root
from zetalab.precision import HPMatrix
from zetalab.witt import fourier_pair
from zetalab.zerotable import parse_zero_table

VALUES = {
    "Root": (lambda: Root(1, 3), "num"),
    "Divisor": (lambda: Divisor.of(Root(1, 3), 2), "_terms"),
    "LogBandFunction": (lambda: LogBandFunction(4, {0: 1, 1: 2}), "coeffs"),
    "HPMatrix": (lambda: HPMatrix([[1, 0], [0, 2]], 0, 64), "rows"),
    "DivisorMatrix": (lambda: fourier_pair(3)[0], "rows"),
    "ZeroTable": (lambda: parse_zero_table("14.134725\n21.022040\n"), "ordinates"),
}


@pytest.mark.parametrize("make, field", VALUES.values(), ids=VALUES.keys())
def test_fields_cannot_be_set_or_deleted(make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def _assert_rows_frozen(m, entry):
    # rows is a tuple of tuples: no entry or row can be replaced
    with pytest.raises(TypeError):
        m.rows[0][1] = entry
    with pytest.raises(TypeError):
        m.rows[0] = (entry,) * len(m.rows)


def test_hpmatrix_rows_cannot_be_assigned():
    # the symmetry HPMatrix checks is the Weyl bound's premise
    _assert_rows_frozen(HPMatrix([[1, 0], [0, 2]], 0, 64), 1)


def test_divisormatrix_rows_cannot_be_assigned():
    # a DivisorMatrix is a value: the Fourier relations hold of what it shows
    _assert_rows_frozen(fourier_pair(3)[0], Divisor())
