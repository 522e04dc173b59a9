import pytest

from zetalab.bandfn import LogBandFunction
from zetalab.cyclotomy import Divisor, Root
from zetalab.hermitefn import EvenGaussHermite
from zetalab.precision import HPMatrix
from zetalab.witt import MonoidMatrix, fourier_pair
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


# A container a value holds is read-only too: through it the band's K, a
# matrix's hash, a table's strictly increasing order or g(0) would move.
CONTAINERS = {
    "LogBandFunction.coeffs": (lambda: LogBandFunction(4, {0: 1}), "coeffs", 3),
    "MonoidMatrix.cols": (lambda: MonoidMatrix(2, {1: (2, Root(1, 3))}), "cols", 2),
    "ZeroTable.ordinates": (lambda: parse_zero_table("14.134725\n21.022040\n"), "ordinates", 1),
    "EvenGaussHermite.coeffs": (lambda: EvenGaussHermite(1, [1, 2]), "coeffs", 0),
}


@pytest.mark.parametrize("make, field, key", CONTAINERS.values(), ids=CONTAINERS.keys())
def test_containers_cannot_be_changed(make, field, key):
    container = getattr(make(), field)
    with pytest.raises(TypeError):
        container[key] = 99
    with pytest.raises(TypeError):
        del container[key]
