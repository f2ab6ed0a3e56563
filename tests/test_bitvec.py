"""Bit vector semantics against a per-bit boolean-array reference."""

import pytest
from hypothesis import given, strategies as st

from swapmatch.bitvec import BitVector, count_ops


# -- reference implementation on boolean lists (bit 1 = index 0) ---------------

def ref_from_vec(v: BitVector) -> list[bool]:
    return [bool(v.get_bit(i)) for i in range(1, v.length + 1)]


def ref_lshift1(bits: list[bool]) -> list[bool]:
    return [False] + bits[:-1] if bits else []


def ref_rshift1(bits: list[bool]) -> list[bool]:
    return bits[1:] + [False] if bits else []


def ref_lso(bits: list[bool]) -> list[bool]:
    shifted = ref_lshift1(bits)
    if shifted:
        shifted[0] = True
    return shifted


def assert_matches(v: BitVector, bits: list[bool]) -> None:
    assert v.length == len(bits)
    assert ref_from_vec(v) == bits


vectors = st.builds(
    lambda bits: (BitVector(len(bits), sum(b << i for i, b in enumerate(bits))), bits),
    st.lists(st.booleans(), min_size=0, max_size=256),
)


def test_zeros_basic():
    assert BitVector.zeros(4).to01() == "0000"
    assert BitVector.zeros(0).length == 0


def test_zeros_multiword():
    assert BitVector.zeros(130).value == 0
    # the bits above the length stay masked even if set explicitly
    assert BitVector(130, 1 << 135).value == 0


def test_lshift1_definition():
    v = BitVector.from_positions(4, [1])
    assert v.lshift1().positions() == (2,)
    assert v.lshift1().get_bit(1) == 0


def test_lshift1_overflow_dropped():
    v = BitVector.from_positions(4, [4])
    assert v.lshift1().value == 0


def test_lshift1_cross_word_carry():
    v = BitVector.from_positions(70, [64])
    expected = ref_lshift1(ref_from_vec(v))
    assert_matches(v.lshift1(), expected)
    assert v.lshift1().positions() == (65,)


def test_lso_zero():
    assert BitVector.zeros(4).lso().positions() == (1,)


def test_lso_mask_table_value():
    # LSO of bits {1,2} over length 4 renders as 1110
    v = BitVector.from_positions(4, [1, 2])
    assert v.lso().to01() == "1110"


def test_lso_cross_word():
    v = BitVector.from_positions(70, [64])
    expected = ref_lso(ref_from_vec(v))
    assert_matches(v.lso(), expected)
    assert v.lso().positions() == (1, 65)


def test_rshift1_definition():
    assert BitVector.from_positions(4, [2]).rshift1().positions() == (1,)


def test_and_or_definition():
    a = BitVector(4, 0b0011)
    b = BitVector(4, 0b0101)
    assert (a & b).to01() == "1000"
    assert (a | b).to01() == "1110"


def test_binary_length_mismatch():
    with pytest.raises(ValueError):
        BitVector.zeros(4) & BitVector.zeros(5)
    with pytest.raises(ValueError):
        BitVector.zeros(4) | BitVector.zeros(3)


def test_get_set_bit_round_trip():
    length = 130
    for i in (1, 64, 65, length):
        v = BitVector(length, 1 << (i - 1))
        assert v.get_bit(i) == 1
        assert v.positions() == (i,)


def test_get_bit_examples():
    assert BitVector.zeros(4).lso().get_bit(1) == 1
    assert BitVector.zeros(4).get_bit(3) == 0


def test_bit_index_out_of_range():
    v = BitVector.zeros(4)
    for bad in (0, 5, -1):
        with pytest.raises(IndexError):
            v.get_bit(bad)


def test_zero_length_ops_are_noops():
    v = BitVector.zeros(0)
    assert v.lshift1().value == 0
    assert v.lso().value == 0
    assert v.rshift1().value == 0


@given(vectors)
def test_ops_match_reference(pair):
    v, bits = pair
    assert_matches(v.lshift1(), ref_lshift1(bits))
    assert_matches(v.rshift1(), ref_rshift1(bits))
    assert_matches(v.lso(), ref_lso(bits))


@given(vectors, vectors)
def test_binary_ops_match_reference(pa, pb):
    va, ba = pa
    vb, bb = pb
    n = min(va.length, vb.length)
    va, ba = BitVector(n, va.value), ba[:n]
    vb, bb = BitVector(n, vb.value), bb[:n]
    assert_matches(va & vb, [x and y for x, y in zip(ba, bb)])
    assert_matches(va | vb, [x or y for x, y in zip(ba, bb)])


@given(vectors)
def test_canonical_form_preserved(pair):
    v, _ = pair
    for result in (v.lshift1(), v.rshift1(), v.lso(), v & v, v | v):
        assert result.value >> result.length == 0


@given(vectors)
def test_shift_inverse_up_to_boundary(pair):
    v, _ = pair
    lhs = v.lshift1().rshift1().lshift1()
    rhs = v.lshift1()
    if v.length >= 1:
        rhs = BitVector(rhs.length, rhs.value & ~1)
    assert lhs == rhs


def test_from_positions_range_checked():
    with pytest.raises(IndexError):
        BitVector.from_positions(4, [5])
    with pytest.raises(IndexError):
        BitVector.from_positions(4, [0])


def test_count_ops_counts_primitives():
    v = BitVector.zeros(8)
    with count_ops() as ops:
        v.lso()
        v & v
    assert ops == {"lshift": 1, "or": 1, "and": 1}


def test_immutable():
    v = BitVector.zeros(4)
    with pytest.raises(AttributeError):
        v.value = 3


def test_pickle_and_deepcopy_round_trip():
    import copy
    import pickle

    v = BitVector(5, 0b10110)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(v, proto)) == v
    assert copy.deepcopy(v) == v and copy.copy(v) == v


def test_bitvector_is_a_record():
    from swapmatch.report import _Record

    v = BitVector(4, 0b10110)
    assert isinstance(v, _Record)
    assert v == BitVector(length=4, value=0b0110) and v != BitVector(5, 0b0110)
    assert hash(v) == hash((4, 0b0110))
    assert repr(v) == "BitVector(4, 0b110)"
    assert BitVector(4) == BitVector.zeros(4)
    with pytest.raises(AttributeError):
        del v.value
    with pytest.raises(ValueError, match="bit length must be >= 0"):
        BitVector(-1)
    with pytest.raises(TypeError):
        BitVector(4, 1, 2)
