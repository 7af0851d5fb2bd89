"""Tests for rope strings, descriptors and code values (with property-based checks)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.strings.code import as_code, code_concat, code_join, code_size, flatten_code
from repro.strings.descriptors import ConcatDescriptor, LeafDescriptor, LiteralDescriptor
from repro.strings.rope import Rope, rope


class TestRope:
    def test_leaf_and_flatten(self):
        assert Rope.leaf("hello").flatten() == "hello"
        assert len(Rope.leaf("hello")) == 5

    def test_empty(self):
        assert Rope.empty().flatten() == ""
        assert len(Rope.empty()) == 0

    def test_concat_is_constant_size_metadata(self):
        left = Rope.leaf("a" * 100)
        right = Rope.leaf("b" * 50)
        joined = Rope.concat(left, right)
        assert len(joined) == 150
        assert joined.leaf_count == 2

    def test_concat_elides_empty(self):
        piece = Rope.leaf("x")
        assert Rope.concat(Rope.empty(), piece) is piece
        assert Rope.concat(piece, Rope.empty()) is piece

    def test_addition_operators(self):
        value = Rope.leaf("a") + "b" + Rope.leaf("c")
        assert value.flatten() == "abc"
        assert ("pre" + Rope.leaf("fix")).flatten() == "prefix"

    def test_join(self):
        assert Rope.join(["a", Rope.leaf("b"), "c"]).flatten() == "abc"

    def test_equality_with_strings(self):
        assert Rope.leaf("ab") + "c" == "abc"
        assert Rope.leaf("ab") == Rope.concat(Rope.leaf("a"), Rope.leaf("b"))

    def test_iter_leaves_order(self):
        value = (Rope.leaf("a") + "b") + (Rope.leaf("c") + "d")
        assert list(value.iter_leaves()) == ["a", "b", "c", "d"]

    def test_transmission_size_accounts_for_leaves(self):
        value = Rope.leaf("abcd") + Rope.leaf("ef")
        assert value.transmission_size() == 6 + 4 * 2

    def test_invalid_node(self):
        with pytest.raises(ValueError):
            Rope(text="x", left=Rope.leaf("y"))

    def test_rope_helper(self):
        assert rope("abc").flatten() == "abc"
        assert rope("").flatten() == ""
        existing = Rope.leaf("x")
        assert rope(existing) is existing

    @given(st.lists(st.text(max_size=8), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_property_join_matches_python_concat(self, pieces):
        assert Rope.join(list(pieces)).flatten() == "".join(pieces)

    @given(st.text(max_size=20), st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_property_concat_associative(self, a, b, c):
        left = Rope.concat(Rope.concat(Rope.leaf(a), Rope.leaf(b)), Rope.leaf(c))
        right = Rope.concat(Rope.leaf(a), Rope.concat(Rope.leaf(b), Rope.leaf(c)))
        assert left.flatten() == right.flatten()
        assert len(left) == len(a) + len(b) + len(c)


class TestRopeEdits:
    def _document(self):
        pieces = ["alpha ", "beta ", "gamma ", "delta ", "epsilon"]
        return Rope.join(pieces), "".join(pieces)

    def test_split_matches_python_slicing(self):
        value, text = self._document()
        for position in range(len(text) + 1):
            left, right = value.split(position)
            assert left.flatten() == text[:position]
            assert right.flatten() == text[position:]

    def test_split_out_of_range(self):
        value, text = self._document()
        with pytest.raises(IndexError):
            value.split(-1)
        with pytest.raises(IndexError):
            value.split(len(text) + 1)

    def test_slice_edge_cases(self):
        value, text = self._document()
        assert value.slice(0, 0).flatten() == ""
        assert value.slice(0, len(text)).flatten() == text
        assert value.slice(3, 3).flatten() == ""
        assert value.slice(2, 9).flatten() == text[2:9]
        with pytest.raises(IndexError):
            value.slice(5, 2)
        with pytest.raises(IndexError):
            value.slice(0, len(text) + 1)

    def test_insert_delete_replace_match_strings(self):
        value, text = self._document()
        assert value.insert(0, ">>").flatten() == ">>" + text
        assert value.insert(len(text), "<<").flatten() == text + "<<"
        assert value.insert(7, "X").flatten() == text[:7] + "X" + text[7:]
        assert value.delete(0, 6).flatten() == text[6:]
        assert value.delete(3, 3).flatten() == text
        assert value.replace(6, 11, "BETA!").flatten() == text[:6] + "BETA!" + text[11:]
        assert value.replace(0, len(text), "").flatten() == ""

    def test_edits_preserve_untouched_leaves_by_reference(self):
        value, _ = self._document()
        original_leaves = list(value._leaves())
        edited = value.replace(8, 10, "XX")  # inside the "beta " leaf
        edited_leaves = list(edited._leaves())
        # Every leaf not straddling the edit is the *same object*, not a copy.
        assert original_leaves[0] in edited_leaves          # "alpha "
        for leaf in original_leaves[2:]:                    # "gamma " onwards
            assert leaf in edited_leaves
        assert original_leaves[1] not in edited_leaves      # the cut leaf

    def test_edit_chain_stays_shallow(self):
        value = Rope.leaf("x" * 64)
        for index in range(300):
            value = value.insert(len(value) // 2, str(index % 10))
        assert value.depth() <= 2 * (value.leaf_count.bit_length() + 1)

    def test_balanced_reuses_leaf_objects(self):
        leaves = [Rope.leaf(ch) for ch in "abcdefghij"]
        built = Rope.balanced(list(leaves))
        assert built.flatten() == "abcdefghij"
        assert set(id(leaf) for leaf in built._leaves()) == set(id(leaf) for leaf in leaves)

    @given(
        st.text(max_size=60),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_random_edit_sequences_match_strings(self, text, data):
        value = rope(text)
        reference = text
        for _ in range(4):
            start = data.draw(st.integers(0, len(reference)))
            end = data.draw(st.integers(start, len(reference)))
            insertion = data.draw(st.text(max_size=10))
            value = value.replace(start, end, insertion)
            reference = reference[:start] + insertion + reference[end:]
            assert value.flatten() == reference
            assert len(value) == len(reference)


class TestDescriptors:
    def _library(self):
        fragments = {
            (1, 1): Rope.leaf("alpha "),
            (2, 1): Rope.leaf("beta "),
        }
        return fragments, lambda region, fragment: fragments[(region, fragment)]

    def test_leaf_descriptor_assembly(self):
        fragments, lookup = self._library()
        descriptor = LeafDescriptor(1, 1)
        assert descriptor.assemble(lookup).flatten() == "alpha "
        assert descriptor.fragment_ids() == [(1, 1)]

    def test_concat_descriptor_assembly_preserves_order(self):
        fragments, lookup = self._library()
        descriptor = ConcatDescriptor(
            LeafDescriptor(1, 1),
            ConcatDescriptor(LiteralDescriptor(Rope.leaf("and ")), LeafDescriptor(2, 1)),
        )
        assert descriptor.assemble(lookup).flatten() == "alpha and beta "
        assert descriptor.fragment_ids() == [(1, 1), (2, 1)]

    def test_descriptor_sizes_are_small(self):
        descriptor = ConcatDescriptor(LeafDescriptor(1, 1), LeafDescriptor(2, 1))
        assert descriptor.descriptor_size() < 100


class TestCodeValues:
    def test_code_concat_ropes(self):
        value = code_concat("a", Rope.leaf("b"))
        assert isinstance(value, Rope)
        assert value.flatten() == "ab"

    def test_code_concat_with_descriptor(self):
        descriptor = LeafDescriptor(3, 1)
        value = code_concat("local ", descriptor)
        assert not isinstance(value, Rope)
        assert value.fragment_ids() == [(3, 1)]

    def test_code_join_and_flatten_with_lookup(self):
        descriptor = LeafDescriptor(3, 1)
        value = code_join(["head ", descriptor, " tail"])
        text = flatten_code(value, lambda r, f: Rope.leaf("REMOTE"))
        assert text == "head REMOTE tail"

    def test_code_size(self):
        assert code_size("abcd") == Rope.leaf("abcd").transmission_size()
        assert code_size(LeafDescriptor(1, 1)) == 12

    def test_as_code_rejects_garbage(self):
        with pytest.raises(TypeError):
            as_code(42)
