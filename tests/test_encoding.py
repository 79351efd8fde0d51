"""encoding.check_types and block_from_dict: fields read and checked as their
dataclass declares them, with values as JSON delivers them."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from phtlink.encoding import block_from_dict, check_types


@dataclass
class Inner:
    name: str


@dataclass
class Block:
    count: int = 1
    weight: float = 0.5
    label: str = "x"
    limit: int | None = None
    pair: tuple[str, int] = ("a", 1)
    names: tuple[str, ...] = ()
    pairs: tuple[tuple[str, str], ...] = ()
    inner: Inner | None = None
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


class TestCheckTypes:
    @pytest.mark.parametrize("block", [
        Block(),
        Block(weight=2),  # an int is also a float
        Block(weight=-0.25),
        Block(limit=3),
        Block(pair=("b", 2)),
        Block(names=("a", "b")),
        Block(pairs=(("a", "b"), ("c", "d"))),
        Block(inner=Inner(name=5)),  # a nested dataclass by its own type only
        Block(rows=[1, "x", None]),  # a list by its own type only
        Block(meta={"a": object()}),  # a dict by its own type only
    ])
    def test_accepted(self, block):
        assert check_types(block) is block

    @pytest.mark.parametrize("name, value", [
        ("count", True),  # a bool is not an int
        ("count", 1.0),
        ("count", "1"),
        ("weight", False),
        ("weight", "0.5"),
        ("label", None),  # None only where declared
        ("label", 1),
        ("limit", "3"),
        ("limit", True),
        ("pair", ("a",)),  # a fixed-length tuple: its length ...
        ("pair", ("a", 1, 2)),
        ("pair", ("a", "1")),  # ... and each item's type
        ("pair", ["a", 1]),  # a list is no tuple
        ("names", "ab"),  # a string is no tuple of strings
        ("names", ("a", 1)),
        ("pairs", (("a", "b"), ("c",))),
        ("pairs", (("a", 1),)),
        ("inner", {"name": "n"}),
        ("rows", (1,)),
        ("meta", []),
    ])
    def test_rejected_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"Block '{name}' must be"):
            check_types(Block(**{name: value}))


class TestBlockFromDict:
    def test_arrays_and_objects_read_as_declared(self):
        block = block_from_dict(Block, {
            "pair": ["a", 1], "names": ["x", "y"], "pairs": [["a", "b"]],
            "inner": {"name": "n"}, "rows": [[1, 2]], "meta": {"k": [1]},
        })
        assert block == Block(pair=("a", 1), names=("x", "y"), pairs=(("a", "b"),),
                              inner=Inner("n"), rows=[[1, 2]], meta={"k": [1]})
        assert check_types(block) is block

    def test_nested_object_is_read_strictly(self):
        with pytest.raises(ValueError, match="unknown Inner key 'nam'"):
            block_from_dict(Block, {"inner": {"nam": "n"}})
        with pytest.raises(ValueError, match="Inner must be a JSON object"):
            block_from_dict(Block, {"inner": "n"})
        assert block_from_dict(Block, {"inner": None}).inner is None

    def test_array_of_the_wrong_length_is_left_for_check_types(self):
        block = block_from_dict(Block, {"pair": ["a", 1, 2]})
        assert block.pair == ("a", 1, 2)
        with pytest.raises(ValueError, match="pair"):
            check_types(block)
