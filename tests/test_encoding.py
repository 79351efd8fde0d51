"""encoding.from_json_bytes, check_types and block_from_dict: JSON parsed
only as canonical_json_bytes writes it, and fields read and checked as their
dataclass declares them, with values as JSON delivers them."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from phtlink.encoding import block_from_dict, canonical_json_bytes, check_types, from_json_bytes


class TestFromJsonBytes:
    @pytest.mark.parametrize("text, value", [
        (b"1.5", 1.5),
        (b"-0.0", -0.0),
        (b"1e308", 1e308),
        (b"-1.7976931348623157e308", -1.7976931348623157e308),
        (b"5e-324", 5e-324),
        (b"1e-999", 0.0),  # underflows to zero, which JSON can carry
        (b"123456789012345678901234567890", 123456789012345678901234567890),
        (b'{"a": ["NaN", "Infinity"]}', {"a": ["NaN", "Infinity"]}),
        ('{"é": 1}'.encode(), {"é": 1}),
    ])
    def test_accepted(self, text, value):
        assert from_json_bytes(text) == value

    @pytest.mark.parametrize("text", [
        b"NaN", b"Infinity", b"-Infinity", b"1e999", b"-1e999", b"1E400",
        b"[1, NaN]", b'{"t_upper": Infinity}', b'{"a": {"b": [-Infinity]}}',
        b'{"x": 1e999}',
        b"\xff", b"{not json", b"",
    ])
    def test_refused_as_value_error(self, text):
        with pytest.raises(ValueError):
            from_json_bytes(text)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_refuses_exactly_what_the_writer_refuses(self, value):
        with pytest.raises(ValueError):
            canonical_json_bytes(value)
        with pytest.raises(ValueError, match="non-finite"):
            from_json_bytes(str(value).replace("inf", "Infinity").replace("nan", "NaN").encode())


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
    counts: dict[str, int] = field(default_factory=dict)


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
        Block(meta={"a": object()}),  # a bare dict by its own type only
        Block(meta={1: None}),
        Block(counts={"a": 1, "b": 0}),  # a dict[K, V]: each key and value
        Block(counts={}),
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
        ("counts", {1: 1}),  # a key of the wrong type
        ("counts", {"a": "1"}),  # a value of the wrong type
        ("counts", {"a": 1, "b": True}),
        ("counts", {"a": None}),
        ("counts", [("a", 1)]),
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

    def test_every_unknown_key_is_named(self):
        with pytest.raises(ValueError, match=r"unknown Block keys \['cont', 'lable', 'nmes'\]"):
            block_from_dict(Block, {"lable": "x", "count": 2, "nmes": [], "cont": 1})
        with pytest.raises(ValueError, match="unknown Block key 'cont'$"):
            block_from_dict(Block, {"cont": 1})

    def test_error_in_a_nested_block_names_the_outer_field(self):
        with pytest.raises(ValueError, match="^'inner': unknown Inner key 'nam'"):
            block_from_dict(Block, {"inner": {"nam": "n"}})
        with pytest.raises(ValueError, match="^'inner': missing Inner key 'name'"):
            block_from_dict(Block, {"inner": {}})

    def test_dict_of_declared_types_reads_as_itself(self):
        block = check_types(block_from_dict(Block, {"counts": {"a": 1}}))
        assert block.counts == {"a": 1}
