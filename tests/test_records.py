"""The package's record classes behave as the frozen dataclasses they
replaced, the package starts without importing ``dataclasses``, and every
record field has a reader.

Each record is checked against a frozen dataclass twin with the same
fields: construction by position and by keyword, equality, hash, repr,
no assignment or deletion.  ``RunReport`` is the one mutable record."""

import ast
import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from semireg import (
    Classification,
    EdgePartition,
    Gadget,
    GadgetSet,
    Graph,
    NaeFormula,
    OracleBudget,
    PrimePlan,
    ReductionResult,
    Representation,
    RootedTree,
    TwoFactorization,
    bfs_root,
    path,
)
from semireg.cli import RunReport
from semireg.graph import Record
from semireg.reductions import _VariantRules

ROOT = Path(__file__).resolve().parent.parent

_G = Graph(3, ((0, 1), (1, 2)))
_RT = bfs_root(_G, 0)
_GADGET = Gadget(_G, {"a": 0})

# class -> (field values in order, a second value of the first field)
_RECORDS = {
    Graph: ((3, ((0, 1), (1, 2))), 4),
    Classification: ((True, False, True), False),
    RootedTree: ((_G, _RT.parent_edge, _RT.order, _RT.down), path(4)),
    EdgePartition: ((2, (0, 1)), 3),
    TwoFactorization: ((((0, 1, 2),),), ()),
    OracleBudget: ((10, 3), 11),
    NaeFormula: ((3, ((0, 1), (0, 1, 2))), 4),
    Gadget: ((_G, {"a": 0}), path(4)),
    GadgetSet: (({"H": _GADGET},), {}),
    ReductionResult: ((_G, (0,), (2,)), path(4)),
    _VariantRules: ((("H", "a"), ("I", "b"), ("B",), ((1, 6),), frozenset({1, 3})), ("F", "a")),
    Representation: ((5, (0, 1, 2)), 7),
    PrimePlan: ((((0,),), (2,)), ()),
}


def _fields(cls):
    return list(inspect.signature(cls).parameters)


def _twin(cls):
    """A frozen dataclass with the record's fields, as the class was."""
    specs = [(f, object) for f in _fields(cls)]
    if cls is RootedTree:
        specs[-1] = ("down", object, dataclasses.field(repr=False, compare=False))
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)


def _hashable(values):
    return not any(isinstance(v, dict) for v in values)


def test_every_record_class_is_checked():
    assert set(Record.__subclasses__()) == set(_RECORDS)


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__qualname__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    values, other_first = _RECORDS[cls]
    names = _fields(cls)
    assert len(names) == len(values)
    assert cls.__slots__ == tuple(names)
    rec = cls(*values)
    assert rec == cls(**dict(zip(names, values)))
    assert [getattr(rec, f) for f in names] == list(values)
    twin = _twin(cls)(*values)
    assert repr(rec) == repr(twin)

    same = cls(*values)
    assert same == rec and not same != rec
    changed = cls(other_first, *values[1:])
    assert changed != rec and not changed == rec
    assert rec != twin and rec != tuple(values)
    if _hashable(values):
        assert hash(same) == hash(rec)
    else:
        with pytest.raises(TypeError):
            hash(rec)
        with pytest.raises(TypeError):
            hash(twin)

    for f in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert [getattr(rec, f) for f in names] == list(values)
    assert not hasattr(rec, "__dict__")

    for dup in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(dup) is cls and dup == rec


def _loaded_attribute_names():
    """Every ``.name`` read (load context) in the package, the tests, the
    benchmark and the tools."""
    names = set()
    for top in ("src", "tests", "perfbench", "tools"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def test_every_record_field_has_a_reader():
    """Each record field is read as an attribute somewhere.

    The match is by attribute name only: a field is taken as read when
    any object's attribute of that name is, so an unread field that shares
    its name with a read one (``name``, say) goes unflagged."""
    read = _loaded_attribute_names()
    unread = [f"{cls.__qualname__}.{f}" for cls in Record.__subclasses__()
              for f in cls.__slots__ if f not in read]
    assert unread == []


def test_records_of_two_types_with_equal_fields_differ():
    a, b = PrimePlan((0, 1), 2), Representation((0, 1), 2)
    assert a != b and b != a
    assert Classification(True, True, True) != (True, True, True)


def test_rooted_tree_equality_and_repr_leave_out_down():
    values = _RECORDS[RootedTree][0]
    a = RootedTree(*values)
    b = RootedTree(*values[:-1], [[] for _ in values[-1]])
    assert a == b and hash(a) == hash(b)
    assert "down" not in repr(a)
    assert repr(a) == "RootedTree(graph=Graph(n=3, edges=((0, 1), (1, 2))), parent_edge=(None, 0, 1), order=(0, 1, 2))"


def test_records_validate_as_before():
    assert OracleBudget() == OracleBudget(16, 4) == OracleBudget(max_parts=4)
    assert repr(OracleBudget()) == "OracleBudget(max_edges=16, max_parts=4)"
    for kwargs in ({"max_edges": 25}, {"max_edges": -1}, {"max_parts": 0}):
        with pytest.raises(ValueError):
            OracleBudget(**kwargs)
    assert Graph(2, [[0, 1]]).edges == ((0, 1),)
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, ((1, 1),))
    assert EdgePartition(2, [1, 0]).part == (1, 0)
    with pytest.raises(ValueError, match="invalid part"):
        EdgePartition(2, (0, 2))
    with pytest.raises(ValueError, match="out of range"):
        NaeFormula(2, ((0, 2),))


def test_graph_keeps_the_methods_the_tracer_wraps(monkeypatch):
    assert {"__post_init__", "degrees", "adjacency"} <= set(Graph.__dict__)
    seen = []
    original = Graph.__dict__["__post_init__"]

    def traced(self):
        seen.append(self.n)
        return original(self)

    monkeypatch.setattr(Graph, "__post_init__", traced)
    Graph(2, ((0, 1),))
    assert seen == [2]


def test_run_report_is_mutable_and_owns_its_fields():
    assert RunReport.__slots__ == ("command", "input_digest", "fields", "headline", "out", "code")
    a, b = RunReport("x", "d"), RunReport(command="y", input_digest="e")
    a.add("k", 1)
    assert a.fields == [("k", "1")] and b.fields == []
    assert (a.headline, a.out, a.code) == (None, None, 0)
    a.code = 4
    assert a.code == 4


def _imported(argv, cwd):
    """Modules a fresh interpreter imports while running ``argv``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_start_up_imports_neither_dataclasses_nor_inspect(tmp_path):
    (tmp_path / "t.txt").write_text("4 3\n0 1\n0 2\n0 3\n")
    runs = (
        ["-c", "import semireg"],
        ["-c", "import semireg.cli"],
        ["-m", "semireg.cli", "decompose", "t.txt", "--method", "sr-tree"],
    )
    for argv in runs:
        modules = _imported(argv, tmp_path)
        assert {"semireg", "semireg.graph"} <= modules
        assert not {"dataclasses", "inspect"} & modules, argv


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__qualname__)
def test_generated_constructor_takes_exactly_the_slots(cls):
    values, _ = _RECORDS[cls]
    kwargs = dict(zip(cls.__slots__, values))
    assert cls(**dict(reversed(kwargs.items()))) == cls(*values) == cls(**kwargs)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    params = inspect.signature(cls).parameters.values()
    required = sum(p.default is p.empty for p in params)
    if required:
        with pytest.raises(TypeError, match="missing 1 required positional argument"):
            cls(*values[:required - 1])
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{cls.__slots__[0]: values[0]})


def test_post_init_sees_every_slot_set():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(edges=((0, 0),), n=2)
    with pytest.raises(ValueError, match="invalid part"):
        EdgePartition(part=(0, 2), k=2)
    with pytest.raises(ValueError, match="out of range"):
        NaeFormula(clauses=((0, 2),), num_vars=2)
    with pytest.raises(ValueError, match="invalid budget"):
        OracleBudget(max_parts=0, max_edges=3)
    assert [p.default for p in inspect.signature(OracleBudget).parameters.values()] == [16, 4]
