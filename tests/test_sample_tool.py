"""Row labels and options of the untraced sampler (``tools/sample.py``).

Every dataclass ``__init__`` is generated code compiled from ``<string>``
under one qualified name, so the sampler names those rows after the class
being built; otherwise its table would show every dataclass construction
on a single row.
"""

import collections
import dataclasses
import importlib.util
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "sample_tool", REPO_ROOT / "tools" / "sample.py")
sample_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sample_tool)


@dataclasses.dataclass
class Point:
    x: int
    y: int = 0

    def __post_init__(self):
        # The caller's frame is the generated __init__, still running.
        self.frame_label = sample_tool._label(sys._getframe(1))


@dataclasses.dataclass
class Renamed:
    """A field called ``self`` makes the generator rename the instance."""

    self: int

    def __post_init__(this):
        this.init_code = sys._getframe(1).f_code
        this.frame_label = sample_tool._label(sys._getframe(1))


def test_a_dataclass_constructor_row_names_its_class():
    assert Point(1).frame_label == (
        "<string>", f"{Point.__qualname__}.__init__")


def test_the_instance_is_found_under_its_renamed_parameter():
    built = Renamed(3)
    assert built.init_code.co_filename == "<string>"
    assert built.init_code.co_varnames[0] != "self"
    assert built.frame_label == (
        "<string>", f"{Renamed.__qualname__}.__init__")


def test_other_code_keeps_its_file_and_function():
    where, name = sample_tool._label(sys._getframe())
    assert where.endswith("test_sample_tool.py")
    assert name.endswith("test_other_code_keeps_its_file_and_function")


def test_duration_replaces_the_workloads_own(monkeypatch, capsys):
    sampled = []

    def no_sampling(specs, inclusive):
        sampled.extend(specs)
        return 1, collections.Counter()

    monkeypatch.setattr(sample_tool, "sample", no_sampling)
    assert sample_tool.main(["record_8n", "--seeds", "1,2",
                             "--duration", "7", "--smoke"]) == 0
    assert [spec.duration for spec in sampled] == [7.0, 7.0]
    assert [spec.seed for spec in sampled] == [14, 15]
