"""The dead-definition lint is a tier-1 gate: the tree must stay clean,
and the checker itself must fire on a planted dead or test-only
definition (a lint that never fires is indistinguishable from no lint)."""

import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_unused.py")


def run_checker(*argv):
    return subprocess.run(
        [sys.executable, CHECKER, *argv],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )


def seed_tree(root, files):
    for relative, body in files.items():
        path = os.path.join(root, relative)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(body)


#: A tree every check passes on: one module, used from tools/.
CLEAN = {
    "src/repro/__init__.py": "",
    "src/repro/core.py": (
        "def used():\n"
        "    return helper()\n\n\n"
        "def helper():\n"
        "    return 1\n"
    ),
    "tools/run.py": "from repro.core import used\n\nused()\n",
}


def test_repository_has_no_unused_definitions():
    result = run_checker()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "unused-definition check OK" in result.stdout


def test_fires_on_plants_in_a_copy_of_the_repository(tmp_path):
    for area in ("src", "tests", "benchmarks", "tools", "examples"):
        shutil.copytree(os.path.join(REPO_ROOT, area), tmp_path / area,
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "repro" / "errors.py", "a",
              encoding="utf-8") as handle:
        handle.write("\n\ndef planted_dead():\n    return 0\n"
                     "\n\ndef planted_for_tests():\n    return 1\n")
    with open(tmp_path / "tests" / "test_planted.py", "w",
              encoding="utf-8") as handle:
        handle.write("from repro.errors import planted_for_tests\n\n\n"
                     "def test_planted():\n"
                     "    assert planted_for_tests() == 1\n")
    result = run_checker("--root", str(tmp_path))
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == 3, result.stdout
    assert "repro.errors:planted_dead is referenced by nothing" in lines[0]
    assert ("repro.errors:planted_for_tests is referenced only from tests/"
            in lines[1])


def test_clean_tree_passes(tmp_path):
    seed_tree(str(tmp_path), CLEAN)
    result = run_checker("--root", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr


def test_detects_an_unreferenced_def(tmp_path):
    seed_tree(str(tmp_path), {
        **CLEAN,
        "src/repro/dead.py": (
            "def orphan(n):\n"
            "    return orphan(n - 1) if n else 0\n"  # recursion is no caller
        ),
    })
    result = run_checker("--root", str(tmp_path))
    assert result.returncode == 1
    assert ("src/repro/dead.py:1: repro.dead:orphan is referenced by "
            "nothing") in result.stdout
    assert "1 violation(s)" in result.stdout


def test_detects_a_test_only_def(tmp_path):
    seed_tree(str(tmp_path), {
        **CLEAN,
        "src/repro/core.py": CLEAN["src/repro/core.py"] + (
            "\n\nclass Box:\n"
            "    def peek(self):\n"
            "        return 2\n"
        ),
        "tools/run.py": CLEAN["tools/run.py"] + "Box = None\n",
        "tests/test_box.py": (
            "from repro.core import Box\n\n\n"
            "def test_peek():\n"
            "    assert Box().peek() == 2\n"
        ),
    })
    result = run_checker("--root", str(tmp_path))
    assert result.returncode == 1
    assert ("repro.core:Box.peek is referenced only from tests/"
            in result.stdout)
    assert "1 violation(s)" in result.stdout


def test_imports_and_all_entries_are_not_uses(tmp_path):
    # A re-export keeps nothing alive: the package names the function in
    # an import and in __all__, and nothing ever calls it.
    seed_tree(str(tmp_path), {
        **CLEAN,
        "src/repro/__init__.py": (
            "from repro.extra import exported\n\n"
            "__all__ = [\"exported\"]\n"
        ),
        "src/repro/extra.py": "def exported():\n    return 3\n",
    })
    result = run_checker("--root", str(tmp_path))
    assert result.returncode == 1
    assert "repro.extra:exported is referenced by nothing" in result.stdout


def test_an_override_counts_as_used(tmp_path):
    # The runtime calls hook() on the base class's name; the subclass's
    # override is reached through it.
    seed_tree(str(tmp_path), {
        **CLEAN,
        "src/repro/plugins.py": (
            "class Base:\n"
            "    def hook(self):\n"
            "        return 0\n\n\n"
            "class Child(Base):\n"
            "    def hook(self):\n"
            "        return 1\n\n\n"
            "def drive(plugin):\n"
            "    return plugin.hook()\n"
        ),
        "tools/drive.py": (
            "from repro.plugins import Base, Child, drive\n\n"
            "drive(Child() if Base else None)\n"
        ),
    })
    result = run_checker("--root", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
