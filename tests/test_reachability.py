"""The reachability gate (``tools/reachability.py``).

The classifier is fed a synthetic package and hand-made pass records; the
committed allowlist and command list are checked without running them;
the recorder runs in a few short subprocesses.  The two recorded passes
themselves are the tool's own job.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reachability.py"
_spec = importlib.util.spec_from_file_location("reachability", _TOOL)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

SOURCE = '''\
def used():
    return 1

def only_tested():
    return 2

def never():
    return 3

class K:
    def stub(self):
        """Declared by the protocol."""
        raise NotImplementedError

    @property
    def allowed(self):
        def inner():
            return 4
        return inner()
'''
USED = ("mod.py", 1, "used")
ONLY_TESTED = ("mod.py", 4, "only_tested")
ALLOWED = ("mod.py", 15, "allowed")
PASS1 = {USED, ONLY_TESTED}
PASS2 = {USED}


@pytest.fixture
def src(tmp_path):
    (tmp_path / "mod.py").write_text(SOURCE)
    return tmp_path


def run(src, allow, pass1=PASS1, pass2=PASS2):
    text, code = reachability.report(src, pass1, pass2, allow)
    return text.splitlines(), code


def test_defs_keyed_like_code_objects_and_stubs_skipped(src):
    defs = reachability.enumerate_defs(src)
    assert set(defs) == {USED, ONLY_TESTED, ("mod.py", 7, "never"), ALLOWED,
                         ("mod.py", 17, "inner")}
    assert defs[ALLOWED] == ("K.allowed", 5)


def test_classifies_test_only_never_run_and_allowlisted(src):
    lines, code = run(src, "mod.py::K  api: documented in README\n")
    assert code == 1
    assert "  test-only  only_tested (2)" in lines
    assert "  never-run  never (2)" in lines
    assert "  never-run  K.allowed (5)  [api]" in lines
    assert "  never-run  K.allowed.inner (2)  [api]" in lines
    assert all("  used" not in line for line in lines)
    assert sorted(line for line in lines if line.startswith("FAIL")) == [
        "FAIL mod.py::never is never-run and not allowlisted",
        "FAIL mod.py::only_tested is test-only and not allowlisted"]
    assert lines[0] == ("5 functions; test-only 1 (2 lines); "
                        "never-run 3 (9 lines)")


def test_passes_when_every_flagged_function_is_allowlisted(src):
    allow = ("# comment lines and trailing comments are ignored\n"
             "mod.py::only_tested  oracle: the tests compare against it\n"
             "mod.py::never  cleanup: a failure path  # why\n"
             "mod.py::K  api: documented in README\n")
    lines, code = run(src, allow)
    assert code == 0, lines


def test_a_file_entry_covers_every_def_in_it(src):
    _, code = run(src, "mod.py  platform: optional dependency\n")
    assert code == 0


@pytest.mark.parametrize("allow, message", [
    ("mod.py::gone  api: was public\n", "mod.py::gone names no function"),
    ("mod.py::used  api: public\n", "mod.py::used is reached by pass 2"),
    ("other.py  platform: optional\n", "other.py names no function"),
], ids=["gone", "reached", "no-file"])
def test_stale_entries_fail(src, allow, message):
    allow += ("mod.py::only_tested  oracle: x\nmod.py::never  cleanup: x\n"
              "mod.py::K  api: x\n")
    lines, code = run(src, allow)
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL allowlist: {message}" + ("" if "names no" in message
                                        else "; remove it")]


@pytest.mark.parametrize("entry", ["mod.py::never  because: reasons",
                                   "mod.py::never  cleanup:",
                                   "mod.py::never"],
                         ids=["unknown-category", "no-reason", "bare"])
def test_entries_need_a_known_category_and_a_reason(src, entry):
    lines, code = run(src, entry + "\nmod.py::only_tested  oracle: x\n"
                               "mod.py::K  api: x\n")
    assert code == 1
    assert any(line.startswith("FAIL allowlist: 'mod.py::never")
               for line in lines)


# -- the committed allowlist and command list, checked statically ------------

def test_committed_allowlist_is_well_formed_and_names_live_functions():
    entries, errors = reachability.parse_allow(reachability.ALLOW.read_text())
    assert errors == []
    defs = reachability.enumerate_defs(reachability.SRC)
    dead = [target for target, _ in entries
            if not any(reachability._covers(target, rel, qual)
                       for (rel, _, _), (qual, _) in defs.items())]
    assert dead == []


def test_reproduction_paths_name_files_and_modules_that_exist():
    commands = reachability._reproduction_paths()
    assert [Path(c[1]).name for c in commands if c[1].endswith(".py")
            and "examples" in c[1]] == sorted(
        p.name for p in (reachability.ROOT / "examples").glob("*.py"))
    for cmd in commands:
        for arg in cmd[1:]:
            if arg.startswith(str(reachability.ROOT)):
                assert Path(arg).exists(), arg
        if cmd[1] == "-m":
            assert importlib.util.find_spec(cmd[2] + ".__main__"), cmd[2]


# -- the recorder, in real subprocesses ---------------------------------------

def _region_key(name):
    """The record key of ``repro.grid.region``'s def ``name``."""
    defs = reachability.enumerate_defs(reachability.SRC)
    [key] = [k for k in defs if k[0] == "grid/region.py" and k[2] == name]
    return key


def _record(tmp_path, *argv):
    """Run ``python *argv`` in ``tmp_path`` under the recorder; its keys."""
    return reachability.record([[sys.executable, *argv]],
                               str(tmp_path / "records"), str(tmp_path))


def test_recorder_keys_functions_started_in_the_main_and_other_threads(tmp_path):
    keys = _record(tmp_path, "-c", (
        "import threading\n"
        "from repro.grid.region import Box, boxes_partition\n"
        "b = Box.from_shape((2, 2, 2))\n"
        "t = threading.Thread(target=boxes_partition, args=([b], b))\n"
        "t.start(); t.join()\n"))
    assert {_region_key("from_shape"), _region_key("boxes_partition")} <= keys
    assert _region_key("outer_face") not in keys
    assert all(not rel.startswith("..") for rel, _, _ in keys)


def test_recorder_flushes_a_forked_child_leaving_through_os_exit(tmp_path):
    keys = _record(tmp_path, "-c", (
        "import os\n"
        "from repro.grid.region import Box\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    Box.from_shape((2, 2, 2)).grow(1)\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"))
    assert _region_key("grow") in keys
    assert len(list((tmp_path / "records").iterdir())) == 2


def test_recorder_reinstalled_before_each_test_after_cprofile(tmp_path):
    # cProfile replaces the process profile hook and leaves it off; as a
    # pytest plugin the recorder puts its hook back before the next test.
    (tmp_path / "test_probe.py").write_text(
        "import cProfile\n"
        "from repro.grid.region import Box\n"
        "def test_profiles():\n"
        "    p = cProfile.Profile()\n"
        "    p.enable()\n"
        "    p.disable()\n"
        "def test_after():\n"
        "    Box.from_shape((2, 2, 2)).shift((1, 0, 0))\n")
    keys = _record(tmp_path, "-m", "pytest", "-q", "-p", "sitecustomize",
                   "-p", "no:cacheprovider", "test_probe.py")
    assert _region_key("shift") in keys


def test_recorder_is_inert_without_a_records_directory():
    env = {k: v for k, v in os.environ.items() if k != "REACHABILITY_RECORDS"}
    env["PYTHONPATH"] = str(_TOOL.with_name("recorder"))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sitecustomize, os\n"
         "print(sys.getprofile(), os._exit.__module__)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert out == ["None", "posix"]
