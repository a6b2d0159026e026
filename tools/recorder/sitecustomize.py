"""Record every function of ``repro`` that starts in this process.

``tools/reachability.py`` puts this directory first on ``PYTHONPATH`` and
sets ``REACHABILITY_RECORDS`` to a directory, so every Python process it
starts, and every process those start, imports this module at start-up.
Each process appends ``file<TAB>first line<TAB>name`` rows to a file of its
own there when it exits, also through ``os._exit`` (forked ranks).  Loaded
into pytest with ``-p sitecustomize``, it re-installs the profile hook
before each test, since ``cProfile`` replaces it and leaves it off.
"""
import atexit
import os
import sys
import threading

_DIR = os.environ.get("REACHABILITY_RECORDS")
_seen: set = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _install(*args, **kwargs):
    sys.setprofile(_profile)
    threading.setprofile(_profile)


def _flush():
    mark = os.sep + "repro" + os.sep
    rows = {f"{c.co_filename}\t{c.co_firstlineno}\t{c.co_name}\n"
            for c in list(_seen) if mark in c.co_filename}
    name = os.path.join(_DIR, f"{os.getpid()}-{os.urandom(4).hex()}.txt")
    with open(name, "w") as f:
        f.writelines(rows)


def _exit(code, _os_exit=os._exit):
    _flush()
    _os_exit(code)


if _DIR:
    _install()
    atexit.register(_flush)
    os._exit = _exit
    os.register_at_fork(after_in_child=_install)
    pytest_runtest_setup = pytest_runtest_call = _install
