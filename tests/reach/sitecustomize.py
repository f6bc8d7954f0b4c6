"""Records which ``src/repro`` functions a process runs.

Inert unless ``REPRO_REACH_DIR`` is set. Put this directory first on
``PYTHONPATH`` and every Python process started with it (subprocesses
too) imports this module at start-up, records the code object of each
call through ``sys.setprofile`` and ``threading.setprofile``, and at exit
writes the ``path:co_firstlineno`` of every ``src/repro`` code object it
ran to one file under ``REPRO_REACH_DIR``. A decorated function's
``co_firstlineno`` is the line of its first decorator.
``tests/test_reachability.py::test_every_function_runs_under_an_entry_point``
reads those files; ``tests/reach/run_entry_points.sh`` drives them.

pytest-benchmark pauses any profiler while it times a benchmark body
(``PauseInstrumentation`` calls ``sys.setprofile(None)``); that pause is
made a no-op here, or the timed bodies would go unseen.
"""

import atexit
import os
import sys
import tempfile
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


def _record(directory: str) -> None:
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def write():
        setprofile(None)
        prefix = str(PACKAGE) + os.sep
        ran = {(os.path.abspath(code.co_filename), code.co_firstlineno)
               for code in seen}
        lines = sorted(
            f"{Path(path).relative_to(PACKAGE).as_posix()}:{line}\n"
            for path, line in ran if path.startswith(prefix))
        os.makedirs(directory, exist_ok=True)
        handle, _ = tempfile.mkstemp(suffix=".txt", dir=directory)
        with os.fdopen(handle, "w") as out:
            out.writelines(lines)

    setprofile = sys.setprofile
    # A profiler pause (sys.setprofile(None)) keeps the recorder on.
    sys.setprofile = lambda function: setprofile(function or profile)
    atexit.register(write)
    threading.setprofile(profile)
    setprofile(profile)


if os.environ.get("REPRO_REACH_DIR"):
    _record(os.environ["REPRO_REACH_DIR"])
