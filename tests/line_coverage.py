"""Run the test suite under a line tracer and print every ``src/ddmod`` line
it never runs.

    python tests/line_coverage.py [pytest arguments...]

The arguments go to pytest; with none it runs ``tests/``.  Standard library
only, so it needs no coverage package.  The tracer is set with
``sys.settrace`` before pytest starts, so a child that the code under test
forks inherits it.  Each forked child writes its hits to a temporary file
when it leaves through ``os._exit``, which is how a ``multiprocessing``
child started by fork ends, or when ``SIGTERM`` stops it; they are merged
with the caller's.  Lines run only in a spawned child or in a subprocess
are not seen.  A line is executable when the
compiled module's code objects map an instruction to it.

The report ends with ``<run> of <executable> src/ddmod lines run``, then
the pytest exit status; the script exits with that status.
"""

import os
import signal
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ddmod"


def executable_lines(path):
    """The line numbers that some code object compiled from ``path`` maps an
    instruction to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pytest_args, hits_dir):
    """Run pytest with the line tracer on; returns its exit status and the
    ``(file, line)`` pairs run in this process."""
    prefix = str(SRC) + os.sep
    hits, in_src = set(), {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_src:
            in_src[name] = os.path.abspath(name).startswith(prefix)
        return local if in_src[name] else None

    real_exit, main_pid = os._exit, os.getpid()

    def save():
        sys.settrace(None)
        with open(os.path.join(hits_dir, f"{os.getpid()}.txt"), "w") as out:
            out.writelines(f"{name}\t{line}\n" for name, line in hits)

    def exit_and_save(status):
        if os.getpid() != main_pid:
            save()
        real_exit(status)

    def save_and_die(signum, frame):
        # a child stopped by terminate() never reaches os._exit
        save()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    def in_child():
        if os._exit is exit_and_save:
            signal.signal(signal.SIGTERM, save_and_die)

    os.register_at_fork(after_in_child=in_child)
    os._exit = exit_and_save
    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        os._exit = real_exit
    return int(status), hits


def ranges(numbers):
    """``[1, 2, 3, 7]`` as ``"1-3, 7"``."""
    spans = []
    for n in sorted(numbers):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in spans)


def main(argv):
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as hits_dir:
        status, hits = traced_run(argv or ["tests"], hits_dir)
        for child in Path(hits_dir).iterdir():
            for row in child.read_text().splitlines():
                name, line = row.split("\t")
                hits.add((name, int(line)))
    run = {}
    for name, line in hits:
        run.setdefault(os.path.realpath(name), set()).add(line)
    total = ran = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - run.get(os.path.realpath(path), set())
        total, ran = total + len(lines), ran + len(lines) - len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: never run: {ranges(missed)}")
    print(f"{ran} of {total} src/ddmod lines run")
    print(f"pytest exit status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
