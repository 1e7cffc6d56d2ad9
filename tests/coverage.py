"""Line coverage of the package by tier-1, from the standard library alone.

CPython 3.12's ``sys.monitoring`` (PEP 669) reports each line the first
time it runs.  This script registers a ``LINE`` callback that records the
lines of ``src/parascale`` and then disables itself at that place, runs
tier-1 in this process, and sets the lines reached in each module against
the lines its code objects hold (``co_lines``).  It prints every unreached
line, with the reason ``ALLOWED`` gives for it, and exits non-zero if tier-1
fails, an unreached line is not on that list or an entry of the list names
no unreached line.  Run it from the root of the checkout on 3.12 or later,
with pytest and Hypothesis importable; arguments go on to pytest::

    PYTHONPATH=src python3.12 tests/coverage.py -q

pytest does not collect this file: its name does not start with ``test_``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "parascale")

#: (module, function or the text of one line, reason): the code that
#: tier-1 runs only in child processes, which this process does not see, and
#: the self-checks no input reaches.  A function's entry covers each of its
#: lines; a line's text covers each line of the module that reads so, with
#: leading and trailing blanks stripped.
ALLOWED = [
    ("__init__.py", "__getattr__",
     "the lazy load of ingest's names; TestPackageRoot runs it in a fresh child"),
    ("__init__.py", "__dir__",
     "lists the names before ingest loads; TestPackageRoot runs it in a fresh child"),
    ("cli.py", "run",
     "the console script's entry point, which freezes the heap; run only as a child"),
    ("cli.py", "sys.exit(run())",
     "`python -m parascale.cli`, which tests run only as a child process"),
    ("svg.py", 'raise RuntimeError("the gradient\'s colour steps disagree with _rgb")',
     "the colour table's self-check: the tests check the table against _rgb instead"),
]


def executable_lines(path):
    """{line: qualified name of the innermost function holding it}."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = {}, [(code, 0)]
    while todo:
        code, depth = todo.pop()
        # a line in several code objects belongs to the innermost (a def
        # line is both its scope's statement and its body's first line)
        for _, _, line in code.co_lines():
            if line is not None and depth >= lines.get(line, ("", -1))[1]:
                lines[line] = code.co_qualname, depth
        todo.extend((c, depth + 1) for c in code.co_consts
                    if isinstance(c, type(code)))
    return {line: function for line, (function, _) in lines.items()}


def unreached(reached):
    """{module: [(line, function, text)]} of the lines no test ran."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        missed = [(line, function, text[line - 1].strip())
                  for line, function in sorted(executable_lines(path).items())
                  if line > 0 and (path, line) not in reached]
        if missed:
            out[name] = missed
    return out


def main(argv):
    if sys.version_info < (3, 12):
        sys.exit("tests/coverage.py needs sys.monitoring: CPython 3.12 or later")
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    reached = set()

    def line_event(code, line):
        if code.co_filename.startswith(PACKAGE + os.sep):
            reached.add((code.co_filename, line))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "parascale tests/coverage.py")
    monitoring.register_callback(tool, monitoring.events.LINE, line_event)
    monitoring.set_events(tool, monitoring.events.LINE)
    import pytest  # after the callback, so each module's own lines count
    status = pytest.main(argv)
    monitoring.set_events(tool, monitoring.events.NO_EVENTS)
    monitoring.free_tool_id(tool)

    used, problems = set(), []
    for module, missed in unreached(reached).items():
        for line, function, text in missed:
            entry = next((e for e in ALLOWED if e[0] == module and
                          (e[1] in (function, text) or function.startswith(e[1] + "."))),
                         None)
            print(f"{module}:{line}: unreached, in {function}: {text}"
                  + (f"\n    allowed: {entry[2]}" if entry else ""))
            if entry is None:
                problems.append(f"{module}:{line}: unreached and not allowed")
            else:
                used.add(entry)
    problems += [f"{entry[0]}: the allowlist entry {entry[1]!r} names no unreached line"
                 for entry in ALLOWED if entry not in used]
    print("\n".join(problems) or "every unreached line is on the allowlist")
    return 1 if problems or status != 0 else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
