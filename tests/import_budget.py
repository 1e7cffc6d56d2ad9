"""The import budget: what each entry point of parascale must not load, and
what it must.

Start-up is part of every command's cost, so each row names an entry point,
the code that runs it, the modules it must not load and the modules it must
load.  :func:`check` runs a row in a fresh ``python -S`` child, so no module
the caller loaded looks free; ``-S``, as a site ``.pth`` file may import
``re``.  Run as a script, it checks every row against the package on
``PYTHONPATH`` and exits non-zero with every broken row::

    PYTHONPATH=src python3 -S tests/import_budget.py
"""

import os
import subprocess
import sys

# argparse's re loads the first eight, so only the CLI may; ingest reads CSV
# through csv's C reader _csv, svg takes bisect_right from _bisect, and
# model.record_type builds the records without collections
LIBRARY = ("re", "enum", "functools", "types", "collections", "keyword",
           "operator", "reprlib", "importlib.resources", "csv",
           "collections.abc", "bisect")
# the heat map's PNG encoder imports these lazily: only figure 1's SVG pays
PNG = ("binascii", "struct", "zlib")
# argparse would import shutil while a parser is built or used, not at
# import, so the commands are run to the end
COMMANDS = ("importlib.resources", "pathlib", "typing", "tempfile", "csv",
            "dataclasses", "inspect", "ast", "dis", "tokenize", "decimal",
            "shutil")
# os loads _collections_abc once a dataset is read
CORE = LIBRARY + PNG + ("parascale.ingest", "_collections_abc")
# report and svg load only for `figure`, ingest only for it and `timeline`
FIGURE = ("parascale.report", "parascale.svg")
NO_DATA = FIGURE + ("parascale.ingest",)


def command(line, forbidden=NO_DATA, required=()):
    """The row of ``parascale <line>`` run to the end in the working
    directory, where ``figure`` writes its files."""
    return (f"parascale {line}",
            f"from parascale import cli\nassert cli.main({line.split()!r}) == 0",
            COMMANDS + forbidden, required)


ROWS = [
    ("import parascale", "import parascale", CORE, ()),
    ("from parascale import contributions, model",
     "from parascale import contributions, model", CORE, ()),
    ("from parascale import *",
     "from parascale import *\nimport parascale\nparascale.parse_records",
     LIBRARY + PNG, ("parascale.ingest",)),
    ("reading the bundled data",
     "from parascale import ingest\ningest.load_bundled_meta()\n"
     "ingest.load_records(None, 'fig4_points.csv')", LIBRARY + PNG, ()),
    ("figures 3 to 6C",
     "from parascale import report, svg\n"
     "for fig_id in ('3', '4', '5', '6A', '6B', '6C'):\n"
     "    svg.render_svg(report.build_figure(fig_id))", LIBRARY + PNG, ()),
    ("figure 1's SVG",
     "from parascale import report, svg\n"
     "svg.render_svg(report.build_figure('1'))", LIBRARY, PNG),
    ("import parascale.cli", "import parascale.cli", COMMANDS + NO_DATA, ()),
    command("invert --n 1e7 --rpeak 0.1254E --rmax 0.0930E"),
    command("invert --n 10 --rpeak 1000 --rmax 1"),
    command("sweep --preset HPL --points 4"),
    command("sweep --preset NN --points 8"),
    command("predict --preset HPL --rpeak 1E"),
    command("predict --n 1e6 --p 100G --alpha 0.999999"),
    command("relativistic --t 1e7"),
    command("timeline --machine Summit", FIGURE, ("parascale.ingest",)),
    command("figure 3", PNG),
    command("figure 1 --format svg", (), PNG),
]


def run_child(code, pythonpath, cwd=None):
    """The completed ``python -S -c code`` with ``pythonpath`` as its
    ``PYTHONPATH``, run in ``cwd``, its output captured as text."""
    return subprocess.run([sys.executable, "-S", "-c", code], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": str(pythonpath)},
                          capture_output=True, text=True, timeout=60)


def check(row, pythonpath, cwd):
    """'' if ``row`` keeps its budget when run in ``cwd``, else one message
    that names its entry point and what it broke."""
    entry, code, forbidden, required = row
    done = run_child(f"{code}\nimport sys\nprint(*sys.modules)", pythonpath, cwd)
    if done.returncode != 0:
        return f"{entry}: failed with exit status {done.returncode}: {done.stderr[-500:]}"
    loaded = set(done.stdout.splitlines()[-1].split())
    broken = [f"{verb} {names}" for verb, names in (
        ("loads", sorted(loaded.intersection(forbidden))),
        ("does not load", sorted(set(required) - loaded))) if names]
    return f"{entry}: {'; '.join(broken)}" if broken else ""


if __name__ == "__main__":
    import tempfile
    path = os.pathsep.join(map(os.path.abspath,
                               os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    with tempfile.TemporaryDirectory() as out:
        messages = [m for m in (check(row, path, out) for row in ROWS) if m]
    if messages:
        sys.exit("\n".join(messages))
    print(f"{len(ROWS)} entry points keep their import budget")
