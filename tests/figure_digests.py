"""The frozen figure digests: the sha256 of each figure's CSV and SVG.

``parascale figure <id> --format svg`` writes ``fig<id>.csv`` and
``fig<id>.svg``.  Each CSV must match its digest in
``bench/figure_csv_sha256.json``, which the benchmark owns and this script only
reads, and each SVG its digest in ``tests/figure_svg_sha256.json``.  The PNG
bytes of figure 1 depend on the zlib build, so an SVG's ``data:`` URI is cut
before it is hashed.  Run as a script, it checks the figures in DIR and exits
non-zero with every file that is missing or off its digest::

    python3 -S tests/figure_digests.py DIR
"""

import hashlib
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = {"csv": os.path.join(HERE, os.pardir, "bench", "figure_csv_sha256.json"),
           "svg": os.path.join(HERE, "figure_svg_sha256.json")}
PNG_URI = re.compile(rb'"data:image/png;base64,[^"]*"')


def frozen(ext):
    """{figure id: sha256} of the figures' ``ext`` ("csv" or "svg") files."""
    with open(DIGESTS[ext], encoding="utf-8") as fh:
        return json.load(fh)


def digest(data, ext):
    """The sha256 of a figure file's bytes, an SVG's PNG ``data:`` URI cut first."""
    if ext == "svg":
        data = PNG_URI.sub(b'"data:"', data)
    return hashlib.sha256(data).hexdigest()


def mismatches(directory):
    """One message for each figure file in ``directory`` that is missing or
    off its digest."""
    messages = []
    for ext in DIGESTS:
        for fig_id, expected in frozen(ext).items():
            path = os.path.join(directory, f"fig{fig_id}.{ext}")
            try:
                with open(path, "rb") as fh:
                    got = digest(fh.read(), ext)
            except OSError as exc:
                messages.append(f"{path}: {exc.strerror}")
                continue
            if got != expected:
                messages.append(f"{path}: sha256 {got}, expected {expected}")
    return messages


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} DIR")
    messages = mismatches(sys.argv[1])
    if messages:
        sys.exit("\n".join(messages))
    print(f"{len(frozen('csv'))} figure CSVs and {len(frozen('svg'))} SVGs "
          f"match their digests")
