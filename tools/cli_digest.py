"""Print one sha256 over the CLI's output on every catalog group.

    python3 tools/cli_digest.py

For each group in the bundled catalog it runs, in-process through
``invgen.cli.main`` and with ``--lattice-cap 25000``, the commands
``analyze``, ``invgen --di`` and ``chebotarev --exact``, and ``invgen
--fuse <overgroup> --di`` where the catalog names an overgroup; then the
sweeps ``theorem1``, ``theorem2``, ``prop24`` and ``lemma23`` with the
same cap, and ``sweep families --trials 100``.  The digest covers each
command line, its exit code and its output, so two trees that print the
same digest gave byte-identical CLI output.  Every ``INVGEN_*``
environment variable is cleared first, so that the defaults apply.  The
package is imported from the ``src/`` next to this script, so the digest
is that of the checkout the script sits in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from invgen import cli                          # noqa: E402
from invgen.families import load_catalog        # noqa: E402

CAP = ["--lattice-cap", "25000"]


def commands() -> list[list[str]]:
    out = []
    for entry in load_catalog():
        out += [["analyze", entry.name, *CAP],
                ["invgen", entry.name, "--di", *CAP],
                ["chebotarev", entry.name, "--exact", *CAP]]
        if entry.overgroup is not None:
            out.append(["invgen", entry.name, "--fuse", entry.overgroup,
                        "--di", *CAP])
    out += [["sweep", suite, *CAP]
            for suite in ("theorem1", "theorem2", "prop24", "lemma23")]
    out.append(["sweep", "families", "--trials", "100"])
    return out


def main() -> None:
    for name in [n for n in os.environ if n.startswith("INVGEN_")]:
        del os.environ[name]
    digest = hashlib.sha256()
    for argv in commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        digest.update(f"{' '.join(argv)}\0{code}\0{buf.getvalue()}\0".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
