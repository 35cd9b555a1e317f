"""Print one sha256 over the CLI's output on every catalog group.

    python3 tools/cli_digest.py

For each group in the bundled catalog it runs, in-process through
``invgen.cli.main`` and with ``--lattice-cap 25000``, the commands
``analyze``, ``invgen --di`` and ``chebotarev --exact``, and ``invgen
--fuse <overgroup> --di`` where the catalog names an overgroup.  The
digest covers each command line, its exit code and its output, so two
trees that print the same digest gave byte-identical CLI output.  The
caps' environment variables are cleared first, so that their defaults
apply.  The package is imported from the ``src/`` next to this script, so
the digest is that of the checkout the script sits in.
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
    return out


def main() -> None:
    for name in (cli.ENV_ENUM_CAP, cli.ENV_LATTICE_CAP, cli.ENV_SUBSET_CAP):
        os.environ.pop(name, None)
    digest = hashlib.sha256()
    for argv in commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        digest.update(f"{' '.join(argv)}\0{code}\0{buf.getvalue()}\0".encode())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
