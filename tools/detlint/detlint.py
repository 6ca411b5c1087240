#!/usr/bin/env python3
"""detlint: determinism & Clocked-contract static analyzer for MITTS.

Entry shim: the analyzer lives in the package next to this file
(cli.py, lexer.py, cppmodel.py, report.py, cache.py, rules/).  This
script exists so every existing call site -- scripts/lint.sh, the
CTest wiring, CI, and muscle memory -- keeps working:

    python3 tools/detlint/detlint.py [options] [paths...]

See `--help` for the rule catalog, suppression idioms and exit codes,
or DESIGN.md's "Static analysis" section for the full write-up of
rules R1-R9.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
