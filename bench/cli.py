"""Time the command-line driver's start-up and three argvs, for two source trees.

Each sample, a fresh process, imports numpy, then ``kerrmet.cli`` from one
tree's ``src``, and times one of:
- ``import``: the import of ``kerrmet.cli`` itself;
- ``build_config``: flag parsing and validation of the readout argv;
- ``readout``: ``main(argv)`` on ``readout-scan --n-range 40:45:5 --eta 0.9 --k 0``;
- ``qfi_scan``: ``main(argv)`` on ``qfi-scan --n-range 20:60:20 --eta 0.9``;
- ``optimize_scan``: ``main(argv)`` on ``optimize-scan --n-range 3:3:1 --eta 0.6``,
  without ``--cache``, so every sample runs the optimization.
Output goes to ``os.devnull``.  Bytecode caching follows the environment
(``PYTHONDONTWRITEBYTECODE`` is recorded), so with it set every sample
compiles ``src``.  ``bench/harness.py`` runs the samples and writes the
JSON.  Run from the repository root, with a checkout of the commit to
compare with:

    python3 bench/cli.py --baseline ../parent/src --out BENCH_cli.json
"""

from __future__ import annotations

import json
import sys

from harness import ROOT, compare

REPEATS = 21  # processes per tree, measurement and thread setting
READOUT = ["--command", "readout-scan", "--n-range", "40:45:5", "--eta", "0.9", "--k", "0"]
QFI_SCAN = ["--command", "qfi-scan", "--n-range", "20:60:20", "--eta", "0.9"]
OPTIMIZE_SCAN = ["--command", "optimize-scan", "--n-range", "3:3:1", "--eta", "0.6"]
# per measurement: the kerrmet.cli function timed after the import and its
# argv, or None to time the import
MEASURES = {"import": None, "build_config": ("build_config", READOUT),
            "readout": ("main", READOUT), "qfi_scan": ("main", QFI_SCAN),
            "optimize_scan": ("main", OPTIMIZE_SCAN)}

# one sample: import, time the import or one call
_SAMPLE = """
import os
import numpy
start = time.perf_counter()
import kerrmet.cli as cli
seconds = time.perf_counter() - start
job = json.loads(sys.argv[2])
if job is not None:
    call, argv = job
    start = time.perf_counter()
    result = getattr(cli, call)(argv + ["--out", os.devnull])
    seconds = time.perf_counter() - start
    if call == "main" and result != 0:
        sys.exit(f"main returned {result}")
"""


def main(argv=None) -> int:
    cases = [({"measure": measure, "argv": None if job is None else job[1]}, [json.dumps(job)])
             for measure, job in MEASURES.items()]
    header = {"samples": "one fresh process per measurement, the trees alternating; numpy is "
                         "imported first and not timed"}
    return compare(__doc__, ROOT / "BENCH_cli.json", _SAMPLE, cases, REPEATS, header,
                   argv=argv)


if __name__ == "__main__":
    sys.exit(main())
