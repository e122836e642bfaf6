"""Time the k-scan, ``max_qfi_over_k(N, 0.9, 0)``, of two source trees.

Each sample imports ``kerrmet`` from one tree's ``src`` in a fresh process
and times one call, which pays the lazy set-up (the survival table, the
first eigensolve) a CLI run pays.  ``bench/harness.py`` runs the samples
and writes the JSON; each row also tells whether every sample returned
the same bits (``same_result``) and k (``same_k``), and the largest
relative difference between the trees' values (``max_rel_diff``).  Run
from the repository root, with a checkout of the commit to compare with:

    python3 bench/kscan.py --baseline ../parent/src --out BENCH_kscan.json
"""

from __future__ import annotations

import sys

from harness import ROOT, compare

SIZES = (20, 40, 60, 100, 200)
REPEATS = 9  # processes per tree, N and thread setting
ETA, CHI = 0.9, 0.0

# one sample: import, time one call, report its result
_SAMPLE = """
from kerrmet.estimation import max_qfi_over_k
start = time.perf_counter()
k, qfi = max_qfi_over_k(int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4]))
seconds = time.perf_counter() - start
values = {"k": k, "qfi": qfi.hex()}
"""


def _fields(samples: dict) -> dict:
    everything = [s for tree in samples.values() for s in tree]
    qfi = {name: [float.fromhex(s["qfi"]) for s in tree] for name, tree in samples.items()}
    return {"same_result": len({s["qfi"] for s in everything}) == 1,
            "same_k": len({s["k"] for s in everything}) == 1,
            "max_rel_diff": max(abs(c - b) / b for b in qfi["baseline"]
                                for c in qfi["change"])}  # the max QFI is positive


def main(argv=None) -> int:
    cases = [({"N": n}, [str(n), str(ETA), str(CHI)]) for n in SIZES]
    header = {"call": f"max_qfi_over_k(N, {ETA}, {CHI})",
              "samples": "one fresh process per call, the trees alternating; import not timed"}
    return compare(__doc__, ROOT / "BENCH_kscan.json", _SAMPLE, cases, REPEATS, header,
                   _fields, argv)


if __name__ == "__main__":
    sys.exit(main())
