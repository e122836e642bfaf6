"""Row-by-row correctness gate behind the benchmark's ``failed`` count.

Every expected row is checked against the reference recorded in
``reference.json`` and against bounds that hold for every input.  No
tolerance is looser than the one tests/test_acceptance.py uses for the
same quantity.
"""

from __future__ import annotations

import csv
from pathlib import Path

# criterion 1 (QFI exactness) and criterion 5 (readout closed form)
EXACT_RTOL = 1e-9
# a seeded workload reads the optimizer's output, which may move in the last
# digits with the seed: criterion 6 (optimizer vs analytic) allows 1e-6
SEEDED_RTOL = 1e-6
# criterion 6 dominance margin and criterion 9 "readout never beats the QCRB"
BOUND_ATOL = 1e-9
PHI_ATOL = 1e-6


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as stream:
        return list(csv.DictReader(line for line in stream if not line.startswith("#")))


def _close(value: float, want: float, rtol: float) -> bool:
    return abs(value - want) <= rtol * max(1.0, abs(want))


def check_row(row: dict, ref: dict, seed: int, seeded: bool,
              dominance: float | None, digest: str | None,
              phi_seen: float | None) -> str | None:
    """Reason the row is wrong, or None.  ``phi_seen`` is this row's
    ``phi_star`` in the first sample of the run that passed it."""
    try:
        n, eta, chi = int(row["N"]), float(row["eta"]), float(row["chi"])
        qfi = float(row["qfi"])
        if (row["command"], n, eta) != (ref["command"], ref["N"], ref["eta"]):
            return f"unexpected row {row['command']} N={n} eta={eta}"
        if int(row["seed"]) != (seed if seeded else 0):
            return f"seed column {row['seed']}"
        spread = (n + 0.5 * chi * n * n) ** 2
        if not 0.0 <= qfi <= spread * (1.0 + EXACT_RTOL):
            return f"qfi {qfi!r} outside [0, (g(N) - g(0))^2 = {spread!r}]"
        rtol = SEEDED_RTOL if seeded else EXACT_RTOL
        if not _close(qfi, ref["qfi"], rtol):
            return f"qfi {qfi!r} vs reference {ref['qfi']!r}"
        # the optimizer's input depends on the seed: a seeded row must name
        # the input the filled cache holds, an unseeded one the reference's
        want = digest if seeded else ref["k_or_alpha_digest"]
        if want is not None and row["k_or_alpha_digest"] != want:
            return f"input {row['k_or_alpha_digest']} vs expected {want}"
        if row["command"] == "optimize-scan" and qfi < dominance - BOUND_ATOL:
            return f"qfi {qfi!r} below the best two-branch state {dominance!r}"
        if row["command"] == "readout-scan":
            if row["status"] != "ok":
                return f"status {row['status']}"
            delta, bound = float(row["delta_phi_min"]), float(row["qcrb"])
            if not delta >= bound - BOUND_ATOL:
                return f"delta_phi_min {delta!r} beats the QCRB {bound!r}"
            if not _close(delta, ref["delta_phi_min"], rtol):
                return f"delta_phi_min {delta!r} vs reference {ref['delta_phi_min']!r}"
            # the same input gives the same phi_star; another seed's optimizer
            # may return another input of equal QFI whose delta_phi has tied
            # minima (at N=2, eta=0.9 both 0 and pi/2), so then phi_star
            # must only repeat within the run
            same_input = row["k_or_alpha_digest"] == ref["k_or_alpha_digest"]
            phi_want = ref["phi_star"] if same_input else phi_seen
            if phi_want is not None and not abs(float(row["phi_star"]) - phi_want) <= PHI_ATOL:
                return f"phi_star {row['phi_star']} vs {phi_want!r}"
    except (KeyError, ValueError, TypeError) as err:
        return f"malformed row: {err!r}"
    return None


def check(rows: list[dict], reference: list[dict], *, seed: int, seeded: bool,
          rc, oracle: list | None, digests: list | None = None,
          cache_changed: bool = False, phi_seen: dict | None = None) -> list[str]:
    """One failure reason per expected row that is wrong or missing, and
    one per row past the expected ones (a repeated N, a wrong range).

    ``oracle`` and ``digests`` hold per-row expectations (the dominance bound
    of optimize-scan rows, the input a filled cache holds); a call that
    changed its filled cache dir fails every row, since a row may have been
    recomputed rather than read.  ``phi_seen`` maps a row index to the
    ``phi_star`` of the run's first passing readout row there; it is filled
    here.
    """
    phi_seen = {} if phi_seen is None else phi_seen
    failures = []
    for index, ref in enumerate(reference):
        where = f"N={ref['N']} eta={ref['eta']}"
        if index >= len(rows):
            failures.append(f"{where}: missing (exit code {rc})")
        elif cache_changed:
            failures.append(f"{where}: the cache dir changed (a miss or a rewrite)")
        else:
            reason = check_row(rows[index], ref, seed, seeded,
                               oracle[index] if oracle else None,
                               digests[index] if digests else None,
                               phi_seen.get(index))
            if reason is not None:
                failures.append(f"{where}: {reason}")
            elif rows[index]["command"] == "readout-scan":
                phi_seen.setdefault(index, float(rows[index]["phi_star"]))
    for row in rows[len(reference):]:
        failures.append(f"N={row.get('N')} eta={row.get('eta')}: unexpected extra row")
    return failures
