"""One benchmark sample in a fresh process.

Usage: python3 worker.py '<job json>'

Imports numpy, then kerrmet.cli (each timed from the parent's spawn; the
second is setup_s),
optionally installs the tracer, calls ``main(argv)`` once (wall_s), reads
the process's peak RSS, then computes the job's oracle values outside
the timed call.  Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(sys.argv[1])
    import numpy  # noqa: F401  (kerrmet imports it first anyway)
    numpy_ready_s = time.monotonic() - job["t_spawn"]
    import kerrmet.cli as cli
    setup_s = time.monotonic() - job["t_spawn"]
    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"kerrmet was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    result: dict = {"setup_s": setup_s, "numpy_ready_s": numpy_ready_s}

    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            result["rc"] = cli.main(job["argv"])
        except Exception as err:  # a traceback out of main is a failed call, not a broken benchmark
            result["rc"] = f"{type(err).__name__}: {err}"
        result["wall_s"] = time.perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["fired"] = dict(tracer.fired)
            result["absent"] = tracer.absent_metrics()
            result["spans"] = tracer.span_edges()

    if job["oracle"]:
        # dominance reference for optimize-scan rows: the best two-branch state
        from kerrmet.estimation import max_qfi_over_k
        result["oracle"] = [max_qfi_over_k(n, eta, chi)[1] for n, eta, chi in job["oracle"]]

    if job["env"]:
        import platform
        import numpy
        import scipy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["env"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                         "scipy": scipy.__version__,
                         "blas": f"{blas.get('name')} {blas.get('version')}"}

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
