"""One benchmark unit in a fresh process.

    python3 child.py <spawned> <src> <trace 0|1> <result.json> [cli args...]

<spawned> is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so setup_s covers
interpreter start-up and `import starxor.cli`. With no cli args the unit only
measures set-up. Otherwise it calls starxor.cli.main(cli args), timing the
call as verdict_s, and exits with main's return value. A traced unit also
records its spans and overhead_est_s, the number of spans times the measured
cost of one tracing wrapper. The result file is written only after main
returns, so a crash leaves none.
"""

import sys
import time


def main() -> int:
    spawned, src, trace, result_path, *cli_argv = sys.argv[1:]
    sys.path.insert(0, src)
    import starxor.cli

    setup_s = time.monotonic() - float(spawned)

    import json

    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
    }
    if cli_argv:
        entry = starxor.cli.main
        tracer = None
        if trace == "1":
            from tracing import ROOT, Tracer, wrapper_cost

            tracer = Tracer()
            tracer.install()
            entry = tracer.wrap(ROOT, entry)
        t0 = time.perf_counter()
        rc = entry(cli_argv)
        result["verdict_s"] = time.perf_counter() - t0
        result["rc"] = rc
        if tracer is not None:
            result["spans"] = tracer.spans
            result["overhead_est_s"] = len(tracer.spans) * wrapper_cost()
    else:
        rc = 0
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
