"""One workload sample: a fresh process that imports nol.cli and runs a list
of CLI commands in-process, one after another (single client, closed loop).

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds {"commands": [[label, argv], ...], "trace": bool}. RESULT gets the
import time, the wall time of the command list, each command's exit code and
time, the size of each report, ru_maxrss, and the spans when traced.
Only sys and time are imported before nol.cli, so the import time is what a
`nol` invocation pays.
"""

import sys
import time


def main():
    t0 = time.perf_counter()
    import nol.cli
    setup_s = time.perf_counter() - t0

    import json
    import os
    import resource
    import traceback

    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    commands = []
    wall_t0 = time.perf_counter()
    for label, argv in spec["commands"]:
        if tracer is not None:
            tracer.run = label
        c0 = time.perf_counter()
        error = None
        try:
            code = nol.cli.main(argv)
        except Exception:  # an escaping exception is a failed command, not a crash
            code, error = -1, traceback.format_exc()
        commands.append({"label": label, "code": code, "seconds": time.perf_counter() - c0,
                         "error": error})
    wall_s = time.perf_counter() - wall_t0

    for cmd, (_, argv) in zip(commands, spec["commands"]):
        path = argv[argv.index("--report") + 1]
        cmd["report_bytes"] = os.path.getsize(path) if os.path.exists(path) else 0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nol_file": nol.cli.__file__,
        "commands": commands,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
