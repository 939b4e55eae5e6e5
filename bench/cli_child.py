"""Run blscales.cli.main(argv) in a fresh interpreter, optionally traced.

    python3 bench/cli_child.py --t0 T [--trace FILE] -- ARGV...

T is the parent's time.monotonic() just before it started this process.
With --trace the child wraps the library's public functions, then writes its
spans and its phase times (interpreter start, import, main) to FILE as JSON.
The exit status is main's.
"""
import time

T_ENTER = time.monotonic()

import sys  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    sep = argv.index("--")
    opts, cli_argv = argv[:sep], argv[sep + 1 :]
    t0 = float(opts[opts.index("--t0") + 1])
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    t_import = time.monotonic()
    import blscales.cli

    t_imported = time.monotonic()
    if trace_path is None:
        return blscales.cli.main(cli_argv)

    import json

    from tracer import Tracer

    tracer = Tracer()
    t_main = time.monotonic()
    rc = tracer.record(0, lambda: blscales.cli.main(cli_argv))
    t_done = time.monotonic()
    phases = {
        "interpreter_s": T_ENTER - t0,
        "import_s": t_imported - t_import,
        "main_s": t_done - t_main,
        "exit_ok": float(rc == 0),
    }
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.dump(), "phases": phases}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
