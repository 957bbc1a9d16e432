"""One capped child process: build a workload's inputs, or run one command.

    python3 perfbench/child.py --cap-mb N [--trace-out F] setup WORKLOAD SEED DIR
    python3 perfbench/child.py --cap-mb N [--trace-out F] cli ARGS...

The address-space limit is set on this process before numpy is imported, so
a memory blow-up ends in a MemoryError here instead of in the machine's OOM
killer.  In `cli` mode the exit code and stdout are those of
`qgraph.cli.main`; an exception it does not catch ends the process with a
traceback and exit 1.  With --trace-out, the spans are written to F when
the work ends, also when it raised.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cap-mb", type=int, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("mode", choices=("setup", "cli"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)

    cap = opts.cap_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, SRC)

    import qgraph.cli

    tracer = None
    if opts.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        if opts.mode == "setup":
            import workloads

            name, seed, directory = opts.args
            w = workloads.make_workload(name, int(seed))
            files = workloads.build_inputs(w, int(seed), directory)
            with open(os.path.join(directory, "files.json"), "w") as fh:
                json.dump(files, fh)
            return 0
        return qgraph.cli.main(opts.args)
    finally:
        if tracer is not None:
            with open(opts.trace_out, "w") as fh:
                json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
