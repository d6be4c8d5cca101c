"""One benchmark command in a fresh process.

    python3 child.py run <spdekit cli args>               # untraced
    python3 child.py trace <summary.json> <cli args>      # traced, summary to JSON
    python3 child.py context                              # versions and lane as JSON

The exit status is the one ``spdekit.cli.main`` returned.
"""

import json
import sys


def main(argv):
    mode = argv[0]
    if mode == "run":
        from spdekit.cli import main as cli_main

        return cli_main(argv[1:])
    if mode == "trace":
        import tracer as tracing
        from spdekit import cli

        tracer = tracing.Tracer()
        tracing.install(tracer)
        code = tracer.call("cli", "cli.main", cli.main, (argv[2:],), {})
        with open(argv[1], "w") as fh:
            json.dump({"exit": code, **tracer.summary()}, fh)
        return code
    if mode == "context":
        import numpy
        import spdekit

        print(json.dumps({
            "spdekit_file": spdekit.__file__,
            "numba_enabled": bool(spdekit.NUMBA_ENABLED),
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
        }))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
