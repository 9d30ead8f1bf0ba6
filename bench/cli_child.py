"""The opcurve CLI, optionally with the layer wrappers installed.

    python3 bench/cli_child.py [--trace STATS_JSON] CLI_ARGS...

Behaves as ``python -m opcurve.cli CLI_ARGS...`` (same output, same exit
code).  With ``--trace``, the layer wrappers are installed around the
call and the time ``import opcurve.cli`` took and the traced layer
records are written to STATS_JSON.  Without it, the same entry point
runs the plain CLI, so traced and untraced wall times compare like with
like.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    stats_path = None
    if argv[:1] == ["--trace"]:
        stats_path, argv = argv[1], argv[2:]
    t0 = perf_counter()
    import opcurve.cli as cli
    import_s = perf_counter() - t0
    if stats_path is None:
        return cli.main(argv)
    from tracing import Tracer
    tracer = Tracer()
    with tracer:
        code = cli.main(argv)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "records": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
