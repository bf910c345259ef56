"""Start ``repro.cli serve``, optionally with the benchmark's layer spans.

    python perfbench/serve_launcher.py [--trace-out SPANS.json] serve --port 0 ...

Everything after the launcher's own option goes to the CLI unchanged, so
a traced and an untraced server run the same code in the same topology
(one subprocess).  With ``--trace-out`` the wrappers of ``trace.install``
are in place before the server starts, and the spans are written out when
``serve`` returns (after the wire ``shutdown`` op and the store's final
write-behind drain).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
