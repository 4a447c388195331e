"""A traced ``pilotplan`` CLI process, for simulate-cold's traced ops.

Usage: tracedcli.py SPANS_PATH|- CLI_ARGS...

Runs ``pilotplan.cli.main`` with the layer wrappers installed, as the
console script would run it, then prints the folded layer totals to stderr
as one line starting with ``TRACE``.  The CLI's own output goes to stdout
unchanged.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, install, write_spans

import pilotplan.cli


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = tracer.call("cli.main", pilotplan.cli.main, argv)
    sys.stdout.flush()
    spans = tracer.fold()
    if spans_out != "-":
        write_spans(spans_out, spans)
    main_ns = sum(end - start for layer, start, end, _, _ in spans if layer == "cli.main")
    print("TRACE " + json.dumps({"totals": tracer.totals, "main_ns": main_ns}),
          file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
