"""Run one bunncalc CLI invocation in-process and report where its time went.

    PYTHONPATH=src python3 perfbench/cli_probe.py bundle "O(1/2)"

Times ``import bunncalc.cli``, ``build_parser()``, ``main(argv)`` and the
serialisers it calls, captures what the command would print, and writes one
JSON line in its place: exit code, stdout digest and size, and the timings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import bunncalc.cli as cli
    import bunncalc.serialize as ser
    import_ms = (perf_counter() - t0) * 1e3

    from spans import Tracer, rebind

    tracer = Tracer()
    serialized = [0]

    def count_bytes(_state, _args, out):
        if tracer.stack == [main_span]:
            serialized[0] += len(json.dumps(out, indent=2).encode())

    for name, fn in list(vars(ser).items()):
        if callable(fn) and getattr(fn, "__module__", None) == ser.__name__ and not name.startswith("_"):
            rebind(fn, tracer.wrap("serialize", fn, after=count_bytes))
    rebind(cli.build_parser, tracer.wrap("cli.build_parser", cli.build_parser))
    run = tracer.wrap("cli.main", cli.main)

    buf = io.StringIO()
    tracer.enabled = True
    tracer.request = 1
    main_span = 0
    with contextlib.redirect_stdout(buf):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    tracer.enabled = False

    self_ms, _ = tracer.summary()
    out = buf.getvalue().encode()
    print(json.dumps({
        "code": code,
        "stdout_sha": hashlib.sha256(out).hexdigest()[:16],
        "stdout_bytes": len(out),
        "import_ms": import_ms,
        "build_parser_ms": self_ms.get("cli.build_parser", 0.0),
        "main_self_ms": self_ms.get("cli.main", 0.0),
        "serialize_ms": self_ms.get("serialize", 0.0),
        "serialize_bytes": serialized[0],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
