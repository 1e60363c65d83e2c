"""One networked worker for the ``remote_loopback`` workload.

Runs :class:`repro.serve.client.ClientRunner` against the benchmark's
coordinator, exactly as ``repro client`` does.  With ``--spans PATH`` it
first installs the benchmark's tracing wrappers and writes its spans to
``PATH`` when the coordinator says goodbye.

    python3 perfbench/worker.py --port PORT --name NAME [--spans PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--name", required=True)
    parser.add_argument("--spans", default=None, help="trace this worker and write its spans here")
    args = parser.parse_args(argv)

    # repro.core first: importing repro.serve.client cold hits the
    # repro.engine.codecs <-> repro.core import cycle
    import repro.core  # noqa: F401
    from repro.serve.client import ClientRunner

    tracer = None
    if args.spans:
        from tracing import Tracer, install

        tracer = install(Tracer())
    runner = ClientRunner("127.0.0.1", args.port, args.name, backoff_base=0.05, quiet=True)
    try:
        return runner.run()
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
