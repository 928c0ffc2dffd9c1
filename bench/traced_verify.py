"""Run the diraclab CLI under the outside-in tracer.

    PYTHONPATH=src python3 bench/traced_verify.py verify --scenario cover-m1

Standard output and the exit code are those of ``python -m diraclab.cli``
with the same arguments.  The spans and counters of the run go to standard
error as one JSON line that starts with ``tracer.TRACE_PREFIX``.
"""

import json
import sys

import tracer

import diraclab.cli


def main(argv) -> int:
    tr = tracer.Tracer("verify-cold")
    if "--scenario" in argv:
        tr.scenario = argv[argv.index("--scenario") + 1]
    tr.install()
    try:
        code = diraclab.cli.main(argv)
    finally:
        tr.uninstall()
    sys.stdout.flush()
    sys.stderr.write(tracer.TRACE_PREFIX + json.dumps(
        {"spans": tr.span_dicts(), "counts": dict(tr.counts)}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
